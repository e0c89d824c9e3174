//! The experiment engine: declarative scenario cells and the
//! deterministic parallel runner.
//!
//! Every experiment declares its sweep as a list of [`Cell`]s — one
//! label plus one closure that builds, seeds, and runs its own
//! [`crate::machine::Machine`] and returns the row fragments it
//! contributes. Cells share no state, so the engine may run them on
//! any number of worker threads: results land in slots indexed by
//! declaration order and each experiment's `reduce` assembles them in
//! that order, which makes the output **byte-identical regardless of
//! `--jobs`**.
//!
//! The runner degrades gracefully: a cell that returns `Err`, panics,
//! or blows through its step budget becomes a structured
//! [`CellFailure`] attached to its experiment's table while every
//! sibling cell completes normally. A suite run therefore always
//! produces a (possibly partial) [`SuiteReport`]; callers that need
//! hard failure semantics check [`SuiteReport::has_failures`].

use super::{ExpTable, Experiment};
use hammertime_common::{FaultPlan, Result};
use hammertime_telemetry::{TraceRecord, Tracer};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The row fragments one cell contributes to its experiment's table.
pub type CellRows = Vec<Vec<String>>;

/// Per-run context handed to every experiment's cell builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellCtx {
    /// Quick scale (shrunk access counts, for tests).
    pub quick: bool,
    /// Machine-wide fault plan: experiments thread it into every
    /// machine they build (`None` = healthy hardware). F3 ignores it
    /// and sweeps its own canonical plan, so a degraded-hardware run
    /// still reports against the fixed F3 baseline.
    pub faults: Option<FaultPlan>,
}

impl CellCtx {
    /// Context at the given scale, healthy hardware.
    pub fn new(quick: bool) -> CellCtx {
        CellCtx {
            quick,
            faults: None,
        }
    }
}

/// One independently runnable unit of an experiment's sweep.
pub struct Cell {
    label: String,
    run: Box<dyn FnOnce() -> Result<CellRows> + Send>,
}

impl Cell {
    /// Wraps a closure as a cell. The closure must be self-contained:
    /// it builds and seeds its own machine, so cells can run on any
    /// worker in any order.
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Result<CellRows> + Send + 'static,
    ) -> Cell {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The cell's display label (used for progress lines).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Consumes the cell and produces its rows. Only the suite runner
    /// calls this, inside [`run_budgeted`]'s guard.
    fn run(self) -> Result<CellRows> {
        (self.run)()
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell").field("label", &self.label).finish()
    }
}

/// Why a cell failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The cell returned `Err`.
    Error,
    /// The cell (or a substrate under it) panicked.
    Panic,
    /// The step-budget watchdog killed a runaway cell.
    Timeout,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        })
    }
}

/// How far a failed fleet machine got before it died, so a timeout or
/// error is attributed to a point in simulated time instead of
/// discarding all progress information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureProgress {
    /// Fleet epochs this machine fully committed before failing.
    pub epochs_done: u32,
    /// Simulated machine cycle at the failure point.
    pub cycle: u64,
}

/// A structured record of one failed cell: the suite keeps running and
/// the failure rides along in the owning experiment's table instead of
/// aborting the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// The failing cell's label.
    pub label: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable cause (error text, panic message, or the
    /// exhausted budget).
    pub message: String,
    /// Last committed progress, when the runner tracks it. The engine
    /// itself sets `None` (suite cells have no epoch structure); the
    /// fleet layer annotates its per-machine failures.
    pub progress: Option<FailureProgress>,
}

/// How a suite run is scaled, parallelized, filtered, and guarded.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Quick scale (shrunk access counts, for tests).
    pub quick: bool,
    /// Worker threads pulling cells (1 = serial).
    pub jobs: usize,
    /// If set, only experiments whose id matches (case-insensitive).
    pub filter: Option<Vec<String>>,
    /// Machine-wide fault plan handed to every cell via
    /// [`CellCtx::faults`] (`None` = healthy hardware).
    pub faults: Option<FaultPlan>,
    /// Per-cell budget of simulated machine cycles. A cell whose
    /// machines advance past this budget is killed and recorded as a
    /// [`FailureKind::Timeout`] failure; `None` disables the watchdog.
    /// The budget counts machine cycles, not wall-clock time, so it is
    /// deterministic across hosts and worker counts.
    pub step_budget: Option<u64>,
}

impl RunOptions {
    /// Serial, unfiltered, unguarded run at the given scale.
    pub fn new(quick: bool) -> RunOptions {
        RunOptions {
            quick,
            jobs: 1,
            filter: None,
            faults: None,
            step_budget: None,
        }
    }

    /// Sets the worker count.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> RunOptions {
        self.jobs = jobs.max(1);
        self
    }

    /// Restricts the run to the given experiment ids.
    #[must_use]
    pub fn filter<S: Into<String>>(mut self, ids: impl IntoIterator<Item = S>) -> RunOptions {
        self.filter = Some(ids.into_iter().map(Into::into).collect());
        self
    }

    /// Injects a machine-wide fault plan into every cell.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> RunOptions {
        self.faults = Some(plan);
        self
    }

    /// Arms the per-cell step-budget watchdog.
    #[must_use]
    pub fn step_budget(mut self, cycles: u64) -> RunOptions {
        self.step_budget = Some(cycles);
        self
    }

    fn selects(&self, id: &str) -> bool {
        match &self.filter {
            None => true,
            Some(ids) => ids.iter().any(|f| f.eq_ignore_ascii_case(id)),
        }
    }

    fn ctx(&self) -> CellCtx {
        CellCtx {
            quick: self.quick,
            faults: self.faults,
        }
    }
}

thread_local! {
    /// `(remaining, total)` step budget of the cell currently running
    /// on this worker thread; `None` disarms the watchdog.
    static STEP_BUDGET: std::cell::Cell<Option<(u64, u64)>> =
        const { std::cell::Cell::new(None) };

    /// Per-cell tracer of the cell currently running on this worker
    /// thread. Set only by traced suite runs ([`run_suite_traced`]);
    /// machines whose config carries no explicit tracer inherit it.
    static CELL_TRACER: std::cell::RefCell<Option<Tracer>> =
        const { std::cell::RefCell::new(None) };
}

/// The ambient per-cell tracer, if a traced suite run is driving this
/// thread. Consulted by [`crate::machine::Machine::new`] when the
/// machine config has no explicit tracer; `None` (the usual case)
/// keeps the machine untraced.
pub(crate) fn ambient_tracer() -> Option<Tracer> {
    CELL_TRACER.with(|t| t.borrow().clone())
}

fn set_ambient_tracer(tracer: Option<Tracer>) {
    CELL_TRACER.with(|t| *t.borrow_mut() = tracer);
}

/// Panic payload distinguishing a watchdog kill from a genuine panic.
struct StepBudgetExceeded {
    budget: u64,
}

/// An RAII step-budget scope: arms the calling thread's watchdog and,
/// on drop, restores whatever budget was armed before — so scopes
/// nest. A fleet worker driving many machines under one suite cell
/// arms a fresh scope per machine: each machine is charged against its
/// own budget, an exhausted machine never eats a sibling's remaining
/// cycles, and the enclosing cell's budget (if any) is intact once the
/// worker's scopes unwind.
///
/// The previous implementation armed the thread-local directly and
/// cleared it afterwards, which silently disarmed an outer budget when
/// runs nested; the save/restore here is the fix.
pub struct StepBudgetScope {
    saved: Option<(u64, u64)>,
}

impl StepBudgetScope {
    /// Arms a fresh budget of `cycles` simulated machine cycles
    /// (`None` disarms the watchdog inside the scope). The caller's
    /// budget is saved and restored when the scope drops — including
    /// during a panic unwind.
    pub fn arm(cycles: Option<u64>) -> StepBudgetScope {
        let saved = STEP_BUDGET.with(|b| b.replace(cycles.map(|n| (n, n))));
        StepBudgetScope { saved }
    }
}

impl Drop for StepBudgetScope {
    fn drop(&mut self) {
        STEP_BUDGET.with(|b| b.set(self.saved));
    }
}

/// The calling thread's remaining step budget in simulated machine
/// cycles, or `None` when no budget is armed. The budget is
/// thread-local, so a cell that hands simulation to threads of its own
/// (FL1's fleet shards) passes this value on explicitly.
pub fn remaining_step_budget() -> Option<u64> {
    STEP_BUDGET.with(|b| b.get().map(|(remaining, _)| remaining))
}

/// Charges simulated progress against the ambient cell's step budget;
/// a no-op outside a budgeted suite run. Called from the machine's
/// step loop with *exact simulated-cycle deltas* (the caller supplies
/// its own stall guard), so a budget of N machine cycles means the
/// same simulated span on every run of the identical cell.
pub(crate) fn charge_step_budget(cycles: u64) {
    STEP_BUDGET.with(|b| {
        let Some((remaining, total)) = b.get() else {
            return;
        };
        match remaining.checked_sub(cycles) {
            Some(left) => b.set(Some((left, total))),
            None => {
                b.set(None);
                std::panic::panic_any(StepBudgetExceeded { budget: total });
            }
        }
    });
}

/// Runs `f` under its own step-budget scope and panic boundary,
/// converting every failure mode — `Err`, panic, or watchdog kill —
/// into a structured [`CellFailure`] labelled `label`. This is the
/// engine's per-cell guard, exposed so nested runners (the fleet
/// layer's per-machine loop) get identical failure semantics: the
/// caller's own budget is untouched, and a failure here never unwinds
/// past this function.
///
/// `budget: Some(n)` arms a fresh scope of `n` cycles for `f` alone;
/// `None` arms nothing, so `f`'s simulated progress keeps charging
/// whatever budget the *caller* is running under (an enclosing suite
/// cell's, usually) — inheritance, not a blanket disarm.
pub fn run_budgeted<T>(
    label: &str,
    budget: Option<u64>,
    f: impl FnOnce() -> Result<T>,
) -> std::result::Result<T, CellFailure> {
    let out = {
        let _scope = budget.map(|n| StepBudgetScope::arm(Some(n)));
        catch_unwind(AssertUnwindSafe(f))
    };
    match out {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(CellFailure {
            label: label.to_string(),
            kind: FailureKind::Error,
            message: e.to_string(),
            progress: None,
        }),
        Err(payload) => {
            let (kind, message) = if let Some(t) = payload.downcast_ref::<StepBudgetExceeded>() {
                (
                    FailureKind::Timeout,
                    format!("exceeded the step budget of {} machine cycles", t.budget),
                )
            } else if let Some(s) = payload.downcast_ref::<&'static str>() {
                (FailureKind::Panic, (*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                (FailureKind::Panic, s.clone())
            } else {
                (FailureKind::Panic, "non-string panic payload".to_string())
            };
            Err(CellFailure {
                label: label.to_string(),
                kind,
                message,
                progress: None,
            })
        }
    }
}

/// Runs one cell under the watchdog and the panic boundary.
fn run_guarded(cell: Cell, budget: Option<u64>) -> std::result::Result<CellRows, CellFailure> {
    let label = cell.label.clone();
    run_budgeted(&label, budget, move || cell.run())
}

/// A completed cell, reported to the progress callback as workers
/// finish (completion order, not declaration order).
#[derive(Debug)]
pub struct CellProgress<'a> {
    /// Id of the experiment the cell belongs to.
    pub experiment: &'a str,
    /// The cell's label.
    pub label: &'a str,
    /// How many cells have completed, this one included.
    pub completed: usize,
    /// Total cells in the run.
    pub total: usize,
    /// Wall-clock time this cell took.
    pub elapsed: Duration,
}

/// Progress callback that reports nothing.
pub fn silent(_: &CellProgress<'_>) {}

/// Everything a suite run produced: one table per selected experiment,
/// in canonical registry order, each carrying the structured failures
/// of any cell that did not complete.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteReport {
    /// The rendered tables, in canonical registry order.
    pub tables: Vec<ExpTable>,
}

impl SuiteReport {
    /// Every failure across the suite, paired with its experiment id.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &CellFailure)> {
        self.tables
            .iter()
            .flat_map(|t| t.failures.iter().map(move |f| (t.id.as_str(), f)))
    }

    /// `true` when at least one cell failed.
    pub fn has_failures(&self) -> bool {
        self.tables.iter().any(|t| !t.failures.is_empty())
    }
}

/// Runs the selected experiments' cells on `opts.jobs` workers and
/// reduces each experiment's results in declaration order.
///
/// Tables come back in registry order and are byte-identical for any
/// worker count; only the progress callback observes scheduling. A
/// failed cell (error, panic, or watchdog timeout) never aborts the
/// run: its experiment reduces over the surviving cells and records
/// the failure in [`ExpTable::failures`].
pub fn run_suite(
    experiments: &[&dyn Experiment],
    opts: &RunOptions,
    progress: &(dyn Fn(&CellProgress<'_>) + Sync),
) -> Result<SuiteReport> {
    run_suite_impl(experiments, opts, progress, false).map(|(report, _)| report)
}

/// Like [`run_suite`], but records a cycle-stamped event trace of every
/// machine the cells build (via the ambient per-cell tracer) and
/// returns it alongside the report.
///
/// Each cell records into its own buffer; buffers are concatenated in
/// cell **declaration** order, so — like the tables — the returned
/// trace is byte-identical for any worker count.
///
/// # Errors
///
/// Same as [`run_suite`].
pub fn run_suite_traced(
    experiments: &[&dyn Experiment],
    opts: &RunOptions,
    progress: &(dyn Fn(&CellProgress<'_>) + Sync),
) -> Result<(SuiteReport, Vec<TraceRecord>)> {
    run_suite_impl(experiments, opts, progress, true)
}

fn run_suite_impl(
    experiments: &[&dyn Experiment],
    opts: &RunOptions,
    progress: &(dyn Fn(&CellProgress<'_>) + Sync),
    traced: bool,
) -> Result<(SuiteReport, Vec<TraceRecord>)> {
    let selected: Vec<&dyn Experiment> = experiments
        .iter()
        .copied()
        .filter(|e| opts.selects(e.id()))
        .collect();

    // Flatten every experiment's cells into one global work list;
    // `spans[i]` is the slot range belonging to experiment i.
    let ctx = opts.ctx();
    let mut queue: Vec<Mutex<Option<(usize, Cell)>>> = Vec::new();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::new();
    for (ei, exp) in selected.iter().enumerate() {
        let start = queue.len();
        for cell in exp.cells(&ctx) {
            queue.push(Mutex::new(Some((ei, cell))));
        }
        spans.push(start..queue.len());
    }
    let total = queue.len();
    let results: Vec<Mutex<Option<std::result::Result<CellRows, CellFailure>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let traces: Vec<Mutex<Vec<TraceRecord>>> = (0..total).map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);

    let workers = opts.jobs.clamp(1, total.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                if slot >= total {
                    // Stay alive until every cell is done. With glibc's
                    // malloc an exiting thread hands its arena to the
                    // next thread spawned, so a fleet thread started by
                    // a cell still running on another worker would
                    // build its machines in fresh memory instead of the
                    // memory the previous fleet freed, and the suite's
                    // peak memory would depend on which worker ran out
                    // of cells first. A worker whose progress callback
                    // panicked has already counted its cell, so this
                    // never waits on a dead worker.
                    while done.load(Ordering::Acquire) < total {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    break;
                }
                let (ei, cell) = queue[slot]
                    .lock()
                    .expect("cell queue poisoned")
                    .take()
                    .expect("each slot is claimed exactly once");
                let label = cell.label.clone();
                let started = Instant::now();
                // Each traced cell gets a private buffer; the ambient
                // tracer is cleared even when the cell panics
                // (run_guarded contains the unwind), so a failed
                // cell's tracer never leaks into the next cell on
                // this worker.
                let cell_tracer = traced.then(Tracer::buffer);
                set_ambient_tracer(cell_tracer.clone());
                let out = run_guarded(cell, opts.step_budget);
                if let Some(tracer) = cell_tracer {
                    set_ambient_tracer(None);
                    *traces[slot].lock().expect("trace slot poisoned") = tracer.take_records();
                }
                *results[slot].lock().expect("result slot poisoned") = Some(out);
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress(&CellProgress {
                    experiment: selected[ei].id(),
                    label: &label,
                    completed,
                    total,
                    elapsed: started.elapsed(),
                });
            });
        }
    });

    let mut tables = Vec::with_capacity(selected.len());
    for (exp, span) in selected.iter().zip(spans) {
        let mut rows = Vec::with_capacity(span.len());
        let mut failures = Vec::new();
        for slot in span {
            let out = results[slot]
                .lock()
                .expect("result slot poisoned")
                .take()
                .expect("every slot was filled");
            match out {
                Ok(r) => rows.push(r),
                Err(f) => failures.push(f),
            }
        }
        let mut table = exp.reduce(opts.quick, rows)?;
        table.failures = failures;
        tables.push(table);
    }
    // Declaration-order concatenation: the trace, like the tables, is
    // independent of worker count and scheduling.
    let trace = traces
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("trace slot poisoned"))
        .collect();
    Ok((SuiteReport { tables }, trace))
}
