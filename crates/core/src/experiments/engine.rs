//! The experiment engine: declarative scenario cells and the
//! deterministic parallel runner.
//!
//! Every experiment declares its sweep as a list of [`Cell`]s. A cell
//! is either one label plus one closure that builds, seeds, and runs
//! its own [`crate::machine::Machine`] and returns the row fragments it
//! contributes, or one label plus the [`RunSpec`]s it needs and a
//! render function that turns their reports into rows.
//!
//! The runner works in *units*: each closure cell is one unit, and so
//! is each distinct run spec of the selected experiments — a spec that
//! several cells declare (E9's benign runs are T1's benign column) is
//! simulated once and its report handed to every one of them. Units
//! share no state, so the engine may run them on any number of worker
//! threads: results land in slots indexed by declaration order, spec
//! cells render from them in declaration order, and each experiment's
//! `reduce` assembles its cells in that order, which makes the output
//! **byte-identical regardless of `--jobs`**.
//!
//! The runner degrades gracefully: a unit that returns `Err`, panics,
//! or blows through its step budget becomes a structured
//! [`CellFailure`] attached to every cell that needed it, while every
//! sibling cell completes normally. A suite run therefore always
//! produces a (possibly partial) [`SuiteReport`]; callers that need
//! hard failure semantics check [`SuiteReport::has_failures`].

use super::common::RunSpec;
use super::{ExpTable, Experiment};
use crate::metrics::SimReport;
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

/// Turns the reports of a spec cell's runs (in the order the cell
/// declared its specs) into the cell's rows. A panic here fails the
/// cell, as a panic in a closure cell's body does.
pub type Render = fn(&[RunSpec], &[&SimReport]) -> CellRows;

/// A closure cell's body.
type Closure = Box<dyn FnOnce() -> Result<CellRows> + Send>;

/// One point of an experiment's sweep.
pub struct Cell {
    label: String,
    work: Work,
}

enum Work {
    Closure(Closure),
    Runs { specs: Vec<RunSpec>, render: Render },
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
            work: Work::Closure(Box::new(run)),
        }
    }

    /// A cell that declares the runs it needs instead of building
    /// machines. The suite runner simulates each distinct spec once,
    /// whichever cells declare it, then calls `render` with this cell's
    /// specs and their reports.
    pub fn runs(label: impl Into<String>, specs: Vec<RunSpec>, render: Render) -> Cell {
        Cell {
            label: label.into(),
            work: Work::Runs { specs, render },
        }
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
    /// Budget of simulated machine cycles per unit of work (one
    /// closure cell, or one run that spec cells share). A unit whose
    /// machines advance past this budget is killed and recorded as a
    /// [`FailureKind::Timeout`] failure of every cell that needed it;
    /// `None` disables the watchdog. The budget counts machine cycles,
    /// not wall-clock time, so it is deterministic across hosts and
    /// worker counts.
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

    /// Arms the per-unit step-budget watchdog.
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
    /// `(remaining, total)` step budget of the unit currently running
    /// on this worker thread; `None` disarms the watchdog.
    static STEP_BUDGET: std::cell::Cell<Option<(u64, u64)>> =
        const { std::cell::Cell::new(None) };

    /// Tracer of the unit currently running on this worker thread. Set
    /// only by traced suite runs ([`run_suite_traced`]); machines whose
    /// config carries no explicit tracer inherit it.
    static CELL_TRACER: std::cell::RefCell<Option<Tracer>> =
        const { std::cell::RefCell::new(None) };
}

/// The ambient per-unit tracer, if a traced suite run is driving this
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

/// Charges simulated progress against the ambient unit's step budget;
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
/// engine's per-unit guard, exposed so nested runners (the fleet
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

/// A completed unit of work — one closure cell, or one run that spec
/// cells share — reported to the progress callback as workers finish
/// (completion order, not declaration order).
#[derive(Debug)]
pub struct CellProgress<'a> {
    /// Id of the experiment the unit belongs to: for a shared run, the
    /// first selected experiment that declares it.
    pub experiment: &'a str,
    /// The unit's label: a closure cell's label, or
    /// `<cell>/<scenario>` for a run, named after the first cell that
    /// declares it.
    pub label: &'a str,
    /// How many units have completed, this one included.
    pub completed: usize,
    /// Total units in the run.
    pub total: usize,
    /// Wall-clock time this unit took.
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

/// Runs the selected experiments on `opts.jobs` workers and reduces
/// each experiment's results in declaration order. Every distinct
/// [`RunSpec`] the selected spec cells declare is simulated once, and
/// its report is shared by every cell that declared it.
///
/// Tables come back in registry order and are byte-identical for any
/// worker count; only the progress callback observes scheduling. A
/// failed unit (error, panic, or watchdog timeout) never aborts the
/// run: each cell that needed it is recorded, under its own label, in
/// its experiment's [`ExpTable::failures`], and the experiment reduces
/// over its surviving cells.
pub fn run_suite(
    experiments: &[&dyn Experiment],
    opts: &RunOptions,
    progress: &(dyn Fn(&CellProgress<'_>) + Sync),
) -> Result<SuiteReport> {
    run_suite_impl(experiments, opts, progress, false).map(|(report, _)| report)
}

/// Like [`run_suite`], but records a cycle-stamped event trace of every
/// machine the units build (via the ambient per-unit tracer) and
/// returns it alongside the report.
///
/// Each unit records into its own buffer; buffers are concatenated in
/// unit **declaration** order, so — like the tables — the returned
/// trace is byte-identical for any worker count. A run that several
/// cells share appears once, where its first declaring cell puts it.
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

/// What one unit of work runs.
enum Unit {
    Cell(Closure),
    Run(RunSpec),
}

/// What one unit of work produced.
enum Output {
    Rows(CellRows),
    Report(Box<SimReport>),
}

impl Unit {
    fn run(self) -> Result<Output> {
        match self {
            Unit::Cell(f) => f().map(Output::Rows),
            Unit::Run(spec) => spec.run().map(|r| Output::Report(Box::new(r))),
        }
    }
}

/// How a declared cell collects its result once every unit is done.
enum Plan {
    /// A closure cell that ran as this unit.
    Closure(usize),
    /// A spec cell, and the unit that ran each of its specs.
    Runs {
        label: String,
        specs: Vec<RunSpec>,
        render: Render,
        units: Vec<usize>,
    },
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

    // Flatten every experiment's cells into one global work list of
    // units, one per closure cell and one per distinct run spec (found
    // by equality, in declaration order); `plans[i]` says how each
    // cell of experiment i reads its result back.
    let ctx = opts.ctx();
    let mut queue: Vec<Mutex<Option<Unit>>> = Vec::new();
    // Per unit: the experiment it is attributed to, and its label.
    let mut owners: Vec<(usize, String)> = Vec::new();
    let mut runs: Vec<(RunSpec, usize)> = Vec::new();
    let mut plans: Vec<Vec<Plan>> = Vec::with_capacity(selected.len());
    for (ei, exp) in selected.iter().enumerate() {
        let mut cells = Vec::new();
        for Cell { label, work } in exp.cells(&ctx) {
            match work {
                Work::Closure(f) => {
                    cells.push(Plan::Closure(queue.len()));
                    queue.push(Mutex::new(Some(Unit::Cell(f))));
                    owners.push((ei, label));
                }
                Work::Runs { specs, render } => {
                    let units = specs
                        .iter()
                        .map(|spec| match runs.iter().find(|(s, _)| s == spec) {
                            Some(&(_, unit)) => unit,
                            None => {
                                let unit = queue.len();
                                runs.push((*spec, unit));
                                queue.push(Mutex::new(Some(Unit::Run(*spec))));
                                owners.push((ei, format!("{label}/{}", spec.scenario)));
                                unit
                            }
                        })
                        .collect();
                    cells.push(Plan::Runs {
                        label,
                        specs,
                        render,
                        units,
                    });
                }
            }
        }
        plans.push(cells);
    }
    let total = queue.len();
    let results: Vec<Mutex<Option<std::result::Result<Output, CellFailure>>>> =
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
                    // Stay alive until every unit is done. With glibc's
                    // malloc an exiting thread hands its arena to the
                    // next thread spawned, so a fleet thread started by
                    // a cell still running on another worker would
                    // build its machines in fresh memory instead of the
                    // memory the previous fleet freed, and the suite's
                    // peak memory would depend on which worker ran out
                    // of units first. A worker whose progress callback
                    // panicked has already counted its unit, so this
                    // never waits on a dead worker.
                    while done.load(Ordering::Acquire) < total {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    break;
                }
                let unit = queue[slot]
                    .lock()
                    .expect("unit queue poisoned")
                    .take()
                    .expect("each slot is claimed exactly once");
                let (ei, label) = &owners[slot];
                let started = Instant::now();
                // Each traced unit gets a private buffer; the ambient
                // tracer is cleared even when the unit panics
                // (run_budgeted contains the unwind), so a failed
                // unit's tracer never leaks into the next unit on
                // this worker.
                let unit_tracer = traced.then(Tracer::buffer);
                set_ambient_tracer(unit_tracer.clone());
                let out = run_budgeted(label, opts.step_budget, || unit.run());
                if let Some(tracer) = unit_tracer {
                    set_ambient_tracer(None);
                    *traces[slot].lock().expect("trace slot poisoned") = tracer.take_records();
                }
                *results[slot].lock().expect("result slot poisoned") = Some(out);
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress(&CellProgress {
                    experiment: selected[*ei].id(),
                    label,
                    completed,
                    total,
                    elapsed: started.elapsed(),
                });
            });
        }
    });

    let mut outputs: Vec<Option<std::result::Result<Output, CellFailure>>> = results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect();
    let mut tables = Vec::with_capacity(selected.len());
    for (exp, cells) in selected.iter().zip(plans) {
        let mut rows = Vec::with_capacity(cells.len());
        let mut failures = Vec::new();
        for plan in cells {
            match plan {
                Plan::Closure(unit) => match outputs[unit].take().expect("every unit ran") {
                    Ok(Output::Rows(r)) => rows.push(r),
                    Ok(Output::Report(_)) => unreachable!("a closure cell yields rows"),
                    Err(f) => failures.push(f),
                },
                Plan::Runs {
                    label,
                    specs,
                    render,
                    units,
                } => {
                    let mut reports: Vec<&SimReport> = Vec::with_capacity(units.len());
                    for &unit in &units {
                        match outputs[unit].as_ref().expect("every unit ran") {
                            Ok(Output::Report(r)) => reports.push(r),
                            Ok(Output::Rows(_)) => unreachable!("a run yields a report"),
                            Err(f) => {
                                // The cell fails under its own label; the
                                // message names the run that failed.
                                let run = selected[owners[unit].0].id();
                                failures.push(CellFailure {
                                    label: label.clone(),
                                    kind: f.kind,
                                    message: format!("{run}/{}: {}", f.label, f.message),
                                    progress: f.progress,
                                });
                                break;
                            }
                        }
                    }
                    if reports.len() == units.len() {
                        match run_budgeted(&label, None, || Ok(render(&specs, &reports))) {
                            Ok(r) => rows.push(r),
                            Err(f) => failures.push(f),
                        }
                    }
                }
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
