//! The experiment engine's core guarantees: parallel runs are
//! byte-identical to serial runs, the registry covers every documented
//! experiment, and a misbehaving cell degrades into a structured
//! failure instead of taking the suite down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use hammertime::experiments::{
    registry, run_all_with, run_suite, silent, Cell, CellCtx, CellProgress, CellRows, Experiment,
    FailureKind, RunOptions, RunSpec, Scenario,
};
use hammertime::machine::{Machine, MachineConfig};
use hammertime::metrics::SimReport;
use hammertime::taxonomy::DefenseKind;
use hammertime_common::{Error, FaultPlan};

/// Worker count must not leak into results: cells land in
/// declaration-order slots, so an 8-worker run serializes to exactly
/// the bytes of a serial run.
#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let ids = ["F1", "E3", "E6", "E10"]; // cheap representative subset
    let serial = run_all_with(&RunOptions::new(true).jobs(1).filter(ids)).unwrap();
    let parallel = run_all_with(&RunOptions::new(true).jobs(8).filter(ids)).unwrap();
    let a = serde_json::to_string(&serial).unwrap();
    let b = serde_json::to_string(&parallel).unwrap();
    assert_eq!(a, b, "jobs=8 output diverged from jobs=1");
}

/// Every core-registry experiment must be documented in
/// EXPERIMENTS.md. (The converse — every documented id resolves in
/// a registry — is checked against the *combined* core + fleet
/// registry by the fleet crate's suite, which is the only layer that
/// can see every experiment.)
#[test]
fn registry_matches_experiments_md() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md is readable");
    let documented: Vec<&str> = md
        .lines()
        .filter_map(|l| l.strip_prefix("== ")?.split_whitespace().next())
        .collect();
    assert!(!documented.is_empty(), "no table headers found");
    let registered: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    for id in &registered {
        assert!(
            documented.contains(id),
            "registry has {id} but EXPERIMENTS.md does not document it"
        );
    }
}

/// A filter naming no real experiment yields no tables (rather than
/// erroring or running everything).
#[test]
fn unknown_filter_selects_nothing() {
    let report = run_all_with(&RunOptions::new(true).filter(["Z9"])).unwrap();
    assert!(report.tables.is_empty());
}

/// An all-zero fault plan must be indistinguishable from no plan at
/// all: the fault hooks draw nothing from the RNG streams when every
/// rate is zero, so the suite output is byte-identical. Runs a cheap
/// representative subset spanning the machine path (E3), the raw
/// controller path (F1), and the fault sweep itself (F3).
#[test]
fn inert_fault_plan_is_byte_identical_to_none() {
    let ids = ["F1", "E3", "F3"];
    let plan = FaultPlan::none();
    assert!(plan.is_inert());
    let healthy = run_all_with(&RunOptions::new(true).filter(ids)).unwrap();
    let inert = run_all_with(&RunOptions::new(true).filter(ids).with_faults(plan)).unwrap();
    let a = serde_json::to_string(&healthy).unwrap();
    let b = serde_json::to_string(&inert).unwrap();
    assert_eq!(a, b, "an inert fault plan changed suite output");
}

/// A non-trivial plan + seed is fully deterministic: two runs agree,
/// and the worker count does not leak into faulty runs either.
#[test]
fn fault_plan_runs_are_deterministic_across_jobs() {
    let ids = ["E3", "F3"];
    let mut plan = FaultPlan::none();
    plan.seed = 0xC0FFEE;
    plan.dropped_ref = 0.05;
    plan.trr_miss = 0.3;
    plan.dropped_interrupt = 0.2;
    plan.refresh_nack = 0.05;
    let opts = |jobs| {
        RunOptions::new(true)
            .jobs(jobs)
            .filter(ids)
            .with_faults(plan)
    };
    let serial = run_all_with(&opts(1)).unwrap();
    let parallel = run_all_with(&opts(8)).unwrap();
    let again = run_all_with(&opts(1)).unwrap();
    let a = serde_json::to_string(&serial).unwrap();
    let b = serde_json::to_string(&parallel).unwrap();
    let c = serde_json::to_string(&again).unwrap();
    assert_eq!(a, b, "jobs=8 diverged from jobs=1 under a fault plan");
    assert_eq!(a, c, "two identical faulty runs diverged");
}

/// A synthetic experiment with one healthy cell and three misbehaving
/// ones: an `Err` return, a panic, and an infinite loop. The engine
/// must convert each failure into a structured record, let the healthy
/// sibling complete, and classify the kinds correctly.
struct ChaosExp;

impl Experiment for ChaosExp {
    fn id(&self) -> &'static str {
        "CHAOS"
    }

    fn title(&self) -> &'static str {
        "engine failure-semantics fixture"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["cell", "status"]
    }

    fn cells(&self, _ctx: &CellCtx) -> Vec<Cell> {
        vec![
            Cell::new("ok", || {
                Ok(vec![vec!["ok".to_string(), "done".to_string()]])
            }),
            Cell::new("errors", || {
                Err(Error::Config("deliberately broken cell".into()))
            }),
            Cell::new("panics", || -> hammertime_common::Result<CellRows> {
                panic!("boom");
            }),
            Cell::new("runs-away", || {
                let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 24))?;
                // No tenants, no workloads: this advances simulated
                // time forever. Only the step-budget watchdog stops it.
                loop {
                    m.run(1_000_000);
                }
            }),
        ]
    }
}

#[test]
fn misbehaving_cells_become_structured_failures() {
    // The panicking cells print the default panic-hook message to
    // stderr; that noise is expected and harmless.
    let opts = RunOptions::new(true).jobs(2).step_budget(50_000_000);
    let report = run_suite(&[&ChaosExp], &opts, &silent).unwrap();
    assert_eq!(report.tables.len(), 1);
    let t = &report.tables[0];
    // The healthy sibling completed and its row survived.
    assert_eq!(t.rows, vec![vec!["ok".to_string(), "done".to_string()]]);
    // All three misbehaving cells are recorded, in declaration order.
    let kinds: Vec<(&str, FailureKind)> = t
        .failures
        .iter()
        .map(|f| (f.label.as_str(), f.kind))
        .collect();
    assert_eq!(
        kinds,
        vec![
            ("errors", FailureKind::Error),
            ("panics", FailureKind::Panic),
            ("runs-away", FailureKind::Timeout),
        ]
    );
    assert!(t.failures[0].message.contains("deliberately broken"));
    assert!(t.failures[1].message.contains("boom"));
    assert!(t.failures[2].message.contains("step budget"));
    assert!(report.has_failures());
    // The rendered table marks the failures.
    let shown = t.to_string();
    assert!(shown.contains("!! 3 cell(s) failed:"), "{shown}");
    assert!(shown.contains("runs-away [timeout]"), "{shown}");
}

/// Four cells that finish at once, so every worker of a small pool
/// gets some.
struct InstantExp;

impl Experiment for InstantExp {
    fn id(&self) -> &'static str {
        "INSTANT"
    }

    fn title(&self) -> &'static str {
        "engine shutdown fixture"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["cell"]
    }

    fn cells(&self, _ctx: &CellCtx) -> Vec<Cell> {
        (0..4)
            .map(|i| Cell::new(format!("c{i}"), move || Ok(vec![vec![i.to_string()]])))
            .collect()
    }
}

/// A worker that runs out of cells waits until every cell is done
/// before it exits. A sibling whose progress callback panicked must
/// not leave it waiting forever: the panic reaches the caller.
#[test]
fn panicking_progress_callback_reaches_the_caller() {
    let fired = AtomicBool::new(false);
    let progress = |_: &CellProgress<'_>| {
        if !fired.swap(true, Ordering::SeqCst) {
            panic!("progress callback failed");
        }
    };
    let opts = RunOptions::new(true).jobs(2);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_suite(&[&InstantExp], &opts, &progress)
    }));
    assert!(outcome.is_err(), "the callback's panic must propagate");
}

/// Without a step budget the engine must not arm any watchdog: a
/// normal quick cell completes untouched even after a prior budgeted
/// run on the same thread pool.
#[test]
fn step_budget_does_not_leak_between_runs() {
    let budgeted = RunOptions::new(true).filter(["E6"]).step_budget(1);
    // E6 is pure arithmetic: it never steps a machine, so even a
    // budget of 1 cycle cannot fire.
    let r1 = run_all_with(&budgeted).unwrap();
    assert!(
        !r1.has_failures(),
        "{:?}",
        r1.failures().collect::<Vec<_>>()
    );
    let r2 = run_all_with(&RunOptions::new(true).filter(["F1"])).unwrap();
    assert!(!r2.has_failures());
}

/// Fixture for the budget test: one cell that hammers forever.
struct RunawayExp;

/// Simulated-time waypoints the runaway cell reached before the budget
/// fired (appended once per outer `run` call).
static PROGRESS: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

impl Experiment for RunawayExp {
    fn id(&self) -> &'static str {
        "RUNAWAY"
    }

    fn title(&self) -> &'static str {
        "step-budget runaway fixture"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["cell", "status"]
    }

    fn cells(&self, _ctx: &CellCtx) -> Vec<Cell> {
        vec![Cell::new("runs-away", || {
            let mut m = Machine::new(MachineConfig::fast(DefenseKind::None, 1_000_000))?;
            let d = hammertime_common::DomainId(1);
            let arena = m.add_tenant(d, 4)?;
            m.set_workload(
                d,
                Box::new(hammertime_workloads::StreamWorkload::new(
                    arena,
                    u64::MAX / 2,
                    0,
                )),
            )?;
            loop {
                m.run(100_000);
                PROGRESS.lock().unwrap().push(m.now().raw());
            }
        })]
    }
}

/// The step budget is charged in *simulated cycles*, so the identical
/// cell exhausts the identical budget at the identical point on every
/// run: a runaway cell times out after making progress, and two runs
/// stop at the same waypoints with the same message.
#[test]
fn step_budget_truncates_identically_on_both_scheduler_paths() {
    let opts = RunOptions::new(true).jobs(1).step_budget(2_000_000);
    let mut traces: Vec<Vec<u64>> = Vec::new();
    let mut messages: Vec<String> = Vec::new();
    for _ in 0..2 {
        PROGRESS.lock().unwrap().clear();
        let report = run_suite(&[&RunawayExp], &opts, &silent).unwrap();
        let t = &report.tables[0];
        assert_eq!(t.failures.len(), 1, "runaway cell must fail");
        assert_eq!(t.failures[0].kind, FailureKind::Timeout);
        messages.push(t.failures[0].message.clone());
        traces.push(std::mem::take(&mut *PROGRESS.lock().unwrap()));
    }
    assert_eq!(
        traces[0], traces[1],
        "budget fired at different simulated waypoints on two runs"
    );
    assert!(
        !traces[0].is_empty(),
        "the cell must make progress before the budget fires"
    );
    assert_eq!(messages[0], messages[1]);
}

/// E9's 19 benign runs are T1's benign column: run together, the two
/// experiments simulate T1's 76 runs once each, and E9 renders from
/// them exactly the table it renders alone.
#[test]
fn shared_runs_render_e9_as_it_runs_alone() {
    let units = AtomicUsize::new(0);
    let total = AtomicUsize::new(0);
    let progress = |p: &CellProgress<'_>| {
        units.fetch_add(1, Ordering::Relaxed);
        total.store(p.total, Ordering::Relaxed);
    };
    let together = run_suite(
        &registry(),
        &RunOptions::new(true).jobs(2).filter(["T1", "E9"]),
        &progress,
    )
    .unwrap();
    assert!(!together.has_failures());
    assert_eq!(
        units.into_inner(),
        76,
        "T1 + E9 declare 95 runs, 76 distinct"
    );
    assert_eq!(total.into_inner(), 76);
    let alone = run_all_with(&RunOptions::new(true).filter(["E9"])).unwrap();
    assert_eq!(together.tables[1].id, "E9");
    assert_eq!(
        together.tables[1].to_string(),
        alone.tables[0].to_string(),
        "E9 rendered from T1's runs differs from E9 run alone"
    );
}

/// A healthy quick run on an undefended machine. Both sharing fixtures
/// declare it (and a 1,000-cycle budget kills it); the render fixture
/// renders it twice.
fn quick_run() -> RunSpec {
    RunSpec {
        defense: DefenseKind::None,
        faults: None,
        quick: true,
        scenario: Scenario::DoubleSided,
    }
}

fn flips_row(specs: &[RunSpec], r: &[&SimReport]) -> CellRows {
    vec![vec![
        specs[0].defense.name().to_string(),
        r[0].flips_total.to_string(),
    ]]
}

/// One of two experiments that declare the same failing run next to a
/// closure cell that succeeds.
struct SharingExp {
    id: &'static str,
    doomed: &'static str,
}

static SHARING_A: SharingExp = SharingExp {
    id: "SHARE-A",
    doomed: "doomed-a",
};
static SHARING_B: SharingExp = SharingExp {
    id: "SHARE-B",
    doomed: "doomed-b",
};

impl Experiment for SharingExp {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        "shared-run failure fixture"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["cell", "value"]
    }

    fn cells(&self, _ctx: &CellCtx) -> Vec<Cell> {
        let id = self.id;
        vec![
            Cell::runs(self.doomed, vec![quick_run()], flips_row),
            Cell::new("sibling", move || {
                Ok(vec![vec!["sibling".to_string(), id.to_string()]])
            }),
        ]
    }
}

/// A shared run that fails is run once, and fails every cell that
/// declared it, each under its own label, while the siblings complete.
#[test]
fn a_failing_shared_run_fails_every_cell_that_declared_it() {
    let units = AtomicUsize::new(0);
    let progress = |_: &CellProgress<'_>| {
        units.fetch_add(1, Ordering::Relaxed);
    };
    let opts = RunOptions::new(true).jobs(2).step_budget(1_000);
    let report = run_suite(&[&SHARING_A, &SHARING_B], &opts, &progress).unwrap();
    assert_eq!(
        units.into_inner(),
        3,
        "one shared run and two closure cells"
    );
    for (t, fixture) in report.tables.iter().zip([&SHARING_A, &SHARING_B]) {
        assert_eq!(
            t.rows,
            vec![vec!["sibling".to_string(), fixture.id.to_string()]]
        );
        assert_eq!(t.failures.len(), 1, "{t}");
        let f = &t.failures[0];
        assert_eq!(f.label, fixture.doomed);
        assert_eq!(f.kind, FailureKind::Timeout);
        assert!(
            f.message
                .starts_with("SHARE-A/doomed-a/double-sided: exceeded the step budget"),
            "{}",
            f.message
        );
    }
}

fn panicking_row(_: &[RunSpec], _: &[&SimReport]) -> CellRows {
    panic!("render failed");
}

/// A spec cell whose render panics, next to a spec cell that renders
/// the same run and a closure cell.
struct RenderPanicExp;

impl Experiment for RenderPanicExp {
    fn id(&self) -> &'static str {
        "RENDER-PANIC"
    }

    fn title(&self) -> &'static str {
        "render failure fixture"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["cell", "value"]
    }

    fn cells(&self, _ctx: &CellCtx) -> Vec<Cell> {
        vec![
            Cell::runs("bad-render", vec![quick_run()], panicking_row),
            Cell::runs("good-render", vec![quick_run()], flips_row),
            Cell::new("sibling", || {
                Ok(vec![vec!["sibling".to_string(), "done".to_string()]])
            }),
        ]
    }
}

/// A render that panics fails its own cell, like a closure cell that
/// panics: the suite still returns a report, and the cell that renders
/// the same run and the closure sibling complete.
#[test]
fn a_panicking_render_fails_only_its_cell() {
    // The panicking render prints the default panic-hook message to
    // stderr; that noise is expected and harmless.
    let opts = RunOptions::new(true).jobs(2);
    let report = run_suite(&[&RenderPanicExp], &opts, &silent).unwrap();
    let t = &report.tables[0];
    assert_eq!(t.rows.len(), 2, "{t}");
    assert_eq!(t.rows[0][0], "none");
    assert_eq!(t.rows[1], vec!["sibling".to_string(), "done".to_string()]);
    assert_eq!(t.failures.len(), 1, "{t}");
    let f = &t.failures[0];
    assert_eq!(f.label, "bad-render");
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(f.message.contains("render failed"), "{}", f.message);
}
