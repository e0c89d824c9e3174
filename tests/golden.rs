//! Golden-snapshot suite: pins the rendered quick-mode output of every
//! registry experiment, byte for byte. An ignored test also checks the
//! full-scale tables against their copies in `EXPERIMENTS.md`.
//!
//! The snapshots in `tests/golden/<ID>.txt` were generated from the
//! pre-fast-path scheduler and disturbance model, so any optimisation
//! that changes a single output byte fails here. To accept an
//! *intentional* behaviour change, regenerate and commit the diff:
//!
//! ```text
//! HAMMERTIME_REGEN_GOLDEN=1 cargo test --test golden
//! ```
//!
//! The suite honours `HAMMERTIME_GOLDEN_JOBS=N` (worker threads;
//! defaults to available parallelism). Output is byte-identical for
//! any worker count, so CI exercises several values.

use hammertime::experiments::RunOptions;
use hammertime_fleet::experiment::{full_registry, run_all_with};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

fn jobs() -> usize {
    match std::env::var("HAMMERTIME_GOLDEN_JOBS") {
        Ok(v) => v
            .parse()
            .expect("HAMMERTIME_GOLDEN_JOBS must be a positive integer"),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Lines with trailing blanks removed: the table renderer pads every
/// column, and the copies in `EXPERIMENTS.md` may drop the padding.
fn trim_lines(text: &str) -> String {
    text.lines()
        .map(str::trim_end)
        .collect::<Vec<_>>()
        .join("\n")
}

fn regen() -> bool {
    std::env::var("HAMMERTIME_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn quick_mode_suite_matches_goldens() {
    let report = run_all_with(&RunOptions::new(true).jobs(jobs())).expect("suite runs");
    assert!(
        !report.has_failures(),
        "healthy quick-mode suite must not fail any cell: {:?}",
        report.failures().collect::<Vec<_>>()
    );
    let tables = report.tables;
    assert_eq!(
        tables.len(),
        full_registry().len(),
        "every registry experiment must produce a table"
    );

    let dir = golden_dir();
    if regen() {
        fs::create_dir_all(&dir).expect("create tests/golden");
    }

    let mut known = BTreeSet::new();
    for table in &tables {
        let name = format!("{}.txt", table.id);
        let path = dir.join(&name);
        known.insert(name);
        let rendered = table.to_string();
        if regen() {
            fs::write(&path, &rendered)
                .unwrap_or_else(|e| panic!("write golden {}: {e}", path.display()));
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {}: {e}\n\
                 regenerate with: HAMMERTIME_REGEN_GOLDEN=1 cargo test --test golden",
                path.display()
            )
        });
        assert!(
            rendered == want,
            "{} diverged from its golden snapshot ({})\n\
             --- golden ---\n{}--- actual ---\n{}\
             if this change is intentional, regenerate with:\n\
             HAMMERTIME_REGEN_GOLDEN=1 cargo test --test golden",
            table.id,
            path.display(),
            want,
            rendered,
        );
    }

    // A renamed or removed experiment must not leave its stale
    // snapshot behind to rot.
    for entry in fs::read_dir(&dir).expect("read tests/golden") {
        let name = entry
            .expect("golden dir entry")
            .file_name()
            .into_string()
            .expect("golden file names are utf-8");
        assert!(
            known.contains(&name),
            "stray golden file tests/golden/{name} matches no registry experiment"
        );
    }
}

/// Full scale builds bank queues about twice as deep as quick mode
/// does, and no golden file pins it: `EXPERIMENTS.md` is the reference.
/// Every table must appear there verbatim, modulo trailing blanks. The
/// full suite is too slow for a debug build, so the test is ignored by
/// default; run it with `cargo test --release --test golden -- --ignored`.
#[test]
#[ignore = "full-scale suite; run in release with --ignored"]
fn full_mode_suite_matches_experiments_md() {
    let report = run_all_with(&RunOptions::new(false).jobs(jobs())).expect("suite runs");
    assert!(
        !report.has_failures(),
        "healthy full-scale suite must not fail any cell: {:?}",
        report.failures().collect::<Vec<_>>()
    );
    assert_eq!(
        report.tables.len(),
        full_registry().len(),
        "every registry experiment must produce a table"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = trim_lines(&fs::read_to_string(path).expect("read EXPERIMENTS.md"));
    for table in &report.tables {
        let rendered = table.to_string();
        assert!(
            doc.contains(&trim_lines(&rendered)),
            "the full-scale {} table does not appear verbatim in EXPERIMENTS.md\n\
             --- actual ---\n{rendered}",
            table.id,
        );
    }
}
