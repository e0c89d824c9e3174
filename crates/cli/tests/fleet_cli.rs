//! `fleet` through the real binary: the removed durability and
//! supervision surface is rejected as a usage error, and a trace
//! request for a machine outside the fleet fails instead of writing an
//! empty trace.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hammertime-cli"))
        .args(args)
        .output()
        .expect("hammertime-cli runs")
}

fn tmpfile(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("htcli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn removed_durability_flags_and_worker_are_usage_errors() {
    for args in [
        &["fleet", "run", "--durable", "D"][..],
        &["fleet", "run", "--resume", "D"],
        &["fleet", "run", "--supervise", "2"],
        &["fleet", "worker"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn out_of_range_trace_machine_fails_and_writes_nothing() {
    let trace = tmpfile("m99.trace");
    let path = trace.to_str().unwrap();
    let out = cli(&[
        "fleet",
        "run",
        "--machines",
        "8",
        "--trace-machine",
        "99",
        "--trace-out",
        path,
    ]);
    assert!(!out.status.success(), "{out:?}");
    assert!(!trace.exists(), "an out-of-range trace must not be written");

    // The last machine of the fleet is in range and records commands.
    let out = cli(&[
        "fleet",
        "run",
        "--machines",
        "8",
        "--trace-machine",
        "7",
        "--trace-out",
        path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = trace.exists();
    let _ = std::fs::remove_file(&trace);
    assert!(written, "machine 7's trace was not written");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("trace of machine 7 (") && !stderr.contains("(0 records)"),
        "{stderr}"
    );
}
