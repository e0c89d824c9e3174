//! `attack` and `experiments` through the real binary: the CLI has one
//! attack grammar (pipeline triples) and no suite-throughput report of
//! its own, so the removed flags are usage errors, and a bare `attack`
//! runs a triple that reaches the victim.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hammertime-cli"))
        .args(args)
        .output()
        .expect("hammertime-cli runs")
}

#[test]
fn removed_attack_grammar_and_suite_report_flags_are_usage_errors() {
    for args in [
        &["attack", "--attack", "dma"][..],
        &["experiments", "--bench-json", "x"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn bare_attack_runs_a_triple_that_reaches_the_victim() {
    let out = cli(&["attack"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pfn/double/flips"), "{stdout}");
    assert!(stdout.contains("attack SUCCEEDED"), "{stdout}");
}
