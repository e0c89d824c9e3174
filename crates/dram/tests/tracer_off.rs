//! Zero-cost-when-off gate for the device's tracer check.
//!
//! On an untraced device, `DramModule::issue` adds one
//! `tracer.is_none()` branch to every command. That is the entry point
//! the memory controller drives for each ACT and PRE. This gate drives
//! two identical devices with the same ACT/PRE hammer, one through
//! `issue` and one through `issue_bypassing_tracer` (the check compiled
//! out). The two take turns in short timed chunks, in alternating
//! order, so host drift hits both sides alike. Each repetition yields
//! one paired time ratio; the gate fails if their median shows the
//! checked path more than 2% slower, or if the two devices end in
//! different states.
//!
//! A timing gate means nothing in an unoptimized build, so the test is
//! ignored by default. Run it with
//!
//! ```sh
//! cargo test --release -p hammertime-dram --test tracer_off -- --ignored
//! ```

use hammertime_common::geometry::BankId;
use hammertime_common::Cycle;
use hammertime_dram::{DdrCommand, DramConfig, DramModule};
use std::time::Instant;

/// ACT/PRE pairs per side per repetition.
const PAIRS: u32 = 1_000_000;
/// ACT/PRE pairs per timed chunk.
const CHUNK: u32 = 10_000;
/// Paired timings; the gate judges their median ratio.
const REPS: usize = 21;
/// Largest tolerated median overhead of the checked path, in percent.
const BOUND_PCT: f64 = 2.0;

/// One hammered device and the wall time spent issuing to it.
struct Side {
    m: DramModule,
    now: Cycle,
    secs: f64,
}

impl Side {
    fn new() -> Side {
        Side {
            m: DramModule::new(DramConfig::test_config(1_000_000)).unwrap(),
            now: Cycle::ZERO,
            secs: 0.0,
        }
    }

    /// Issues [`CHUNK`] ACT/PRE pairs to one row, each command at its
    /// earliest legal cycle, through `issue`, and adds the loop's wall
    /// time to `secs`.
    fn chunk(&mut self, mut issue: impl FnMut(&mut DramModule, &DdrCommand, Cycle)) {
        let bank = BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
        };
        let act = DdrCommand::Act { bank, row: 8 };
        let pre = DdrCommand::Pre { bank };
        let start = Instant::now();
        for _ in 0..CHUNK {
            for cmd in [&act, &pre] {
                self.now = self.now.max(self.m.earliest(cmd));
                issue(&mut self.m, cmd, self.now);
            }
        }
        self.secs += start.elapsed().as_secs_f64();
    }

    fn checked(&mut self) {
        self.chunk(|m, cmd, now| {
            m.issue(cmd, now).unwrap();
        })
    }

    fn bypassed(&mut self) {
        self.chunk(|m, cmd, now| {
            m.issue_bypassing_tracer(cmd, now).unwrap();
        })
    }
}

#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn untraced_issue_costs_under_two_percent() {
    let mut ratios = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (mut on, mut off) = (Side::new(), Side::new());
        for turn in 0..PAIRS / CHUNK {
            if turn % 2 == 0 {
                on.checked();
                off.bypassed();
            } else {
                off.bypassed();
                on.checked();
            }
        }
        assert_eq!(
            on.m.stats(),
            off.m.stats(),
            "the tracer check changed the device state"
        );
        ratios.push(on.secs / off.secs);
    }
    ratios.sort_by(f64::total_cmp);
    let median_pct = 100.0 * (ratios[REPS / 2] - 1.0);
    eprintln!(
        "tracer-off overhead: median {median_pct:+.2}% over {REPS} paired runs of {PAIRS} \
         ACT/PRE pairs per side (ratios {:.4}..{:.4})",
        ratios[0],
        ratios[REPS - 1]
    );
    assert!(
        median_pct <= BOUND_PCT,
        "untraced issue is {median_pct:+.2}% slower than the bypass (bound {BOUND_PCT}%)"
    );
}
