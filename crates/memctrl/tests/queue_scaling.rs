//! Queue-depth scaling gate for the scheduler.
//!
//! Each bank's request index lets the scheduler price only the few
//! requests that can still win, so the host time per request must not
//! grow with the queue depth. This gate fills a standalone controller
//! with host reads to random lines and drains it, from depth 16 and
//! from depth 4096, the way perfbench's memctrl probe does: 8192
//! requests per side, in rounds of `depth`, on the fast machine's
//! geometry and timing. The two depths take turns in alternating
//! order, so host drift hits both alike. The gate fails if the median
//! time per request at depth 4096 is more than 4× the median at depth
//! 16, or if a drain leaves a request behind.
//!
//! A timing gate means nothing in an unoptimized build, so the test is
//! ignored by default. Run it with
//!
//! ```sh
//! cargo test --release -p hammertime-memctrl --test queue_scaling -- --ignored
//! ```

use hammertime_common::{CacheLineAddr, DetRng, DomainId, Geometry, RequestSource};
use hammertime_dram::{DramConfig, TimingParams};
use hammertime_memctrl::request::{MemRequest, RequestKind};
use hammertime_memctrl::{MemCtrl, MemCtrlConfig};
use std::time::{Duration, Instant};

/// Requests drained per depth per repetition.
const REQUESTS: usize = 8192;
/// Shallow and deep queue depths.
const SHALLOW: usize = 16;
const DEEP: usize = 4096;
/// Repetitions; the gate judges the median of each depth.
const REPS: usize = 11;
/// Largest tolerated ratio of deep to shallow time per request.
const BOUND: f64 = 4.0;

/// Drains [`REQUESTS`] host reads to random lines from a fresh
/// controller in rounds of `depth`; returns the drain time per
/// request in nanoseconds. Submissions are not timed.
fn ns_per_request(depth: usize, rep: usize) -> f64 {
    let mut dram = DramConfig::test_config(1_000_000);
    dram.geometry = Geometry::medium();
    dram.timing = TimingParams::tiny_wide();
    let mut mc = MemCtrl::new(MemCtrlConfig::baseline(), dram, 42).unwrap();
    let lines = mc.map().geometry().total_lines();
    let mut rng = DetRng::new(0x3e3c ^ rep as u64);
    let mut drained = Duration::ZERO;
    let mut completed = 0;
    let mut id = 0;
    for _ in 0..REQUESTS / depth {
        for _ in 0..depth {
            mc.submit(MemRequest {
                id,
                line: CacheLineAddr(rng.below(lines)),
                kind: RequestKind::Read,
                source: RequestSource::Core(0),
                domain: DomainId::HOST,
                arrival: mc.now(),
            })
            .unwrap();
            id += 1;
        }
        let start = Instant::now();
        mc.drain();
        drained += start.elapsed();
        completed += mc.drain_completions().len();
    }
    assert_eq!(
        completed, REQUESTS,
        "q{depth}: the drain left requests queued"
    );
    drained.as_secs_f64() * 1e9 / REQUESTS as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn deep_queue_costs_at_most_four_times_shallow_per_request() {
    let (mut shallow, mut deep) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS {
        if rep % 2 == 0 {
            shallow.push(ns_per_request(SHALLOW, rep));
            deep.push(ns_per_request(DEEP, rep));
        } else {
            deep.push(ns_per_request(DEEP, rep));
            shallow.push(ns_per_request(SHALLOW, rep));
        }
    }
    let (shallow, deep) = (median(shallow), median(deep));
    let ratio = deep / shallow;
    eprintln!(
        "queue scaling: median {shallow:.0} ns/request at q{SHALLOW}, {deep:.0} ns/request at \
         q{DEEP} ({ratio:.2}x) over {REPS} reps of {REQUESTS} requests per depth"
    );
    assert!(
        ratio <= BOUND,
        "a request drained from depth {DEEP} costs {ratio:.2}x one from depth {SHALLOW} \
         (bound {BOUND}x)"
    );
}
