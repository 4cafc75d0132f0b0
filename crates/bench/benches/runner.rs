//! Runner/sweep benchmarks: what the two-level job budget buys inside a
//! single experiment.
//!
//! `…/seq` vs `…/jobsN` — the identical workload with the budget pinned
//! to zero borrowable slots and then with `N` available. Outputs are
//! asserted equal, so the delta is pure wall clock. The win scales with
//! available cores (on a single-core host the pair measures the
//! fan-out's overhead instead — it should be near parity).
//!
//! Results land in `BENCH_runner.json` (override with `TD_BENCH_JSON`).

use std::hint::black_box;
use td_analysis::RunningStats;
use td_bench::Harness;
use td_engine::SimDuration;
use td_experiments::sweep::{budget, ReplicateSweep};
use td_experiments::{ConnSpec, Scenario};

/// Borrowable helper slots for the parallel variants (beyond the calling
/// thread itself).
const HELPERS: usize = 4;

/// One replicate of the sweep workload: a short 1+1 two-way run reduced
/// worker-side to its utilization pair.
fn replicate(seed: u64) -> (f64, f64) {
    let mut sc = Scenario::paper(SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    sc.seed = seed;
    sc.duration = SimDuration::from_secs(120);
    sc.warmup = SimDuration::from_secs(20);
    let run = sc.run();
    (run.util12(), run.util21())
}

fn replicate_sweep(c: &mut Harness) {
    let sweep = || ReplicateSweep::derived("bench-sweep", 7, 6);
    // Pin the expected output once; both variants must reproduce it.
    budget().configure(0);
    let expect: Vec<(f64, f64)> = sweep().run(|seed, _| replicate(seed));
    let fold = |cells: &[(f64, f64)]| {
        cells.iter().fold(RunningStats::new(), |acc, &(a, b)| {
            acc.merge(&RunningStats::from_slice(&[a, b]))
        })
    };
    let expect_stats = fold(&expect);

    c.bench_function("runner/replicate_sweep/6x120s/seq", |b| {
        budget().configure(0);
        b.iter(|| {
            let got = sweep().run(|seed, _| replicate(seed));
            assert_eq!(got, expect, "sweep output changed with the budget");
            black_box(fold(&got))
        });
    });
    c.bench_function(
        &format!("runner/replicate_sweep/6x120s/jobs{HELPERS}"),
        |b| {
            budget().configure(HELPERS);
            b.iter(|| {
                let got = sweep().run(|seed, _| replicate(seed));
                assert_eq!(got, expect, "sweep output changed with the budget");
                let stats = fold(&got);
                assert_eq!(stats, expect_stats, "deterministic fold diverged");
                black_box(stats)
            });
        },
    );
}

fn main() {
    let mut c = Harness::new();
    replicate_sweep(&mut c);
    let json_path = std::env::var("TD_BENCH_JSON").unwrap_or_else(|_| "BENCH_runner.json".into());
    if let Err(e) = c.write_json(std::path::Path::new(&json_path)) {
        eprintln!("could not write {json_path}: {e}");
    }
    c.finish();
}
