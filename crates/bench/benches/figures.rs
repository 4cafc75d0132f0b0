//! One bench per reproduced figure/table.
//!
//! Each bench does two jobs:
//!
//! 1. **Regenerate the artifact**: before timing, it runs the experiment's
//!    quick-profile report once and prints the paper-vs-measured rows, so
//!    `cargo bench` re-derives every figure and table of the paper.
//! 2. **Time the kernel**: the measured body is a scaled-down scenario run
//!    (tens of simulated seconds), giving a stable simulator-throughput
//!    number per configuration.

use std::hint::black_box;
use td_bench::Harness;
use td_engine::SimDuration;
use td_experiments::registry::{find, Profile};
use td_experiments::{conjecture, decbit, fig2, fig3, fig45, fig67, fig89, multihop, oneway_util};

fn print_report_once(id: &str) {
    let rep = find(id).expect("registered").run(1, Profile::Quick);
    println!("\n{rep}");
    assert!(rep.all_ok(), "{id} out of band: {:?}", rep.failures());
}

fn bench_one(c: &mut Harness, id: &str, mut kernel: impl FnMut() -> u64) {
    print_report_once(id);
    c.bench_function(&format!("repro/{id}"), |b| {
        b.iter(|| black_box(kernel()));
    });
}

fn figures(c: &mut Harness) {
    bench_one(c, "fig2", || {
        let mut sc = fig2::scenario(1, 120);
        sc.duration = SimDuration::from_secs(120);
        sc.warmup = SimDuration::from_secs(20);
        sc.run().world.events_dispatched()
    });
    bench_one(c, "fig3", || {
        fig3::scenario(1, 60, 30).run().world.events_dispatched()
    });
    bench_one(c, "fig45", || {
        fig45::scenario(1, 60, 20).run().world.events_dispatched()
    });
    bench_one(c, "fig67", || {
        fig67::scenario(1, 120).run().world.events_dispatched()
    });
    bench_one(c, "fig8", || {
        fig89::scenario(1, 40, SimDuration::from_millis(10), 30, 25)
            .run()
            .world
            .events_dispatched()
    });
    bench_one(c, "fig9", || {
        fig89::scenario(1, 60, SimDuration::from_secs(1), 30, 25)
            .run()
            .world
            .events_dispatched()
    });
    bench_one(c, "oneway-util", || {
        oneway_util::scenario(1, 60, SimDuration::from_secs(1), 20)
            .run()
            .world
            .events_dispatched()
    });
    bench_one(c, "conjecture", || {
        conjecture::scenario(1, 40, SimDuration::from_millis(10), 30, 25)
            .run()
            .world
            .events_dispatched()
    });
    bench_one(c, "delayed-ack", || {
        td_experiments::delayed_ack::scenario(1, 60, 8, true)
            .run()
            .world
            .events_dispatched()
    });
    bench_one(c, "multihop", || {
        let (chain, ..) = multihop::run_chain(1, 30);
        chain.world.events_dispatched()
    });
    bench_one(c, "decbit", || {
        decbit::scenario(1, 60, 1, 1)
            .run()
            .world
            .events_dispatched()
    });
    // piggyback and modes reports are regenerated (their kernels reuse the
    // dumbbell scenarios already timed above).
    print_report_once("piggyback");
    print_report_once("modes");
}

fn main() {
    let mut c = Harness::new();
    figures(&mut c);
    c.finish();
}
