//! Snapshot-equivalence over real registry-grade scenarios.
//!
//! The whole-simulator checkpoint guarantee, property-style: for a
//! spread of experiment configurations — including chaos cells with
//! *active* fault plans mid-burst and mid-outage — running to a
//! pseudo-random mid-point `T`, snapshotting, restoring into a freshly
//! built twin, and running to the end must be **byte-identical** to an
//! uninterrupted run. "Byte-identical" is checked at the strongest
//! level available: the FNV-1a hash of the *final snapshot* of each
//! world, which serializes the event queue's clock, counters and pending
//! events in pop order (an arrival with its packet), every RNG stream,
//! all endpoint state with timer handles as indices into that pending
//! list, channel/queue occupancy with in-flight packets, fault progress,
//! the audit tally, and the full trace.

use td_engine::{SimDuration, SimRng, SimTime};
use td_experiments::{ConnSpec, Scenario};
use td_net::{FaultPlan, GilbertElliott, Outage, WatchdogConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The configurations under test, spanning the registry's spread:
/// fig45-style paper dynamics, fig8-style fixed windows, a delayed-ack
/// asymmetric load, and two chaos cells with live fault plans.
fn configs() -> Vec<(&'static str, Scenario)> {
    let mut out = Vec::new();

    // Figure 4–5: 1+1 two-way paper Tahoe, the headline configuration.
    let mut fig45 = Scenario::paper(11, 60, SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    fig45.warmup = SimDuration::from_secs(10);
    out.push(("fig45", fig45));

    // Figure 8: fixed windows, no congestion control, 2+2.
    let mut fig8 = Scenario::paper(12, 60, SimDuration::from_millis(10), Some(20))
        .with_fwd(2, ConnSpec::fixed(8))
        .with_rev(2, ConnSpec::fixed(8));
    fig8.warmup = SimDuration::from_secs(10);
    out.push(("fig8", fig8));

    // Asymmetric load: 3 forward flows against 1 reverse.
    let mut asym = Scenario::paper(13, 60, SimDuration::from_millis(10), Some(15))
        .with_fwd(3, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    asym.warmup = SimDuration::from_secs(10);
    out.push(("asym", asym));

    // Chaos, outage cell: the forward bottleneck goes dark mid-run, so
    // the snapshot point can land before, inside, or after the outage.
    // Runs under the watchdog like the real chaos experiment.
    let mut outage = Scenario::paper(14, 90, SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    outage.warmup = SimDuration::from_secs(15);
    outage.fault_fwd = FaultPlan::with_outages(vec![Outage {
        down: SimTime::from_secs(30),
        up: SimTime::from_secs(45),
    }]);
    outage.watchdog = Some(WatchdogConfig::default());
    out.push(("chaos-outage", outage));

    // Chaos, burst cell: Gilbert–Elliott loss keeps the per-channel
    // fault RNG and the Markov state hot across the snapshot point.
    let mut burst = Scenario::paper(15, 60, SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    burst.warmup = SimDuration::from_secs(10);
    burst.fault_fwd =
        FaultPlan::with_burst(GilbertElliott::new(0.02, 0.2, 0.5).expect("valid burst"));
    burst.watchdog = Some(WatchdogConfig::default());
    out.push(("chaos-burst", burst));

    out
}

#[test]
fn snapshot_restore_rerun_is_byte_identical_across_scenarios() {
    for (name, sc) in configs() {
        // The uninterrupted twin: build → finish, hash the final state.
        let mut straight = sc.build();
        sc.finish(&mut straight);
        let golden = fnv1a(straight.world.snapshot().as_bytes());

        // Three pseudo-random snapshot points per scenario, spread over
        // the middle 80% of the run (derived, so the test is stable).
        let dur_ns = sc.duration.as_nanos();
        let mut trng = SimRng::new(sc.seed).derive(0x51A9);
        for round in 0..3 {
            let t_snap = SimTime::from_nanos(dur_ns / 10 + trng.next_below(dur_ns * 8 / 10));

            let mut partial = sc.build();
            partial.world.run_until(t_snap);
            let snap = partial.world.snapshot();

            let mut resumed = sc.build();
            resumed
                .world
                .restore(&snap)
                .unwrap_or_else(|e| panic!("{name} round {round}: restore failed: {e}"));
            // Restoring must be lossless: re-snapshotting the restored
            // world reproduces the snapshot bit-for-bit.
            assert_eq!(
                resumed.world.snapshot().as_bytes(),
                snap.as_bytes(),
                "{name} round {round}: re-snapshot diverged at T={t_snap:?}"
            );

            sc.finish(&mut resumed);
            let resumed_hash = fnv1a(resumed.world.snapshot().as_bytes());
            assert_eq!(
                resumed_hash, golden,
                "{name} round {round}: snapshot at T={t_snap:?} + restore + run-to-end \
                 diverged from the uninterrupted run"
            );
        }
    }
}

#[test]
fn scenario_build_plus_finish_equals_run() {
    // The build/finish split must be behavior-preserving: `run()` and
    // `build()`+`finish()` land in identical final states (the golden
    // output hash in runner_determinism.rs pins `run()` itself).
    let (_, sc) = configs().remove(0);
    let via_run = sc.run();
    let mut via_split = sc.build();
    sc.finish(&mut via_split);
    assert_eq!(
        fnv1a(via_run.world.snapshot().as_bytes()),
        fnv1a(via_split.world.snapshot().as_bytes())
    );
}
