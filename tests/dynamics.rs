//! Mechanism-level integration tests: the *causal chain* of the paper's
//! two phenomena, checked step by step rather than end to end.
//!
//! ACK-compression (§4.2) requires, in order:
//!   clustering → ACK clusters crossing a nonempty queue → ACK spacing
//!   collapses to the ACK service time → data bursts → square waves.
//! Each link in the chain is asserted here, as is the paper's argument
//! for why ACKs are never dropped at a single bottleneck.

use tahoe_dynamics::analysis::clustering::cluster_lengths;
use tahoe_dynamics::analysis::{ack_spacing, deliveries, departures};
use tahoe_dynamics::engine::SimDuration;
use tahoe_dynamics::experiments::{fig89, ConnSpec, Scenario, ACK_SERVICE, DATA_SERVICE};

/// Step 1: with 1+1 fixed windows the departures at the bottleneck are
/// perfect clusters — connection 1's data and connection 2's ACKs pass as
/// contiguous runs whose lengths track the windows.
#[test]
fn fixed_window_departures_are_whole_window_clusters() {
    let run = fig89::scenario(1, 120, SimDuration::from_millis(10), 30, 25).run();
    let deps: Vec<_> = departures(run.world.trace(), run.bottleneck_12)
        .into_iter()
        .filter(|d| d.t >= run.t0 && d.t <= run.t1)
        .collect();
    let runs = cluster_lengths(&deps);
    // Mean run length must be a large fraction of the windows (30/25),
    // not the 1-2 of interleaved traffic.
    let mean = runs.iter().map(|(_, n)| *n).sum::<u64>() as f64 / runs.len() as f64;
    assert!(mean > 10.0, "mean cluster length {mean}");
    let longest = runs.iter().map(|(_, n)| *n).max().unwrap();
    assert!(longest >= 25, "longest cluster {longest} < a full window");
}

/// Step 2+3: ACKs arrive at the source spaced by the ACK service time
/// when compressed — the p10 gap collapses to ~8 ms while the median of
/// an *uncompressed* one-way run stays at the 80 ms data service time.
#[test]
fn ack_spacing_collapses_only_under_two_way_traffic() {
    // Two-way fixed-window run: compression.
    let two = fig89::scenario(1, 120, SimDuration::from_millis(10), 30, 25).run();
    let acks2: Vec<_> = deliveries(two.world.trace(), two.host1, two.fwd[0], true)
        .into_iter()
        .filter(|d| d.t >= two.t0)
        .collect();
    let sp2 = ack_spacing(&acks2, DATA_SERVICE).unwrap();
    assert!(
        (sp2.p10_gap_s - ACK_SERVICE.as_secs_f64()).abs() < 0.002,
        "compressed gap should equal the ACK service time, got {} s",
        sp2.p10_gap_s
    );

    // One-way run: the ACK clock is intact.
    let mut sc = Scenario::paper(1, 120, SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::fixed(10));
    sc.warmup = SimDuration::from_secs(30);
    let one = sc.run();
    let acks1: Vec<_> = deliveries(one.world.trace(), one.host1, one.fwd[0], true)
        .into_iter()
        .filter(|d| d.t >= one.t0)
        .collect();
    let sp1 = ack_spacing(&acks1, DATA_SERVICE).unwrap();
    assert_eq!(
        sp1.compressed_fraction, 0.0,
        "one-way ACKs must keep the data-packet spacing"
    );
    assert!((sp1.median_gap_s - DATA_SERVICE.as_secs_f64()).abs() < 0.001);
}

/// Step 4: the compressed ACK cluster triggers a same-sized burst of data
/// sends at the source — sends spaced like the ACK service time, not the
/// data service time.
#[test]
fn compressed_acks_trigger_data_bursts() {
    use tahoe_dynamics::net::TraceEvent;
    let run = fig89::scenario(1, 120, SimDuration::from_millis(10), 30, 25).run();
    let sends: Vec<_> = run
        .world
        .trace()
        .records()
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::Send { node, pkt }
                if node == run.host1 && pkt.is_data() && r.t >= run.t0 =>
            {
                Some(r.t)
            }
            _ => None,
        })
        .collect();
    let burst_gaps = sends
        .windows(2)
        .filter(|w| w[1].since(w[0]) < SimDuration::from_millis(20))
        .count();
    assert!(
        burst_gaps as f64 > sends.len() as f64 * 0.3,
        "expected bursty sends; only {burst_gaps}/{} gaps < 20 ms",
        sends.len() - 1
    );
}

/// The paper's §4.2 no-ACK-drop argument: ACKs reach a bottleneck queue
/// pre-spaced by the data service time, so a queue that had room for the
/// previous packet has room for them. The argument is airtight for the
/// 1+1 and one-way configurations (strictly zero ACK drops); with many
/// connections, *retransmissions* break the spacing assumption — they are
/// injected on timer/dupack schedules, not ACK clocking — and the paper's
/// own Figure 3 number reflects that: 99.8 % of drops are data, not
/// 100 %.
#[test]
fn acks_are_never_dropped_at_a_single_bottleneck() {
    for (tau_ms, buffer, nf, nr) in [
        (10u64, 20u32, 1usize, 1usize),
        (1000, 20, 1, 1),
        (1000, 10, 1, 1),
    ] {
        let mut sc = Scenario::paper(1, 300, SimDuration::from_millis(tau_ms), Some(buffer))
            .with_fwd(nf, ConnSpec::paper())
            .with_rev(nr, ConnSpec::paper());
        sc.warmup = SimDuration::from_secs(0);
        let run = sc.run();
        let ack_drops = run.drops().iter().filter(|d| !d.is_data).count();
        assert_eq!(
            ack_drops, 0,
            "tau={tau_ms}ms B={buffer} {nf}+{nr}: {ack_drops} ACKs dropped"
        );
    }
    // Multi-connection configs: data packets dominate but retransmission
    // clumping allows rare ACK losses (the paper's 99.8 %).
    for (tau_ms, buffer, nf, nr) in [(10u64, 30u32, 5usize, 5usize), (10, 5, 2, 2)] {
        let mut sc = Scenario::paper(1, 300, SimDuration::from_millis(tau_ms), Some(buffer))
            .with_fwd(nf, ConnSpec::paper())
            .with_rev(nr, ConnSpec::paper());
        sc.warmup = SimDuration::from_secs(0);
        let run = sc.run();
        let drops = run.drops();
        let data = drops.iter().filter(|d| d.is_data).count();
        let frac = data as f64 / drops.len().max(1) as f64;
        assert!(
            frac >= 0.97,
            "tau={tau_ms}ms B={buffer} {nf}+{nr}: only {:.1} % of drops were data",
            frac * 100.0
        );
    }
}

/// Window-cycle structure under one-way traffic: cwnd rises to the path
/// capacity C = B + 2P and collapses to 1 (Tahoe), repeatedly.
#[test]
fn one_way_cwnd_saw_tooth_hits_capacity() {
    let mut sc =
        Scenario::paper(1, 600, SimDuration::from_secs(1), Some(20)).with_fwd(1, ConnSpec::paper());
    sc.warmup = SimDuration::from_secs(120);
    let run = sc.run();
    let cw = run.cwnd(run.fwd[0]);
    // C = B + 2P = 20 + 25 = 45. The single window peaks at C (+1 for the
    // overshoot that causes the drop).
    let peak = cw.max_in(run.t0, run.t1).unwrap();
    assert!(
        (40.0..=48.0).contains(&peak),
        "cwnd peak {peak}, expected ~C = 45"
    );
    let floor = cw.min_in(run.t0, run.t1).unwrap();
    assert!(floor <= 1.5, "Tahoe must collapse to 1, floor {floor}");
}

/// Loss detection split: on the paper's configurations the dominant
/// detector is duplicate ACKs (fast retransmit), with timeouts as backup —
/// both paths must be exercised.
#[test]
fn both_loss_detectors_fire_in_two_way_traffic() {
    let mut sc = Scenario::paper(1, 600, SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    sc.warmup = SimDuration::from_secs(0);
    let run = sc.run();
    let mut fast = 0;
    let mut slow = 0;
    for conn in run.conns() {
        let st = run.sender(conn).stats();
        fast += st.fast_retransmits;
        slow += st.timeouts;
    }
    assert!(fast > 0, "no fast retransmit in 600 s of congestion");
    assert!(slow > 0, "no timeout in 600 s (double drops need them)");
    assert!(
        fast >= slow / 4,
        "fast {fast} vs timeout {slow}: unexpected balance"
    );
}
