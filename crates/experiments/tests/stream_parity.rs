//! Observer feed vs. replay feed: the stream fold is the only analysis
//! implementation, so what is left to pin is that a live observer sees
//! exactly the records the trace stores, and that a trace-off run still
//! answers every question. (The rendered reports themselves are pinned by
//! the registry-wide digest in `runner_determinism.rs`.)

use td_experiments::{fig2, fig89, scenario};

/// Both feeds live on one run: a scenario with the trace *on* and the
/// observer *on* must agree with itself measurement by measurement — the
/// observer saw exactly the recorded stream, bit for bit on a real TCP
/// trace.
#[test]
fn streamed_run_agrees_with_its_own_trace() {
    let mut sc = fig2::scenario(3, 120);
    sc.stream = true; // record_trace stays true: both feeds live
    let run = sc.run();
    assert!(!run.world.trace().is_empty(), "trace should be on");
    let m = run.metrics();
    // Compare every observed measurement against a replay of the same
    // run's trace.
    let trace = run.world.trace();
    assert_eq!(
        *m.queue(run.bottleneck_12),
        td_analysis::queue_series(trace, run.bottleneck_12)
    );
    assert_eq!(
        *m.queue(run.bottleneck_21),
        td_analysis::queue_series(trace, run.bottleneck_21)
    );
    for &c in &run.fwd {
        assert_eq!(*m.cwnd(c), td_analysis::cwnd_series(trace, c));
    }
    assert_eq!(
        m.utilization(run.bottleneck_12).to_bits(),
        td_analysis::utilization_in(trace, run.bottleneck_12, run.t0, run.t1).to_bits()
    );
    assert_eq!(
        m.utilization(run.bottleneck_21).to_bits(),
        td_analysis::utilization_in(trace, run.bottleneck_21, run.t0, run.t1).to_bits()
    );
    let replayed_drops = td_analysis::drop_events(trace);
    assert_eq!(m.drops().len(), replayed_drops.len());
    for (a, b) in m.drops().iter().zip(&replayed_drops) {
        assert_eq!(
            (a.t, a.ch, a.conn, a.seq, a.is_data),
            (b.t, b.ch, b.conn, b.seq, b.is_data)
        );
    }
    let replayed_deps = td_analysis::departures(trace, run.bottleneck_12);
    assert_eq!(m.departures(run.bottleneck_12).len(), replayed_deps.len());
    for (a, b) in m.departures(run.bottleneck_12).iter().zip(&replayed_deps) {
        assert_eq!((a.t, a.pkt.id, a.pkt.seq), (b.t, b.pkt.id, b.pkt.seq));
    }
}

/// A trace-off streaming run still produces the full metrics block: the
/// report renders with every check row populated, while the world holds
/// zero trace records.
#[test]
fn trace_off_run_produces_full_metrics() {
    let mut sc = scenario::Scenario::paper(td_engine::SimDuration::from_millis(10), Some(20))
        .with_fwd(1, scenario::ConnSpec::paper())
        .with_rev(1, scenario::ConnSpec::paper());
    sc.duration = td_engine::SimDuration::from_secs(30);
    sc.warmup = td_engine::SimDuration::from_secs(5);
    sc.stream = true;
    sc.record_trace = false;
    let run = sc.run();
    assert!(run.world.trace().is_empty(), "trace must stay off");
    assert_eq!(run.world.trace().capacity(), 0, "trace must not allocate");
    // Every Run measurement works without a trace.
    assert!(run.util12() > 0.1);
    assert!(run.util21() > 0.1);
    assert!(!run.queue1().is_empty());
    assert!(!run.queue2().is_empty());
    let (a, b) = (run.fwd[0], run.rev[0]);
    assert!(!run.cwnd(a).is_empty());
    assert!(!run.cwnd(b).is_empty());
    let _ = run.drops();
    let _ = run.clustering12();
    let _ = run.clustering12_all();
    // And the full fig8 report renders trace-free with all rows present.
    let rep = fig89::report_fig8(1, 60);
    assert!(rep.rows.len() >= 7, "metrics block incomplete: {rep}");
}
