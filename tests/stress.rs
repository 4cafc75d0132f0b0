//! Long-haul stress runs, ignored by default (`cargo test -- --ignored`).
//!
//! These push well past the paper's configurations — more connections,
//! longer horizons, adversarial buffers, fault injection — and assert the
//! global invariants still hold. CI runs the quick suite; these are for
//! release qualification.

use tahoe_dynamics::engine::{Rate, SimDuration, SimTime};
use tahoe_dynamics::experiments::{ConnSpec, Scenario};
use tahoe_dynamics::net::{ConnId, DisciplineKind, FaultPlan, World};
use tahoe_dynamics::tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};

#[test]
#[ignore = "long-haul stress; run with --ignored"]
fn twenty_connections_for_an_hour() {
    let mut sc = Scenario::paper(1, 3600, SimDuration::from_millis(10), Some(30))
        .with_fwd(10, ConnSpec::paper())
        .with_rev(10, ConnSpec::paper());
    sc.warmup = SimDuration::from_secs(600);
    let run = sc.run();
    for conn in run.conns() {
        let rx = run.receiver(conn);
        assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
        assert!(rx.stats().delivered > 500, "conn {conn:?} starved");
    }
    let drops = run.drops();
    let data = drops.iter().filter(|d| d.is_data).count();
    assert!(data as f64 / drops.len() as f64 > 0.99);
    assert!(run.util12() > 0.7 && run.util21() > 0.7);
}

#[test]
#[ignore = "long-haul stress; run with --ignored"]
fn heavy_fault_injection_never_wedges() {
    // 15 % loss both ways for an hour: progress must continue and the
    // stream must stay contiguous.
    let mut w = World::new(99);
    let a = w.add_host("a", SimDuration::from_micros(100));
    let b = w.add_host("b", SimDuration::from_micros(100));
    for (x, y) in [(a, b), (b, a)] {
        let ch = w.add_channel(
            x,
            y,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(20),
            DisciplineKind::DropTail.build(),
        );
        w.set_fault_plan(ch, FaultPlan::lossy(0.15)).unwrap();
    }
    let s = w.attach(a, b, ConnId(0), TcpSender::boxed(SenderConfig::paper()));
    let r = w.attach(b, a, ConnId(0), TcpReceiver::boxed(ReceiverConfig::paper()));
    w.start_at(s, SimTime::ZERO);
    w.run_until(SimTime::from_secs(3600));
    let rx = w
        .endpoint(r)
        .unwrap()
        .as_any()
        .downcast_ref::<TcpReceiver>()
        .unwrap();
    assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
    assert!(
        rx.stats().delivered > 5000,
        "delivered {}",
        rx.stats().delivered
    );
}

#[test]
#[ignore = "long-haul stress; run with --ignored"]
fn fixed_window_runs_stay_strictly_periodic() {
    // The fig8 square wave must not drift over a very long horizon: the
    // autocorrelation at its (measured) dominant period must stay
    // essentially perfect both early and late in the run.
    use tahoe_dynamics::analysis::{autocorrelation, dominant_period};
    use tahoe_dynamics::experiments::fig89;
    let run = fig89::scenario(1, 2000, SimDuration::from_millis(10), 30, 25).run();
    let q1 = run.queue1();
    for t0_s in [500u64, 1800] {
        let t0 = SimTime::from_secs(t0_s);
        let t1 = SimTime::from_secs(t0_s + 100);
        let period =
            dominant_period(&q1, t0, t1, 4000, 0.5).expect("square wave must register a period");
        assert!(
            (1.0..=10.0).contains(&period),
            "implausible period {period} s"
        );
        // Peak autocorrelation at the period ≈ 1: no drift, no decay.
        let xs = q1.resample(t0, t1, 4000);
        let lag = (period / 100.0 * 4000.0).round() as usize;
        let ac = autocorrelation(&xs, lag + 2);
        assert!(
            ac[lag] > 0.90,
            "window at {t0_s}s: correlation {} at the {period:.2}s period",
            ac[lag]
        );
    }
}
