//! Observer feed vs. replay feed: the stream fold is the only analysis
//! implementation, so what is left to pin is that a live observer sees
//! exactly the records the trace stores, and that a trace-off run still
//! answers every question. (The rendered reports themselves are pinned by
//! the registry-wide digest in `runner_determinism.rs`.)

use td_analysis::extract;
use td_engine::{SimDuration, SimTime};
use td_experiments::scenario::{Run, Scenario, GOODPUT_BIN};
use td_experiments::{fig2, fig45, fig89};
use td_net::{DisciplineKind, DropReason, FaultPlan, GilbertElliott, TraceEvent, TraceObserver};

/// Run `sc` with both feeds live — trace *on*, observer *on* — and hold
/// every measurement the observer made against a one-spec replay of the
/// same run's recorded trace, bit for bit.
fn run_and_compare_feeds(mut sc: Scenario) -> Run {
    sc.stream = true; // record_trace stays true: both feeds live
    let run = sc.run();
    let trace = run.world.trace();
    assert!(!trace.is_empty(), "trace should be on");
    let m = run.metrics();
    let (b12, b21, t0, t1) = (run.bottleneck_12, run.bottleneck_21, run.t0, run.t1);
    for ch in [b12, b21] {
        assert_eq!(*m.queue(ch), extract::queue_series(trace, ch));
        assert_eq!(
            m.utilization(ch).to_bits(),
            extract::utilization_in(trace, ch, t0, t1).to_bits()
        );
    }
    let replayed_drops = extract::drop_events(trace);
    assert_eq!(m.drops().len(), replayed_drops.len());
    for (a, b) in m.drops().iter().zip(&replayed_drops) {
        assert_eq!(
            (a.t, a.ch, a.conn, a.seq, a.is_data, a.reason),
            (b.t, b.ch, b.conn, b.seq, b.is_data, b.reason)
        );
    }
    assert_eq!(
        m.data_drop_fraction().map(f64::to_bits),
        extract::data_drop_fraction(trace).map(f64::to_bits)
    );
    assert_eq!(m.departures(b12), extract::departures(trace, b12));
    assert_eq!(m.sojourns(b12), td_analysis::sojourns(trace, b12, t0, t1));
    assert_eq!(
        m.mean_ack_sojourn(b12).map(f64::to_bits),
        td_analysis::mean_ack_sojourn(trace, b12, t0, t1).map(f64::to_bits)
    );
    for c in run.conns() {
        let (source, sink) = (run.source(c), run.sink(c));
        assert_eq!(*m.cwnd(c), extract::cwnd_series(trace, c));
        assert_eq!(
            m.deliveries(source, c, true),
            extract::deliveries(trace, source, c, true)
        );
        assert_eq!(
            m.deliveries(sink, c, false),
            extract::deliveries(trace, sink, c, false)
        );
        assert_eq!(
            m.delivered(sink, c),
            extract::delivered_in(trace, sink, c, t0, t1)
        );
        assert_eq!(
            *m.goodput(sink, c),
            extract::goodput_series(trace, sink, c, t0, t1, GOODPUT_BIN)
        );
        assert!(m.delivered(sink, c) > 0, "{c:?} delivered nothing");
    }
    run
}

/// One-way baseline: the original five measurements on a real TCP trace.
#[test]
fn streamed_run_agrees_with_its_own_trace() {
    run_and_compare_feeds(fig2::scenario(3, 120));
}

/// The fig45 dumbbell: ACK deliveries, goodput and sojourns under
/// two-way traffic, where ACKs queue behind data.
#[test]
fn streamed_fig45_dumbbell_agrees_with_its_own_trace() {
    let run = run_and_compare_feeds(fig45::scenario(3, 120, 20));
    let m = run.metrics();
    assert!(m.mean_ack_sojourn(run.bottleneck_12).is_some());
    assert!(run.ack_spacing(run.fwd[0]).is_some());
}

/// A Fair-Queueing bottleneck serves packets out of arrival order, so
/// sojourns pair up only when matched by packet id.
#[test]
fn streamed_fair_queueing_run_agrees_with_its_own_trace() {
    let mut sc = fig45::scenario(3, 120, 20);
    sc.discipline = DisciplineKind::FairQueueing;
    let run = run_and_compare_feeds(sc);
    let sojourns = run.metrics().sojourns(run.bottleneck_12);
    assert!(
        sojourns.windows(2).any(|w| w[1].enqueued < w[0].enqueued),
        "fair queueing never reordered: the run does not exercise id matching"
    );
}

/// A `chaos` burst-loss run: fault drops remove pending sojourns, and
/// retransmitted packets are delivered.
#[test]
fn streamed_burst_loss_run_agrees_with_its_own_trace() {
    let mut sc = fig45::scenario(3, 120, 20);
    let ge = GilbertElliott::new(0.05, 0.20, 0.90).expect("valid probabilities");
    sc.fault_fwd = FaultPlan::with_burst(ge);
    let run = run_and_compare_feeds(sc);
    let m = run.metrics();
    assert!(
        m.drops().iter().any(|d| d.reason == DropReason::Fault),
        "burst loss dropped nothing"
    );
    assert!(
        run.deliveries(run.fwd[0]).iter().any(|d| d.pkt.retx),
        "no retransmission was delivered"
    );
}

/// A run built through `Scenario::trace_free` never allocates its trace
/// and still answers every `Run` accessor; the full fig8 report renders
/// that way with every check row populated.
#[test]
fn trace_free_run_answers_every_accessor() {
    let mut sc = fig45::scenario(1, 30, 20).trace_free();
    sc.warmup = SimDuration::from_secs(5);
    let run = sc.run();
    assert!(run.world.trace().is_empty(), "trace must stay off");
    assert_eq!(run.world.trace().capacity(), 0, "trace must not allocate");
    assert!(run.util12() > 0.1);
    assert!(run.util21() > 0.1);
    assert!(!run.queue1().is_empty());
    assert!(!run.queue2().is_empty());
    let (a, b) = (run.fwd[0], run.rev[0]);
    assert!(!run.cwnd(a).is_empty());
    assert!(!run.cwnd(b).is_empty());
    let _ = run.drops();
    let _ = run.data_drop_fraction();
    let _ = run.clustering12();
    assert!(run.clustering12_all().is_some());
    assert!(run.ack_spacing(a).is_some());
    assert!(run.ack_spacing(b).is_some());
    assert!(!run.deliveries(a).is_empty());
    assert!(run.delivered(a) > 0 && run.delivered(b) > 0);
    assert_eq!(run.goodput(a).len(), 5, "25 s window in 5 s bins");
    assert!(run.mean_ack_sojourn12().is_some());
    let rep = fig89::report_fig8(1, 60);
    assert!(rep.rows.len() >= 7, "metrics block incomplete: {rep}");
}

/// Counts what it is fed; stands in for an observer a caller registers
/// on a built run.
struct Counting(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl TraceObserver for Counting {
    fn on_record(&mut self, _: SimTime, _: &TraceEvent) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// `finish` takes its analyzer by type: an observer the caller added
/// after `build()` sits behind it in the list, is fed the whole run, and
/// is still registered afterwards.
#[test]
fn finish_finds_its_analyzer_among_other_observers() {
    let mut sc = fig45::scenario(1, 30, 20).trace_free();
    sc.warmup = SimDuration::from_secs(5);
    let mut run = sc.build();
    let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    run.world.add_observer(Box::new(Counting(seen.clone())));
    sc.finish(&mut run);
    assert!(run.util12() > 0.1);
    assert!(seen.load(std::sync::atomic::Ordering::Relaxed) > 1000);
    let left = run.world.take_observers();
    assert_eq!(left.len(), 1, "the caller's observer must stay registered");
    assert!(left
        .into_iter()
        .all(|o| o.into_any().downcast::<Counting>().is_ok()));
}

/// `Run::ack_spacing` on a run that recorded nothing must say so, not
/// answer `None` as if no ACK had arrived.
#[test]
#[should_panic(expected = "recorded nothing")]
fn ack_spacing_of_a_run_that_recorded_nothing_panics() {
    let mut sc = fig45::scenario(1, 20, 20);
    sc.record_trace = false;
    let run = sc.run();
    let _ = run.ack_spacing(run.fwd[0]);
}
