//! Cross-crate conservation and sanity invariants.
//!
//! Randomized-scenario tests: whatever the topology, workload, and
//! timing, packets must be conserved, buffers must respect their
//! capacity, and the transport must stay reliable. Scenarios are drawn
//! from the engine's own deterministic [`SimRng`] with a fixed seed per
//! case, so every failure reproduces by case number without any external
//! test-framework dependency.

use std::collections::HashMap;
use tahoe_dynamics::engine::{SimDuration, SimRng};
use tahoe_dynamics::experiments::{ConnSpec, Scenario};
use tahoe_dynamics::net::{PacketId, TraceEvent};
use tahoe_dynamics::tcp::{ReceiverConfig, SenderConfig};

const CASES: u64 = 24;

/// Build a randomized small scenario.
fn scenario(rng: &mut SimRng) -> Scenario {
    let seed = rng.next_range(1, 999);
    let tau_ms = rng.next_range(1, 1999);
    let buffer = if rng.chance(0.5) {
        None
    } else {
        Some(rng.next_range(2, 39) as u32)
    };
    let nf = rng.next_range(1, 3) as usize;
    let nr = rng.next_below(4) as usize;
    let dur = rng.next_range(20, 89);
    let spec = if rng.chance(0.5) {
        ConnSpec::fixed(5 + seed % 20)
    } else {
        ConnSpec::paper()
    };
    let mut sc = Scenario::paper(seed, dur, SimDuration::from_millis(tau_ms), buffer)
        .with_fwd(nf, spec)
        .with_rev(nr, spec);
    sc.warmup = SimDuration::from_secs(dur / 4);
    sc
}

/// Every packet ever sent is eventually delivered, dropped, or still
/// in flight — nothing is duplicated or vanishes.
#[test]
fn packets_are_conserved() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x00C0_95E8 + case);
        let run = scenario(&mut rng).run();
        let mut state: HashMap<PacketId, &'static str> = HashMap::new();
        for r in run.world.trace().records() {
            match r.ev {
                TraceEvent::Send { pkt, .. } => {
                    let prev = state.insert(pkt.id, "inflight");
                    assert!(
                        prev.is_none(),
                        "case {case}: packet id reused: {:?}",
                        pkt.id
                    );
                }
                TraceEvent::Drop { pkt, .. } => {
                    let prev = state.insert(pkt.id, "dropped");
                    assert_eq!(
                        prev,
                        Some("inflight"),
                        "case {case}: drop of non-inflight packet"
                    );
                }
                TraceEvent::Deliver { pkt, .. } => {
                    let prev = state.insert(pkt.id, "delivered");
                    assert_eq!(
                        prev,
                        Some("inflight"),
                        "case {case}: delivery of non-inflight packet"
                    );
                }
                _ => {}
            }
        }
        // Every state is one of the three; counts add up by construction.
        let delivered = state.values().filter(|&&s| s == "delivered").count();
        let total = state.len();
        assert!(total > 0, "case {case}: nothing was ever sent");
        assert!(delivered > 0, "case {case}: nothing was ever delivered");
    }
}

/// Buffer occupancy never exceeds the configured capacity.
#[test]
fn capacity_is_respected() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0CA9_AC17 + case);
        let sc = scenario(&mut rng);
        let cap = sc.buffer;
        let run = sc.run();
        if let Some(cap) = cap {
            for r in run.world.trace().records() {
                if let TraceEvent::Enqueue { ch, qlen_after, .. } = r.ev {
                    if ch == run.bottleneck_12 || ch == run.bottleneck_21 {
                        assert!(
                            qlen_after <= cap,
                            "case {case}: occupancy {qlen_after} > capacity {cap}"
                        );
                    }
                }
            }
        }
    }
}

/// The receiver's cumulative point equals its delivered count:
/// delivery is contiguous and exactly-once (transport reliability).
#[test]
fn transport_is_reliable() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x8E11_A81E + case);
        let run = scenario(&mut rng).run();
        for conn in run.conns() {
            let rx = run.receiver(conn);
            assert_eq!(rx.cumulative_ack(), rx.stats().delivered, "case {case}");
        }
    }
}

/// Flight size is window-bounded — except transiently after a loss,
/// where Tahoe collapses the window to 1 while the old flight is
/// still draining (BSD restores `snd_nxt` after fast retransmit).
#[test]
fn flight_never_exceeds_window() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x00F1_19A7 + case);
        let run = scenario(&mut rng).run();
        for conn in run.conns() {
            let tx = run.sender(conn);
            let st = tx.stats();
            let in_recovery = st.fast_retransmits + st.timeouts > 0;
            assert!(
                tx.outstanding() <= tx.window() || in_recovery,
                "case {case}, conn {:?}: {} in flight > window {} with no loss ever detected",
                conn,
                tx.outstanding(),
                tx.window()
            );
            // Even in recovery the flight is bounded by the configured
            // maximum window.
            assert!(tx.outstanding() <= 1000, "case {case}");
        }
    }
}

/// Utilization is a fraction.
#[test]
fn utilization_is_a_fraction() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0711_17A7 + case);
        let run = scenario(&mut rng).run();
        for u in [run.util12(), run.util21()] {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "case {case}: utilization {u}"
            );
        }
    }
}

/// Identical scenarios replay bit-identically.
#[test]
fn runs_are_deterministic() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xDE7E_8311 + case);
        let sc = scenario(&mut rng);
        let a = sc.run();
        let b = sc.run();
        assert_eq!(
            a.world.events_dispatched(),
            b.world.events_dispatched(),
            "case {case}"
        );
        assert_eq!(a.world.trace().len(), b.world.trace().len(), "case {case}");
        // Spot-check the full event streams match, not just the lengths.
        for (x, y) in a
            .world
            .trace()
            .records()
            .iter()
            .zip(b.world.trace().records())
        {
            assert_eq!(x, y, "case {case}");
        }
    }
}

/// Historical shrunken failure (from the retired property-test corpus):
/// three forward paper connections against one reverse over a 0.82 s
/// path with a 29-packet buffer. Re-runs the full invariant battery.
#[test]
fn regression_three_against_one_long_path() {
    let mut sc = Scenario::paper(1, 20, SimDuration::from_millis(820), Some(29))
        .with_fwd(3, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    sc.warmup = SimDuration::from_secs(5);
    let run = sc.run();
    let mut state: HashMap<PacketId, u8> = HashMap::new();
    for r in run.world.trace().records() {
        match r.ev {
            TraceEvent::Send { pkt, .. } => {
                assert!(state.insert(pkt.id, 0).is_none());
            }
            TraceEvent::Drop { pkt, .. } => {
                assert_eq!(state.insert(pkt.id, 1), Some(0));
            }
            TraceEvent::Deliver { pkt, .. } => {
                assert_eq!(state.insert(pkt.id, 2), Some(0));
            }
            _ => {}
        }
    }
    for conn in run.conns() {
        let rx = run.receiver(conn);
        assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
        let tx = run.sender(conn);
        let st = tx.stats();
        assert!(
            tx.outstanding() <= tx.window() || st.fast_retransmits + st.timeouts > 0,
            "conn {conn:?}"
        );
    }
}

/// Sequence numbers delivered in order per connection (one adversarial
/// deterministic case with heavy loss).
#[test]
fn in_order_delivery_under_heavy_congestion() {
    let mut sc = Scenario::paper(1, 200, SimDuration::from_millis(10), Some(3))
        .with_fwd(2, ConnSpec::paper())
        .with_rev(2, ConnSpec::paper());
    sc.warmup = SimDuration::from_secs(40);
    let run = sc.run();
    let drops = run.drops();
    assert!(!drops.is_empty(), "a 3-packet buffer must drop");
    for conn in run.conns() {
        let rx = run.receiver(conn);
        assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
        assert!(rx.stats().delivered > 100, "conn {conn:?} starved");
    }
}

/// Zero-size ACKs and fixed windows: the conservation laws hold in the
/// idealized conjecture configuration too.
#[test]
fn conservation_with_zero_size_acks() {
    let spec = ConnSpec {
        sender: SenderConfig::fixed_window(20),
        receiver: ReceiverConfig::zero_ack(),
    };
    let mut sc = Scenario::paper(1, 100, SimDuration::from_secs(1), None)
        .with_fwd(1, spec)
        .with_rev(1, spec);
    sc.warmup = SimDuration::from_secs(20);
    let run = sc.run();
    assert!(run.drops().is_empty(), "infinite buffers cannot drop");
    for conn in run.conns() {
        let rx = run.receiver(conn);
        assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
    }
}
