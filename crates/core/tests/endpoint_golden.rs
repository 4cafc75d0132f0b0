//! Golden pins for every TCP endpoint variant.
//!
//! One seeded world per variant, trace on: Tahoe (modified rule, with and
//! without delayed ACKs; original rule), Reno and DECbit behind a
//! 4-packet buffer, a paced fixed-window sender, a finite transfer run to
//! completion, and `TcpDuplex` pairs under loss with delayed ACKs on and
//! off. Each world's snapshot bytes — event queue, every endpoint's
//! protocol state and the full trace — are hashed (FNV-1a) at a mid-run
//! point and at the end, and compared against constants recorded before
//! the endpoints were rebuilt from shared send/receive halves. A change
//! to the order of trace records, of timer schedules or cancels, or to an
//! endpoint's snapshot layout moves a hash.
//!
//! Every case also restores its mid-run snapshot onto a freshly built
//! world and runs it to the end: the result must hash like the
//! uninterrupted run.

use td_core::{
    CcKind, DelayedAck, DuplexStats, IncrementRule, ReceiverConfig, SenderConfig, SenderStats,
    TcpDuplex, TcpReceiver, TcpSender,
};
use td_engine::{fnv1a, Rate, SimDuration, SimTime};
use td_net::{ConnId, DisciplineKind, Endpoint, EndpointId, FaultModel, NodeId, TraceEvent, World};

/// Where a golden run stops.
#[derive(Clone, Copy)]
enum End {
    At(SimTime),
    /// Until the event queue drains (finite transfers).
    Completion,
}

struct Case {
    build: fn() -> (World, EndpointId),
    mid: SimTime,
    end: End,
}

fn finish(w: &mut World, end: End) {
    match end {
        End::At(t) => w.run_until(t),
        End::Completion => w.run_to_completion(),
    }
}

/// Run `case` straight through, and again resumed from its mid-run
/// snapshot; returns the finished world and the (mid, end) hashes.
fn run(case: &Case) -> (World, EndpointId, (u64, u64)) {
    let (mut w, ep) = (case.build)();
    w.run_until(case.mid);
    let mid = w.snapshot();
    finish(&mut w, case.end);
    let hashes = (fnv1a(mid.as_bytes()), fnv1a(w.snapshot().as_bytes()));

    let (mut resumed, _) = (case.build)();
    resumed.restore(&mid).expect("mid-run snapshot restores");
    finish(&mut resumed, case.end);
    assert_eq!(
        fnv1a(resumed.snapshot().as_bytes()),
        hashes.1,
        "resuming from the mid-run snapshot diverged"
    );
    (w, ep, hashes)
}

fn assert_hashes(got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "snapshot hashes moved: got (mid {:#018x}, end {:#018x})",
        got.0, got.1
    );
}

/// Two hosts joined by a 50 Kbit/s, 10 ms duplex link whose forward
/// buffer holds `capacity` packets; `fwd_loss` drops at random on the
/// forward direction. Returns the world and the forward channel's id.
fn two_hosts(seed: u64, capacity: Option<u32>, fwd_loss: f64) -> (World, td_net::ChannelId) {
    let mut w = World::new(seed);
    let h0 = w.add_host("src", SimDuration::from_micros(100));
    let h1 = w.add_host("dst", SimDuration::from_micros(100));
    let fwd = w.add_channel(
        h0,
        h1,
        Rate::from_kbps(50),
        SimDuration::from_millis(10),
        capacity,
        DisciplineKind::DropTail.build(),
        if fwd_loss > 0.0 {
            FaultModel::lossy(fwd_loss)
        } else {
            FaultModel::NONE
        },
    );
    w.add_channel(
        h1,
        h0,
        Rate::from_kbps(50),
        SimDuration::from_millis(10),
        capacity,
        DisciplineKind::DropTail.build(),
        FaultModel::NONE,
    );
    (w, fwd)
}

/// A one-way transfer from node 0 to node 1; returns the sender's id.
fn one_way(mut w: World, scfg: SenderConfig, rcfg: ReceiverConfig) -> (World, EndpointId) {
    let s = w.attach(NodeId(0), NodeId(1), ConnId(0), TcpSender::boxed(scfg));
    w.attach(NodeId(1), NodeId(0), ConnId(0), TcpReceiver::boxed(rcfg));
    w.start_at(s, SimTime::ZERO);
    (w, s)
}

fn delack() -> ReceiverConfig {
    ReceiverConfig {
        delayed_ack: Some(DelayedAck::default()),
        ..ReceiverConfig::paper()
    }
}

fn sender_stats(w: &World, ep: EndpointId) -> SenderStats {
    downcast::<TcpSender>(w.endpoint(ep).unwrap()).stats()
}

fn downcast<T: 'static>(ep: &dyn Endpoint) -> &T {
    ep.as_any().downcast_ref::<T>().unwrap()
}

fn ce_marked_deliveries(w: &World) -> usize {
    w.trace()
        .records()
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::Deliver { pkt, .. } if pkt.is_data() && pkt.ce))
        .count()
}

const SECS_60: End = End::At(SimTime::from_secs(60));

#[test]
fn tahoe_modified_delack_off() {
    let case = Case {
        build: || {
            one_way(
                two_hosts(11, Some(5), 0.0).0,
                SenderConfig::paper(),
                ReceiverConfig::paper(),
            )
        },
        mid: SimTime::from_secs(25),
        end: SECS_60,
    };
    let (w, s, got) = run(&case);
    let st = sender_stats(&w, s);
    assert!(st.fast_retransmits > 0 && st.timeouts > 0, "{st:?}");
    assert_hashes(got, (0xdee0_0c29_74a3_a822, 0x1369_9b21_32b1_7d7a));
}

#[test]
fn tahoe_modified_delack_on() {
    let case = Case {
        build: || {
            one_way(
                two_hosts(12, Some(5), 0.0).0,
                SenderConfig::paper(),
                delack(),
            )
        },
        mid: SimTime::from_secs(25),
        end: SECS_60,
    };
    let (w, s, got) = run(&case);
    let st = sender_stats(&w, s);
    assert!(st.retransmits > 0, "{st:?}");
    assert_hashes(got, (0x92c4_4650_523a_67c2, 0xcd4c_b607_dd35_3a23));
}

#[test]
fn tahoe_original() {
    let case = Case {
        build: || {
            let scfg = SenderConfig {
                cc: CcKind::Tahoe {
                    rule: IncrementRule::Original,
                },
                ..SenderConfig::paper()
            };
            one_way(two_hosts(13, Some(5), 0.0).0, scfg, ReceiverConfig::paper())
        },
        mid: SimTime::from_secs(25),
        end: SECS_60,
    };
    let (w, s, got) = run(&case);
    assert!(sender_stats(&w, s).retransmits > 0);
    assert_hashes(got, (0xbc3a_e421_9ec8_3b95, 0xa8a7_a600_2d1d_4a03));
}

#[test]
fn reno_behind_four_packet_buffer() {
    let case = Case {
        build: || {
            let scfg = SenderConfig {
                cc: CcKind::Reno,
                ..SenderConfig::paper()
            };
            one_way(two_hosts(14, Some(4), 0.0).0, scfg, ReceiverConfig::paper())
        },
        mid: SimTime::from_secs(25),
        end: SECS_60,
    };
    let (w, s, got) = run(&case);
    let st = sender_stats(&w, s);
    assert!(st.fast_retransmits > 0 && st.timeouts > 0, "{st:?}");
    assert_hashes(got, (0x51c1_ad08_10c1_78ca, 0xdb4c_4143_52e0_e0f3));
}

#[test]
fn decbit_behind_four_packet_buffer() {
    let case = Case {
        build: || {
            let (mut w, fwd) = two_hosts(15, Some(4), 0.02);
            w.set_mark_threshold(fwd, Some(2));
            let scfg = SenderConfig {
                cc: CcKind::Decbit,
                ..SenderConfig::paper()
            };
            one_way(w, scfg, ReceiverConfig::paper())
        },
        mid: SimTime::from_secs(25),
        end: SECS_60,
    };
    let (w, s, got) = run(&case);
    let st = sender_stats(&w, s);
    assert!(st.fast_retransmits > 0 && st.timeouts > 0, "{st:?}");
    assert!(
        ce_marked_deliveries(&w) > 0,
        "no CE mark reached the receiver"
    );
    assert_hashes(got, (0x2c37_8e17_46a9_2394, 0xcd00_525f_c8eb_c79a));
}

#[test]
fn paced_fixed_window() {
    let case = Case {
        build: || {
            let scfg = SenderConfig {
                pacing: Some(SimDuration::from_millis(60)),
                ..SenderConfig::fixed_window(10)
            };
            one_way(two_hosts(16, None, 0.0).0, scfg, ReceiverConfig::paper())
        },
        mid: SimTime::from_secs(10),
        end: End::At(SimTime::from_secs(30)),
    };
    let (w, s, got) = run(&case);
    assert!(sender_stats(&w, s).new_data_sent > 300);
    assert_hashes(got, (0x9072_b853_52cd_b58a, 0x86e3_9b8a_e8df_af13));
}

#[test]
fn finite_transfer_to_completion() {
    let case = Case {
        build: || {
            let scfg = SenderConfig {
                data_limit: Some(200),
                ..SenderConfig::paper()
            };
            one_way(two_hosts(17, Some(4), 0.0).0, scfg, ReceiverConfig::paper())
        },
        mid: SimTime::from_secs(6),
        end: End::Completion,
    };
    let (w, s, got) = run(&case);
    let snd = downcast::<TcpSender>(w.endpoint(s).unwrap());
    assert!(snd.finished_at().is_some(), "transfer must complete");
    assert_eq!(snd.stats().acked, 200);
    assert!(snd.stats().retransmits > 0, "the 4-packet buffer must drop");
    assert_hashes(got, (0x9f43_1ae0_35f2_cc22, 0x6d49_5846_ca90_979c));
}

/// A duplex connection with bulk data both ways over 4-packet buffers;
/// returns the first endpoint's id.
fn duplex_pair(seed: u64, delayed: bool) -> (World, EndpointId) {
    let (mut w, _) = two_hosts(seed, Some(4), 0.0);
    let rcfg = if delayed {
        delack()
    } else {
        ReceiverConfig::paper()
    };
    let scfg = SenderConfig::paper();
    let a = w.attach(
        NodeId(0),
        NodeId(1),
        ConnId(0),
        TcpDuplex::boxed(scfg, rcfg),
    );
    let b = w.attach(
        NodeId(1),
        NodeId(0),
        ConnId(0),
        TcpDuplex::boxed(scfg, rcfg),
    );
    w.start_at(a, SimTime::ZERO);
    w.start_at(b, SimTime::from_millis(137));
    (w, a)
}

fn duplex_stats(w: &World, ep: EndpointId) -> DuplexStats {
    downcast::<TcpDuplex>(w.endpoint(ep).unwrap()).stats()
}

#[test]
fn duplex_delack_off_under_loss() {
    let case = Case {
        build: || duplex_pair(18, false),
        mid: SimTime::from_secs(25),
        end: SECS_60,
    };
    let (w, a, got) = run(&case);
    let st = duplex_stats(&w, a);
    assert!(st.fast_retransmits + st.timeouts > 0, "{st:?}");
    assert_hashes(got, (0xf9bb_7f5f_effc_cee0, 0xf8b7_3ae4_940f_99b4));
}

#[test]
fn duplex_delack_on_under_loss() {
    let case = Case {
        build: || duplex_pair(19, true),
        mid: SimTime::from_secs(25),
        end: SECS_60,
    };
    let (w, a, got) = run(&case);
    let st = duplex_stats(&w, a);
    assert!(st.fast_retransmits + st.timeouts > 0, "{st:?}");
    assert!(st.piggybacked_acks > 0, "{st:?}");
    assert_hashes(got, (0xac52_5787_f848_0308, 0x2c34_49da_b023_3741));
}
