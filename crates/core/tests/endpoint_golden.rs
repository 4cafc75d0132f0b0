//! Golden pins for every TCP endpoint variant.
//!
//! One seeded world per variant, trace on: Tahoe (modified rule, with and
//! without delayed ACKs; original rule), Reno and DECbit behind a
//! 4-packet buffer, a paced fixed-window sender, a finite transfer run to
//! completion, and `TcpDuplex` pairs under loss with delayed ACKs on and
//! off. Each world's snapshot bytes — pending events, every endpoint's
//! protocol state and the full trace — are hashed (FNV-1a) at a mid-run
//! point and at the end. A change to the order of trace records, of timer
//! schedules or cancels, or to an endpoint's snapshot layout moves a hash.
//!
//! Each case carries a second pin that does not depend on the snapshot
//! layout: FNV-1a over the `{:?}` rendering of every trace record and of
//! every endpoint's stats struct, again at mid-run and at the end. A
//! snapshot format change re-records the first pair only (TDSN v4, which
//! stopped writing the event queue's slab, did); the second pair moves
//! only when behaviour does.
//!
//! Every case also restores its mid-run snapshot onto a freshly built
//! world and runs it to the end: the result must hash like the
//! uninterrupted run, in both pins.

use td_core::{
    CcKind, DelayedAck, DuplexStats, IncrementRule, ReceiverConfig, SenderConfig, SenderStats,
    TcpDuplex, TcpReceiver, TcpSender,
};
use td_engine::{fnv1a, fnv1a_continue, Rate, SimDuration, SimTime};
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

/// A case's pins, each as (mid-run, end).
struct Pins {
    /// FNV-1a of the snapshot bytes.
    snapshot: (u64, u64),
    /// [`behaviour`] of the world.
    behaviour: (u64, u64),
}

/// FNV-1a over the `{:?}` rendering of every trace record, one per line,
/// then of every endpoint's stats struct: what the run did, blind to how
/// a snapshot lays out its bytes.
fn behaviour(w: &World) -> u64 {
    let mut h = fnv1a(b"");
    for rec in w.trace().records() {
        h = fnv1a_continue(h, format!("{rec:?}\n").as_bytes());
    }
    for ep in (0..).map_while(|i| w.endpoint(EndpointId(i))) {
        let any = ep.as_any();
        let stats = if let Some(s) = any.downcast_ref::<TcpSender>() {
            format!("{:?}\n", s.stats())
        } else if let Some(r) = any.downcast_ref::<TcpReceiver>() {
            format!("{:?}\n", r.stats())
        } else if let Some(d) = any.downcast_ref::<TcpDuplex>() {
            format!("{:?}\n", d.stats())
        } else {
            panic!("endpoint without a stats struct")
        };
        h = fnv1a_continue(h, stats.as_bytes());
    }
    h
}

/// Run `case` straight through, and again resumed from its mid-run
/// snapshot; returns the finished world and its pins.
fn run(case: &Case) -> (World, EndpointId, Pins) {
    let (mut w, ep) = (case.build)();
    w.run_until(case.mid);
    let mid = w.snapshot();
    let mid_behaviour = behaviour(&w);
    finish(&mut w, case.end);
    let pins = Pins {
        snapshot: (fnv1a(mid.as_bytes()), fnv1a(w.snapshot().as_bytes())),
        behaviour: (mid_behaviour, behaviour(&w)),
    };

    let (mut resumed, _) = (case.build)();
    resumed.restore(&mid).expect("mid-run snapshot restores");
    finish(&mut resumed, case.end);
    assert_eq!(
        fnv1a(resumed.snapshot().as_bytes()),
        pins.snapshot.1,
        "resuming from the mid-run snapshot diverged"
    );
    assert_eq!(
        behaviour(&resumed),
        pins.behaviour.1,
        "resuming from the mid-run snapshot changed behaviour"
    );
    (w, ep, pins)
}

fn assert_pins(got: &Pins, snapshot: (u64, u64), behaviour: (u64, u64)) {
    let show = |(mid, end): (u64, u64)| format!("(mid {mid:#018x}, end {end:#018x})");
    assert_eq!(
        got.behaviour,
        behaviour,
        "behaviour hashes moved: got {}",
        show(got.behaviour)
    );
    assert_eq!(
        got.snapshot,
        snapshot,
        "snapshot hashes moved: got {}",
        show(got.snapshot)
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
    assert_pins(
        &got,
        (0x0ed1_101c_f654_209b, 0xc674_ff94_8a15_0f78),
        (0x0879_d3d1_5775_43d5, 0xe081_ded5_2040_f19c),
    );
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
    assert_pins(
        &got,
        (0xe3a1_942f_6de1_bf0c, 0xdd68_5158_5f34_5931),
        (0x27dc_76ea_d909_4150, 0x450e_06df_e11e_5066),
    );
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
    assert_pins(
        &got,
        (0xef35_771f_2b7c_4338, 0xc67a_b4ad_8db7_e218),
        (0x3bf8_3d77_e826_b1d3, 0x1dc4_16d4_ca13_e87f),
    );
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
    assert_pins(
        &got,
        (0x1aac_01a5_fc17_82cc, 0xb963_12db_6cc2_9184),
        (0x1b42_e8f0_46f8_7006, 0x1c32_1cb9_66ba_bfa4),
    );
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
    assert_pins(
        &got,
        (0x0663_a65b_47a5_d977, 0x3cc3_8b0c_5f0c_0bef),
        (0x1a18_d6fd_ec79_96c6, 0xae8c_e9e8_5f66_3e35),
    );
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
    assert_pins(
        &got,
        (0xb3bf_fe87_7263_68c8, 0xddbe_d95b_cee1_83d6),
        (0x3efa_2e13_9308_3fec, 0x23d5_8d9b_02d9_40db),
    );
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
    assert_pins(
        &got,
        (0x3d9f_f473_7e81_e0e1, 0x8517_258a_3557_727d),
        (0xbcbe_b29f_6ded_e547, 0xa108_e9db_3fef_4612),
    );
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
    assert_pins(
        &got,
        (0xef00_c377_d15f_8af1, 0x4d13_0d49_2a66_1d8b),
        (0x380f_ba0e_0299_c334, 0x8fac_0c63_d45e_0e8e),
    );
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
    assert_pins(
        &got,
        (0x7f0c_f036_b36a_be12, 0xfa9f_7f21_fedc_a127),
        (0x0d62_273a_f3c9_db3a, 0x4ae6_23de_e33f_d18a),
    );
}
