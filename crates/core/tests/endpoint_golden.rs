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
//! only when behaviour does — or when packet ids are relabelled, since
//! the rendering includes them. TDSN v5 moved both pairs for that reason
//! alone: it stamps ids from per-endpoint counters instead of one world
//! counter, and with ids blanked the second pair read the same before
//! and after.
//!
//! Every case also restores its mid-run snapshot onto a freshly built
//! world and runs it to the end: the result must hash like the
//! uninterrupted run, in both pins.

use td_core::{
    CcKind, DelayedAck, DuplexStats, IncrementRule, ReceiverConfig, SenderConfig, SenderStats,
    TcpDuplex, TcpReceiver, TcpSender,
};
use td_engine::{fnv1a, fnv1a_continue, Rate, SimDuration, SimTime};
use td_net::{ConnId, DisciplineKind, Endpoint, EndpointId, FaultPlan, NodeId, TraceEvent, World};

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
    );
    w.set_fault_plan(fwd, FaultPlan::lossy(fwd_loss)).unwrap();
    w.add_channel(
        h1,
        h0,
        Rate::from_kbps(50),
        SimDuration::from_millis(10),
        capacity,
        DisciplineKind::DropTail.build(),
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
        (0x16bc_d011_c362_0632, 0x11f5_d1c1_faf6_0a2c),
        (0xa83e_74c1_ac0c_7c6e, 0x8d98_cd84_db74_3711),
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
        (0x092c_4839_a297_2825, 0xaf71_f758_fc5a_c0f0),
        (0x6a55_f3de_3693_812d, 0x7fa9_cc5b_c34e_3901),
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
        (0xf078_7806_10e9_381e, 0xca25_ddaf_0182_a0c7),
        (0xa006_174c_b5b9_f83c, 0x0e0f_9eb3_e874_b1d1),
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
        (0x0203_d75e_7e19_756b, 0xe0a3_1533_7e08_c0ff),
        (0xccbc_7177_1169_9b5c, 0x5420_9592_2c1d_444a),
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
        (0x1b9a_b5ff_45d3_d63a, 0x3246_5759_0bf7_bb29),
        (0x07cc_ad46_d4fd_c842, 0xbcdd_5cc5_dfd2_9ba4),
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
        (0x6d2a_7247_af3d_d316, 0x90f7_2a95_29bc_c036),
        (0x79a6_65f2_4858_abee, 0xf041_1b53_b586_6492),
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
        (0x8218_5c1b_016f_0b8f, 0x70ef_190c_f828_95d5),
        (0x6004_6270_cb96_ecff, 0x4666_0708_ac21_bf5a),
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
        (0x0347_416c_5261_fa4b, 0xf55c_3cb6_4eea_7130),
        (0xb0d8_212e_450c_c950, 0xc36f_9cb1_4094_139d),
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
        (0x9c0a_302e_4dc7_366e, 0x7dee_5712_54e8_2613),
        (0x18e5_4a49_8646_6d38, 0x0f61_5b78_90e9_4182),
    );
}

/// `World::state_hash` of one case at mid-run. TCP endpoints hold armed
/// RTO timers there, so the hash runs through the timer-handle index
/// path, which the snapshot pins above reach only through TDSN.
#[test]
fn state_hash_is_pinned_at_mid_run() {
    let (mut w, _) = one_way(
        two_hosts(11, Some(5), 0.0).0,
        SenderConfig::paper(),
        ReceiverConfig::paper(),
    );
    w.run_until(SimTime::from_secs(25));
    let got = w.state_hash();
    assert_eq!(
        got, 0xd800_7ed0_e1f4_7f5e,
        "state_hash moved: got {got:#018x}"
    );
}
