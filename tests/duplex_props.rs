//! Property tests for the duplex (bidirectional, piggybacking) endpoint:
//! reliability and conservation must hold for arbitrary buffer sizes,
//! delays, window caps, and delayed-ACK settings.
//!
//! Configurations are drawn from the engine's deterministic [`SimRng`]
//! with one fixed seed per case; two historical shrunken failures from
//! the retired property-test corpus are kept as explicit regressions.

use tahoe_dynamics::engine::{Rate, SimDuration, SimRng, SimTime};
use tahoe_dynamics::net::{ConnId, DisciplineKind, World};
use tahoe_dynamics::tcp::{DelayedAck, ReceiverConfig, SenderConfig, TcpDuplex};

const CASES: u64 = 32;

#[derive(Debug, Clone)]
struct Cfg {
    seed: u64,
    tau_ms: u64,
    buffer: Option<u32>,
    maxwnd: u64,
    delack: bool,
    secs: u64,
}

fn cfg(rng: &mut SimRng) -> Cfg {
    Cfg {
        seed: rng.next_range(1, 499),
        tau_ms: rng.next_range(1, 1499),
        buffer: if rng.chance(0.5) {
            None
        } else {
            Some(rng.next_range(3, 39) as u32)
        },
        maxwnd: rng.next_range(2, 39),
        delack: rng.chance(0.5),
        secs: rng.next_range(30, 89),
    }
}

fn run(
    c: &Cfg,
) -> (
    World,
    tahoe_dynamics::net::EndpointId,
    tahoe_dynamics::net::EndpointId,
) {
    let mut w = World::new(c.seed);
    let a = w.add_host("A", SimDuration::from_micros(100));
    let b = w.add_host("B", SimDuration::from_micros(100));
    for (x, y) in [(a, b), (b, a)] {
        w.add_channel(
            x,
            y,
            Rate::from_kbps(50),
            SimDuration::from_millis(c.tau_ms),
            c.buffer,
            DisciplineKind::DropTail.build(),
        );
    }
    let scfg = SenderConfig {
        maxwnd: c.maxwnd,
        ..SenderConfig::paper()
    };
    let rcfg = ReceiverConfig {
        delayed_ack: c.delack.then(DelayedAck::default),
        ..ReceiverConfig::paper()
    };
    let ea = w.attach(a, b, ConnId(0), TcpDuplex::boxed(scfg, rcfg));
    let eb = w.attach(b, a, ConnId(0), TcpDuplex::boxed(scfg, rcfg));
    w.start_at(ea, SimTime::ZERO);
    w.start_at(eb, SimTime::from_millis(c.seed % 997));
    w.run_until(SimTime::from_secs(c.secs));
    (w, ea, eb)
}

fn duplex(w: &World, ep: tahoe_dynamics::net::EndpointId) -> &TcpDuplex {
    w.endpoint(ep)
        .unwrap()
        .as_any()
        .downcast_ref::<TcpDuplex>()
        .unwrap()
}

/// Both directions deliver contiguous, exactly-once streams.
fn check_reliable(c: &Cfg) {
    let (w, ea, eb) = run(c);
    for ep in [ea, eb] {
        let d = duplex(&w, ep);
        assert_eq!(d.cumulative_ack(), d.stats().delivered, "{c:?}");
    }
}

/// Both directions make progress (no deadlock for any combination of
/// options — the mutual-clocking loop must be live).
fn check_liveness(c: &Cfg) {
    let (w, ea, eb) = run(c);
    // At 12.5 pkt/s peak, even a badly congested run moves data.
    let floor = c.secs / 4;
    for ep in [ea, eb] {
        let d = duplex(&w, ep);
        assert!(
            d.stats().delivered >= floor,
            "delivered {} in {} s: {:?}",
            d.stats().delivered,
            c.secs,
            c
        );
    }
}

/// Ack accounting is exhaustive: every received data packet's ack went
/// out pure or piggybacked (within the in-flight tail).
fn check_ack_accounting(c: &Cfg) {
    let (w, ea, eb) = run(c);
    for ep in [ea, eb] {
        let d = duplex(&w, ep);
        let s = d.stats();
        let acked_somehow = s.pure_acks_sent + s.piggybacked_acks;
        // Every ack answers an arriving data packet: in-order
        // deliveries plus duplicates from go-back-N (e.g. after a
        // spurious RTO when the queueing RTT outgrows the initial
        // timer) plus out-of-order arrivals. The duplicates are
        // bounded by what the peer retransmitted.
        let peer = duplex(&w, if ep == ea { eb } else { ea }).stats();
        // Plus up to a window of out-of-order segments acked on
        // arrival but still in the reassembly queue at the cutoff.
        assert!(
            acked_somehow <= s.delivered + peer.retransmits + c.maxwnd + 2,
            "{acked_somehow} acks vs {} deliveries + {} peer retx (maxwnd {}): {:?}",
            s.delivered,
            peer.retransmits,
            c.maxwnd,
            c
        );
        assert!(
            acked_somehow * 3 >= s.delivered,
            "too few acks: {s:?} {c:?}"
        );
    }
}

#[test]
fn duplex_is_reliable() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0D09_8E11 + case);
        check_reliable(&cfg(&mut rng));
    }
}

#[test]
fn duplex_never_deadlocks() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0D09_11FE + case);
        check_liveness(&cfg(&mut rng));
    }
}

#[test]
fn duplex_ack_accounting() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0D09_AC75 + case);
        check_ack_accounting(&cfg(&mut rng));
    }
}

/// Historical shrunken failures from the retired property-test corpus.
#[test]
fn duplex_regressions() {
    let r1 = Cfg {
        seed: 1,
        tau_ms: 319,
        buffer: None,
        maxwnd: 32,
        delack: false,
        secs: 30,
    };
    let r2 = Cfg {
        seed: 1,
        tau_ms: 919,
        buffer: Some(15),
        maxwnd: 31,
        delack: true,
        secs: 30,
    };
    for c in [r1, r2] {
        check_reliable(&c);
        check_liveness(&c);
        check_ack_accounting(&c);
    }
}
