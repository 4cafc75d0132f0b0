//! Piggybacked ACKs on a duplex connection — the paper's third
//! delayed-ACK trigger, exercised.
//!
//! §2.1 lists three ways a delayed ACK leaves the receiver: a second data
//! packet (coalescing), the conservative timer, or "a data packet
//! transmission in the other direction on which the ACK can be
//! piggy-backed". The paper's two-way workload uses two *separate*
//! connections, so the third trigger never fires there. This experiment
//! runs the same two-way byte streams over a **single duplex connection**
//! and measures what piggybacking changes:
//!
//! * with delayed ACKs on, nearly every acknowledgment rides a data
//!   packet — the pure-ACK count collapses versus the two-connection
//!   setup;
//! * with them off, immediate ACKing pre-empts piggybacking (the window
//!   is closed when data arrives, so the ack cannot wait for a carrier) —
//!   a neat demonstration of *why* the delayed-ACK option exists;
//! * full piggybacking removes the small-packet population entirely, and
//!   with it the data/ACK size asymmetry that ACK-compression requires:
//!   the queue-collapse rate drops to ~1 packet per service time, like
//!   one-way traffic.

use crate::fig45;
use crate::report::Report;
use crate::scenario::{run_observed, DATA_SERVICE};
use td_analysis::{compression, StreamSpec};
use td_core::{DelayedAck, ReceiverConfig, SenderConfig, TcpDuplex};
use td_engine::{SimDuration, SimTime};
use td_net::{dumbbell, ConnId, LinkSpec};

struct DuplexRun {
    pure_acks: u64,
    piggybacked: u64,
    delivered_each_way: (u64, u64),
    fluctuation: f64,
    util: (f64, f64),
}

fn run_duplex(
    seed: u64,
    duration_s: u64,
    delack: bool,
    buffer: Option<u32>,
    maxwnd: u64,
) -> DuplexRun {
    let spec = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), buffer);
    let mut d = dumbbell(
        seed,
        spec,
        LinkSpec::paper_host_link(),
        SimDuration::from_micros(100),
    );
    let scfg = SenderConfig {
        maxwnd,
        ..SenderConfig::paper()
    };
    let rcfg = ReceiverConfig {
        delayed_ack: delack.then(DelayedAck::default),
        ..ReceiverConfig::paper()
    };
    let ea = d
        .world
        .attach(d.host1, d.host2, ConnId(0), TcpDuplex::boxed(scfg, rcfg));
    let eb = d
        .world
        .attach(d.host2, d.host1, ConnId(0), TcpDuplex::boxed(scfg, rcfg));
    d.world.start_at(ea, SimTime::ZERO);
    d.world.start_at(eb, SimTime::from_millis(137));
    let t1 = SimTime::from_secs(duration_s);
    let t0 = SimTime::from_secs(duration_s / 5);
    let spec = StreamSpec::new()
        .queue(d.bottleneck_12)
        .utilization(d.bottleneck_12, t0, t1)
        .utilization(d.bottleneck_21, t0, t1);
    let m = run_observed(&mut d.world, &spec, t1);

    let get = |ep| {
        d.world
            .endpoint(ep)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpDuplex>()
            .unwrap()
            .stats()
    };
    let (sa, sb) = (get(ea), get(eb));
    let q1 = m.queue(d.bottleneck_12);
    DuplexRun {
        pure_acks: sa.pure_acks_sent + sb.pure_acks_sent,
        piggybacked: sa.piggybacked_acks + sb.piggybacked_acks,
        delivered_each_way: (sa.delivered, sb.delivered),
        fluctuation: compression::queue_fluctuation(q1, t0, t1, DATA_SERVICE),
        util: (
            m.utilization(d.bottleneck_12),
            m.utilization(d.bottleneck_21),
        ),
    }
}

/// Run and evaluate the piggybacking experiment.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "tbl-piggyback",
        "Duplex connection with piggybacked ACKs (paper Sec. 2.1's third delack trigger)",
        &format!("seed {seed}, {duration_s} s per cell, tau = 0.01 s, B = 20"),
    );

    // Baseline: the paper's two separate connections.
    let base = fig45::scenario(seed, duration_s, 20).trace_free().run();
    let base_acks: u64 = base
        .conns()
        .iter()
        .map(|&c| base.receiver(c).stats().acks_sent)
        .sum();

    // Loss-free cells isolate the piggybacking mechanism (window capped,
    // infinite buffers); the congested cell shows what loss recovery —
    // closed windows, dup-ACK signalling — does to the mix.
    let clean_on = run_duplex(seed, duration_s, true, None, 20);
    let clean_off = run_duplex(seed, duration_s, false, None, 20);
    let congested_on = run_duplex(seed, duration_s, true, Some(20), 1000);

    let piggy_frac =
        clean_on.piggybacked as f64 / (clean_on.piggybacked + clean_on.pure_acks) as f64;
    rep.check(
        "loss-free, delack on: acks riding data packets",
        "piggybacking dominates once acks may wait for a carrier",
        format!(
            "{:.0} % ({} piggybacked, {} pure)",
            piggy_frac * 100.0,
            clean_on.piggybacked,
            clean_on.pure_acks
        ),
        piggy_frac > 0.7,
    );

    let pure_frac =
        clean_off.pure_acks as f64 / (clean_off.piggybacked + clean_off.pure_acks) as f64;
    rep.check(
        "loss-free, delack off: immediate acking pre-empts piggybacking",
        "pure ACKs dominate (the ack cannot wait for a carrier)",
        format!(
            "{:.0} % pure ({} pure, {} piggybacked)",
            pure_frac * 100.0,
            clean_off.pure_acks,
            clean_off.piggybacked
        ),
        pure_frac > 0.7,
    );

    rep.check(
        "loss-free, delack on: queue collapse rate",
        "~1 packet per service time: equal-size segments cannot compress",
        format!("{:.0} packets", clean_on.fluctuation),
        clean_on.fluctuation <= 2.0,
    );

    rep.check(
        "loss-free, delack on: both directions progress",
        "bulk transfer in both directions on one connection",
        format!(
            "{} / {} packets delivered",
            clean_on.delivered_each_way.0, clean_on.delivered_each_way.1
        ),
        clean_on.delivered_each_way.0 > 500 && clean_on.delivered_each_way.1 > 500,
    );

    let cong_piggy = congested_on.piggybacked as f64
        / (congested_on.piggybacked + congested_on.pure_acks) as f64;
    rep.check(
        "congested (B = 20), delack on: piggyback share",
        "reduced by recovery stretches (closed windows force pure ACKs)",
        format!(
            "{:.0} % ({} piggybacked, {} pure; two-conn baseline sent {base_acks} pure ACKs)",
            cong_piggy * 100.0,
            congested_on.piggybacked,
            congested_on.pure_acks
        ),
        cong_piggy > 0.3 && cong_piggy < piggy_frac,
    );
    rep.info(
        "congested: utilization / queue collapse",
        "-",
        format!(
            "{:.3} / {:.3}, {:.0} pkts per service time",
            congested_on.util.0, congested_on.util.1, congested_on.fluctuation
        ),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piggyback_reproduces() {
        let rep = report(1, 400);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
