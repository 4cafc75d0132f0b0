//! The four-switch, 50-connection topology of \[19\] (§5).
//!
//! The paper's generality check: "for a topology considered in \[19\]
//! consisting of four switches, with a traffic pattern of 50 connections
//! whose path lengths were roughly equally split between 1, 2, and 3 hops,
//! the queue length data displayed both the ACK-compression and
//! out-of-phase synchronization phenomena."
//!
//! We build the same shape — a chain of four switches, one host each,
//! 50 connections with path lengths cycling through 1/2/3 hops in
//! alternating directions — and verify that the two phenomena survive the
//! complexity.

use crate::report::Report;
use crate::scenario::{run_observed, DATA_SERVICE};
use std::sync::Arc;
use td_analysis::plot::Plot;
use td_analysis::sync::{classify_sync, SyncMode};
use td_analysis::{compression, StreamMetrics, StreamSpec};
use td_core::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use td_engine::{SimDuration, SimRng, SimTime};
use td_net::{chain, Chain, ConnId, LinkSpec};

/// Build and run the 4-switch, 50-connection chain, trace-free, with the
/// report's measurements — the middle trunk's two queues, every
/// rightward trunk's utilization over `[t0, t1]`, and all drops —
/// observed online.
pub fn run_chain(seed: u64, duration_s: u64) -> (Chain, SimTime, SimTime, StreamMetrics) {
    let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(30));
    let mut c = chain(
        seed,
        4,
        trunk,
        LinkSpec::paper_host_link(),
        SimDuration::from_micros(100),
    );
    let mut rng = SimRng::new(seed).derive(0x50C8);
    let (scfg, rcfg) = (
        Arc::new(SenderConfig::paper()),
        Arc::new(ReceiverConfig::paper()),
    );
    for i in 0..50u32 {
        let hops = 1 + (i as usize % 3); // path length 1, 2 or 3 trunk hops
        let start = rng.next_below((4 - hops) as u64) as usize;
        let (src, dst) = if i % 2 == 0 {
            (c.hosts[start], c.hosts[start + hops])
        } else {
            (c.hosts[start + hops], c.hosts[start])
        };
        let conn = ConnId(i);
        let s = c
            .world
            .attach(src, dst, conn, TcpSender::boxed(Arc::clone(&scfg)));
        c.world
            .attach(dst, src, conn, TcpReceiver::boxed(Arc::clone(&rcfg)));
        c.world
            .start_at(s, SimTime::from_nanos(rng.next_below(1_000_000_000)));
    }
    let t1 = SimTime::from_secs(duration_s);
    let t0 = SimTime::from_secs(duration_s / 5);
    let mut spec = StreamSpec::new()
        .queue(c.trunk_right[1])
        .queue(c.trunk_left[1])
        .drops();
    for &ch in &c.trunk_right {
        spec = spec.utilization(ch, t0, t1);
    }
    let m = run_observed(&mut c.world, &spec, t1);
    (c, t0, t1, m)
}

/// Run and evaluate the multihop generality check.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let (c, t0, t1, m) = run_chain(seed, duration_s);
    let mut rep = Report::new(
        "tbl-multihop",
        "Four switches, 50 connections, 1-3 hop paths (paper §5 / [19])",
        &format!("seed {seed}, {duration_s} s simulated, measured after {t0}"),
    );

    // ACK-compression on the middle trunk (most crossing traffic).
    let (qr, ql) = (m.queue(c.trunk_right[1]), m.queue(c.trunk_left[1]));
    let flr = compression::queue_fluctuation(qr, t0, t1, DATA_SERVICE);
    let fll = compression::queue_fluctuation(ql, t0, t1, DATA_SERVICE);
    rep.check(
        "rapid queue fluctuations on middle trunk",
        "ACK-compression present in the complex topology",
        format!("{flr:.0} / {fll:.0} packets per service time"),
        flr >= 3.0 && fll >= 3.0,
    );

    // Out-of-phase tendency between the two directions of the middle hop.
    let (mode, r) = classify_sync(qr, ql, t0, t1, 800, 10, 0.10);
    rep.check(
        "middle-trunk queue synchronization",
        "out-of-phase phenomena present",
        format!("{mode:?} (r = {r:.2})"),
        mode == SyncMode::OutOfPhase,
    );

    // In the dumbbell, ACKs are never dropped (§4.2: they reach each
    // queue pre-spaced by the data service time). Across multiple hops
    // that argument breaks — a cluster of ACKs compressed at one trunk
    // can slam the next trunk's full buffer — so data packets merely
    // *dominate* the drops here rather than monopolizing them.
    let frac = m.data_drop_fraction().unwrap_or(1.0);
    rep.check(
        "fraction of drops that are data packets",
        "majority data (single-bottleneck no-ACK-drop argument weakens over multiple hops)",
        format!("{:.1} %", frac * 100.0),
        frac >= 0.6,
    );

    // All trunks carry substantial load.
    for (i, &ch) in c.trunk_right.iter().enumerate() {
        let u = m.utilization(ch);
        rep.info(
            &format!("trunk {} -> {} utilization", i + 1, i + 2),
            "-",
            format!("{u:.3}"),
        );
    }

    let w1 = (t0 + SimDuration::from_secs(30)).min(t1);
    rep.plots.push(
        Plot::new("Middle trunk queue, switch 2 -> 3", t0, w1, 100, 10)
            .y_max(32.0)
            .series(qr, '#')
            .render(),
    );
    rep.plots.push(
        Plot::new("Middle trunk queue, switch 3 -> 2", t0, w1, 100, 10)
            .y_max(32.0)
            .series(ql, '#')
            .render(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multihop_reproduces() {
        let rep = report(1, 300);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
