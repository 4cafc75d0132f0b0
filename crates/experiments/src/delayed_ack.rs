//! The delayed-ACK option (§2.1, §5).
//!
//! Delayed ACKs introduce an element of *pacing* at the receiver: the ACK
//! for the first of a pair of segments is withheld, so ACK clusters are
//! fragmented. The paper's findings this module must reproduce (§5):
//!
//! * with **small windows** (maxwnd = 8) the window's packets are cut into
//!   a few small partial clusters, minimizing ACK-compression;
//! * with **large windows** some partial clusters are of appreciable size
//!   and ACK-compression becomes significant again — the option mitigates
//!   but does **not** eliminate the phenomenon;
//! * delayed ACKs roughly halve the number of ACKs on the wire (their
//!   original purpose: overhead reduction).

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario, DATA_SERVICE};
use td_analysis::compression;
use td_core::{DelayedAck, ReceiverConfig, SenderConfig};
use td_engine::SimDuration;

/// Scenario: 1+1 two-way, τ = 0.01 s, B = 20, delayed ACKs optional,
/// window capped at `maxwnd`.
pub fn scenario(seed: u64, duration_s: u64, maxwnd: u64, delack: bool) -> Scenario {
    let spec = ConnSpec {
        sender: SenderConfig {
            maxwnd,
            ..SenderConfig::paper()
        },
        receiver: ReceiverConfig {
            delayed_ack: delack.then(DelayedAck::default),
            ..ReceiverConfig::paper()
        },
    };
    let mut sc = Scenario::paper(SimDuration::from_millis(10), Some(20))
        .with_fwd(1, spec)
        .with_rev(1, spec);
    sc.seed = seed;
    sc.duration = SimDuration::from_secs(duration_s);
    sc.warmup = SimDuration::from_secs(duration_s / 5);
    sc
}

struct Measured {
    compressed: f64,
    fluctuation: f64,
    /// ACKs transmitted per data packet delivered (1.0 without delack).
    acks_per_data: f64,
    clustering: f64,
}

fn measure(run: &crate::scenario::Run) -> Measured {
    let c1 = run.fwd[0];
    let sp = run.ack_spacing(c1);
    let q1 = run.queue1();
    let rx = run.receiver(c1).stats();
    Measured {
        compressed: sp.map(|s| s.compressed_fraction).unwrap_or(0.0),
        fluctuation: compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE),
        acks_per_data: rx.acks_sent as f64 / rx.delivered.max(1) as f64,
        clustering: run.clustering12_all().unwrap_or(0.0),
    }
}

/// Run and evaluate the delayed-ACK comparison.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "tbl-delayed-ack",
        "Delayed-ACK option: pacing fragments clusters (paper §5)",
        &format!("seed {seed}, {duration_s} s per cell, 1+1 two-way, tau = 0.01 s, B = 20"),
    );

    // Small windows, delack off vs on.
    let small_off = measure(&scenario(seed, duration_s, 8, false).trace_free().run());
    let small_on = measure(&scenario(seed, duration_s, 8, true).trace_free().run());
    rep.check(
        "maxwnd 8: compressed ACK fraction (off -> on)",
        "delack minimizes ACK-compression at small windows",
        format!(
            "{:.0} % -> {:.0} %",
            small_off.compressed * 100.0,
            small_on.compressed * 100.0
        ),
        small_on.compressed < small_off.compressed * 0.7,
    );
    rep.check(
        "maxwnd 8: cluster contiguity (off -> on)",
        "delack cuts the window into small partial clusters",
        format!("{:.2} -> {:.2}", small_off.clustering, small_on.clustering),
        small_on.clustering < small_off.clustering,
    );
    rep.check(
        "maxwnd 8: ACKs per data packet (off -> on)",
        "~halved (the option's original purpose)",
        format!(
            "{:.2} -> {:.2}",
            small_off.acks_per_data, small_on.acks_per_data
        ),
        small_on.acks_per_data < small_off.acks_per_data * 0.75,
    );
    rep.info(
        "maxwnd 8: queue fluctuation per service time (off -> on)",
        "-",
        format!(
            "{:.0} -> {:.0} packets",
            small_off.fluctuation, small_on.fluctuation
        ),
    );

    // Large windows: compression returns despite delack.
    let large_on = measure(&scenario(seed, duration_s, 1000, true).trace_free().run());
    rep.check(
        "maxwnd 1000 + delack: compressed ACK fraction",
        "significant again — delack reduces but does not eliminate",
        format!("{:.0} %", large_on.compressed * 100.0),
        large_on.compressed > 0.15,
    );
    rep.check(
        "maxwnd 1000 + delack: queue fluctuation",
        "square waves return at large windows",
        format!("{:.0} packets", large_on.fluctuation),
        large_on.fluctuation >= 3.0,
    );
    rep.info(
        "clustering coefficient small/off, small/on, large/on",
        "delack fragments clusters",
        format!(
            "{:.2}, {:.2}, {:.2}",
            small_off.clustering, small_on.clustering, large_on.clustering
        ),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_ack_reproduces() {
        let rep = report(1, 400);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
