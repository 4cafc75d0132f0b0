//! Short transfers under two-way traffic — what ACK-compression costs a
//! user.
//!
//! The paper characterizes steady-state dynamics; the practical casualty
//! is the *finite* transfer that has to live inside them. We measure
//! flow-completion time (FCT) of 100-packet transfers crossing the
//! paper's bottleneck:
//!
//! * **quiet network**: FCT is governed by slow start plus 100 service
//!   times (~9 s at 12.5 packets/s);
//! * **reverse bulk transfer running** (the fig45 configuration): the
//!   short flow's ACKs get compressed behind the bulk flow's data, its
//!   losses come in the double-drop pattern, and completion times stretch
//!   and spread.
//!
//! Beyond the paper's plots, but entirely composed of its mechanisms.

use crate::report::Report;
use td_analysis::mean;
use td_analysis::stats::quantile;
use td_core::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use td_engine::{SimDuration, SimTime};
use td_net::{dumbbell, ConnId, LinkSpec};

const FLOW_PACKETS: u64 = 100;

/// FCTs of `n_flows` sequential 100-packet transfers, optionally sharing
/// the network with a reverse-direction bulk connection.
fn run_flows(seed: u64, n_flows: usize, with_reverse_bulk: bool) -> Vec<f64> {
    let spec = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20));
    let mut d = dumbbell(
        seed,
        spec,
        LinkSpec::paper_host_link(),
        SimDuration::from_micros(100),
    );
    let mut next_conn = 0u32;
    if with_reverse_bulk {
        let bulk = d.world.attach(
            d.host2,
            d.host1,
            ConnId(next_conn),
            TcpSender::boxed(SenderConfig::paper()),
        );
        d.world.attach(
            d.host1,
            d.host2,
            ConnId(next_conn),
            TcpReceiver::boxed(ReceiverConfig::paper()),
        );
        d.world.start_at(bulk, SimTime::ZERO);
        next_conn += 1;
    }
    // One short flow every 120 s — ample for each to finish first.
    let gap = SimDuration::from_secs(120);
    let mut senders = Vec::new();
    for i in 0..n_flows {
        let conn = ConnId(next_conn);
        next_conn += 1;
        let cfg = SenderConfig {
            data_limit: Some(FLOW_PACKETS),
            ..SenderConfig::paper()
        };
        let s = d
            .world
            .attach(d.host1, d.host2, conn, TcpSender::boxed(cfg));
        d.world.attach(
            d.host2,
            d.host1,
            conn,
            TcpReceiver::boxed(ReceiverConfig::paper()),
        );
        let start = SimTime::from_secs(20) + gap * i as u64;
        d.world.start_at(s, start);
        senders.push((s, start));
    }
    // Completion times come from the senders; nothing reads records.
    d.world.trace_mut().set_enabled(false);
    d.world
        .run_until(SimTime::from_secs(20) + gap * n_flows as u64);
    senders
        .iter()
        .filter_map(|&(ep, start)| {
            d.world
                .endpoint(ep)
                .unwrap()
                .as_any()
                .downcast_ref::<TcpSender>()
                .unwrap()
                .finished_at()
                .map(|t| t.since(start).as_secs_f64())
        })
        .collect()
}

/// Run and evaluate the short-flow FCT comparison.
pub fn report(seed: u64, n_flows: usize) -> Report {
    let mut rep = Report::new(
        "tbl-short-flows",
        "Flow-completion time of 100-packet transfers (cost of the fig45 dynamics)",
        &format!("seed {seed}, {n_flows} flows per cell, tau = 0.01 s, B = 20"),
    );

    let quiet = run_flows(seed, n_flows, false);
    let busy = run_flows(seed, n_flows, true);

    rep.check(
        "all flows complete",
        "reliability under both conditions",
        format!(
            "{} / {} quiet, {} / {} busy",
            quiet.len(),
            n_flows,
            busy.len(),
            n_flows
        ),
        quiet.len() == n_flows && busy.len() == n_flows,
    );

    let (mq, mb) = (mean(&quiet), mean(&busy));
    rep.check(
        "mean FCT, quiet network",
        "~9-12 s (slow start + 100 service times)",
        format!("{mq:.1} s"),
        (8.0..=16.0).contains(&mq),
    );
    rep.check(
        "mean FCT with a reverse bulk transfer",
        "stretched by ACK-compression and double-drop recoveries",
        format!("{mb:.1} s ({:.1}x the quiet time)", mb / mq),
        mb > mq * 1.3,
    );
    let (p90q, p90b) = (
        quantile(&quiet, 0.9).unwrap_or(f64::NAN),
        quantile(&busy, 0.9).unwrap_or(f64::NAN),
    );
    rep.check(
        "p90 FCT quiet -> busy",
        "the tail suffers at least as much as the mean",
        format!("{p90q:.1} s -> {p90b:.1} s"),
        p90b > p90q * 1.3,
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_flows_reproduce() {
        let rep = report(1, 8);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
