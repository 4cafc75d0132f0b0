//! TCP Reno under two-way traffic — the nonpaced conjecture against the
//! algorithm's own successor.
//!
//! The paper studies 4.3-Tahoe and cites Jacobson's Tahoe→Reno evolution
//! \[7\]. Reno's fast recovery removes exactly the behaviour that shapes
//! the out-of-phase mode's asymmetry — the collapse to `cwnd = 1` with
//! `ssthresh = 2` after a double drop — so it is the natural probe of
//! which findings are Tahoe-specific and which are structural:
//!
//! * **structural** (predicted by the paper's conjecture, §1/§6):
//!   clustering and ACK-compression persist — Reno is still a nonpaced
//!   window algorithm;
//! * **Tahoe-specific**: the deep utilization plateau softens — fast
//!   recovery halves the window instead of collapsing it, so the loser of
//!   a congestion epoch recovers quickly and the bottleneck idles less.

use crate::fig45;
use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario};
use td_core::{CcKind, ReceiverConfig, SenderConfig};

/// The Figures 4–5 scenario with both connections running `cc`.
fn scenario_with(seed: u64, duration_s: u64, cc: CcKind) -> Scenario {
    let spec = ConnSpec {
        sender: SenderConfig {
            cc,
            ..SenderConfig::paper()
        },
        receiver: ReceiverConfig::paper(),
    };
    let mut sc = fig45::scenario(seed, duration_s, 20);
    sc.fwd = vec![spec];
    sc.rev = vec![spec];
    sc
}

/// Run and evaluate the Reno comparison.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "tbl-reno",
        "TCP Reno (fast recovery) under two-way traffic",
        &format!("seed {seed}, {duration_s} s per cell, 1+1, tau = 0.01 s, B = 20"),
    );

    let tahoe = scenario_with(seed, duration_s, CcKind::default())
        .trace_free()
        .run();
    let reno = scenario_with(seed, duration_s, CcKind::Reno)
        .trace_free()
        .run();

    let measure = |run: &crate::scenario::Run| {
        let sp = run.ack_spacing(run.fwd[0]);
        (
            (run.util12() + run.util21()) / 2.0,
            sp.map(|s| s.compressed_fraction).unwrap_or(0.0),
            run.clustering12_all().unwrap_or(0.0),
        )
    };
    let (ut, ct, kt) = measure(&tahoe);
    let (ur, cr, kr) = measure(&reno);

    rep.check(
        "structural: clustering persists under Reno",
        "any nonpaced window algorithm clusters (Sec. 5)",
        format!("{kr:.2} (Tahoe {kt:.2})"),
        kr > 0.7,
    );
    rep.check(
        "structural: ACK-compression persists under Reno",
        "compression follows from clustering, not the loss response",
        format!("{:.0} % (Tahoe {:.0} %)", cr * 100.0, ct * 100.0),
        cr > 0.2,
    );
    rep.check(
        "Tahoe-specific: the deep utilization plateau softens",
        "fast recovery avoids the cwnd = 1 / ssthresh = 2 collapse",
        format!("mean utilization {ur:.3} vs Tahoe {ut:.3}"),
        ur > ut + 0.03,
    );
    // Loss accounting: Reno recovers from the epoch's drops without the
    // Tahoe timeout cascade.
    let timeouts = |run: &crate::scenario::Run| -> u64 {
        run.conns()
            .iter()
            .map(|&c| run.sender(c).stats().timeouts)
            .sum()
    };
    rep.info(
        "timeouts over the run (Tahoe vs Reno)",
        "fast recovery substitutes for most timeouts",
        format!("{} vs {}", timeouts(&tahoe), timeouts(&reno)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reno_comparison_reproduces() {
        let rep = report(1, 400);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
