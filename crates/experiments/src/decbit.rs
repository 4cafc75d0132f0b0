//! DECbit under two-way traffic — the paper's generality conjecture
//! against a *different* nonpaced window algorithm.
//!
//! §5 discusses Wilder, Ramakrishnan & Mankin's measurements of the CE-bit
//! (DECbit) congestion-avoidance algorithm on a real OSI testbed: an
//! algorithm with fair one-way behaviour that showed "extreme unfairness"
//! and significant underutilization under two-way traffic, ascribed to
//! rapid queue fluctuations caused by ACK-compression. The paper takes
//! this as evidence that its phenomena (1) are not simulator artifacts and
//! (2) afflict any nonpaced window-based algorithm.
//!
//! This experiment implements DECbit (switch marking + AIMD window) and
//! runs the testbed-shaped comparison in our simulator:
//!
//! * **one-way**: DECbit behaves as designed — high utilization, small
//!   queues, essentially no drops;
//! * **two-way**: packet clustering persists, ACK spacing collapses, and
//!   the same compression signature appears — the conjecture holds for a
//!   second, structurally different window algorithm.

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario, DATA_SERVICE};
use td_analysis::compression;
use td_core::{CcKind, ReceiverConfig, SenderConfig};
use td_engine::SimDuration;

/// A DECbit connection spec.
fn decbit_conn() -> ConnSpec {
    ConnSpec {
        sender: SenderConfig {
            cc: CcKind::Decbit,
            ..SenderConfig::paper()
        },
        receiver: ReceiverConfig::paper(),
    }
}

/// Scenario: DECbit connections over a marking bottleneck.
pub fn scenario(seed: u64, duration_s: u64, fwd: usize, rev: usize) -> Scenario {
    let mut sc = Scenario::paper(SimDuration::from_millis(10), Some(20))
        .with_fwd(fwd, decbit_conn())
        .with_rev(rev, decbit_conn());
    // Mark when the buffer holds more than 2 packets — the DECbit policy's
    // "average queue ≥ 1" operating point, approximated instantaneously.
    sc.mark_threshold = Some(2);
    sc.seed = seed;
    sc.duration = SimDuration::from_secs(duration_s);
    sc.warmup = SimDuration::from_secs(duration_s / 5);
    sc
}

/// Run and evaluate the DECbit generality check.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "tbl-decbit",
        "DECbit (CE-bit AIMD) under two-way traffic (paper Sec. 5 / Wilder et al. [17])",
        &format!("seed {seed}, {duration_s} s per cell, tau = 0.01 s, B = 20, mark threshold 2"),
    );

    // One-way sanity: the algorithm does what it was designed to do.
    let one = scenario(seed, duration_s, 1, 0).trace_free().run();
    let u_one = one.util12();
    let drops_one = one.drops().len();
    rep.check(
        "one-way utilization",
        "high (DECbit tracks capacity without overflowing)",
        format!("{u_one:.3}"),
        u_one > 0.9,
    );
    rep.check(
        "one-way drops",
        "~0 (feedback acts before buffers fill)",
        format!("{drops_one}"),
        drops_one <= 2,
    );
    let q_mean = one.queue1().mean_in(one.t0, one.t1).unwrap_or(f64::NAN);
    rep.check(
        "one-way mean queue",
        "small (operates near the marking threshold)",
        format!("{q_mean:.1} packets"),
        q_mean < 8.0,
    );

    // Two-way: the paper's phenomena strike a different algorithm.
    let two = scenario(seed, duration_s, 1, 1).trace_free().run();
    let sp = two.ack_spacing(two.fwd[0]).expect("acks flowed");
    rep.check(
        "two-way: ACK-compression",
        "present for any nonpaced window algorithm (conjecture)",
        format!(
            "{:.0} % of gaps compressed; p10 gap {:.1} ms",
            sp.compressed_fraction * 100.0,
            sp.p10_gap_s * 1000.0
        ),
        // Smaller than Tahoe's fraction (DECbit holds windows near the
        // marking point, so clusters are short) but unambiguous: the
        // fastest gaps collapse to the 8 ms ACK service time.
        sp.compressed_fraction > 0.08 && sp.p10_gap_s < 0.02,
    );
    let cc = two.clustering12_all().unwrap_or(0.0);
    rep.check(
        "two-way: packet clustering",
        "persists (the compression precondition)",
        format!("{cc:.2}"),
        cc > 0.5,
    );
    let fl = compression::queue_fluctuation(&two.queue1(), two.t0, two.t1, DATA_SERVICE);
    rep.check(
        "two-way: rapid queue fluctuation",
        "square-wave signature appears",
        format!("{fl:.0} packets per service time"),
        fl >= 3.0,
    );
    let (u12, u21) = (two.util12(), two.util21());
    rep.check(
        "two-way: utilization below the one-way level",
        "underutilization, as on the OSI testbed",
        format!("{u12:.3} / {u21:.3} (vs {u_one:.3} one-way)"),
        u12 < u_one - 0.02 || u21 < u_one - 0.02,
    );
    // Fairness over the measurement window (Wilder et al. saw *extreme*
    // unfairness on the testbed; we report the index).
    let d1 = two.delivered(two.fwd[0]) as f64;
    let d2 = two.delivered(two.rev[0]) as f64;
    let jain = (d1 + d2) * (d1 + d2) / (2.0 * (d1 * d1 + d2 * d2));
    rep.info(
        "two-way: Jain fairness of goodput",
        "testbed showed extreme unfairness; simulator gives the index",
        format!("{jain:.3} ({d1:.0} vs {d2:.0} packets)"),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decbit_reproduces() {
        let rep = report(1, 400);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
