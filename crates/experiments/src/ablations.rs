//! Design ablations.
//!
//! Three counterfactuals the paper argues or implies but does not plot:
//!
//! * **Pacing** (§1 footnote 2, §6): the paper conjectures the phenomena
//!   afflict any *nonpaced* window algorithm and that future designs need
//!   a clocking source other than ACKs. We run the same 1+1 two-way
//!   scenario with a sender that paces data packets at the bottleneck
//!   service rate and show ACK-compression's queue signature collapses
//!   and utilization rises.
//! * **Increment rule** (§2.1): the paper modified BSD's congestion-
//!   avoidance increment from `1/cwnd` to `1/⌊cwnd⌋` and asserts "none of
//!   the qualitative conclusions we reach will be affected by the change."
//!   We run both and compare.
//! * **Gateway discipline** (related work \[2,3,4,5,10,18\]): Fair Queueing
//!   interleaves the two directions' clusters at the switch, breaking the
//!   precondition for ACK-compression; Random Drop does not.

use crate::report::Report;
use crate::scenario::{ConnSpec, DATA_SERVICE};
use crate::{fig2, fig45};
use td_analysis::compression;
use td_core::{CcKind, IncrementRule, ReceiverConfig, SenderConfig};
use td_net::DisciplineKind;

struct Measured {
    util_mean: f64,
    compressed: f64,
    fluctuation: f64,
    clustering: f64,
}

fn measure(run: &crate::scenario::Run) -> Measured {
    let sp = run.ack_spacing(run.fwd[0]);
    let q1 = run.queue1();
    Measured {
        util_mean: (run.util12() + run.util21()) / 2.0,
        compressed: sp.map(|s| s.compressed_fraction).unwrap_or(0.0),
        fluctuation: compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE),
        clustering: run.clustering12_all().unwrap_or(0.0),
    }
}

/// Ablation A — pacing versus the nonpaced paper sender.
pub fn report_pacing(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "abl-pacing",
        "Pacing ablation: the nonpaced conjecture's counterfactual (paper §1/§6)",
        &format!("seed {seed}, {duration_s} s per cell, 1+1 two-way, tau = 0.01 s, B = 20"),
    );
    let nonpaced = measure(&fig45::scenario(seed, duration_s, 20).trace_free().run());

    let mut paced_sc = fig45::scenario(seed, duration_s, 20);
    let paced_spec = ConnSpec {
        sender: SenderConfig {
            pacing: Some(DATA_SERVICE),
            ..SenderConfig::paper()
        },
        receiver: ReceiverConfig::paper(),
    };
    paced_sc.fwd = vec![paced_spec];
    paced_sc.rev = vec![paced_spec];
    let paced = measure(&paced_sc.trace_free().run());

    // Note the metric choice: a queue measured in *packets* falls fast
    // whenever adjacent ACKs drain (8 ms each), paced or not, so raw
    // fluctuation is not the clean signature — cluster contiguity and ACK
    // spacing are.
    rep.check(
        "cluster contiguity at the bottleneck (nonpaced -> paced)",
        "pacing dissolves the clusters that compression requires",
        format!("{:.2} -> {:.2}", nonpaced.clustering, paced.clustering),
        paced.clustering < nonpaced.clustering * 0.8,
    );
    rep.check(
        "compressed ACK fraction (nonpaced -> paced)",
        "pacing restores ACK spacing",
        format!(
            "{:.0} % -> {:.0} %",
            nonpaced.compressed * 100.0,
            paced.compressed * 100.0
        ),
        paced.compressed < nonpaced.compressed * 0.5,
    );
    rep.check(
        "mean bottleneck utilization (nonpaced -> paced)",
        "pacing raises utilization above the ~0.70 plateau",
        format!("{:.3} -> {:.3}", nonpaced.util_mean, paced.util_mean),
        paced.util_mean > nonpaced.util_mean + 0.05,
    );
    rep.info(
        "queue fluctuation per service time (nonpaced -> paced)",
        "packet-count queues fall fast whenever ACKs drain; see contiguity row",
        format!(
            "{:.0} -> {:.0} packets",
            nonpaced.fluctuation, paced.fluctuation
        ),
    );
    rep
}

/// Ablation B — the paper's modified increment vs the original BSD rule.
pub fn report_increment(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "abl-increment",
        "Avoidance-increment ablation: 1/floor(cwnd) vs 1/cwnd (paper §2.1)",
        &format!("seed {seed}, {duration_s} s per cell, 1+1 two-way, tau = 0.01 s, B = 20"),
    );
    let modified = measure(&fig45::scenario(seed, duration_s, 20).trace_free().run());

    let mut orig_sc = fig45::scenario(seed, duration_s, 20);
    let orig_spec = ConnSpec {
        sender: SenderConfig {
            cc: CcKind::Tahoe {
                rule: IncrementRule::Original,
            },
            ..SenderConfig::paper()
        },
        receiver: ReceiverConfig::paper(),
    };
    orig_sc.fwd = vec![orig_spec];
    orig_sc.rev = vec![orig_spec];
    let original = measure(&orig_sc.trace_free().run());

    rep.check(
        "mean utilization (modified vs original)",
        "same qualitative behaviour (paper: conclusions unaffected)",
        format!("{:.3} vs {:.3}", modified.util_mean, original.util_mean),
        (modified.util_mean - original.util_mean).abs() < 0.12,
    );
    rep.check(
        "ACK-compression present under both rules",
        "yes",
        format!(
            "compressed {:.0} % vs {:.0} %",
            modified.compressed * 100.0,
            original.compressed * 100.0
        ),
        modified.compressed > 0.25 && original.compressed > 0.25,
    );
    rep.check(
        "square waves present under both rules",
        "yes",
        format!(
            "{:.0} vs {:.0} packets",
            modified.fluctuation, original.fluctuation
        ),
        modified.fluctuation >= 4.0 && original.fluctuation >= 4.0,
    );
    rep
}

/// Ablation C — gateway discipline: DropTail vs RandomDrop vs FairQueueing.
pub fn report_discipline(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "abl-discipline",
        "Gateway-discipline ablation: FIFO drop-tail vs Random Drop vs Fair Queueing",
        &format!("seed {seed}, {duration_s} s per cell, 1+1 two-way, tau = 0.01 s, B = 20"),
    );
    let mut cells = Vec::new();
    for disc in [
        DisciplineKind::DropTail,
        DisciplineKind::RandomDrop,
        DisciplineKind::FairQueueing,
    ] {
        let mut sc = fig45::scenario(seed, duration_s, 20);
        sc.discipline = disc;
        let m = measure(&sc.trace_free().run());
        rep.info(
            &format!("{disc:?}: util / compressed / fluctuation"),
            "-",
            format!(
                "{:.3} / {:.0} % / {:.0} pkts",
                m.util_mean,
                m.compressed * 100.0,
                m.fluctuation
            ),
        );
        cells.push((disc, m));
    }
    let droptail = &cells[0].1;
    let randomdrop = &cells[1].1;
    let fq = &cells[2].1;
    rep.check(
        "Random Drop does not cure ACK-compression",
        "compression is a FIFO-ordering phenomenon, not a drop-policy one",
        format!(
            "compressed {:.0} % (vs {:.0} % drop-tail)",
            randomdrop.compressed * 100.0,
            droptail.compressed * 100.0
        ),
        randomdrop.compressed > droptail.compressed * 0.5,
    );
    rep.check(
        "Fair Queueing interleaves the clusters",
        "per-flow service order breaks cluster contiguity at the switch",
        format!(
            "clustering {:.2} (vs {:.2} drop-tail)",
            fq.clustering, droptail.clustering
        ),
        fq.clustering < droptail.clustering,
    );
    rep.check(
        "Fair Queueing reduces ACK-compression",
        "ACKs no longer wait behind whole data clusters",
        format!(
            "compressed {:.0} % (vs {:.0} % drop-tail)",
            fq.compressed * 100.0,
            droptail.compressed * 100.0
        ),
        fq.compressed < droptail.compressed * 0.8,
    );
    rep
}

/// Ablation D — RED versus drop-tail on the one-way Figure 2 scenario.
///
/// Drop-tail makes every connection lose in the same instant the buffer
/// fills — the loss synchronization of Figure 2 (and of the phase-effects
/// study the paper cites as \[4\]). RED was designed to break precisely
/// that: drops become probabilistic and spread over time, so connections
/// back off at different moments.
pub fn report_red(seed: u64, duration_s: u64) -> Report {
    use td_analysis::epochs::{detect_epochs, loss_synchronization};

    let mut rep = Report::new(
        "abl-red",
        "RED ablation: early random drops break loss synchronization",
        &format!("seed {seed}, {duration_s} s per cell, 3 one-way connections, tau = 1 s, B = 20"),
    );

    let build = |disc: DisciplineKind| {
        let mut sc = fig2::scenario(seed, duration_s);
        sc.discipline = disc;
        sc
    };

    let dt = build(DisciplineKind::DropTail).trace_free().run();
    let red = build(DisciplineKind::Red).trace_free().run();

    let gap = td_engine::SimDuration::from_secs(10);
    let sync_dt = loss_synchronization(&detect_epochs(&dt.drops(), gap), &dt.fwd);
    let sync_red = loss_synchronization(&detect_epochs(&red.drops(), gap), &red.fwd);
    rep.check(
        "loss-synchronization fraction (drop-tail -> RED)",
        "RED decouples the losses that drop-tail synchronizes",
        format!("{sync_dt:.2} -> {sync_red:.2}"),
        sync_dt >= 0.8 && sync_red <= sync_dt - 0.3,
    );

    let (u_dt, u_red) = (dt.util12(), red.util12());
    rep.check(
        "utilization (drop-tail -> RED)",
        "comparable or better under RED",
        format!("{u_dt:.3} -> {u_red:.3}"),
        u_red > u_dt - 0.08,
    );

    let q_dt = dt.queue1().mean_in(dt.t0, dt.t1).unwrap_or(f64::NAN);
    let q_red = red.queue1().mean_in(red.t0, red.t1).unwrap_or(f64::NAN);
    rep.check(
        "mean queue (drop-tail -> RED)",
        "RED holds the queue near its thresholds, well below the brim",
        format!("{q_dt:.1} -> {q_red:.1} packets"),
        q_red < q_dt,
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_ablation() {
        let rep = report_pacing(1, 300);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }

    #[test]
    fn increment_ablation() {
        let rep = report_increment(1, 300);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }

    #[test]
    fn red_ablation() {
        let rep = report_red(1, 600);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }

    #[test]
    fn discipline_ablation() {
        let rep = report_discipline(1, 300);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
