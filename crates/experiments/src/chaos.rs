//! Chaos drill: Tahoe under scheduled link faults (robustness, not a
//! paper figure).
//!
//! The paper's runs are fault-free; this experiment stresses the same
//! 1+1 two-way small-pipe configuration with the fault subsystem and
//! proves the congestion-control machinery *recovers* rather than
//! deadlocks:
//!
//! * scheduled mid-run outages of increasing length on the forward
//!   bottleneck (the ACK channel of the reverse connection), measuring
//!   the time from link-up to the first forward data delivery;
//! * Gilbert–Elliott burst loss at two severities, measuring
//!   retransmission cost while goodput continues;
//! * every replicate runs under the watchdog and the invariant auditor:
//!   a deadlock, livelock, or conservation violation fails the
//!   experiment with a structured report instead of a hang or panic.

use crate::fig45;
use crate::report::Report;
use crate::runner::derive_seed;
use crate::sweep::parallel_map;
use td_engine::{SimDuration, SimTime};
use td_net::{FaultPlan, GilbertElliott, Outage, WatchdogConfig};

/// One fault configuration under test.
#[derive(Clone, Copy, Debug)]
enum Cell {
    /// A single outage of this many seconds on the forward bottleneck.
    Outage(u64),
    /// Burst loss on the forward bottleneck.
    Burst {
        /// Cell label for rows/metrics.
        label: &'static str,
        /// P(good → bad) per packet.
        p_enter: f64,
        /// P(bad → good) per packet.
        p_exit: f64,
        /// Loss probability in the bad state.
        loss_bad: f64,
    },
}

impl Cell {
    fn label(&self) -> String {
        match self {
            Cell::Outage(secs) => format!("outage_{secs}s"),
            Cell::Burst { label, .. } => format!("burst_{label}"),
        }
    }
}

/// What one replicate observed.
struct CellResult {
    label: String,
    /// Link-up → first forward data delivery (outage cells only).
    recovery_s: Option<f64>,
    retransmits: u64,
    timeouts: u64,
    /// Forward connection's highest cumulative ACK at the end.
    acked: u64,
    violations: u64,
    /// Rendered stall report, if the watchdog tripped.
    stall: Option<String>,
}

/// Run one cell and measure its recovery. Every cell perturbs the
/// Figures 4–5 configuration, measured after the first sixth of the run
/// and run under the watchdog.
fn run_cell(seed: u64, cell: Cell, duration_s: u64) -> CellResult {
    let mut sc = fig45::scenario(seed, duration_s, 20);
    sc.warmup = SimDuration::from_secs(duration_s / 6);
    sc.watchdog = Some(WatchdogConfig::default());
    let down = SimTime::from_secs(duration_s / 3);
    let up = match cell {
        Cell::Outage(secs) => {
            let up = down + SimDuration::from_secs(secs);
            sc.fault_fwd = FaultPlan::with_outages(vec![Outage { down, up }]);
            Some(up)
        }
        Cell::Burst {
            p_enter,
            p_exit,
            loss_bad,
            ..
        } => {
            let ge = GilbertElliott::new(p_enter, p_exit, loss_bad)
                .expect("chaos burst parameters are valid probabilities");
            sc.fault_fwd = FaultPlan::with_burst(ge);
            None
        }
    };
    let run = sc.trace_free().run();
    let recovery_s = up.and_then(|up| {
        run.deliveries(run.fwd[0])
            .iter()
            .find(|d| d.t >= up && d.pkt.is_data())
            .map(|d| d.t.since(up).as_secs_f64())
    });
    let stats = run.sender(run.fwd[0]).stats();
    CellResult {
        label: cell.label(),
        recovery_s,
        retransmits: stats.retransmits,
        timeouts: stats.timeouts,
        acked: stats.acked,
        violations: run.world.audit().total_violations(),
        stall: run
            .outcome
            .as_ref()
            .and_then(|o| o.stall())
            .map(|s| s.render()),
    }
}

/// Run and evaluate the chaos drill.
pub fn report(seed0: u64, duration_s: u64) -> Report {
    let cells = [
        Cell::Outage(2),
        Cell::Outage(8),
        Cell::Outage(20),
        Cell::Burst {
            label: "mild",
            p_enter: 0.02,
            p_exit: 0.30,
            loss_bad: 0.60,
        },
        Cell::Burst {
            label: "harsh",
            p_enter: 0.05,
            p_exit: 0.20,
            loss_bad: 0.90,
        },
    ];
    let mut rep = Report::new(
        "chaos",
        "Tahoe recovery under scheduled outages and burst loss",
        &format!(
            "1+1 two-way, tau = 10 ms, B = 20, {duration_s} s per cell, \
             outage at t = {} s on the forward bottleneck",
            duration_s / 3
        ),
    );

    // One replicate per fault cell, fanned over idle job slots with
    // per-cell derived seeds so adding a cell never reshuffles the others.
    let seeds: Vec<u64> = (0..cells.len())
        .map(|i| derive_seed(seed0, "chaos", i as u64 + 1))
        .collect();
    let results = parallel_map(&seeds, |i, &seed| run_cell(seed, cells[i], duration_s));

    let mut all_recover = true;
    let mut all_clean = true;
    let mut no_stall = true;
    for r in &results {
        if let Some(rec) = r.recovery_s {
            rep.info(
                &format!("{}: recovery after link-up", r.label),
                "bounded by the RTO backoff in force",
                format!(
                    "{rec:.1} s ({} retx, {} timeouts)",
                    r.retransmits, r.timeouts
                ),
            );
            rep.metric(&format!("{}_recovery_s", r.label), rec);
        } else if r.label.starts_with("outage") {
            all_recover = false;
            rep.info(
                &format!("{}: recovery after link-up", r.label),
                "bounded by the RTO backoff in force",
                "never recovered".into(),
            );
        } else {
            rep.info(
                &format!("{}: goodput under burst loss", r.label),
                "connection keeps acknowledging new data",
                format!(
                    "{} pkts acked ({} retx, {} timeouts)",
                    r.acked, r.retransmits, r.timeouts
                ),
            );
            // A fault-free run acks thousands; demand real forward
            // progress, not just survival of the opening handshake.
            if r.acked < 100 {
                all_recover = false;
            }
        }
        rep.metric(&format!("{}_retransmits", r.label), r.retransmits as f64);
        rep.metric(&format!("{}_acked", r.label), r.acked as f64);
        if r.violations > 0 {
            all_clean = false;
            rep.diagnostic(format!("{}: {} audit violation(s)", r.label, r.violations));
        }
        if let Some(stall) = &r.stall {
            no_stall = false;
            rep.diagnostic(format!("{}: {stall}", r.label));
        }
    }
    rep.check(
        "recovery",
        "every replicate resumes forward delivery after the fault",
        if all_recover {
            "all replicates recovered".into()
        } else {
            "at least one replicate never recovered".into()
        },
        all_recover,
    );
    rep.check(
        "invariants",
        "zero audit violations across all replicates",
        format!(
            "{} total",
            results.iter().map(|r| r.violations).sum::<u64>()
        ),
        all_clean,
    );
    rep.check(
        "stalls",
        "no deadlock or livelock verdicts",
        if no_stall {
            "none".into()
        } else {
            "watchdog tripped (see diagnostics)".into()
        },
        no_stall,
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_drill_recovers_cleanly() {
        let rep = report(1, 120);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
        // Every outage cell must have produced a recovery-time metric.
        for cell in ["outage_2s", "outage_8s", "outage_20s"] {
            assert!(
                rep.metrics
                    .iter()
                    .any(|(name, _)| name == &format!("{cell}_recovery_s")),
                "missing recovery metric for {cell}"
            );
        }
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn chaos_drill_is_deterministic() {
        let a = report(7, 60);
        let b = report(7, 60);
        let fmt = |r: &Report| format!("{r}\n{:?}\n{:?}", r.metrics, r.diagnostics);
        assert_eq!(fmt(&a), fmt(&b));
    }
}
