//! Figure 3 — the ten-connection two-way run of \[19\] (§3.2).
//!
//! Five connections per direction, τ = 0.01 s, buffer **30**. The paper's
//! observations this run must reproduce:
//!
//! * rapid queue fluctuations: several packets within less than one data
//!   service time (the mystery that motivated the paper);
//! * the two switch queues oscillate **out of phase**;
//! * utilization ≈ 91 %, and — the punchline — **increasing the buffer to
//!   60 *decreases* utilization** (≈ 87 %): more buffer is not more
//!   throughput under two-way traffic;
//! * 99.8 % of dropped packets are data packets (ACKs are effectively
//!   never dropped);
//! * ≈ 10 drops per congestion epoch (the total acceleration of ten
//!   connections);
//! * clustering is only **partial** with five connections per direction
//!   (unlike the complete clustering of the 1+1 runs).

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario, DATA_SERVICE};
use td_analysis::epochs::{detect_epochs, mean_drops_per_epoch};
use td_analysis::plot::Plot;
use td_analysis::sync::{classify_sync, SyncMode};
use td_analysis::{compression, csv};
use td_engine::SimDuration;

/// Scenario: 5+5 connections, τ = 0.01 s, buffer as given (30 or 60).
pub fn scenario(seed: u64, duration_s: u64, buffer: u32) -> Scenario {
    Scenario::paper(seed, duration_s, SimDuration::from_millis(10), Some(buffer))
        .with_fwd(5, ConnSpec::paper())
        .with_rev(5, ConnSpec::paper())
}

/// Run and evaluate the Figure 3 reproduction (including the buffer-60
/// counterexample to "more buffer = more throughput").
pub fn report(seed: u64, duration_s: u64) -> Report {
    let run = scenario(seed, duration_s, 30).trace_free().run();
    let mut rep = Report::new(
        "fig3",
        "Two-way traffic: 5+5 connections, tau = 0.01 s, B = 30 (paper Fig. 3)",
        &format!(
            "seed {seed}, {duration_s} s simulated, measured after {}",
            run.t0
        ),
    );

    let (u12, u21) = (run.util12(), run.util21());
    let util = f64::max(u12, u21);
    rep.check(
        "utilization (B = 30)",
        "~0.91",
        format!("{u12:.3} / {u21:.3}"),
        (0.80..=0.97).contains(&util),
    );

    // Buffer 60: utilization must NOT increase (paper: drops to ~0.87).
    let run60 = scenario(seed, duration_s, 60).trace_free().run();
    let (u12b, u21b) = (run60.util12(), run60.util21());
    let util60 = f64::max(u12b, u21b);
    rep.check(
        "utilization (B = 60)",
        "~0.87 — bigger buffers do NOT raise throughput",
        format!("{u12b:.3} / {u21b:.3}"),
        util60 <= util + 0.02,
    );

    // Drop attribution: ≥ 99 % data packets.
    let frac = run.data_drop_fraction().unwrap_or(0.0);
    rep.check(
        "fraction of drops that are data packets",
        "99.8 %",
        format!("{:.1} %", frac * 100.0),
        frac >= 0.99,
    );

    // Rapid queue fluctuations: several packets inside one service time.
    let q1 = run.queue1();
    let q2 = run.queue2();
    let fl1 = compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE);
    let fl2 = compression::queue_fluctuation(&q2, run.t0, run.t1, DATA_SERVICE);
    rep.check(
        "max queue fall within one data service time",
        "~5 packets (rapid fluctuations)",
        format!("{fl1:.0} / {fl2:.0} packets"),
        fl1 >= 3.0 && fl2 >= 3.0,
    );

    // Queues out of phase.
    let (mode, r) = classify_sync(&q1, &q2, run.t0, run.t1, 800, 10, 0.15);
    rep.check(
        "queue synchronization",
        "out-of-phase (one max while other min)",
        format!("{mode:?} (r = {r:.2})"),
        mode == SyncMode::OutOfPhase,
    );

    // ~10 drops per congestion epoch.
    let epochs = detect_epochs(&run.drops(), SimDuration::from_secs(2));
    let dpe = mean_drops_per_epoch(&epochs);
    rep.check(
        "drops per congestion epoch",
        "~10 (= total acceleration of 10 connections)",
        format!("{dpe:.1} over {} epochs", epochs.len()),
        (6.0..=16.0).contains(&dpe) && epochs.len() >= 5,
    );

    // Partial (not complete) clustering.
    let cc = run.clustering12().unwrap_or(0.0);
    rep.check(
        "clustering coefficient at bottleneck",
        "partial: between interleaved (0.2) and complete (~1)",
        format!("{cc:.3}"),
        cc > 0.3 && cc < 0.98,
    );

    // Figures: both queues over a 30 s window (paper shows 520–550 s).
    let w0 = run.t0;
    let w1 = (run.t0 + SimDuration::from_secs(30)).min(run.t1);
    rep.plots.push(
        Plot::new("Fig 3 (top): packet queue at switch 1", w0, w1, 100, 10)
            .y_max(32.0)
            .series(&q1, '#')
            .render(),
    );
    rep.plots.push(
        Plot::new("Fig 3 (bottom): packet queue at switch 2", w0, w1, 100, 10)
            .y_max(32.0)
            .series(&q2, '#')
            .render(),
    );
    let svg = td_analysis::SvgPlot::new(
        "Fig 3: bottleneck queues (5+5 connections)",
        w0,
        w1,
        900,
        360,
    )
    .y_max(32.0)
    .series("queue 1", "#1f77b4", &q1)
    .series("queue 2", "#ff7f0e", &q2)
    .render();
    rep.blobs.push(("fig3_queues.svg".into(), svg.into_bytes()));

    rep.csvs
        .push(("fig3_queue1.csv".into(), csv::series_csv("qlen", &q1)));
    rep.csvs
        .push(("fig3_queue2.csv".into(), csv::series_csv("qlen", &q2)));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_reproduces() {
        let rep = report(1, 400);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
