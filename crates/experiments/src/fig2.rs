//! Figure 2 — one-way traffic baseline (§3.1).
//!
//! Three TCP connections, all sourced on Host-1, τ = 1 s, buffer 20.
//! The paper's observations this run must reproduce:
//!
//! * sawtooth queue/cwnd oscillations with a period of roughly 34 s;
//! * the three connections window-synchronized **in phase**;
//! * **loss synchronization**: every connection loses exactly one packet
//!   (its acceleration) in every congestion epoch;
//! * complete packet clustering at the bottleneck;
//! * bottleneck utilization ≈ 90 % (and the queue never fluctuates faster
//!   than packet-by-packet — no ACK-compression with one-way traffic);
//! * ACK packets are never dropped.

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario, DATA_SERVICE};
use td_analysis::epochs::{detect_epochs, loss_synchronization, mean_drops_per_epoch};
use td_analysis::plot::Plot;
use td_analysis::sync::{classify_sync, SyncMode};
use td_analysis::{compression, csv};
use td_engine::{SimDuration, SimTime};

/// Scenario: 3 one-way connections, τ = 1 s, B = 20.
pub fn scenario(seed: u64, duration_s: u64) -> Scenario {
    Scenario::paper(seed, duration_s, SimDuration::from_secs(1), Some(20))
        .with_fwd(3, ConnSpec::paper())
}

/// Run and evaluate the Figure 2 reproduction. The metrics are computed
/// online with the trace disabled.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let run = scenario(seed, duration_s).trace_free().run();
    let mut rep = Report::new(
        "fig2",
        "One-way traffic: 3 connections, tau = 1 s, B = 20 (paper Fig. 2)",
        &format!(
            "seed {seed}, {duration_s} s simulated, measured after {}",
            run.t0
        ),
    );

    // Utilization.
    let util = run.util12();
    rep.check(
        "utilization 1->2",
        "~0.90",
        format!("{util:.3}"),
        (0.82..=0.97).contains(&util),
    );

    // Loss synchronization & acceleration analysis.
    let drops = run.drops();
    let epochs = detect_epochs(&drops, SimDuration::from_secs(10));
    let sync_frac = loss_synchronization(&epochs, &run.fwd);
    rep.check(
        "loss-synchronization fraction",
        "~1.0 (all connections lose every epoch)",
        format!("{sync_frac:.2} over {} epochs", epochs.len()),
        sync_frac >= 0.8 && epochs.len() >= 5,
    );
    let dpe = mean_drops_per_epoch(&epochs);
    rep.check(
        "drops per congestion epoch",
        "3 (= total acceleration = #connections)",
        format!("{dpe:.2}"),
        (2.5..=3.6).contains(&dpe),
    );

    // Oscillation period ≈ 34 s (epoch spacing).
    if epochs.len() >= 3 {
        let spans: Vec<f64> = epochs
            .windows(2)
            .map(|w| w[1].t_start.since(w[0].t_start).as_secs_f64())
            .collect();
        let period = td_analysis::mean(&spans);
        rep.check(
            "oscillation period",
            "~34 s",
            format!("{period:.1} s"),
            (20.0..=50.0).contains(&period),
        );
    }

    // ACKs are never dropped.
    let ack_drops = drops.iter().filter(|d| !d.is_data).count();
    rep.check("ACK drops", "0", format!("{ack_drops}"), ack_drops == 0);

    // In-phase window synchronization (pairwise).
    let cw: Vec<_> = run.fwd.iter().map(|&c| run.cwnd(c)).collect();
    let mut all_in_phase = true;
    let mut rs = Vec::new();
    for i in 0..cw.len() {
        for j in i + 1..cw.len() {
            let (mode, r) = classify_sync(&cw[i], &cw[j], run.t0, run.t1, 600, 3, 0.2);
            rs.push(format!("r={r:.2}"));
            all_in_phase &= mode == SyncMode::InPhase;
        }
    }
    rep.check(
        "window synchronization",
        "in-phase (all pairs)",
        format!(
            "{} ({})",
            if all_in_phase {
                "in-phase"
            } else {
                "NOT in-phase"
            },
            rs.join(", ")
        ),
        all_in_phase,
    );

    // Complete clustering.
    let cc = run.clustering12().unwrap_or(0.0);
    rep.check(
        "clustering coefficient",
        "~complete (>> 1/3 interleaved baseline)",
        format!("{cc:.3}"),
        cc > 0.8,
    );

    // No rapid queue fluctuations (the contrast with two-way traffic).
    let q1 = run.queue1();
    let fluct = compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE);
    rep.check(
        "max queue fall within one service time",
        "1 packet (smooth queue)",
        format!("{fluct:.0} packets"),
        fluct <= 2.0,
    );

    // Figure: queue + cwnd over a 100 s window, as in the paper.
    let w0 = run.t0;
    let w1 = (run.t0 + SimDuration::from_secs(100)).min(run.t1);
    let mut plot = Plot::new(
        "Fig 2 (top): packet queue at switch 1   [* = drop]",
        w0,
        w1,
        100,
        12,
    )
    .y_max(22.0)
    .series(&q1, '#');
    let drop_times: Vec<SimTime> = drops.iter().filter(|d| d.is_data).map(|d| d.t).collect();
    plot = plot.marks(&drop_times, '*');
    rep.plots.push(plot.render());
    let glyphs = ['1', '2', '3'];
    let mut cplot = Plot::new(
        "Fig 2 (bottom): cwnd of the three connections",
        w0,
        w1,
        100,
        12,
    );
    for (i, c) in cw.iter().enumerate() {
        cplot = cplot.series(c, glyphs[i]);
    }
    rep.plots.push(cplot.render());

    let svg = td_analysis::SvgPlot::new("Fig 2: queue at switch 1", w0, w1, 900, 360)
        .y_max(22.0)
        .series("queue", "#1f77b4", &q1)
        .marks(&drop_times)
        .render();
    rep.blobs.push(("fig2_queue1.svg".into(), svg.into_bytes()));
    let mut csvg = td_analysis::SvgPlot::new("Fig 2: cwnd of three connections", w0, w1, 900, 360);
    for (i, (c, color)) in cw.iter().zip(["#1f77b4", "#ff7f0e", "#2ca02c"]).enumerate() {
        csvg = csvg.series(&format!("conn {}", i + 1), color, c);
    }
    rep.blobs
        .push(("fig2_cwnd.svg".into(), csvg.render().into_bytes()));

    rep.csvs
        .push(("fig2_queue1.csv".into(), csv::series_csv("qlen", &q1)));
    for (i, c) in cw.iter().enumerate() {
        rep.csvs.push((
            format!("fig2_cwnd_conn{}.csv", i + 1),
            csv::series_csv("cwnd", c),
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces() {
        let rep = report(1, 600);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
