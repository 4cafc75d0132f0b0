//! Figures 6 & 7 — two-way traffic, large pipe: in-phase mode (§4.1,
//! §4.3.2).
//!
//! One connection per direction, τ = 1 s (pipe P = 12.5 packets), buffer
//! 20. The paper's observations this run must reproduce:
//!
//! * the connections synchronize **in phase**: queue lengths and cwnd
//!   values rise and fall together (the contrast with Figures 4–5);
//! * in each congestion epoch **each** connection loses a single packet
//!   (loss-synchronization, drops close together in time);
//! * utilization ≈ 60 % (versus 90 % one-way at the same pipe size), with
//!   repeating idle periods while the compressed ACKs are in the pipe;
//! * there are times when **both** lines are idle simultaneously — unlike
//!   the small-pipe case where only one line idles at a time;
//! * ACK-compression square waves present here too.

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario, DATA_SERVICE};
use td_analysis::epochs::{detect_epochs, loss_synchronization, mean_drops_per_epoch};
use td_analysis::plot::Plot;
use td_analysis::sync::{classify_sync, SyncMode};
use td_analysis::{compression, csv};
use td_engine::{SimDuration, SimTime};

/// Scenario: 1+1 connections, τ = 1 s, B = 20.
pub fn scenario(seed: u64, duration_s: u64) -> Scenario {
    Scenario::paper(seed, duration_s, SimDuration::from_secs(1), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper())
}

/// Fraction of the window during which *both* queues are empty and both
/// lines idle (paper: nonzero for the large-pipe case).
fn both_idle_fraction(
    q1: &td_analysis::TimeSeries,
    q2: &td_analysis::TimeSeries,
    t0: SimTime,
    t1: SimTime,
) -> f64 {
    // Sample both queue series on a fine grid and measure simultaneous
    // emptiness; combined with the in-service flag via utilization the
    // queue series alone is the right signal (occupancy includes the
    // packet being serialized).
    let n = 4000;
    let a = q1.resample(t0, t1, n);
    let b = q2.resample(t0, t1, n);
    let both = a
        .iter()
        .zip(&b)
        .filter(|&(&x, &y)| x == 0.0 && y == 0.0)
        .count();
    both as f64 / n as f64
}

/// Run and evaluate the Figures 6–7 reproduction.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let run = scenario(seed, duration_s).trace_free().run();
    let mut rep = Report::new(
        "fig67",
        "Two-way traffic: 1+1 connections, tau = 1 s, B = 20 (paper Figs. 6-7)",
        &format!(
            "seed {seed}, {duration_s} s simulated, measured after {}",
            run.t0
        ),
    );
    let (c1, c2) = (run.fwd[0], run.rev[0]);
    let (q1, q2, cw1, cw2) = (run.queue1(), run.queue2(), run.cwnd(c1), run.cwnd(c2));

    let (u12, u21) = (run.util12(), run.util21());
    rep.check(
        "utilization",
        "~0.60 (vs ~0.90 one-way at this pipe size)",
        format!("{u12:.3} / {u21:.3}"),
        (0.45..=0.75).contains(&u12) && (0.45..=0.75).contains(&u21),
    );

    // In-phase window synchronization.
    let (mode, r) = classify_sync(&cw1, &cw2, run.t0, run.t1, 800, 5, 0.15);
    rep.check(
        "window synchronization",
        "in-phase (rise and fall together)",
        format!("{mode:?} (r = {r:.2})"),
        mode == SyncMode::InPhase,
    );

    // Each connection loses one packet per epoch.
    let epochs = detect_epochs(&run.drops(), SimDuration::from_secs(15));
    let dpe = mean_drops_per_epoch(&epochs);
    rep.check(
        "drops per congestion epoch",
        "2 (one per connection)",
        format!("{dpe:.2} over {} epochs", epochs.len()),
        (1.5..=3.0).contains(&dpe) && epochs.len() >= 4,
    );
    let sync_frac = loss_synchronization(&epochs, &[c1, c2]);
    rep.check(
        "loss synchronization",
        "both connections lose in the same epoch",
        format!("{:.0} % of epochs", sync_frac * 100.0),
        sync_frac >= 0.6,
    );

    // Both lines simultaneously idle at times.
    let idle_both = both_idle_fraction(&q1, &q2, run.t0, run.t1);
    rep.check(
        "both lines idle simultaneously",
        "> 0 (unlike the small-pipe case)",
        format!("{:.1} % of the time", idle_both * 100.0),
        idle_both > 0.02,
    );

    // ACK-compression square waves.
    let fl = compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE);
    rep.check(
        "max queue fall within one data service time",
        "square waves present",
        format!("{fl:.0} packets"),
        fl >= 4.0,
    );

    let ack_drops = run.drops().iter().filter(|d| !d.is_data).count();
    rep.check("ACK drops", "0", format!("{ack_drops}"), ack_drops == 0);

    // Figures 6 and 7 (paper shows 540–640 s: a 100 s window).
    let w0 = run.t0;
    let w1 = (run.t0 + SimDuration::from_secs(100)).min(run.t1);
    let drop_times: Vec<SimTime> = run.drops().iter().map(|d| d.t).collect();
    rep.plots.push(
        Plot::new(
            "Fig 6 (top): queue at switch 1   [* = drop]",
            w0,
            w1,
            100,
            10,
        )
        .y_max(22.0)
        .series(&q1, '#')
        .marks(&drop_times, '*')
        .render(),
    );
    rep.plots.push(
        Plot::new(
            "Fig 6 (bottom): queue at switch 2   [* = drop]",
            w0,
            w1,
            100,
            10,
        )
        .y_max(22.0)
        .series(&q2, '#')
        .marks(&drop_times, '*')
        .render(),
    );
    rep.plots.push(
        Plot::new(
            "Fig 7: cwnd of TCP-1 ('1') and TCP-2 ('2') — in-phase",
            w0,
            w1,
            100,
            12,
        )
        .series(&cw1, '1')
        .series(&cw2, '2')
        .render(),
    );
    let qsvg =
        td_analysis::SvgPlot::new("Fig 6: bottleneck queues (in-phase mode)", w0, w1, 900, 360)
            .y_max(22.0)
            .series("queue 1", "#1f77b4", &q1)
            .series("queue 2", "#ff7f0e", &q2)
            .marks(&drop_times)
            .render();
    rep.blobs
        .push(("fig6_queues.svg".into(), qsvg.into_bytes()));
    let wsvg = td_analysis::SvgPlot::new("Fig 7: in-phase cwnd", w0, w1, 900, 360)
        .series("TCP-1", "#1f77b4", &cw1)
        .series("TCP-2", "#ff7f0e", &cw2)
        .render();
    rep.blobs.push(("fig7_cwnd.svg".into(), wsvg.into_bytes()));

    rep.csvs
        .push(("fig6_queue1.csv".into(), csv::series_csv("qlen", &q1)));
    rep.csvs
        .push(("fig6_queue2.csv".into(), csv::series_csv("qlen", &q2)));
    rep.csvs
        .push(("fig7_cwnd1.csv".into(), csv::series_csv("cwnd", &cw1)));
    rep.csvs
        .push(("fig7_cwnd2.csv".into(), csv::series_csv("cwnd", &cw2)));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig67_reproduces() {
        let rep = report(1, 800);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
