//! Figures 8 & 9 — fixed windows, infinite buffers (§4.2, §4.3.3).
//!
//! The paper disentangles ACK-compression from the congestion-control
//! dynamics by fixing the windows: TCP-1 at 30 packets, TCP-2 at 25,
//! infinite switch buffers, random start times. Two pipe sizes:
//!
//! * **Figure 8** (τ = 0.01 s, P = 0.125): constant-amplitude square
//!   waves; queue 1 peaks at **55** (= W1 + W2: all of connection 2's
//!   ACKs pile into queue 1 behind connection 1's data), queue 2 peaks at
//!   **23**; line 1→2 is fully utilized while line 2→1 idles at ≈ 86 %.
//!   `W1 > W2 + 2P` → the out-of-phase queue pattern.
//! * **Figure 9** (τ = 1 s, P = 12.5): both queues peak at the same
//!   height **23** with an alternation pattern in plateau heights; both
//!   lines underutilized (≈ 81 % / 70 %). `W1 < W2 + 2P` → in-phase.
//!
//! No packet is ever dropped in either run (infinite buffers), and the
//! queue falls are ACK-cluster-sized — pure ACK-compression.

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario, DATA_SERVICE};
use td_analysis::plot::Plot;
use td_analysis::{compression, csv};
use td_engine::SimDuration;

/// Scenario: fixed windows `w1`/`w2`, infinite buffers, pipe delay `tau`.
pub fn scenario(seed: u64, duration_s: u64, tau: SimDuration, w1: u64, w2: u64) -> Scenario {
    let mut sc = Scenario::paper(seed, duration_s, tau, None)
        .with_fwd(1, ConnSpec::fixed(w1))
        .with_rev(1, ConnSpec::fixed(w2));
    sc.warmup = SimDuration::from_secs(duration_s / 4);
    sc
}

/// Run and evaluate the Figure 8 reproduction (small pipe). The metrics
/// are computed online with the trace disabled.
pub fn report_fig8(seed: u64, duration_s: u64) -> Report {
    let run = scenario(seed, duration_s, SimDuration::from_millis(10), 30, 25)
        .trace_free()
        .run();
    let mut rep = Report::new(
        "fig8",
        "Fixed windows 30/25, tau = 0.01 s, infinite buffers (paper Fig. 8)",
        &format!(
            "seed {seed}, {duration_s} s simulated, measured after {}",
            run.t0
        ),
    );
    let (q1, q2) = (run.queue1(), run.queue2());

    let q1max = q1.max_in(run.t0, run.t1).unwrap_or(0.0);
    let q2max = q2.max_in(run.t0, run.t1).unwrap_or(0.0);
    rep.check(
        "queue 1 maximum",
        "55 (= W1 + W2)",
        format!("{q1max:.0}"),
        (50.0..=57.0).contains(&q1max),
    );
    rep.check(
        "queue 2 maximum",
        "23",
        format!("{q2max:.0}"),
        (20.0..=27.0).contains(&q2max),
    );

    let (u12, u21) = (run.util12(), run.util21());
    rep.check(
        "line 1->2 utilization",
        "~1.0 (W1 > W2 + 2P: exactly one line saturated)",
        format!("{u12:.3}"),
        u12 > 0.99,
    );
    rep.check(
        "line 2->1 utilization",
        "0.86",
        format!("{u21:.3}"),
        (0.80..=0.92).contains(&u21),
    );

    let drops = run.drops().len();
    rep.check(
        "packet drops",
        "0 (infinite buffers)",
        format!("{drops}"),
        drops == 0,
    );

    // The queue drains one packet per ACK service time while the ACK
    // cluster passes, so the fall per data service time is exactly the
    // RA/RD ratio (10 in the paper), and the full square-wave amplitude
    // (~W2) unfolds over W2 ACK service times (200 ms).
    let fl1 = compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE);
    rep.check(
        "queue 1 fall within one data service time",
        "10 (= data/ACK size ratio: drains at ACK rate)",
        format!("{fl1:.0} packets"),
        (8.0..=12.0).contains(&fl1),
    );
    let amp = compression::queue_fluctuation(&q1, run.t0, run.t1, SimDuration::from_millis(250));
    rep.check(
        "queue 1 square-wave amplitude (fall within 250 ms)",
        "~W2 = 25 (connection 2's compressed ACK cluster)",
        format!("{amp:.0} packets"),
        (18.0..=28.0).contains(&amp),
    );

    let w0 = run.t0;
    let w1 = (run.t0 + SimDuration::from_secs(20)).min(run.t1);
    rep.plots.push(
        Plot::new(
            "Fig 8 (top): queue at switch 1 — plateaus at 55/25",
            w0,
            w1,
            100,
            12,
        )
        .y_max(60.0)
        .series(&q1, '#')
        .render(),
    );
    rep.plots.push(
        Plot::new(
            "Fig 8 (bottom): queue at switch 2 — plateaus at 23",
            w0,
            w1,
            100,
            12,
        )
        .y_max(60.0)
        .series(&q2, '#')
        .render(),
    );
    let svg = td_analysis::SvgPlot::new("Fig 8: fixed windows 30/25, small pipe", w0, w1, 900, 360)
        .y_max(60.0)
        .series("queue 1", "#1f77b4", &q1)
        .series("queue 2", "#ff7f0e", &q2)
        .render();
    rep.blobs.push(("fig8_queues.svg".into(), svg.into_bytes()));

    rep.csvs
        .push(("fig8_queue1.csv".into(), csv::series_csv("qlen", &q1)));
    rep.csvs
        .push(("fig8_queue2.csv".into(), csv::series_csv("qlen", &q2)));
    rep
}

/// Run and evaluate the Figure 9 reproduction (large pipe); trace-free
/// like [`report_fig8`].
pub fn report_fig9(seed: u64, duration_s: u64) -> Report {
    let run = scenario(seed, duration_s, SimDuration::from_secs(1), 30, 25)
        .trace_free()
        .run();
    let mut rep = Report::new(
        "fig9",
        "Fixed windows 30/25, tau = 1 s, infinite buffers (paper Fig. 9)",
        &format!(
            "seed {seed}, {duration_s} s simulated, measured after {}",
            run.t0
        ),
    );
    let (q1, q2) = (run.queue1(), run.queue2());

    let q1max = q1.max_in(run.t0, run.t1).unwrap_or(0.0);
    let q2max = q2.max_in(run.t0, run.t1).unwrap_or(0.0);
    rep.check(
        "queue maxima equal",
        "both queues reach the same maximum (~23)",
        format!("{q1max:.0} / {q2max:.0}"),
        (q1max - q2max).abs() <= 4.0,
    );
    // The exact steady-state height depends on the connections' relative
    // start phase (the paper's random start times gave 23; seeds here give
    // 16-23); the paper-robust claims are the *equality* of the two
    // maxima and the utilizations.
    rep.check(
        "queue 1 maximum",
        "~23 (height varies with relative start phase)",
        format!("{q1max:.0}"),
        (14.0..=28.0).contains(&q1max),
    );

    let (u12, u21) = (run.util12(), run.util21());
    rep.check(
        "line 1->2 utilization",
        "0.81 (W1 < W2 + 2P: neither line saturated)",
        format!("{u12:.3}"),
        (0.74..=0.88).contains(&u12),
    );
    rep.check(
        "line 2->1 utilization",
        "0.70",
        format!("{u21:.3}"),
        (0.62..=0.78).contains(&u21),
    );

    let drops = run.drops().len();
    rep.check(
        "packet drops",
        "0 (infinite buffers)",
        format!("{drops}"),
        drops == 0,
    );

    // Alternation pattern in plateau heights: successive local maxima of
    // queue 1 alternate between two levels (paper's note on Fig. 9).
    let samples = q1.resample(run.t0, run.t1, 2000);
    let mut peaks: Vec<f64> = Vec::new();
    for w in samples.windows(3) {
        if w[1] > w[0] && w[1] >= w[2] && w[1] > 5.0 {
            peaks.push(w[1]);
        }
    }
    let distinct = {
        let mut p = peaks.clone();
        p.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        p.dedup();
        p.len()
    };
    rep.info(
        "plateau height variety (queue 1 local maxima)",
        "alternating plateau heights",
        format!("{} peaks at {} distinct heights", peaks.len(), distinct),
    );

    let w0 = run.t0;
    let w1 = (run.t0 + SimDuration::from_secs(60)).min(run.t1);
    rep.plots.push(
        Plot::new("Fig 9 (top): queue at switch 1", w0, w1, 100, 12)
            .y_max(26.0)
            .series(&q1, '#')
            .render(),
    );
    rep.plots.push(
        Plot::new("Fig 9 (bottom): queue at switch 2", w0, w1, 100, 12)
            .y_max(26.0)
            .series(&q2, '#')
            .render(),
    );
    let svg = td_analysis::SvgPlot::new("Fig 9: fixed windows 30/25, large pipe", w0, w1, 900, 360)
        .y_max(26.0)
        .series("queue 1", "#1f77b4", &q1)
        .series("queue 2", "#ff7f0e", &q2)
        .render();
    rep.blobs.push(("fig9_queues.svg".into(), svg.into_bytes()));

    rep.csvs
        .push(("fig9_queue1.csv".into(), csv::series_csv("qlen", &q1)));
    rep.csvs
        .push(("fig9_queue2.csv".into(), csv::series_csv("qlen", &q2)));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_reproduces() {
        let rep = report_fig8(1, 120);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }

    #[test]
    fn fig9_reproduces() {
        let rep = report_fig9(1, 300);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
