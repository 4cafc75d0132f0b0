//! Figures 4 & 5 — two-way traffic, small pipe: out-of-phase mode (§4.1,
//! §4.3.1).
//!
//! One connection per direction, τ = 0.01 s, buffer 20. The paper's
//! observations this run must reproduce:
//!
//! * **ACK-compression square waves** superimposed on the low-frequency
//!   queue oscillation: large queue falls within one data service time,
//!   and a substantial fraction of ACKs arriving at each source spaced by
//!   roughly the ACK service time instead of the data service time;
//! * **out-of-phase synchronization**: one window rises while the other
//!   falls (Figure 5), and during each congestion epoch one connection
//!   loses **two** packets while the other loses none, the roles
//!   alternating between epochs (Figure 4's drop marks);
//! * bottleneck utilization ≈ 70 % — and it **stays ≈ 70 %** when the
//!   buffer grows to 60 or 120 (§4.3.1): with two-way traffic the
//!   out-of-phase mode keeps utilization below optimal even in the
//!   large-buffer limit;
//! * packets remain completely clustered; ACKs are never dropped.

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario, DATA_SERVICE, GOODPUT_BIN};
use td_analysis::epochs::{alternating_single_loser, detect_epochs, mean_drops_per_epoch};
use td_analysis::plot::Plot;
use td_analysis::sync::{classify_sync, SyncMode};
use td_analysis::{compression, csv, power_law_exponent};
use td_engine::{SimDuration, SimTime};

/// Scenario: 1+1 connections, τ = 0.01 s, buffer as given (20 / 60 / 120).
pub fn scenario(seed: u64, duration_s: u64, buffer: u32) -> Scenario {
    let mut sc = Scenario::paper(SimDuration::from_millis(10), Some(buffer))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    sc.seed = seed;
    sc.duration = SimDuration::from_secs(duration_s);
    sc.warmup = SimDuration::from_secs(duration_s / 5);
    sc
}

/// Run and evaluate the Figures 4–5 reproduction, including the buffer
/// sweep showing utilization stuck at ~70 %. The B = 20 run keeps its
/// trace — `fig4_bottleneck.pcap` is made from the records — and the
/// sweep cells run trace-free.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let run = scenario(seed, duration_s, 20).run();
    let mut rep = Report::new(
        "fig45",
        "Two-way traffic: 1+1 connections, tau = 0.01 s, B = 20 (paper Figs. 4-5)",
        &format!(
            "seed {seed}, {duration_s} s simulated, measured after {}",
            run.t0
        ),
    );
    let (c1, c2) = (run.fwd[0], run.rev[0]);
    let (q1, q2, cw1, cw2) = (run.queue1(), run.queue2(), run.cwnd(c1), run.cwnd(c2));

    // Utilization ~70 %.
    let (u12, u21) = (run.util12(), run.util21());
    rep.check(
        "utilization (B = 20)",
        "~0.70",
        format!("{u12:.3} / {u21:.3}"),
        (0.58..=0.82).contains(&u12) && (0.58..=0.82).contains(&u21),
    );

    // Buffer sweep: 60 and 120 leave utilization ≈ 70 %, and the §4.3.1
    // mechanism is visible: the ACK queueing delay (the "effective pipe")
    // grows with the buffer as fast as the cycle does.
    let base_sojourn = run
        .mean_ack_sojourn12()
        .expect("acks crossed the bottleneck");
    // The B = 60 / 120 cells are independent simulations: fan them out on
    // idle job slots. Bigger buffers stretch the window cycle (queueing
    // delay grows with occupancy), so each run stretches too to average
    // over whole cycles. Workers reduce their runs to three numbers
    // before returning, and rows are emitted in buffer order, so the
    // report is byte-identical to the old sequential loop.
    let sweep_cells = crate::sweep::parallel_map(&[60u32, 120], |_, &buffer| {
        let r = scenario(seed, duration_s * buffer as u64 / 20, buffer)
            .trace_free()
            .run();
        (r.util12(), r.util21(), r.mean_ack_sojourn12())
    });
    let mut sweep_sojourns = vec![(20u32, base_sojourn)];
    for (&buffer, (a, b, sojourn)) in [60u32, 120].iter().zip(sweep_cells) {
        rep.check(
            &format!("utilization (B = {buffer})"),
            "~0.70 — infinite buffers would not fix it",
            format!("{a:.3} / {b:.3}"),
            (0.55..=0.85).contains(&a) && (0.55..=0.85).contains(&b),
        );
        if let Some(sj) = sojourn {
            sweep_sojourns.push((buffer, sj));
        }
    }
    let grow_ok = sweep_sojourns.windows(2).all(|w| w[1].1 > w[0].1 * 1.5);
    rep.check(
        "effective pipe: mean ACK queueing delay vs buffer",
        "grows with the buffer in step with the cycle (Sec. 4.3.1's mechanism)",
        sweep_sojourns
            .iter()
            .map(|(b, s)| format!("B={b}: {:.2} s", s))
            .collect::<Vec<_>>()
            .join(", "),
        grow_ok,
    );

    // ACK-compression: spacing of ACK arrivals at each source.
    let sp = run.ack_spacing(c1).expect("plenty of ACKs");
    rep.check(
        "ACK gaps compressed below the data service time",
        "substantial fraction (ACKs stop being a reliable clock)",
        format!(
            "{:.0} % of {} gaps; p10 gap {:.1} ms (ACK service 8 ms)",
            sp.compressed_fraction * 100.0,
            sp.gaps,
            sp.p10_gap_s * 1000.0
        ),
        sp.compressed_fraction > 0.25 && sp.p10_gap_s < 0.02,
    );

    // Square waves: queue falls by many packets within one service time.
    let fl1 = compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE);
    rep.check(
        "max queue fall within one data service time",
        "square waves: cluster-sized (vs 1 for one-way)",
        format!("{fl1:.0} packets"),
        fl1 >= 4.0,
    );

    // Out-of-phase window synchronization.
    let (mode, r) = classify_sync(&cw1, &cw2, run.t0, run.t1, 800, 5, 0.15);
    rep.check(
        "window synchronization",
        "out-of-phase (one rises while the other falls)",
        format!("{mode:?} (r = {r:.2})"),
        mode == SyncMode::OutOfPhase,
    );

    // The bandwidth see-saw behind the out-of-phase mode: binned goodput
    // of the two connections is anti-correlated ("during this time the
    // other connection is getting most of the bandwidth", Sec. 4.3.1).
    let bin = GOODPUT_BIN;
    let (g1, g2) = (run.goodput(c1), run.goodput(c2));
    let n = (run.t1.since(run.t0) / bin) as usize;
    let r_bw = td_analysis::pearson(
        &g1.resample(run.t0, run.t1, n),
        &g2.resample(run.t0, run.t1, n),
    )
    .unwrap_or(0.0);
    rep.check(
        "bandwidth see-saw (goodput anti-correlation)",
        "one connection gets most of the bandwidth while the other rebuilds",
        format!("r = {r_bw:.2} over {n} bins of {bin}"),
        r_bw < -0.3,
    );

    // Per-epoch losses: 2 total, single loser, alternating.
    let epochs = detect_epochs(&run.drops(), SimDuration::from_secs(4));
    let dpe = mean_drops_per_epoch(&epochs);
    rep.check(
        "drops per congestion epoch",
        "2 (= total acceleration)",
        format!("{dpe:.2} over {} epochs", epochs.len()),
        (1.5..=2.6).contains(&dpe) && epochs.len() >= 5,
    );
    let single =
        epochs.iter().filter(|e| e.losers().len() == 1).count() as f64 / epochs.len().max(1) as f64;
    rep.check(
        "epochs with a single losing connection",
        "every epoch: one connection loses both packets",
        format!("{:.0} %", single * 100.0),
        single >= 0.7,
    );
    let alt = alternating_single_loser(&epochs);
    rep.check(
        "loser alternates between epochs",
        "roles reverse every congestion epoch",
        format!("{:.0} % of adjacent epoch pairs", alt * 100.0),
        alt >= 0.6,
    );

    // The §4.3.1 growth law: after a double loss drives ssthresh to its
    // floor, cwnd climbs "as the square root of time over the whole
    // cycle". Fit cwnd against time since the connection's own loss over
    // its longest recovery stretch.
    let loss_times: Vec<SimTime> = {
        let mut ts: Vec<SimTime> = run
            .drops()
            .iter()
            .filter(|d| d.conn == c1 && d.is_data)
            .map(|d| d.t)
            .collect();
        ts.dedup();
        ts
    };
    let longest = loss_times
        .windows(2)
        .map(|w| (w[0], w[1]))
        .max_by_key(|(a, b)| b.since(*a).as_nanos());
    if let Some((t_a, t_b)) = longest {
        let n = 60;
        let span = t_b.since(t_a).as_nanos();
        let pts: Vec<(f64, f64)> = (5..n)
            .filter_map(|i| {
                let t = t_a + td_engine::SimDuration::from_nanos(span * i / n);
                cw1.value_at(t).map(|v| (t.since(t_a).as_secs_f64(), v))
            })
            .collect();
        if let Some(expo) = power_law_exponent(&pts) {
            // Known divergence (see EXPERIMENTS.md): the paper derives
            // cwnd ~ sqrt(t) assuming RTT tracks the connection's own
            // window; in the out-of-phase mode we observe the recovering
            // connection's RTT is set by its *partner's* queue, which
            // shrinks as the partner approaches its own loss — so growth
            // accelerates (exponent ~1.2-1.5) instead of flattening.
            rep.info(
                "cwnd growth exponent over the recovery cycle",
                "paper predicts ~0.5 (sqrt); we observe superlinear (see EXPERIMENTS.md)",
                format!(
                    "{expo:.2} over a {:.0} s cycle",
                    t_b.since(t_a).as_secs_f64()
                ),
            );
        }
    }

    // ACKs never dropped; clustering complete.
    let ack_drops = run.drops().iter().filter(|d| !d.is_data).count();
    rep.check("ACK drops", "0", format!("{ack_drops}"), ack_drops == 0);
    let cc = run.clustering12_all().unwrap_or(0.0);
    rep.check(
        "clustering coefficient (data + ACK departures)",
        "complete clustering persists with 1+1 traffic",
        format!("{cc:.3}"),
        cc > 0.8,
    );

    // Figures 4 and 5: 30 s window.
    let w0 = run.t0;
    let w1 = (run.t0 + SimDuration::from_secs(30)).min(run.t1);
    let drop_times: Vec<SimTime> = run.drops().iter().map(|d| d.t).collect();
    rep.plots.push(
        Plot::new(
            "Fig 4 (top): queue at switch 1   [* = drop]",
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
            "Fig 4 (bottom): queue at switch 2   [* = drop]",
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
    let w1c = (run.t0 + SimDuration::from_secs(60)).min(run.t1);
    rep.plots.push(
        Plot::new(
            "Fig 5: cwnd of TCP-1 ('1') and TCP-2 ('2') — out-of-phase",
            w0,
            w1c,
            100,
            12,
        )
        .series(&cw1, '1')
        .series(&cw2, '2')
        .render(),
    );
    rep.csvs
        .push(("fig4_queue1.csv".into(), csv::series_csv("qlen", &q1)));
    rep.csvs
        .push(("fig4_queue2.csv".into(), csv::series_csv("qlen", &q2)));
    rep.csvs
        .push(("fig5_cwnd1.csv".into(), csv::series_csv("cwnd", &cw1)));
    rep.csvs
        .push(("fig5_cwnd2.csv".into(), csv::series_csv("cwnd", &cw2)));
    let qsvg = td_analysis::SvgPlot::new("Fig 4: bottleneck queues", w0, w1, 900, 360)
        .y_max(22.0)
        .series("queue 1", "#1f77b4", &q1)
        .series("queue 2", "#ff7f0e", &q2)
        .marks(&drop_times)
        .render();
    rep.blobs
        .push(("fig4_queues.svg".into(), qsvg.into_bytes()));
    let wsvg = td_analysis::SvgPlot::new("Fig 5: out-of-phase cwnd", w0, w1c, 900, 360)
        .series("TCP-1", "#1f77b4", &cw1)
        .series("TCP-2", "#ff7f0e", &cw2)
        .render();
    rep.blobs.push(("fig5_cwnd.svg".into(), wsvg.into_bytes()));
    let gsvg = td_analysis::SvgPlot::new(
        "Fig 4/5 companion: goodput see-saw (5 s bins)",
        run.t0,
        run.t1,
        900,
        360,
    )
    .series("TCP-1", "#1f77b4", &g1)
    .series("TCP-2", "#ff7f0e", &g2)
    .render();
    rep.blobs
        .push(("fig45_goodput.svg".into(), gsvg.into_bytes()));
    rep.csvs
        .push(("fig45_goodput1.csv".into(), csv::series_csv("pps", &g1)));
    rep.csvs
        .push(("fig45_goodput2.csv".into(), csv::series_csv("pps", &g2)));
    // A Wireshark-readable capture of the bottleneck wire.
    rep.blobs.push((
        "fig4_bottleneck.pcap".into(),
        td_net::to_pcap_bytes(
            run.world.trace(),
            td_net::CapturePoint::ChannelWire(run.bottleneck_12),
        ),
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig45_reproduces() {
        let rep = report(1, 500);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
