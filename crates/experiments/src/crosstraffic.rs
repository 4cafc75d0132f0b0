//! Cross-traffic vs clustering — the paper's closing question (§6).
//!
//! "Are the packets from different connections clustered in network
//! queues, or are they mostly interleaved? These questions await careful
//! measurement." We can at least answer it *within the model*: inject
//! open-loop Poisson datagram cross-traffic through the same bottleneck as
//! the paper's 1+1 Tahoe pair and sweep its load.
//!
//! Expected shape: light cross-traffic perforates the clusters only
//! occasionally; as background load grows, cluster contiguity falls
//! toward interleaving and ACK-compression weakens with it — supporting
//! the paper's §5 observation that everything hinges on clustering, and
//! quantifying how fragile the laboratory-pure phenomenon is against
//! realistic traffic mixtures.

use crate::report::Report;
use crate::scenario::{run_observed, DATA_SERVICE};
use td_analysis::{ack_spacing, clustering_coefficient, StreamSpec};
use td_core::{Blackhole, PoissonSource, ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use td_engine::{SimDuration, SimTime};
use td_net::{dumbbell, ConnId, LinkSpec, World};

struct Cell {
    clustering: f64,
    compressed: f64,
    tcp_goodput_pps: f64,
}

/// One run: the fig45 pair plus Poisson cross-traffic of `bg_pps` 500-byte
/// packets per second in each direction (bottleneck capacity: 12.5 pps).
fn run_cell(seed: u64, duration_s: u64, bg_pps: f64) -> Cell {
    let spec = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20));
    let mut d = dumbbell(
        seed,
        spec,
        LinkSpec::paper_host_link(),
        SimDuration::from_micros(100),
    );
    let w: &mut World = &mut d.world;
    // The paper pair.
    let s1 = w.attach(
        d.host1,
        d.host2,
        ConnId(0),
        TcpSender::boxed(SenderConfig::paper()),
    );
    w.attach(
        d.host2,
        d.host1,
        ConnId(0),
        TcpReceiver::boxed(ReceiverConfig::paper()),
    );
    let s2 = w.attach(
        d.host2,
        d.host1,
        ConnId(1),
        TcpSender::boxed(SenderConfig::paper()),
    );
    w.attach(
        d.host1,
        d.host2,
        ConnId(1),
        TcpReceiver::boxed(ReceiverConfig::paper()),
    );
    w.start_at(s1, SimTime::ZERO);
    w.start_at(s2, SimTime::from_millis(137));
    // Background datagram flows, one per direction.
    if bg_pps > 0.0 {
        let b1 = w.attach(
            d.host1,
            d.host2,
            ConnId(2),
            PoissonSource::boxed(bg_pps, 500),
        );
        w.attach(d.host2, d.host1, ConnId(2), Blackhole::boxed());
        let b2 = w.attach(
            d.host2,
            d.host1,
            ConnId(3),
            PoissonSource::boxed(bg_pps, 500),
        );
        w.attach(d.host1, d.host2, ConnId(3), Blackhole::boxed());
        w.start_at(b1, SimTime::from_millis(977));
        w.start_at(b2, SimTime::from_millis(1571));
    }
    let t1 = SimTime::from_secs(duration_s);
    let t0 = SimTime::from_secs(duration_s / 5);
    let spec = StreamSpec::new()
        .departures(d.bottleneck_12)
        .deliveries(d.host1, ConnId(0), true)
        .delivered(d.host2, ConnId(0), t0, t1);
    let m = run_observed(w, &spec, t1);

    let after_warmup = |xs: &[td_analysis::Departure]| -> Vec<_> {
        xs.iter().filter(|x| x.t >= t0).copied().collect()
    };
    let deps = after_warmup(m.departures(d.bottleneck_12));
    let clustering = clustering_coefficient(&deps).unwrap_or(0.0);
    let acks = after_warmup(m.deliveries(d.host1, ConnId(0), true));
    let compressed = ack_spacing(&acks, DATA_SERVICE)
        .map(|s| s.compressed_fraction)
        .unwrap_or(0.0);
    let delivered = m.delivered(d.host2, ConnId(0));
    Cell {
        clustering,
        compressed,
        tcp_goodput_pps: delivered as f64 / t1.since(t0).as_secs_f64(),
    }
}

/// Run and evaluate the cross-traffic sweep.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "tbl-crosstraffic",
        "Poisson cross-traffic vs clustering (the paper's Sec. 6 open question)",
        &format!(
            "seed {seed}, {duration_s} s per cell, fig45 pair + background load per direction"
        ),
    );

    let loads = [0.0, 1.0, 3.0, 6.0]; // pps per direction; capacity 12.5 pps
    let cells: Vec<(f64, Cell)> = loads
        .iter()
        .map(|&l| (l, run_cell(seed, duration_s, l)))
        .collect();

    for (l, c) in &cells {
        rep.info(
            &format!("background {l:.0} pps: clustering / compressed / TCP goodput"),
            "-",
            format!(
                "{:.2} / {:.0} % / {:.1} pps",
                c.clustering,
                c.compressed * 100.0,
                c.tcp_goodput_pps
            ),
        );
    }

    let base = &cells[0].1;
    let heavy = &cells.last().expect("cells nonempty").1;
    rep.check(
        "clustering decreases with background load",
        "cross-traffic interleaves the clusters",
        format!("{:.2} -> {:.2}", base.clustering, heavy.clustering),
        heavy.clustering < base.clustering - 0.1,
    );
    rep.check(
        "ACK-compression weakens with background load",
        "compression needs contiguous clusters (Sec. 4.2)",
        format!(
            "{:.0} % -> {:.0} %",
            base.compressed * 100.0,
            heavy.compressed * 100.0
        ),
        heavy.compressed < base.compressed,
    );
    let monotone_clustering = cells
        .windows(2)
        .all(|w| w[1].1.clustering <= w[0].1.clustering + 0.05);
    rep.check(
        "clustering monotone in load (within noise)",
        "the more interleaving traffic, the weaker the clusters",
        cells
            .iter()
            .map(|(l, c)| format!("{l:.0}pps:{:.2}", c.clustering))
            .collect::<Vec<_>>()
            .join(" "),
        monotone_clustering,
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosstraffic_reproduces() {
        let rep = report(1, 400);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
