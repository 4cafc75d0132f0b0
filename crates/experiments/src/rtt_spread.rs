//! Unequal round-trip times degrade clustering (§5).
//!
//! "The fact that the two connections had the same round-trip time was
//! crucial to the complete packet clustering in our simulation. When the
//! round-trip times of different connections differ by more than a packet
//! transmission time at the bottleneck point, the clustering will no
//! longer be perfect, although partial clustering may still exist."
//!
//! We test it directly: two one-way connections sharing the bottleneck,
//! sourced from *different* hosts on the left switch whose access links
//! add either identical or very different propagation delays. With equal
//! RTTs, clustering is complete; stretching one connection's RTT by
//! several bottleneck service times leaves only partial clustering.

use crate::report::Report;
use crate::scenario::run_observed;
use td_analysis::{clustering_coefficient, StreamSpec};
use td_core::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use td_engine::{Rate, SimDuration, SimTime};
use td_net::{ConnId, DisciplineKind, FaultModel, World};

/// Build the asymmetric-access dumbbell: two source hosts on switch 1 —
/// one with the paper's 0.1 ms access delay, the other with
/// `extra_access_delay` — both sending to sinks on host 2. Returns
/// `[clustering, utilization]` — the reduction happens here, worker-side,
/// so the finished `World` never crosses a thread boundary when the cells
/// are fanned out.
fn run_pair(seed: u64, duration_s: u64, extra_access_delay: SimDuration) -> Vec<f64> {
    let mut w = World::new(seed);
    let fast_src = w.add_host("src-fast", SimDuration::from_micros(100));
    let slow_src = w.add_host("src-slow", SimDuration::from_micros(100));
    let dst = w.add_host("dst", SimDuration::from_micros(100));
    let s1 = w.add_switch("S1");
    let s2 = w.add_switch("S2");
    let fast = Rate::from_mbps(10);
    let add = |w: &mut World, a, b, delay: SimDuration, rate: Rate, cap: Option<u32>| {
        w.add_channel(
            a,
            b,
            rate,
            delay,
            cap,
            DisciplineKind::DropTail.build(),
            FaultModel::NONE,
        );
        w.add_channel(
            b,
            a,
            rate,
            delay,
            cap,
            DisciplineKind::DropTail.build(),
            FaultModel::NONE,
        );
    };
    add(
        &mut w,
        fast_src,
        s1,
        SimDuration::from_micros(100),
        fast,
        None,
    );
    add(
        &mut w,
        slow_src,
        s1,
        SimDuration::from_micros(100) + extra_access_delay,
        fast,
        None,
    );
    add(&mut w, dst, s2, SimDuration::from_micros(100), fast, None);
    add(
        &mut w,
        s1,
        s2,
        SimDuration::from_secs(1),
        Rate::from_kbps(50),
        Some(20),
    );
    w.compute_routes();

    for (i, src) in [fast_src, slow_src].into_iter().enumerate() {
        let conn = ConnId(i as u32);
        let s = w.attach(src, dst, conn, TcpSender::boxed(SenderConfig::paper()));
        w.attach(dst, src, conn, TcpReceiver::boxed(ReceiverConfig::paper()));
        w.start_at(s, SimTime::from_millis(i as u64 * 137));
    }
    // Clustering of data departures at the bottleneck (S1 -> S2 is the
    // 7th channel added: 3 duplex access links = ids 0..=5, trunk = 6/7).
    let bottleneck = td_net::ChannelId(6);
    let t0 = SimTime::from_secs(duration_s / 5);
    let t1 = SimTime::from_secs(duration_s);
    let spec = StreamSpec::new()
        .departures(bottleneck)
        .utilization(bottleneck, t0, t1);
    let m = run_observed(&mut w, &spec, t1);
    let deps: Vec<_> = m
        .departures(bottleneck)
        .iter()
        .filter(|d| d.t >= t0 && d.pkt.is_data())
        .copied()
        .collect();
    let cc = clustering_coefficient(&deps).unwrap_or(0.0);
    vec![cc, m.utilization(bottleneck)]
}

/// Run and evaluate the RTT-spread claim.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "tbl-rtt-spread",
        "Unequal RTTs break complete clustering (paper Sec. 5)",
        &format!("seed {seed}, {duration_s} s per cell, 2 one-way connections, tau = 1 s, B = 20"),
    );

    // The two cells are independent simulations: fan them out on idle job
    // slots. Cell order (and thus the report) is fixed regardless of
    // which finishes first. The spread cell stretches one access path by
    // 500 ms each way: RTT gap of 1 s, 12.5 bottleneck service times.
    let cells = crate::sweep::parallel_map(
        &[SimDuration::ZERO, SimDuration::from_millis(500)],
        |_, &extra| run_pair(seed, duration_s, extra),
    );
    let (equal, spread) = (&cells[0], &cells[1]);

    rep.check(
        "clustering with equal RTTs",
        "complete (the paper's baseline)",
        format!("{:.3}", equal[0]),
        equal[0] > 0.85,
    );
    rep.check(
        "clustering with RTTs 1 s apart",
        "no longer perfect; partial clustering remains",
        format!("{:.3}", spread[0]),
        spread[0] < equal[0] - 0.05 && spread[0] > 0.3,
    );
    rep.info(
        "bottleneck utilization equal / spread",
        "-",
        format!("{:.3} / {:.3}", equal[1], spread[1]),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_spread_reproduces() {
        let rep = report(1, 600);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
