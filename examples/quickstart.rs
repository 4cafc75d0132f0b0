//! Quickstart: simulate the paper's two-way traffic scenario and print
//! what the paper saw — depressed utilization, rapid queue fluctuations,
//! and an ASCII rendition of the famous square-wave queue plot.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tahoe_dynamics::analysis::plot::Plot;
use tahoe_dynamics::analysis::{ack_spacing, compression, deliveries};
use tahoe_dynamics::engine::SimDuration;
use tahoe_dynamics::experiments::{ConnSpec, Scenario, DATA_SERVICE};

fn main() {
    // Figure 4-5 of the paper: one TCP Tahoe connection in each direction
    // across a 50 Kbit/s bottleneck (tau = 0.01 s) with a 20-packet
    // drop-tail buffer. Seed 1, 300 s, measured after the first 60 s.
    let sc = Scenario::paper(1, 300, SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());

    println!("simulating 300 s of two-way TCP Tahoe over a 50 Kbit/s bottleneck ...\n");
    let run = sc.run();

    println!(
        "bottleneck utilization:   {:.1} % / {:.1} %   (one-way traffic would reach ~100 %)",
        run.util12() * 100.0,
        run.util21() * 100.0
    );

    let q1 = run.queue1();
    let fluct = compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE);
    println!("fastest queue collapse:   {fluct:.0} packets within one 80 ms packet service time");

    let acks: Vec<_> = deliveries(run.world.trace(), run.host1, run.fwd[0], true)
        .into_iter()
        .filter(|d| d.t >= run.t0)
        .collect();
    if let Some(sp) = ack_spacing(&acks, DATA_SERVICE) {
        println!(
            "ACK-compression:          {:.0} % of ACK gaps below the 80 ms data service time",
            sp.compressed_fraction * 100.0
        );
    }

    let drops = run.drops();
    let data = drops.iter().filter(|d| d.is_data).count();
    println!(
        "drops in window:          {} data, {} ACK (the paper: ACKs are never dropped)",
        data,
        drops.len() - data
    );

    let w1 = run.t0 + SimDuration::from_secs(30);
    println!();
    println!(
        "{}",
        Plot::new(
            "queue at switch 1 — ACK-compression square waves  [* = drop]",
            run.t0,
            w1,
            100,
            12,
        )
        .y_max(22.0)
        .series(&q1, '#')
        .marks(&drops.iter().map(|d| d.t).collect::<Vec<_>>(), '*')
        .render()
    );
    println!("see `td-repro all` for the full figure-by-figure reproduction.");
}
