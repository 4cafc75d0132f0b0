//! `td-sim` — run a custom dumbbell scenario and report its dynamics.
//!
//! ```text
//! td-sim --tau-ms 10 --buffer 20 --fwd 1 --rev 1 --cc tahoe --duration 300
//! td-sim --cc decbit --discipline red --out results/ --pcap
//! ```
//!
//! Prints a dynamics summary (utilization, drops, synchronization mode,
//! ACK-compression metrics, queue plot); with `--out` also writes the CSV
//! series, SVG figures, and optionally a pcap of the bottleneck wire.

use std::process::ExitCode;
use td_analysis::plot::Plot;
use td_analysis::sync::classify_sync;
use td_analysis::{compression, csv, SvgPlot};
use td_engine::{write_atomic, SimDuration};
use td_experiments::simcli::{parse, usage, SimArgs};
use td_experiments::DATA_SERVICE;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let SimArgs {
        scenario,
        out,
        pcap,
    } = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print!("{}", usage());
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "simulating {} ({} fwd + {} rev connections, tau {}, buffer {:?}, {:?}) ...",
        scenario.duration,
        scenario.fwd.len(),
        scenario.rev.len(),
        scenario.tau,
        scenario.buffer,
        scenario.discipline,
    );
    let run = scenario.run();

    // -- summary -------------------------------------------------------
    println!("measurement window: {} .. {}", run.t0, run.t1);
    println!(
        "bottleneck utilization: {:.3} (1->2), {:.3} (2->1)",
        run.util12(),
        run.util21()
    );
    let drops = run.drops();
    let data_drops = drops.iter().filter(|d| d.is_data).count();
    println!(
        "drops in window: {} ({} data, {} ACK)",
        drops.len(),
        data_drops,
        drops.len() - data_drops
    );
    for conn in run.conns() {
        let tx = run.sender(conn).stats();
        let rx = run.receiver(conn).stats();
        println!(
            "  conn {:>2}: delivered {:>6}  retx {:>4}  fast-retx {:>3}  timeouts {:>3}",
            conn.0, rx.delivered, tx.retransmits, tx.fast_retransmits, tx.timeouts
        );
    }
    if let (Some(&c1), Some(&c2)) = (run.fwd.first(), run.rev.first()) {
        let (mode, r) = classify_sync(&run.cwnd(c1), &run.cwnd(c2), run.t0, run.t1, 800, 5, 0.15);
        println!("synchronization mode: {mode:?} (r = {r:.2})");
        if let Some(sp) = run.ack_spacing(c1) {
            println!(
                "ACK-compression: {:.0} % of gaps below the data service time (p10 {:.1} ms)",
                sp.compressed_fraction * 100.0,
                sp.p10_gap_s * 1000.0
            );
        }
    }
    let q1 = run.queue1();
    let q2 = run.queue2();
    let fl = compression::queue_fluctuation(&q1, run.t0, run.t1, DATA_SERVICE);
    println!("max queue fall within one data service time: {fl:.0} packets");

    let w1 = (run.t0 + SimDuration::from_secs(30)).min(run.t1);
    println!();
    println!(
        "{}",
        Plot::new(
            "queue at switch 1 (first 30 s of the window)",
            run.t0,
            w1,
            100,
            10
        )
        .series(&q1, '#')
        .render()
    );

    // -- files ----------------------------------------------------------
    if let Some(dir) = out {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error creating {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let write = |name: &str, data: &[u8]| write_atomic(&dir.join(name), data);
        let mut io = Ok(());
        io = io.and(write("queue1.csv", csv::series_csv("qlen", &q1).as_bytes()));
        io = io.and(write("queue2.csv", csv::series_csv("qlen", &q2).as_bytes()));
        let svg = SvgPlot::new("bottleneck queues", run.t0, run.t1, 1000, 400)
            .series("queue 1", "#1f77b4", &q1)
            .series("queue 2", "#ff7f0e", &q2)
            .marks(&drops.iter().map(|d| d.t).collect::<Vec<_>>())
            .render();
        io = io.and(write("queues.svg", svg.as_bytes()));
        for conn in run.conns() {
            let cw = run.cwnd(conn);
            io = io.and(write(
                &format!("cwnd_conn{}.csv", conn.0),
                csv::series_csv("cwnd", &cw).as_bytes(),
            ));
        }
        if pcap {
            let bytes = td_net::to_pcap_bytes(
                run.world.trace(),
                td_net::CapturePoint::ChannelWire(run.bottleneck_12),
            );
            io = io.and(write("bottleneck.pcap", &bytes));
        }
        if let Err(e) = io {
            eprintln!("error writing outputs: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote outputs to {}", dir.display());
    }
    ExitCode::SUCCESS
}
