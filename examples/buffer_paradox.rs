//! The buffer paradox (paper §3.2, §4.3.1).
//!
//! Conventional wisdom circa 1991: "increasing buffers is a reliable way
//! to increase throughput." True for one-way traffic — and overturned by
//! two-way traffic, where the out-of-phase synchronization mode pins
//! utilization near 70 % no matter how much buffer you add.
//!
//! This example runs both sweeps side by side.
//!
//! ```sh
//! cargo run --release --example buffer_paradox
//! ```

use tahoe_dynamics::engine::SimDuration;
use tahoe_dynamics::experiments::{ConnSpec, Scenario};

fn run_cell(two_way: bool, buffer: u32) -> f64 {
    // tau = 1 s for one-way (so there is idle time to recover); 0.01 s for
    // two-way (the paper's out-of-phase configuration).
    let tau = if two_way {
        SimDuration::from_millis(10)
    } else {
        SimDuration::from_secs(1)
    };
    // Cycle length scales with the buffer; keep the cycle count constant.
    let dur = 400u64 * buffer as u64 / 20 + 200;
    let sc = Scenario::paper(1, dur, tau, Some(buffer));
    let sc = if two_way {
        sc.with_fwd(1, ConnSpec::paper())
            .with_rev(1, ConnSpec::paper())
    } else {
        sc.with_fwd(3, ConnSpec::paper())
    };
    let run = sc.run();
    if two_way {
        (run.util12() + run.util21()) / 2.0
    } else {
        run.util12()
    }
}

fn bar(u: f64) -> String {
    let filled = (u * 40.0).round() as usize;
    format!(
        "{}{} {:.1} %",
        "#".repeat(filled),
        " ".repeat(40 - filled),
        u * 100.0
    )
}

fn main() {
    let buffers = [10u32, 20, 40, 80];

    println!("ONE-WAY traffic (3 connections, tau = 1 s): buffers buy throughput\n");
    for &b in &buffers {
        println!("  B = {b:>3}  |{}", bar(run_cell(false, b)));
    }

    println!();
    println!("TWO-WAY traffic (1+1, tau = 0.01 s): buffers buy nothing\n");
    for &b in &buffers {
        println!("  B = {b:>3}  |{}", bar(run_cell(true, b)));
    }

    println!();
    println!("why: with two-way traffic, compressed ACKs queueing behind the other");
    println!("direction's data act like extra propagation delay — an *effective*");
    println!("pipe that grows with the other connection's window, which grows with");
    println!("the buffer. The idle time per cycle grows as fast as the cycle itself,");
    println!("so the utilization never converges to 1 (paper Sec. 4.3.1).");
}
