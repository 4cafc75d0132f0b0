//! Synchronization-mode phase diagram (paper §4.3).
//!
//! Sweeps the bottleneck propagation delay (pipe size P) and buffer size B
//! for the 1+1 two-way TCP scenario and classifies each cell as in-phase
//! or out-of-phase from the cwnd cross-correlation, reproducing the
//! paper's rule of thumb:
//!
//! > "for a fixed buffer size, the synchronization is in-phase for large P
//! >  and out-of-phase for small P. Similarly, for a fixed pipe size, the
//! >  synchronization is usually in-phase for small buffers and
//! >  out-of-phase for large buffers."
//!
//! ```sh
//! cargo run --release --example sync_modes
//! ```

use tahoe_dynamics::analysis::sync::{classify_sync, SyncMode};
use tahoe_dynamics::engine::SimDuration;
use tahoe_dynamics::experiments::{ConnSpec, Scenario};

fn main() {
    let taus_ms = [10u64, 100, 300, 1000];
    let buffers = [10u32, 20, 40, 80];

    println!("1+1 two-way TCP Tahoe: synchronization mode by pipe size and buffer\n");
    println!("  P = pipe size in packets (mu * tau / packet size); cells show the");
    println!("  cwnd correlation r: negative = out-of-phase, positive = in-phase.\n");

    print!("{:>10} |", "");
    for &b in &buffers {
        print!(" {:^16} |", format!("B = {b}"));
    }
    println!();
    println!("{}", "-".repeat(10 + 1 + buffers.len() * 19));

    for &tau in &taus_ms {
        let pipe = 50_000.0 * (tau as f64 / 1000.0) / (500.0 * 8.0);
        print!("{:>10} |", format!("P = {pipe:.2}"));
        for &buffer in &buffers {
            // Longer cycles at bigger buffers/pipes need longer windows.
            let dur = 400 + 4 * buffer as u64 + tau;
            let run = Scenario::paper(1, dur, SimDuration::from_millis(tau), Some(buffer))
                .with_fwd(1, ConnSpec::paper())
                .with_rev(1, ConnSpec::paper())
                .run();
            let (mode, r) = classify_sync(
                &run.cwnd(run.fwd[0]),
                &run.cwnd(run.rev[0]),
                run.t0,
                run.t1,
                600,
                5,
                0.15,
            );
            let label = match mode {
                SyncMode::InPhase => format!("in-phase  {r:+.2}"),
                SyncMode::OutOfPhase => format!("OUT-phase {r:+.2}"),
                SyncMode::Indeterminate => format!("mixed     {r:+.2}"),
            };
            print!(" {label:^16} |");
        }
        println!();
    }

    println!();
    println!("paper's criterion (zero-size-ACK conjecture, Sec. 4.3.3): out-of-phase");
    println!("when the window gap at congestion exceeds 2P — small pipes and big");
    println!("buffers push toward out-of-phase, large pipes toward in-phase.");
}
