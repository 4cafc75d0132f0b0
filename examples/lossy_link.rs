//! TCP Tahoe on a faulty link — robustness beyond the paper.
//!
//! The paper's links are error-free; every loss is a buffer overflow.
//! This example installs a [`FaultPlan::lossy`] plan (independent random
//! drop) on the forward channel and shows the transport still delivers a contiguous, reliable stream —
//! at a throughput cost that grows with the loss rate — exercising the
//! timeout/backoff machinery that the congestion-driven runs rarely
//! touch.
//!
//! ```sh
//! cargo run --release --example lossy_link
//! ```

use tahoe_dynamics::engine::{Rate, SimDuration, SimTime};
use tahoe_dynamics::net::{ConnId, DisciplineKind, FaultPlan, World};
use tahoe_dynamics::tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};

fn run(loss: f64) -> (u64, u64, u64) {
    let mut w = World::new(7);
    let h0 = w.add_host("src", SimDuration::from_micros(100));
    let h1 = w.add_host("dst", SimDuration::from_micros(100));
    let fwd = w.add_channel(
        h0,
        h1,
        Rate::from_kbps(50),
        SimDuration::from_millis(10),
        Some(20),
        DisciplineKind::DropTail.build(),
    );
    w.set_fault_plan(fwd, FaultPlan::lossy(loss))
        .expect("loss rate is a probability");
    w.add_channel(
        h1,
        h0,
        Rate::from_kbps(50),
        SimDuration::from_millis(10),
        Some(20),
        DisciplineKind::DropTail.build(),
    );
    let s = w.attach(h0, h1, ConnId(0), TcpSender::boxed(SenderConfig::paper()));
    let r = w.attach(
        h1,
        h0,
        ConnId(0),
        TcpReceiver::boxed(ReceiverConfig::paper()),
    );
    w.start_at(s, SimTime::ZERO);
    w.run_until(SimTime::from_secs(600));

    let snd = w
        .endpoint(s)
        .unwrap()
        .as_any()
        .downcast_ref::<TcpSender>()
        .unwrap();
    let rcv = w
        .endpoint(r)
        .unwrap()
        .as_any()
        .downcast_ref::<TcpReceiver>()
        .unwrap();
    // Reliability check: everything delivered is contiguous.
    assert_eq!(rcv.cumulative_ack(), rcv.stats().delivered);
    (
        rcv.stats().delivered,
        snd.stats().retransmits,
        snd.stats().timeouts,
    )
}

fn main() {
    println!("600 s of bulk TCP Tahoe over a 50 Kbit/s link, random loss injected:\n");
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>12}",
        "loss rate", "delivered", "goodput", "retx", "timeouts"
    );
    for loss in [0.0, 0.01, 0.05, 0.10, 0.20] {
        let (delivered, retx, timeouts) = run(loss);
        let goodput = delivered as f64 * 500.0 * 8.0 / 600.0 / 1000.0; // kbit/s
        println!(
            "{:>9.0}% {:>12} {:>9.1} kbps {:>10} {:>12}",
            loss * 100.0,
            delivered,
            goodput,
            retx,
            timeouts
        );
    }
    println!();
    println!("every run delivered a contiguous stream (reliability held); higher");
    println!("loss shifts recovery from fast-retransmit to timeout + backoff.");
}
