//! Export a simulated run as a Wireshark-readable pcap file.
//!
//! Runs the paper's Figure 4 scenario briefly, then writes the bottleneck
//! wire traffic to `fig4.pcap` (synthesized IPv4/TCP headers carrying the
//! simulated addresses, ports, sequence and ack numbers) and prints a
//! tcpdump-style preview.
//!
//! ```sh
//! cargo run --release --example pcap_dump
//! wireshark fig4.pcap    # or: tcpdump -r fig4.pcap | head
//! ```

use tahoe_dynamics::engine::SimDuration;
use tahoe_dynamics::experiments::fig45;
use tahoe_dynamics::net::{text_dump, write_pcap, CapturePoint};

fn main() {
    // The Figures 4-5 run: seed 1, 60 s, B = 20, measured after 10 s.
    let mut sc = fig45::scenario(1, 60, 20);
    sc.warmup = SimDuration::from_secs(10);
    let run = sc.run();

    let point = CapturePoint::ChannelWire(run.bottleneck_12);
    let path = std::path::Path::new("fig4.pcap");
    write_pcap(run.world.trace(), point, path).expect("write pcap");
    let n = run.world.trace().records().len();
    println!(
        "wrote {} ({} trace records captured at the switch-1 bottleneck)\n",
        path.display(),
        n
    );
    println!("tcpdump-style preview of the wire (first 25 frames):\n");
    print!("{}", text_dump(run.world.trace(), point, 25));
    println!(
        "\nopen {} in Wireshark to follow the simulated TCP streams.",
        path.display()
    );
}
