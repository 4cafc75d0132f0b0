//! # td-core — the BSD 4.3-Tahoe TCP congestion-control algorithm
//!
//! The algorithm under study in Zhang, Shenker & Clark, SIGCOMM '91 (§2.1),
//! implemented as [`td_net::Endpoint`]s: a [`TcpSender`] with pluggable
//! congestion control, a [`TcpReceiver`] with an optional delayed-ACK
//! mode, and a [`TcpDuplex`] built from the sender's and receiver's halves.
//!
//! ## The algorithm (paper §2.1)
//!
//! Windows are measured in maximum-size packets. The sender's usable window
//! is `wnd = ⌊min(cwnd, maxwnd)⌋`. The congestion window evolves in two
//! phases separated by the threshold `ssthresh`:
//!
//! ```text
//! on new data acked:            on packet drop detected:
//!   if cwnd < ssthresh             ssthresh = max(min(cwnd/2, maxwnd), 2)
//!     cwnd += 1                    cwnd = 1
//!   else
//!     cwnd += 1/cwnd        (original BSD 4.3-Tahoe rule)
//!     cwnd += 1/⌊cwnd⌋      (the paper's modified rule, our default)
//! ```
//!
//! The paper's modification (§2.1) removes an anomaly in which `⌊cwnd⌋`
//! could stall for an epoch; with it, `⌊cwnd⌋` grows by exactly one per
//! epoch during congestion avoidance. Both rules are provided
//! ([`IncrementRule`]) and compared by an ablation bench.
//!
//! Losses are detected by duplicate ACKs (fast retransmit, threshold 3 as
//! in BSD) or retransmission-timer expiry (Jacobson/Karels estimation with
//! the BSD 500 ms coarse clock, Karn's rule, exponential backoff). Either
//! signal performs the window reduction above; fast retransmit then
//! resends the first unacknowledged segment, a timeout pulls `snd_nxt`
//! back to it — BSD Tahoe's go-back-N recovery. Receivers keep
//! out-of-order segments (BSD reassembly queue), so cumulative ACKs jump
//! forward once a hole is filled.
//!
//! ## Variants
//!
//! * [`CcKind::Tahoe`] — the paper's algorithm (either increment rule).
//! * [`CcKind::FixedWindow`] — no congestion control; the fixed-`wnd`
//!   idealization of §4.2/§4.3.3 (Figures 8–9).
//! * [`CcKind::Reno`] — Tahoe plus fast recovery (Jacobson's 4.3-Reno
//!   evolution, cited as \[7\]); used to test the paper's conjecture that
//!   the phenomena afflict *any* nonpaced window algorithm.
//! * [`SenderConfig::pacing`] — optional rate-pacing of data transmissions,
//!   the counterfactual for the paper's "nonpaced" conjecture (§1, §6).

//! ## Example: a Tahoe bulk transfer over a lossy bottleneck
//!
//! ```
//! use td_core::*;
//! use td_engine::{Rate, SimDuration, SimTime};
//! use td_net::{ConnId, DisciplineKind, World};
//!
//! let mut w = World::new(7);
//! let src = w.add_host("src", SimDuration::from_micros(100));
//! let dst = w.add_host("dst", SimDuration::from_micros(100));
//! // Tight 5-packet buffer: slow start will overshoot and drop.
//! w.add_channel(src, dst, Rate::from_kbps(50), SimDuration::from_millis(10),
//!               Some(5), DisciplineKind::DropTail.build());
//! w.add_channel(dst, src, Rate::from_kbps(50), SimDuration::from_millis(10),
//!               Some(5), DisciplineKind::DropTail.build());
//! let s = w.attach(src, dst, ConnId(0), TcpSender::boxed(SenderConfig::paper()));
//! let r = w.attach(dst, src, ConnId(0), TcpReceiver::boxed(ReceiverConfig::paper()));
//! w.start_at(s, SimTime::ZERO);
//! w.run_until(SimTime::from_secs(120));
//!
//! let rx = w.endpoint(r).unwrap().as_any().downcast_ref::<TcpReceiver>().unwrap();
//! // Reliable: the cumulative point equals the delivered count, and the
//! // link (12.5 pkt/s peak) was kept usefully busy despite the drops.
//! assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
//! assert!(rx.stats().delivered > 1000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cc;
mod config;
mod datagram;
mod duplex;
mod receiver;
mod rtt;
mod sender;

pub use cc::{Cc, CcKind, IncrementRule};
pub use config::{DelayedAck, ReceiverConfig, RtoConfig, SenderConfig};
pub use datagram::{Blackhole, PoissonSource};
pub use duplex::{DuplexStats, TcpDuplex};
pub use receiver::{ReceiverStats, TcpReceiver};
pub use rtt::RttEstimator;
pub use sender::{SenderStats, TcpSender};

#[cfg(test)]
mod tests {
    use super::*;

    /// What one connection boxes: its sender and its receiver. Configs are
    /// shared per class through an `Arc`, so they add a pointer each, not
    /// a copy.
    #[test]
    fn a_connection_boxes_at_most_320_bytes() {
        let (s, r) = (size_of::<TcpSender>(), size_of::<TcpReceiver>());
        assert!(s + r <= 320, "TcpSender {s} B + TcpReceiver {r} B");
    }
}
