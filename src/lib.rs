//! # tahoe-dynamics
//!
//! A from-scratch Rust reproduction of:
//!
//! > Lixia Zhang, Scott Shenker, David D. Clark.
//! > *"Observations on the Dynamics of a Congestion Control Algorithm:
//! > The Effects of Two-Way Traffic."* SIGCOMM 1991.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`engine`] — deterministic discrete-event simulation engine
//!   (integer-nanosecond virtual time, totally ordered event queue,
//!   seeded RNG).
//! * [`net`] — packet-level network substrate: hosts, switches, channels,
//!   queue disciplines (drop-tail / Random Drop / Fair Queueing),
//!   fault injection, topologies, event-sourced traces.
//! * [`tcp`] — the BSD 4.3-Tahoe congestion-control algorithm the paper
//!   studies, plus fixed-window, Reno, delayed-ACK, and paced variants.
//! * [`analysis`] — everything the paper measures: queue/cwnd time
//!   series, utilization, congestion epochs, clustering, ACK-compression,
//!   synchronization modes, ASCII figure rendering, CSV export.
//! * [`experiments`] — one runnable module per figure and in-text claim,
//!   plus the `td-repro` binary that regenerates them all.
//!
//! ## Quickstart
//!
//! ```
//! use tahoe_dynamics::experiments::{ConnSpec, Scenario};
//! use tahoe_dynamics::engine::SimDuration;
//!
//! // The paper's Figure 4-5 setup: one TCP connection in each direction
//! // over a 50 Kbit/s bottleneck with a 20-packet buffer.
//! // Seed 1, 60 s simulated, measured after the first fifth of the run.
//! let run = Scenario::paper(1, 60, SimDuration::from_millis(10), Some(20))
//!     .with_fwd(1, ConnSpec::paper())
//!     .with_rev(1, ConnSpec::paper())
//!     .run();
//!
//! // Two-way traffic keeps the bottleneck well below full utilization —
//! // the paper's headline observation.
//! assert!(run.util12() < 0.95);
//! assert!(run.util12() > 0.3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use td_analysis as analysis;
pub use td_core as tcp;
pub use td_engine as engine;
pub use td_experiments as experiments;
pub use td_net as net;
