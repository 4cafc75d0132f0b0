//! # td-analysis — dynamics analysis for the SIGCOMM '91 reproduction
//!
//! Everything the paper measures, computed from the `td-net` event
//! record stream — online while a world runs, or offline from a stored
//! [`td_net::Trace`]:
//!
//! * [`series::TimeSeries`] — step-function time series with windowed
//!   time-weighted statistics (queue lengths, cwnd).
//! * [`stream`] — the one fold that turns records into per-channel
//!   queue-length series, per-connection cwnd series, drop events,
//!   departures and windowed utilization; fed live as a
//!   [`td_net::TraceObserver`] or by replaying a trace.
//! * [`extract`] — the same five measurements asked of a stored trace one
//!   at a time (thin drivers over [`stream`]), plus deliveries and
//!   goodput.
//! * [`epochs`] — congestion-epoch detection and per-connection loss
//!   attribution (the paper's acceleration analysis, §2.1/§3.1/§4.1).
//! * [`sync`] — in-phase / out-of-phase synchronization classification for
//!   window and queue oscillations (§4.3).
//! * [`clustering`] — packet-clustering metrics at a bottleneck (§3.1/§5).
//! * [`compression`] — ACK-compression metrics: ACK spacing at the source
//!   versus the bottleneck data service time, and rapid queue-fluctuation
//!   scores (§4.2).
//! * [`plot`] — ASCII rendering of the paper's figures (queue + cwnd
//!   traces with drop marks).
//! * [`csv`] — plain CSV export for external plotting.
//!
//! The analyses are pure functions of the record stream: running them
//! never perturbs a simulation, and any single run can answer every
//! question the paper asks of it.

//! ## Example
//!
//! ```
//! use td_analysis::TimeSeries;
//! use td_engine::SimTime;
//!
//! // A queue that builds to 4 packets and drains.
//! let mut q = TimeSeries::new();
//! for (t, v) in [(0u64, 1.0), (1, 2.0), (2, 4.0), (3, 1.0), (4, 0.0)] {
//!     q.push(SimTime::from_secs(t), v);
//! }
//! assert_eq!(q.max_in(SimTime::ZERO, SimTime::from_secs(4)), Some(4.0));
//! // Time-weighted mean over \[0, 4\]: (1 + 2 + 4 + 1) / 4.
//! assert_eq!(q.mean_in(SimTime::ZERO, SimTime::from_secs(4)), Some(2.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clustering;
pub mod compression;
pub mod csv;
pub mod epochs;
pub mod extract;
pub mod period;
pub mod plot;
pub mod series;
pub mod sojourn;
pub mod stats;
pub mod stream;
pub mod svg;
pub mod sync;

pub use clustering::{cluster_lengths, clustering_coefficient};
pub use compression::{ack_spacing, queue_fluctuation, AckSpacing};
pub use epochs::{detect_epochs, DropEvent, Epoch};
pub use extract::{
    cwnd_series, data_drop_fraction, deliveries, departures, drop_events, goodput_series,
    queue_series, utilization_in, Departure,
};
pub use period::{autocorrelation, dominant_period, jain_fairness};
pub use series::TimeSeries;
pub use sojourn::{mean_ack_sojourn, sojourns, Sojourn};
pub use stats::{mean, pearson, power_law_exponent, variance, RunningStats};
pub use stream::{StreamAnalyzer, StreamMetrics, StreamSpec};
pub use svg::SvgPlot;
pub use sync::{classify_sync, SyncMode};
