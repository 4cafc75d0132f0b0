//! # td-engine — deterministic discrete-event simulation engine
//!
//! This crate is the substrate under every simulation in the
//! `tahoe-dynamics` workspace. It provides four simulation primitives:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time as integer nanoseconds.
//!   All quantities in the reproduced paper (80 ms data-packet service time,
//!   8 ms ACK service time, 0.1 ms host processing, 10 ms / 1 s propagation)
//!   are exactly representable, so simulations are free of floating-point
//!   drift and replay bit-identically.
//! * [`Rate`] — a bandwidth in bits/second with exact integer
//!   transmission-time arithmetic.
//! * [`EventQueue`] — a totally ordered, cancellable pending-event set:
//!   a 4-ary min-heap for the events due soon and unsorted per-epoch
//!   buckets for the rest, over a generation-counted slab, with true
//!   cancellation and O(1) `&self` peeking. Ties in time are
//!   broken by schedule order, which makes every run deterministic: two
//!   events scheduled for the same instant fire in the order they were
//!   scheduled. (The pre-slab implementation is not part of this crate;
//!   it survives under `tests/` as the oracle `queue_differential.rs`
//!   locksteps against.)
//! * [`SimRng`] — a small, seedable, deterministic random-number generator
//!   (an `xoshiro256**` implemented locally) so experiments are reproducible
//!   from a single `u64` seed and independent of external crate versioning.
//!
//! and two pieces of plumbing every layer above shares:
//!
//! * [`meter`] — the per-thread counter spine: events scheduled and
//!   dispatched, snapshots, auditor violations, model-check coverage. Code
//!   ticks `meter::add` / `peak` / `note`; a harness brackets work with
//!   `meter::scoped` and folds what other threads metered back in with
//!   `meter::absorb`. One `Counter` or `Gauge` variant per number, so a new
//!   count is a new variant, not a new thread-local module.
//! * [`snap`] — the little-endian framed codec ([`SnapWriter`] /
//!   [`SnapReader`], FNV-1a, [`write_atomic`]) under every on-disk format.
//!
//! The engine deliberately has **no** notion of network, packet, or host —
//! those live in `td-net`. It also deliberately avoids an async runtime:
//! a discrete-event simulator is CPU-bound and needs a deterministic,
//! single-threaded event loop, not an I/O reactor.
//!
//! ## Example
//!
//! ```
//! use td_engine::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_millis(2), Ev::Pong);
//! q.schedule_at(SimTime::from_millis(1), Ev::Ping);
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_millis(1), Ev::Ping));
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_millis(2), Ev::Pong));
//! assert!(q.pop().is_none());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod meter;
mod queue;
mod rate;
mod rng;
pub mod snap;
mod time;

pub use queue::{EventId, EventQueue};
pub use rate::Rate;
pub use rng::SimRng;
pub use snap::{fnv1a, fnv1a_continue, write_atomic, SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};
