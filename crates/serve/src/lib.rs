//! # td-serve — a fault-tolerant simulation-serving daemon
//!
//! The ROADMAP's census item calls for a long-running service that
//! answers "simulate this config" queries from a durable cell store.
//! This crate is that service: a daemon on a Unix socket speaking
//! line-delimited JSON, content-addressing every result cell by
//! `(config_hash, seed)` into an on-disk [`td_experiments::store::Store`],
//! serving cache hits from disk and scheduling misses onto a bounded
//! worker pool that shares `td_experiments::sweep`'s process-wide job
//! budget. It is the store `td-repro --out DIR` saves its sweep cells
//! into, so a daemon on `--store DIR/cells` serves a sweep's cells as
//! hits.
//!
//! A server that merely computes is not a product; one that degrades
//! gracefully is. The robustness layer — all of it deterministic and
//! exercised end to end by the integration tests and the CI `serve`
//! job — is:
//!
//! * **Bounded input** ([`proto::MAX_LINE_BYTES`]): a request line over
//!   64 KiB, or one never terminated, is answered `bad_request` and its
//!   connection closed, so no client grows the daemon's memory; a line
//!   that is not UTF-8 is answered `bad_request` too.
//! * **Admission control** ([`server`]): a bounded priority queue;
//!   when full, a request either sheds a strictly-lower-priority queued
//!   request (whose client gets `overloaded`/`shed`) or is itself
//!   rejected `overloaded`/`queue_full`. A draining daemon rejects
//!   everything with `overloaded`/`draining`.
//! * **Deadlines**: `deadline_ms` is armed as a thread-local wall-clock
//!   budget via [`td_net::deadline`], which the engine's dispatch loop
//!   polls; an over-budget cell unwinds and the client gets a
//!   structured `deadline_exceeded` carrying the partial diagnostics
//!   (simulated time reached, events dispatched).
//! * **Crash isolation**: every cell runs once per request through
//!   [`td_experiments::cell::compute`], the executor `td-repro` uses —
//!   one meter scope, `catch_unwind`, one classification. A cell is a
//!   pure function of its key, so a panic or a report the invariant
//!   auditor flagged (refused by [`td_experiments::cell::store_policy`])
//!   would recur on a rerun: either is answered `failed` with its reason
//!   and never cached, and the daemon serves on.
//! * **Store integrity** ([`td_experiments::store`]): cell files carry a
//!   checksum trailer verified on every read; a corrupt cell, or one of
//!   an older format version, is moved into a `quarantine/` sidecar and
//!   transparently recomputed; writes are atomic (temp file + fsync +
//!   rename, [`td_engine::write_atomic`]); `td-serve verify` and
//!   `td-serve compact` are the offline maintenance pair.
//! * **Graceful drain**: SIGINT/SIGTERM (or an in-band `shutdown`
//!   request) stops admission, finishes in-flight cells, answers every
//!   queued client `overloaded`/`draining`, writes nothing, and exits
//!   130 (signal) or 0 (`shutdown`). A cell is a pure function of its
//!   key, so a client that resubmits to the next daemon gets the same
//!   bytes.
//!
//! Responses for the same `(config_hash, seed)` are **byte-identical**
//! whether served from cache or recomputed — the response deliberately
//! carries no cache/wall-clock fields, and its `payload_sum` is the
//! stored file's checksum trailer, the same on a hit, a miss and a
//! recompute; cache behavior is observable only through the `stats`
//! counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod proto;
#[cfg(unix)]
pub mod server;
