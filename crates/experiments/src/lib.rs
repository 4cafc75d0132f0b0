//! # td-experiments — the paper's evaluation, reproduced
//!
//! One module per figure or in-text claim of Zhang, Shenker & Clark
//! (SIGCOMM '91). Each module exposes a `scenario(..)` builder and a
//! `report(..)` runner returning a [`Report`] of paper-vs-measured rows,
//! ASCII figures, and CSV exports. The `td-repro` binary drives them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod cell;
pub mod chaos;
pub mod conjecture;
pub mod crosstraffic;
pub mod decbit;
pub mod delayed_ack;
pub mod fig2;
pub mod fig3;
pub mod fig45;
pub mod fig67;
pub mod fig89;
pub mod journal;
pub mod mc;
pub mod modes;
pub mod multihop;
pub mod oneway_util;
pub mod piggyback;
pub mod registry;
pub mod reno;
pub mod report;
pub mod rtt_spread;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod short_flows;
pub mod simcli;
pub mod store;
pub mod sweep;

pub use report::{Report, Row};
pub use scenario::{ConnSpec, Run, Scenario, ACK_SERVICE, DATA_SERVICE};

use std::sync::atomic::{AtomicU32, Ordering};

/// Worker-shard count for shard-aware experiments (`--shards N`),
/// defaulting to one shard. A process-wide setting rather than a
/// per-experiment parameter so the registry's uniform
/// `fn(seed, profile)` runner signature — which the cell store's keys
/// depend on — stays unchanged. Results are
/// byte-identical for every value; only wall-clock changes.
static SHARDS: AtomicU32 = AtomicU32::new(1);

/// Set the shard count used by shard-aware experiments.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn set_shards(n: u32) {
    assert!(n >= 1, "--shards must be at least 1");
    SHARDS.store(n, Ordering::SeqCst);
}

/// The configured shard count (see [`set_shards`]).
pub fn shards() -> u32 {
    SHARDS.load(Ordering::SeqCst)
}

thread_local! {
    /// Per-thread simulated-duration override (see [`override_sim_secs`]).
    /// Thread-local — unlike [`shards`] — because `td-serve` workers run
    /// concurrent requests with different overrides in one process; a
    /// process-global would race.
    static SIM_SECS_OVERRIDE: std::cell::Cell<Option<u64>> =
        const { std::cell::Cell::new(None) };
}

/// Restores the previous sim-secs override when dropped, so a worker
/// that unwinds mid-request cannot leak its override into the next one.
#[derive(Debug)]
pub struct SimSecsOverrideGuard {
    prev: Option<u64>,
}

impl Drop for SimSecsOverrideGuard {
    fn drop(&mut self) {
        SIM_SECS_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Override, for the current thread, the simulated duration every
/// registry entry that uses the standard profile→seconds mapping will
/// run for. This is `td-serve`'s `sim_secs` config override: the
/// daemon's worker arms it for the span of one request. Entries with
/// bespoke duration logic (e.g. the sharded `scale` rungs) ignore it.
pub fn override_sim_secs(secs: u64) -> SimSecsOverrideGuard {
    let prev = SIM_SECS_OVERRIDE.with(|c| c.replace(Some(secs)));
    SimSecsOverrideGuard { prev }
}

/// The current thread's sim-secs override, if armed.
pub fn sim_secs_override() -> Option<u64> {
    SIM_SECS_OVERRIDE.with(std::cell::Cell::get)
}
