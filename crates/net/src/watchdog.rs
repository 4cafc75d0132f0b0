//! Stall detection: deadlock vs livelock vs budget exhaustion.
//!
//! [`crate::World::run_until_quiescent`] drives the event loop like
//! `run_until`, but watches for the three ways a faulty scenario fails to
//! make progress and names them apart in a structured [`StallReport`]
//! instead of hanging or leaving a half-run world unexplained:
//!
//! * **deadlock** — the event queue drained while some endpoint still
//!   reports unfinished work (e.g. a sender whose retransmission timer
//!   was never re-armed);
//! * **livelock** — events keep dispatching but no packet has been
//!   delivered for longer than the configured progress window while
//!   unfinished endpoints exist (e.g. an endless retransmit-and-drop
//!   cycle);
//! * **budget exhausted** — the caller's event budget ran out before
//!   either verdict could be reached (reported as its own kind: a run cut
//!   short mid-outage is *not* a deadlock).
//!
//! Endpoints describe their own progress through
//! [`crate::Endpoint::progress`]; the default is "unknown", which opts an
//! endpoint out of stall attribution (an infinite source is never
//! "stuck").

use crate::packet::NodeId;
use std::path::PathBuf;
use td_engine::{SimDuration, SimTime};

/// What an endpoint reports about its own progress, used by the watchdog
/// to attribute stalls.
#[derive(Clone, Debug, Default)]
pub struct EndpointProgress {
    /// `Some(true)` = all work done; `Some(false)` = work remains;
    /// `None` = no defined notion of "finished" (infinite sources,
    /// receivers).
    pub finished: Option<bool>,
    /// Free-form state summary (sequence numbers, timer state) shown in
    /// stall reports.
    pub detail: String,
}

/// Watchdog policy for [`crate::World::run_until_quiescent`].
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// Livelock window: if events dispatch but nothing is delivered for
    /// longer than this while unfinished endpoints exist, the run is
    /// declared livelocked.
    pub progress_window: SimDuration,
    /// Optional budget of dispatches for one
    /// [`crate::World::run_until_quiescent`] call, a guard against
    /// runaway scenarios (e.g. a zero-delay timer loop in a buggy
    /// endpoint); exhausting it yields [`StallKind::BudgetExhausted`].
    pub max_events: Option<u64>,
    /// Where to dump a post-mortem snapshot of the stalled world when a
    /// deadlock or livelock verdict is reached (`None` = don't). The file
    /// is named `postmortem-<kind>-t<ns>.tdsnap` after the *simulation*
    /// time of the verdict, so repeated deterministic runs overwrite the
    /// same file rather than accumulating wall-clock-named copies.
    pub post_mortem_dir: Option<PathBuf>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            progress_window: SimDuration::from_secs(60),
            max_events: None,
            post_mortem_dir: None,
        }
    }
}

/// How a run stalled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallKind {
    /// Event queue empty, unfinished endpoints remain.
    Deadlock,
    /// Events dispatch but goodput stopped for a full progress window.
    Livelock,
    /// The event budget ran out before a verdict.
    BudgetExhausted,
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StallKind::Deadlock => "deadlock",
            StallKind::Livelock => "livelock",
            StallKind::BudgetExhausted => "budget exhausted",
        };
        f.write_str(s)
    }
}

/// One endpoint implicated in a stall.
#[derive(Clone, Debug)]
pub struct StuckConn {
    /// Connection id value.
    pub conn: u32,
    /// Host node the endpoint lives on (resolve the display name via
    /// [`crate::World::node_name`] when a world is at hand; building the
    /// record itself allocates nothing).
    pub host: NodeId,
    /// The endpoint's own state summary ([`EndpointProgress::detail`]).
    pub detail: String,
}

/// Structured description of a stalled run.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// What kind of stall.
    pub kind: StallKind,
    /// Simulation time of the verdict.
    pub at: SimTime,
    /// Events dispatched when the verdict was reached.
    pub events_dispatched: u64,
    /// Context (last-progress time, pending events, budget).
    pub note: String,
    /// Endpoints that report unfinished work, with their timer state.
    pub stuck: Vec<StuckConn>,
    /// Path of the post-mortem snapshot of the stalled world, if the
    /// watchdog was configured to write one and the write succeeded.
    pub post_mortem: Option<PathBuf>,
}

impl StallReport {
    /// One-line-per-connection rendering for diagnostics and
    /// `timings.json`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "stall: {} at t={:.6}s after {} events ({})",
            self.kind,
            self.at.as_secs_f64(),
            self.events_dispatched,
            self.note
        );
        for s in &self.stuck {
            out.push_str(&format!(
                "; conn {} on node{}: {}",
                s.conn, s.host.0, s.detail
            ));
        }
        if let Some(p) = &self.post_mortem {
            out.push_str(&format!("; post-mortem snapshot: {}", p.display()));
        }
        out
    }
}

/// How [`crate::World::run_until_quiescent`] ended.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The event queue drained and every endpoint that tracks completion
    /// finished.
    Quiescent,
    /// Events remained past the time bound (the normal outcome of a
    /// fixed-duration run).
    TimeBound,
    /// The watchdog declared a stall.
    Stalled(StallReport),
}

impl RunOutcome {
    /// True if the watchdog fired.
    pub fn is_stalled(&self) -> bool {
        matches!(self, RunOutcome::Stalled(_))
    }

    /// The stall report, if any.
    pub fn stall(&self) -> Option<&StallReport> {
        match self {
            RunOutcome::Stalled(r) => Some(r),
            _ => None,
        }
    }
}
