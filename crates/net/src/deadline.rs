//! Per-thread wall-clock deadline hook for request-serving workers.
//!
//! A long-running daemon (`td-serve`) that schedules simulation cells
//! onto a bounded worker pool needs a way to impose a *wall-clock*
//! budget on a cell it does not otherwise control: registry entries are
//! opaque `fn(seed, profile) -> Report` values, and a request whose
//! deadline has passed must stop burning the worker, not run to
//! completion for a client that already gave up.
//!
//! The mechanism mirrors the repository's existing fault-isolation
//! contract: the engine's hot loop (`World::dispatch`-side,
//! via [`tick`]) polls a **thread-local** deadline every
//! [`CHECK_INTERVAL`] dispatched events, and when the deadline has
//! passed it panics with a recognizable [`PANIC_PREFIX`] payload. The
//! caller's `catch_unwind` (the same isolation boundary the experiment
//! runner already maintains) turns that unwind into a structured
//! `deadline_exceeded` response carrying the partial diagnostics baked
//! into the panic message (simulation time reached, events dispatched).
//! The abandoned `World` is simply dropped — nothing is resumed after a
//! deadline panic, so mid-dispatch state consistency does not matter.
//!
//! Determinism: an *armed* deadline never perturbs a run that finishes
//! in time — the poll reads a monotonic clock and either returns or
//! unwinds; it never touches RNG streams, event ordering, or any
//! simulator state. Unarmed threads pay one thread-local load and
//! branch per event (the same order of cost as the engine's meter
//! flush).
//!
//! Worker pools that fan replicates out to helper threads should
//! propagate the deadline with [`get`] + [`arm_until`] so helpers abort
//! promptly too (see `td_experiments::sweep::parallel_map`); the
//! serving layer additionally classifies *any* panic that unwinds out
//! of an expired-deadline cell as a deadline, because a helper-thread
//! unwind can lose the original payload at the scope boundary.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// The panic payload of a fired deadline starts with this prefix, so an
/// isolation boundary can tell a budget expiry from a genuine fault.
pub const PANIC_PREFIX: &str = "td-deadline exceeded";

/// How many dispatched events pass between wall-clock polls. Small
/// enough that a stuck-in-simulation cell overruns its budget by
/// microseconds, large enough that the `Instant::now` call vanishes
/// against per-event dispatch cost.
pub const CHECK_INTERVAL: u32 = 256;

thread_local! {
    /// The armed deadline of the current thread, if any.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    /// Events until the next wall-clock poll.
    static COUNTDOWN: Cell<u32> = const { Cell::new(0) };
}

/// The most recent fired-deadline message, process-wide. A thread
/// scope re-raises a helper-thread panic with its own payload, losing
/// the [`PANIC_PREFIX`] message and the diagnostics inside it; this
/// side channel lets the isolation boundary recover them (see
/// [`take_last_message`]).
static LAST_MESSAGE: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);

/// Take (and clear) the message of the most recently fired deadline
/// anywhere in the process. Best-effort by design: concurrent cells
/// firing together may interleave, but the recovered diagnostics
/// (simulation time reached, events dispatched) stay representative.
pub fn take_last_message() -> Option<String> {
    LAST_MESSAGE.lock().ok().and_then(|mut m| m.take())
}

/// Disarms the thread's deadline when dropped, so an armed worker can
/// never leak its budget into the next request (including when the cell
/// unwinds and the guard drops during `catch_unwind`).
#[derive(Debug)]
pub struct DeadlineGuard {
    _private: (),
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(None));
    }
}

/// Arm this thread's deadline at an absolute instant, returning a guard
/// that disarms it on drop. Re-arming replaces the previous deadline.
pub fn arm_until(at: Instant) -> DeadlineGuard {
    DEADLINE.with(|d| d.set(Some(at)));
    COUNTDOWN.with(|c| c.set(0));
    DeadlineGuard { _private: () }
}

/// Arm this thread's deadline `budget` from now (see [`arm_until`]).
pub fn arm_for(budget: Duration) -> DeadlineGuard {
    arm_until(Instant::now() + budget)
}

/// The currently armed deadline of this thread, if any. Worker pools
/// use this to propagate the caller's deadline into helper threads.
pub fn get() -> Option<Instant> {
    DEADLINE.with(|d| d.get())
}

/// True if this thread's deadline is armed and already in the past.
/// Isolation boundaries use this to classify an unwind whose payload
/// was lost (e.g. re-raised by a thread scope) as a deadline expiry.
pub fn expired() -> bool {
    get().is_some_and(|at| Instant::now() >= at)
}

/// The engine-loop poll: cheap no-op while unarmed; once the armed
/// deadline passes, disarms and panics with a [`PANIC_PREFIX`] payload
/// naming the simulation time reached and events dispatched so far —
/// the partial diagnostics a `deadline_exceeded` response carries.
#[inline]
pub fn tick(now: td_engine::SimTime, events_dispatched: u64) {
    DEADLINE.with(|d| {
        if d.get().is_none() {
            return;
        }
        let due = COUNTDOWN.with(|c| {
            let n = c.get();
            if n == 0 {
                c.set(CHECK_INTERVAL);
                true
            } else {
                c.set(n - 1);
                false
            }
        });
        if due && d.get().is_some_and(|at| Instant::now() >= at) {
            d.set(None);
            let msg = format!(
                "{PANIC_PREFIX}: wall-clock budget elapsed at sim t={:.6}s \
                 after {events_dispatched} event(s)",
                now.as_secs_f64()
            );
            if let Ok(mut last) = LAST_MESSAGE.lock() {
                *last = Some(msg.clone());
            }
            std::panic::panic_any(msg);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_engine::SimTime;

    #[test]
    fn unarmed_tick_is_a_no_op() {
        for i in 0..10_000 {
            tick(SimTime::from_nanos(i), i);
        }
    }

    #[test]
    fn armed_deadline_fires_with_marker_payload() {
        let caught = std::panic::catch_unwind(|| {
            let _g = arm_for(Duration::from_millis(0));
            // Drive past one full poll interval so the expiry check runs.
            for i in 0..=u64::from(CHECK_INTERVAL) + 1 {
                tick(SimTime::from_nanos(i), i);
            }
        });
        let payload = caught.expect_err("deadline must fire");
        let msg = payload
            .downcast_ref::<String>()
            .expect("payload is a String");
        assert!(msg.starts_with(PANIC_PREFIX), "{msg}");
        assert!(msg.contains("event(s)"), "{msg}");
        // The unwind dropped the guard: the thread is disarmed again.
        assert!(get().is_none());
        for i in 0..1_000 {
            tick(SimTime::from_nanos(i), i);
        }
    }

    #[test]
    fn guard_disarms_on_drop_and_rearm_replaces() {
        assert!(get().is_none());
        {
            let _g = arm_for(Duration::from_secs(3600));
            assert!(get().is_some());
            assert!(!expired());
        }
        assert!(get().is_none());
        assert!(!expired());

        let far = Instant::now() + Duration::from_secs(3600);
        let _g = arm_until(far);
        assert_eq!(get(), Some(far));
        let near = Instant::now();
        let _g2 = arm_until(near);
        assert_eq!(get(), Some(near));
        assert!(expired());
    }

    #[test]
    fn future_deadline_lets_the_run_finish() {
        let _g = arm_for(Duration::from_secs(3600));
        for i in 0..10_000 {
            tick(SimTime::from_nanos(i), i);
        }
    }
}
