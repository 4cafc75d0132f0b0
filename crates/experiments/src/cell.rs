//! One cell, run once: the executor `td-repro`'s runner and `td-serve`'s
//! workers share. [`compute`] runs a registry entry under one meter
//! scope and the caller's [`Limits`], behind `catch_unwind`, and
//! classifies its end; [`store_policy`] decides whether it may be
//! saved. What a failure is answered with stays with the callers.

use crate::registry::{Entry, Profile};
use crate::report::Report;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use td_engine::meter::{self, Meter};
use td_net::audit::Tally;
use td_net::deadline;

/// Per-request limits; the default (none) is how `td-repro` runs a cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct Limits {
    /// Simulated-duration override ([`crate::override_sim_secs`]).
    pub sim_secs: Option<u64>,
    /// Wall-clock deadline ([`deadline::arm_until`]).
    pub deadline: Option<Instant>,
}

/// How a cell's run ended.
#[derive(Debug)]
pub enum Outcome {
    /// The entry returned its report.
    Ok(Report),
    /// The deadline fired; the message names the sim time and events reached.
    Deadline(String),
    /// The entry panicked; the panic message.
    Panic(String),
}

/// One computed cell.
#[derive(Debug)]
pub struct CellRun {
    /// How the run ended.
    pub outcome: Outcome,
    /// What the run metered, helper threads included.
    pub meter: Meter,
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
}

/// Run `entry` at `seed` under `limits` and classify its end. A
/// [`deadline::PANIC_PREFIX`] payload is a deadline, and so is any unwind
/// after expiry: a thread scope re-raises a helper's panic with its own
/// payload, so the marker's message is recovered through
/// [`deadline::take_last_message`]. The guards drop during the unwind.
pub fn compute(entry: &Entry, seed: u64, profile: Profile, limits: Limits) -> CellRun {
    let t0 = Instant::now();
    let (result, meter) = meter::scoped(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let _secs = limits.sim_secs.map(crate::override_sim_secs);
            let _deadline = limits.deadline.map(deadline::arm_until);
            entry.run(seed, profile)
        }))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let outcome = match result.map_err(panic_message) {
        Ok(report) => Outcome::Ok(report),
        Err(msg) if msg.starts_with(deadline::PANIC_PREFIX) => Outcome::Deadline(msg),
        Err(msg) if limits.deadline.is_some_and(|d| Instant::now() >= d) => {
            Outcome::Deadline(deadline::take_last_message().unwrap_or(msg))
        }
        Err(msg) => Outcome::Panic(msg),
    };
    CellRun {
        outcome,
        meter,
        wall_s,
    }
}

/// The one store policy, for the sweep store and the daemon's cache: only
/// a completed run (`failure` is `None`) whose auditor saw no violation
/// may be saved. `Err` is why not: the failure or the first audit report.
pub fn store_policy(failure: Option<&str>, audit: &Tally) -> Result<(), String> {
    match failure {
        Some(msg) => Err(msg.to_owned()),
        None if audit.total > 0 => Err(audit.reports.first().cloned().unwrap_or_default()),
        None => Ok(()),
    }
}

/// A panic payload's `&str` or `String` message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-string panic payload")
            .to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;
    use std::time::Duration;
    use td_engine::meter::Counter;

    fn fig2(limits: Limits) -> CellRun {
        compute(&find("fig2").unwrap(), 3, Profile::Quick, limits)
    }

    fn short() -> Limits {
        Limits {
            sim_secs: Some(30),
            deadline: None,
        }
    }

    fn message(run: &CellRun) -> &str {
        match &run.outcome {
            Outcome::Deadline(msg) | Outcome::Panic(msg) => msg,
            Outcome::Ok(_) => panic!("the run completed"),
        }
    }

    fn guards_are_disarmed() {
        assert_eq!(crate::sim_secs_override(), None);
        assert_eq!(deadline::get(), None);
    }

    #[test]
    fn completed_runs_are_metered_and_the_sim_secs_override_shortens_them() {
        let long = fig2(Limits::default());
        let short = fig2(short());
        let events = |run: &CellRun| {
            assert!(matches!(run.outcome, Outcome::Ok(_)), "{:?}", run.outcome);
            run.meter.count(Counter::EventsDispatched)
        };
        assert!(events(&short) > 0);
        assert!(
            events(&short) < events(&long),
            "{} vs {}",
            events(&short),
            events(&long)
        );
        guards_are_disarmed();
    }

    #[test]
    fn panics_keep_their_message_and_disarm_the_guards() {
        let limits = Limits {
            sim_secs: Some(5),
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
        };
        let literal = Entry::new("str-probe", "panics with a &str (test fixture)", |_, _| {
            std::panic::panic_any("a literal message")
        });
        let run = compute(&literal, 1, Profile::Quick, limits);
        assert!(matches!(run.outcome, Outcome::Panic(_)));
        assert_eq!(message(&run), "a literal message");
        guards_are_disarmed();

        let formatted = Entry::new(
            "string-probe",
            "panics with a String (test fixture)",
            |seed, _| std::panic::panic_any(format!("formatted at seed {seed}")),
        );
        let run = compute(&formatted, 9, Profile::Quick, limits);
        assert!(matches!(run.outcome, Outcome::Panic(_)));
        assert_eq!(message(&run), "formatted at seed 9");
        guards_are_disarmed();
    }

    #[test]
    fn a_passed_deadline_is_a_deadline_and_disarms_the_guards() {
        let run = fig2(Limits {
            sim_secs: Some(30),
            deadline: Some(Instant::now()),
        });
        assert!(
            matches!(run.outcome, Outcome::Deadline(_)),
            "{:?}",
            run.outcome
        );
        assert!(
            message(&run).starts_with(deadline::PANIC_PREFIX),
            "{}",
            message(&run)
        );
        guards_are_disarmed();
    }

    #[test]
    fn only_a_clean_completed_run_is_stored() {
        let clean = Tally::default();
        let audited = Tally {
            total: 2,
            reports: vec!["first violation".into(), "second".into()],
        };
        let deadline = format!("{}: at sim t=1s", deadline::PANIC_PREFIX);
        for (case, failure, audit, want) in [
            ("ok, audit 0", None, &clean, Ok(())),
            ("ok, audit 2", None, &audited, Err("first violation")),
            (
                "deadline",
                Some(deadline.as_str()),
                &clean,
                Err(deadline.as_str()),
            ),
            ("panic", Some("boom"), &clean, Err("boom")),
            ("panic, audit 2", Some("boom"), &audited, Err("boom")),
        ] {
            let got = store_policy(failure, audit);
            assert_eq!(got, want.map_err(str::to_owned), "{case}");
        }
    }
}
