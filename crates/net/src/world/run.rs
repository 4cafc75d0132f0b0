//! The run loops and the watchdog's verdicts: [`World::run_until_quiescent`]
//! tells a deadlock, a livelock and an exhausted event budget apart (see
//! [`crate::StallKind`]).

use super::*;
use crate::watchdog::{RunOutcome, StallKind, StallReport, StuckConn, WatchdogConfig};

impl World {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Run until no event at or before `t_end` remains. Events scheduled
    /// exactly at `t_end` do fire.
    pub fn run_until(&mut self, t_end: SimTime) {
        while let Some((t, ev)) = self.queue.pop_at_or_before(t_end) {
            self.dispatch(t, ev);
        }
    }

    /// Run until the event queue drains entirely.
    pub fn run_to_completion(&mut self) {
        self.run_until(SimTime::MAX);
        let in_network = self.packets_in_network();
        self.audit.on_quiescent(self.now(), in_network);
    }

    /// Run until no event at or before `t_end` remains, under a watchdog
    /// that distinguishes the three ways a run can fail to make progress
    /// (see [`crate::StallKind`]). Returns how the run ended; a stalled
    /// run stops at the verdict instead of hanging.
    pub fn run_until_quiescent(&mut self, t_end: SimTime, cfg: &WatchdogConfig) -> RunOutcome {
        let stop_at = cfg
            .max_events
            .map(|m| self.queue.dispatched().saturating_add(m));
        let mut last_progress_t = self.now();
        let mut last_delivered = self.audit.delivered();
        loop {
            if stop_at.is_some_and(|s| self.queue.dispatched() >= s) {
                let note = format!(
                    "event budget exhausted with {} event(s) pending",
                    self.queue.len()
                );
                return RunOutcome::Stalled(self.stall_report(StallKind::BudgetExhausted, note));
            }
            match self.queue.pop_at_or_before(t_end) {
                Some((t, ev)) => {
                    self.dispatch(t, ev);
                    let delivered = self.audit.delivered();
                    if delivered != last_delivered {
                        last_delivered = delivered;
                        last_progress_t = t;
                    } else if t.saturating_since(last_progress_t) > cfg.progress_window {
                        // No delivery for a full window. Only a livelock if
                        // someone still has work to do; an idle tail (all
                        // endpoints finished, stray timers draining) is fine.
                        let stuck = self.stuck_endpoints();
                        if stuck.is_empty() {
                            last_progress_t = t;
                        } else {
                            let note = format!(
                                "no delivery since t={:.6}s (window {:.3}s)",
                                last_progress_t.as_secs_f64(),
                                cfg.progress_window.as_secs_f64()
                            );
                            let mut report = self.stall_report(StallKind::Livelock, note);
                            report.stuck = stuck;
                            self.write_post_mortem(cfg, &mut report);
                            return RunOutcome::Stalled(report);
                        }
                    }
                }
                None => {
                    if !self.queue.is_empty() {
                        // Events remain beyond t_end: the normal end of a
                        // fixed-duration run.
                        return RunOutcome::TimeBound;
                    }
                    let in_network = self.packets_in_network();
                    self.audit.on_quiescent(self.now(), in_network);
                    let stuck = self.stuck_endpoints();
                    if stuck.is_empty() {
                        return RunOutcome::Quiescent;
                    }
                    let note = format!("event queue empty, {} endpoint(s) unfinished", stuck.len());
                    let mut report = self.stall_report(StallKind::Deadlock, note);
                    report.stuck = stuck;
                    self.write_post_mortem(cfg, &mut report);
                    return RunOutcome::Stalled(report);
                }
            }
        }
    }

    /// Packets currently buffered inside the network: channel queues,
    /// in-service slots, and host processing queues. (In-flight `Arrival`
    /// events are not counted — they are accounted by the event queue, and
    /// this is only read when it has drained.)
    fn packets_in_network(&self) -> u64 {
        let channel_pkts: u64 = (0..self.channels.len())
            .map(|ci| u64::from(self.channels.row(ci).occupancy()))
            .sum();
        channel_pkts + self.hosts.queued_packets()
    }

    /// Endpoints that self-report unfinished work, with their state
    /// summaries (see [`Endpoint::progress`]).
    fn stuck_endpoints(&self) -> Vec<StuckConn> {
        self.endpoints
            .iter()
            .zip(&self.ep_meta)
            .filter_map(|(ep, meta)| {
                let p = ep.as_ref()?.progress();
                if p.finished == Some(false) {
                    Some(StuckConn {
                        conn: meta.conn.0,
                        host: meta.host,
                        detail: p.detail,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    fn stall_report(&self, kind: StallKind, note: String) -> StallReport {
        StallReport {
            kind,
            at: self.now(),
            events_dispatched: self.queue.dispatched(),
            note,
            stuck: Vec::new(),
            post_mortem: None,
        }
    }

    /// Dump a post-mortem snapshot of this (stalled) world into the
    /// watchdog's configured directory, recording the path in the report.
    /// The filename carries the stall kind and *simulation* time, so
    /// repeated deterministic runs overwrite one file instead of
    /// accumulating wall-clock-named copies. I/O failure is swallowed:
    /// a post-mortem must never turn a diagnosed stall into a panic.
    fn write_post_mortem(&self, cfg: &WatchdogConfig, report: &mut StallReport) {
        let Some(dir) = &cfg.post_mortem_dir else {
            return;
        };
        let kind = match report.kind {
            StallKind::Deadlock => "deadlock",
            StallKind::Livelock => "livelock",
            StallKind::BudgetExhausted => "budget",
        };
        let path = dir.join(format!(
            "postmortem-{kind}-t{}.tdsnap",
            report.at.as_nanos()
        ));
        if std::fs::create_dir_all(dir).is_ok() && self.snapshot().write_to_file(&path).is_ok() {
            report.post_mortem = Some(path);
        }
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.queue.dispatched()
    }

    /// Earliest pending local event, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advance the clock to `t` (idle shard catching up to the run's end
    /// time so every shard agrees on `now`).
    pub(crate) fn advance_clock(&mut self, t: SimTime) {
        self.queue.advance_clock(t);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::discipline::DisciplineKind;

    /// An endpoint that reschedules itself forever with zero delay.
    struct Spinner;
    impl Endpoint for Spinner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn bounded_run_stops_a_spinner() {
        let mut w = World::new(1);
        let h0 = w.add_host("a", SimDuration::ZERO);
        let h1 = w.add_host("b", SimDuration::ZERO);
        w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::ZERO,
            None,
            DisciplineKind::DropTail.build(),
        );
        let ep = w.attach(h0, h1, ConnId(0), Box::new(Spinner));
        w.start_at(ep, SimTime::ZERO);
        let cfg = WatchdogConfig {
            max_events: Some(10_000),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(1), &cfg);
        let report = outcome.stall().expect("spinner must exhaust the budget");
        assert_eq!(report.kind, StallKind::BudgetExhausted);
        assert!(w.events_dispatched() >= 10_000);
        assert!(w.events_dispatched() < 10_100, "stops promptly");
    }

    #[test]
    fn budget_exhausted_mid_outage_reports_budget_not_deadlock() {
        // The forward link is down from t=0 to t=10s; the pending LinkUp
        // event keeps the queue non-empty, so running out of event budget
        // mid-outage must be reported as "budget exhausted" — the run was
        // cut short, nothing is provably stuck.
        let mut w = World::new(1);
        let h0 = w.add_host("a", SimDuration::ZERO);
        let h1 = w.add_host("b", SimDuration::from_micros(100));
        let c01 = w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        w.set_fault_plan(
            c01,
            FaultPlan::with_outages(vec![crate::fault::Outage {
                down: SimTime::ZERO,
                up: SimTime::from_secs(10),
            }]),
        )
        .unwrap();
        let spinner = w.attach(h0, h1, ConnId(0), Box::new(Spinner));
        w.start_at(spinner, SimTime::ZERO);
        let cfg = WatchdogConfig {
            max_events: Some(100),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(20), &cfg);
        let report = outcome.stall().expect("budget must be exhausted");
        assert_eq!(report.kind, StallKind::BudgetExhausted);
        assert!(
            report.render().contains("budget exhausted"),
            "{}",
            report.render()
        );
        assert!(w.now() < SimTime::from_secs(10), "verdict lands mid-outage");
    }

    #[test]
    fn bounded_run_reaches_time_bound_normally() {
        let mut w = World::new(1);
        let h0 = w.add_host("a", SimDuration::ZERO);
        let h1 = w.add_host("b", SimDuration::ZERO);
        w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::ZERO,
            None,
            DisciplineKind::DropTail.build(),
        );
        let cfg = WatchdogConfig {
            max_events: Some(10),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(1), &cfg);
        assert!(
            matches!(outcome, RunOutcome::Quiescent),
            "an empty world ends quiescent within any budget"
        );
    }
}

#[cfg(test)]
mod watchdog_tests {
    use super::*;
    use crate::discipline::DisciplineKind;
    use crate::world::tests::{Acker, Blaster};

    /// Claims to have pending work but never schedules anything.
    struct Inert;
    impl Endpoint for Inert {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn progress(&self) -> EndpointProgress {
            EndpointProgress {
                finished: Some(false),
                detail: "rto unarmed, 3 packets unacked".to_owned(),
            }
        }
    }

    /// Re-arms a timer forever without ever sending: busy but stuck.
    struct TimerChurn;
    impl Endpoint for TimerChurn {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn progress(&self) -> EndpointProgress {
            EndpointProgress {
                finished: Some(false),
                detail: "retransmitting into the void".to_owned(),
            }
        }
    }

    fn two_host_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(5);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        for (a, b) in [(h0, h1), (h1, h0)] {
            w.add_channel(
                a,
                b,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                None,
                DisciplineKind::DropTail.build(),
            );
        }
        (w, h0, h1)
    }

    #[test]
    fn clean_run_is_quiescent() {
        let (mut w, h0, h1) = two_host_world();
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 3,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        let outcome = w.run_until_quiescent(SimTime::from_secs(10), &WatchdogConfig::default());
        assert!(matches!(outcome, RunOutcome::Quiescent));
        assert_eq!(w.audit().total_violations(), 0);
    }

    #[test]
    fn drained_queue_with_unfinished_endpoint_is_deadlock() {
        let (mut w, h0, h1) = two_host_world();
        let ep = w.attach(h0, h1, ConnId(0), Box::new(Inert));
        w.start_at(ep, SimTime::ZERO);
        let outcome = w.run_until_quiescent(SimTime::from_secs(10), &WatchdogConfig::default());
        let report = outcome.stall().expect("must stall");
        assert_eq!(report.kind, StallKind::Deadlock);
        assert_eq!(report.stuck.len(), 1);
        assert_eq!(report.stuck[0].conn, 0);
        assert_eq!(report.stuck[0].host, h0);
        assert!(report.render().contains("node0"), "{}", report.render());
        assert!(
            report.render().contains("rto unarmed"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn eventful_run_without_goodput_is_livelock() {
        let (mut w, h0, h1) = two_host_world();
        let ep = w.attach(h0, h1, ConnId(0), Box::new(TimerChurn));
        w.start_at(ep, SimTime::ZERO);
        let cfg = WatchdogConfig {
            progress_window: SimDuration::from_secs(5),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(1000), &cfg);
        let report = outcome.stall().expect("must stall");
        assert_eq!(report.kind, StallKind::Livelock);
        assert!(
            w.now() < SimTime::from_secs(10),
            "verdict promptly after one window, not at t_end"
        );
        assert_eq!(report.stuck[0].detail, "retransmitting into the void");
    }

    #[test]
    fn events_past_bound_report_time_bound() {
        let (mut w, h0, h1) = two_host_world();
        let ep = w.attach(h0, h1, ConnId(0), Box::new(TimerChurn));
        w.start_at(ep, SimTime::ZERO);
        let outcome = w.run_until_quiescent(SimTime::from_secs(3), &WatchdogConfig::default());
        assert!(matches!(outcome, RunOutcome::TimeBound));
    }

    /// A deadlock verdict with a configured post-mortem directory dumps a
    /// restorable snapshot of the stalled world and names it in the
    /// report.
    #[test]
    fn stall_verdict_writes_post_mortem_snapshot() {
        let build = || {
            let (mut w, h0, h1) = two_host_world();
            let ep = w.attach(h0, h1, ConnId(0), Box::new(Inert));
            w.start_at(ep, SimTime::ZERO);
            w
        };
        let dir = std::env::temp_dir().join(format!("td-postmortem-test-{}", std::process::id()));
        let cfg = WatchdogConfig {
            post_mortem_dir: Some(dir.clone()),
            ..WatchdogConfig::default()
        };
        let mut w = build();
        let outcome = w.run_until_quiescent(SimTime::from_secs(10), &cfg);
        let report = outcome.stall().expect("Inert must deadlock");
        assert_eq!(report.kind, StallKind::Deadlock);
        let path = report.post_mortem.clone().expect("post-mortem written");
        assert!(path.starts_with(&dir));
        assert!(report.render().contains("post-mortem snapshot"));
        let snap = Snapshot::read_from_file(&path).expect("snapshot file readable");
        let mut fresh = build();
        fresh
            .restore(&snap)
            .expect("post-mortem restores onto a twin");
        assert_eq!(fresh.now(), w.now());
        assert_eq!(fresh.events_dispatched(), w.events_dispatched());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
