//! Scenario construction and execution.
//!
//! Every experiment in the paper is an instance of one pattern: a dumbbell
//! (or chain) topology, some TCP connections in each direction, a run
//! length, and a measurement window that skips the start-up transient.
//! [`Scenario`] captures that pattern; [`Scenario::run`] executes it and
//! returns a [`Run`] that bundles the finished [`World`] with the ids
//! needed to ask analysis questions about it.

use std::any::Any;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use td_analysis::{
    ack_spacing, clustering_coefficient, AckSpacing, Departure, StreamAnalyzer, StreamMetrics,
    StreamSpec, TimeSeries,
};
use td_core::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use td_engine::{Rate, SimDuration, SimRng, SimTime};
use td_net::{
    dumbbell, ChannelId, ConnId, DisciplineKind, EndpointId, FaultPlan, LinkSpec, NodeId,
    RunOutcome, WatchdogConfig, World,
};

/// The paper's bottleneck data-packet service time (500 B at 50 Kbit/s).
pub const DATA_SERVICE: SimDuration = SimDuration::from_millis(80);
/// The paper's bottleneck ACK service time (50 B at 50 Kbit/s).
pub const ACK_SERVICE: SimDuration = SimDuration::from_millis(8);
/// Bin width of [`Run::goodput`].
pub const GOODPUT_BIN: SimDuration = SimDuration::from_secs(5);

/// One connection: a sender on one host, its receiver on the other.
#[derive(Clone, Copy, Debug)]
pub struct ConnSpec {
    /// Sender configuration.
    pub sender: SenderConfig,
    /// Receiver configuration.
    pub receiver: ReceiverConfig,
}

impl ConnSpec {
    /// The paper's standard TCP connection.
    pub fn paper() -> Self {
        ConnSpec {
            sender: SenderConfig::paper(),
            receiver: ReceiverConfig::paper(),
        }
    }

    /// A fixed-window connection (Figures 8–9).
    pub fn fixed(wnd: u64) -> Self {
        ConnSpec {
            sender: SenderConfig::fixed_window(wnd),
            receiver: ReceiverConfig::paper(),
        }
    }
}

/// A complete dumbbell experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// RNG seed (start jitter; Random Drop victims if selected).
    pub seed: u64,
    /// Bottleneck propagation delay τ (0.01 s or 1 s in the paper).
    pub tau: SimDuration,
    /// Bottleneck buffer in packets (`None` = infinite).
    pub buffer: Option<u32>,
    /// Bottleneck queue discipline (drop-tail in the paper).
    pub discipline: DisciplineKind,
    /// Connections sending Host-1 → Host-2.
    pub fwd: Vec<ConnSpec>,
    /// Connections sending Host-2 → Host-1.
    pub rev: Vec<ConnSpec>,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Measurement starts here (start-up transient excluded).
    pub warmup: SimDuration,
    /// Connections start at a random time in `[0, start_jitter)`.
    pub start_jitter: SimDuration,
    /// DECbit-style CE marking threshold on the bottleneck channels
    /// (`None` = no marking, the paper's setting).
    pub mark_threshold: Option<u32>,
    /// Record the event trace (default). Only a run whose *records*
    /// become output needs it (a pcap, a trace hash, a test reading
    /// them); analysis methods on [`Run`] work from [`Scenario::stream`]
    /// without it, and panic with neither.
    pub record_trace: bool,
    /// Fault plan installed on the Switch-1 → Switch-2 bottleneck channel
    /// ([`FaultPlan::NONE`] = fault-free, the paper's setting).
    pub fault_fwd: FaultPlan,
    /// Fault plan installed on the Switch-2 → Switch-1 bottleneck channel.
    pub fault_rev: FaultPlan,
    /// When set, the run executes under [`World::run_until_quiescent`]
    /// with this watchdog and [`Run::outcome`] carries the verdict;
    /// when `None` the run uses the plain time-bounded loop.
    pub watchdog: Option<WatchdogConfig>,
    /// Compute the standard measurements online via a
    /// [`StreamAnalyzer`] observer: [`Run::metrics`] is then the
    /// observer's result instead of a replay of the trace. Combined with
    /// `record_trace = false` this is the trace-free hot path — run
    /// memory stays O(live state + computed series) instead of
    /// O(events). Same fold, same records, same order: the values are
    /// the ones a replay of the recorded trace gives.
    pub stream: bool,
}

impl Scenario {
    /// A paper-default scenario: seed, run length, τ and buffer as
    /// given, drop-tail, no connections yet, measured after the first
    /// fifth of the run (`warmup = duration_s / 5`, whole seconds).
    pub fn paper(seed: u64, duration_s: u64, tau: SimDuration, buffer: Option<u32>) -> Self {
        Scenario {
            seed,
            tau,
            buffer,
            discipline: DisciplineKind::DropTail,
            fwd: Vec::new(),
            rev: Vec::new(),
            duration: SimDuration::from_secs(duration_s),
            warmup: SimDuration::from_secs(duration_s / 5),
            start_jitter: SimDuration::from_secs(1),
            mark_threshold: None,
            record_trace: true,
            fault_fwd: FaultPlan::NONE,
            fault_rev: FaultPlan::NONE,
            watchdog: None,
            stream: false,
        }
    }

    /// Observer on, trace off — the way registry entries run: every
    /// [`Run`] measurement is folded online and no trace record is
    /// stored, so run memory is O(live state + computed series).
    pub fn trace_free(mut self) -> Self {
        self.stream = true;
        self.record_trace = false;
        self
    }

    /// Add `n` forward (Host-1 → Host-2) connections.
    pub fn with_fwd(mut self, n: usize, spec: ConnSpec) -> Self {
        self.fwd.extend(std::iter::repeat_n(spec, n));
        self
    }

    /// Add `n` reverse (Host-2 → Host-1) connections.
    pub fn with_rev(mut self, n: usize, spec: ConnSpec) -> Self {
        self.rev.extend(std::iter::repeat_n(spec, n));
        self
    }

    /// Calibrated estimate of the trace records this scenario will
    /// produce, used to pre-size the trace and avoid reallocation (and
    /// the copy of up to tens of MB of records) mid-run.
    ///
    /// The 50 Kbit/s bottleneck serves at most 12.5 data packets/s per
    /// direction (80 ms each), each matched by roughly one ACK; a packet
    /// crossing the dumbbell leaves ≤ 11 queue/delivery records, plus
    /// per-ACK protocol annotations. Engine-telemetry calibration of
    /// paper-scale two-way runs (`timings.json` events vs. trace length)
    /// lands at 600–900 records per simulated second, independent of
    /// connection count — the bottleneck line, not the connections,
    /// bounds the event rate. 1200/s buys headroom for drop and
    /// retransmission bursts at ≈ 1.2 M records (under 100 MB) for the
    /// longest 1000 s paper runs.
    fn trace_records_estimate(&self) -> usize {
        const RECORDS_PER_SIM_SEC: u64 = 1200;
        let secs = self.duration.as_nanos() / 1_000_000_000;
        ((secs + 1) * RECORDS_PER_SIM_SEC) as usize
    }

    /// Build the world, attach the endpoints, run, and return the results.
    pub fn run(&self) -> Run {
        let mut run = self.build();
        self.finish(&mut run);
        run
    }

    /// Build the world and attach the endpoints **without executing any
    /// events**: every connection's start is scheduled, the clock is at
    /// zero. [`Scenario::finish`] then runs it to the end.
    ///
    /// The split exists for checkpoint/restore: a freshly-built twin is
    /// the structural template [`td_net::World::restore`] applies a
    /// [`td_net::Snapshot`] onto, and the snapshot-equivalence tests run
    /// one twin straight through while snapshotting/restoring another
    /// mid-flight. `run()` is exactly `build()` + `finish()`, so the
    /// golden-hash determinism pin covers both paths.
    pub fn build(&self) -> Run {
        assert!(
            self.warmup < self.duration,
            "warmup must leave a measurement window"
        );
        let spec = LinkSpec {
            rate: Rate::from_kbps(50),
            delay: self.tau,
            capacity: self.buffer,
            discipline: self.discipline,
        };
        let mut d = dumbbell(
            self.seed,
            spec,
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(100),
        );
        d.world
            .set_mark_threshold(d.bottleneck_12, self.mark_threshold);
        d.world
            .set_mark_threshold(d.bottleneck_21, self.mark_threshold);
        d.world.trace_mut().set_enabled(self.record_trace);
        d.world.reserve_trace(self.trace_records_estimate());
        // Installed unconditionally: a NONE plan must be byte-invisible
        // (the golden-hash pin in runner_determinism.rs holds it to that),
        // so the fault path is exercised by every experiment, not only the
        // chaos drill.
        d.world
            .set_fault_plan(d.bottleneck_12, self.fault_fwd.clone())
            .expect("fault_fwd plan must validate");
        d.world
            .set_fault_plan(d.bottleneck_21, self.fault_rev.clone())
            .expect("fault_rev plan must validate");
        let mut rng = SimRng::new(self.seed).derive(0xA11C);
        let mut senders = BTreeMap::new();
        let mut receivers = BTreeMap::new();
        let mut next = 0u32;
        let jitter_ns = self.start_jitter.as_nanos().max(1);
        let mut attach = |world: &mut World,
                          src: NodeId,
                          dst: NodeId,
                          spec: &ConnSpec,
                          next: &mut u32,
                          rng: &mut SimRng|
         -> ConnId {
            let conn = ConnId(*next);
            *next += 1;
            let s = world.attach(src, dst, conn, TcpSender::boxed(spec.sender));
            let r = world.attach(dst, src, conn, TcpReceiver::boxed(spec.receiver));
            world.set_window_bound(conn, spec.sender.maxwnd as f64);
            let start = SimTime::from_nanos(rng.next_below(jitter_ns));
            world.start_at(s, start);
            senders.insert(conn, s);
            receivers.insert(conn, r);
            conn
        };
        // The superset every `Run` analysis method may ask for: both
        // bottleneck queue series and utilizations, all drops, the 1→2
        // departures that clustering reads and the sojourns behind the
        // ACK queueing delay, and per connection its cwnd, the ACKs
        // reaching its source, and the deliveries, delivery count and
        // goodput at its sink. Emission order *is* trace order on a plain
        // serial world, so no canonical-ties buffering.
        let (t0, t1) = (SimTime::ZERO + self.warmup, SimTime::ZERO + self.duration);
        let mut spec = StreamSpec::new()
            .queue(d.bottleneck_12)
            .queue(d.bottleneck_21)
            .utilization(d.bottleneck_12, t0, t1)
            .utilization(d.bottleneck_21, t0, t1)
            .drops()
            .departures(d.bottleneck_12)
            .sojourns(d.bottleneck_12, t0, t1);
        let per_conn = |spec: StreamSpec, c: ConnId, source: NodeId, sink: NodeId| {
            spec.cwnd(c)
                .deliveries(source, c, true)
                .deliveries(sink, c, false)
                .delivered(sink, c, t0, t1)
                .goodput(sink, c, t0, t1, GOODPUT_BIN)
        };
        let mut fwd_conns = Vec::new();
        for cs in &self.fwd {
            let c = attach(&mut d.world, d.host1, d.host2, cs, &mut next, &mut rng);
            spec = per_conn(spec, c, d.host1, d.host2);
            fwd_conns.push(c);
        }
        let mut rev_conns = Vec::new();
        for cs in &self.rev {
            let c = attach(&mut d.world, d.host2, d.host1, cs, &mut next, &mut rng);
            spec = per_conn(spec, c, d.host2, d.host1);
            rev_conns.push(c);
        }
        if self.stream {
            d.world.add_observer(Box::new(StreamAnalyzer::new(&spec)));
        }
        Run {
            world: d.world,
            host1: d.host1,
            host2: d.host2,
            bottleneck_12: d.bottleneck_12,
            bottleneck_21: d.bottleneck_21,
            fwd: fwd_conns,
            rev: rev_conns,
            t0,
            t1,
            senders,
            receivers,
            outcome: None,
            spec,
            metrics: OnceCell::new(),
        }
    }

    /// Execute a [`Scenario::build`]-produced run to its end time
    /// (`run.t1`), honouring the watchdog configuration. Safe to call
    /// after the world has already advanced — e.g. a partial
    /// `run_until(T)` followed by a snapshot/restore — the event loop
    /// simply continues to `t1`.
    pub fn finish(&self, run: &mut Run) {
        run.outcome = match &self.watchdog {
            Some(cfg) => Some(run.world.run_until_quiescent(run.t1, cfg)),
            None => {
                run.world.run_until(run.t1);
                None
            }
        };
        if self.stream {
            run.metrics = OnceCell::from(take_analyzer(&mut run.world).finish());
        }
    }
}

/// Take the world's [`StreamAnalyzer`] back — by type, not by position,
/// since a caller may have registered observers of its own — and leave
/// every other observer registered, in order.
fn take_analyzer(world: &mut World) -> StreamAnalyzer {
    let mut obs = world.take_observers();
    let at = obs
        .iter()
        .position(|o| (&**o as &dyn Any).is::<StreamAnalyzer>())
        .expect("the world has a StreamAnalyzer observer");
    let an = obs
        .remove(at)
        .into_any()
        .downcast::<StreamAnalyzer>()
        .expect("checked by type above");
    for o in obs {
        world.add_observer(o);
    }
    *an
}

/// Run a hand-built world to `t1` the way [`Scenario::trace_free`] runs a
/// dumbbell: trace recording off, one [`StreamAnalyzer`] for `spec`
/// riding along; returns what it measured.
pub fn run_observed(world: &mut World, spec: &StreamSpec, t1: SimTime) -> StreamMetrics {
    world.trace_mut().set_enabled(false);
    world.add_observer(Box::new(StreamAnalyzer::new(spec)));
    world.run_until(t1);
    take_analyzer(world).finish()
}

/// A finished scenario: the world plus everything needed to interrogate it.
pub struct Run {
    /// The simulated world (trace inside).
    pub world: World,
    /// Host-1.
    pub host1: NodeId,
    /// Host-2.
    pub host2: NodeId,
    /// Bottleneck channel Switch-1 → Switch-2 ("queue 1").
    pub bottleneck_12: ChannelId,
    /// Bottleneck channel Switch-2 → Switch-1 ("queue 2").
    pub bottleneck_21: ChannelId,
    /// Forward connections, in creation order.
    pub fwd: Vec<ConnId>,
    /// Reverse connections, in creation order.
    pub rev: Vec<ConnId>,
    /// Measurement window start.
    pub t0: SimTime,
    /// Measurement window end.
    pub t1: SimTime,
    /// Sender endpoint of each connection.
    pub senders: BTreeMap<ConnId, EndpointId>,
    /// Receiver endpoint of each connection.
    pub receivers: BTreeMap<ConnId, EndpointId>,
    /// Watchdog verdict when the scenario ran under one (`None` when
    /// [`Scenario::watchdog`] was unset).
    pub outcome: Option<RunOutcome>,
    /// What [`Run::metrics`] measures, as written down by
    /// [`Scenario::build`].
    spec: StreamSpec,
    /// The observer's result once [`Scenario::finish`] collected it,
    /// otherwise filled by the first [`Run::metrics`] call.
    metrics: OnceCell<StreamMetrics>,
}

impl Run {
    /// All connections, forward then reverse.
    pub fn conns(&self) -> Vec<ConnId> {
        self.fwd.iter().chain(&self.rev).copied().collect()
    }

    /// The standard measurements of this run, which every analysis
    /// method below reads: the [`Scenario::stream`] observer's result
    /// when one ran, otherwise one replay of the recorded trace through
    /// the same fold, done on first use and kept — so ask only once the
    /// run has reached `t1`.
    ///
    /// # Panics
    /// Panics if the run recorded nothing — neither
    /// [`Scenario::record_trace`] nor [`Scenario::stream`] was set — since
    /// every measurement of it would be a silent zero.
    pub fn metrics(&self) -> &StreamMetrics {
        self.metrics
            .get_or_init(|| StreamAnalyzer::replay(&self.spec, self.world.trace()))
    }

    /// The host `conn` sends data from (and receives its ACKs at).
    pub fn source(&self, conn: ConnId) -> NodeId {
        if self.fwd.contains(&conn) {
            self.host1
        } else {
            self.host2
        }
    }

    /// The host `conn`'s data is delivered to.
    pub fn sink(&self, conn: ConnId) -> NodeId {
        if self.fwd.contains(&conn) {
            self.host2
        } else {
            self.host1
        }
    }

    /// Queue-length series at switch 1's bottleneck buffer.
    pub fn queue1(&self) -> TimeSeries {
        self.metrics().queue(self.bottleneck_12).clone()
    }

    /// Queue-length series at switch 2's bottleneck buffer.
    pub fn queue2(&self) -> TimeSeries {
        self.metrics().queue(self.bottleneck_21).clone()
    }

    /// cwnd series of one connection.
    pub fn cwnd(&self, conn: ConnId) -> TimeSeries {
        self.metrics().cwnd(conn).clone()
    }

    /// Windowed utilization of the 1→2 bottleneck line.
    pub fn util12(&self) -> f64 {
        self.metrics().utilization(self.bottleneck_12)
    }

    /// Windowed utilization of the 2→1 bottleneck line.
    pub fn util21(&self) -> f64 {
        self.metrics().utilization(self.bottleneck_21)
    }

    /// All drops (both bottleneck directions) within the measurement
    /// window.
    pub fn drops(&self) -> Vec<td_analysis::DropEvent> {
        self.metrics()
            .drops()
            .iter()
            .filter(|d| d.t >= self.t0 && d.t <= self.t1)
            .copied()
            .collect()
    }

    /// Clustering coefficient of data-packet departures on the 1→2
    /// bottleneck within the window (`None` if < 2 departures). Right for
    /// one-way runs and for the many-connection partial-clustering claim;
    /// for 1+1 two-way runs use [`Run::clustering12_all`] — only one
    /// connection's data crosses each direction, so the data-only metric
    /// is trivially 1.
    pub fn clustering12(&self) -> Option<f64> {
        self.clustering_at(self.bottleneck_12, true)
    }

    /// Clustering coefficient over *all* packets (data + ACK) departing on
    /// the 1→2 bottleneck: measures whether connection 1's data and
    /// connection 2's ACKs pass as contiguous clusters (the §4.2
    /// precondition for ACK-compression) or interleaved.
    pub fn clustering12_all(&self) -> Option<f64> {
        self.clustering_at(self.bottleneck_12, false)
    }

    /// ACK-compression (§4.2): spacing of the ACKs arriving at `conn`'s
    /// sending host within `[t0, t1]`, against the data service time.
    /// `None` with fewer than two ACKs.
    pub fn ack_spacing(&self, conn: ConnId) -> Option<AckSpacing> {
        let acks: Vec<_> = self
            .metrics()
            .deliveries(self.source(conn), conn, true)
            .iter()
            .filter(|d| d.t >= self.t0 && d.t <= self.t1)
            .copied()
            .collect();
        ack_spacing(&acks, DATA_SERVICE)
    }

    /// Every packet delivered to `conn`'s receiving endpoint, over the
    /// whole run, in delivery order.
    pub fn deliveries(&self, conn: ConnId) -> &[Departure] {
        self.metrics().deliveries(self.sink(conn), conn, false)
    }

    /// Data packets of `conn` delivered within the measurement window.
    pub fn delivered(&self, conn: ConnId) -> u64 {
        self.metrics().delivered(self.sink(conn), conn)
    }

    /// Goodput of `conn` over the measurement window, as a step series
    /// in packets/second over [`GOODPUT_BIN`]-wide bins.
    pub fn goodput(&self, conn: ConnId) -> TimeSeries {
        self.metrics().goodput(self.sink(conn), conn).clone()
    }

    /// Mean queueing + serialization delay of the ACKs crossing the 1→2
    /// bottleneck within the window, in seconds (§4.3.1's "effective
    /// pipe"); `None` if no ACK crossed.
    pub fn mean_ack_sojourn12(&self) -> Option<f64> {
        self.metrics().mean_ack_sojourn(self.bottleneck_12)
    }

    /// Fraction of all dropped packets, over the whole run, that were
    /// data packets; `None` if nothing dropped.
    pub fn data_drop_fraction(&self) -> Option<f64> {
        self.metrics().data_drop_fraction()
    }

    /// Clustering coefficient at `ch`, optionally data-only. Departures
    /// are collected for the 1→2 bottleneck only — the channel the
    /// paper's clustering claims are about — and asking for another
    /// channel panics.
    pub fn clustering_at(&self, ch: ChannelId, data_only: bool) -> Option<f64> {
        let deps: Vec<_> = self
            .metrics()
            .departures(ch)
            .iter()
            .filter(|d| d.t >= self.t0 && d.t <= self.t1 && (!data_only || d.pkt.is_data()))
            .copied()
            .collect();
        clustering_coefficient(&deps)
    }

    /// The sender object of a connection.
    pub fn sender(&self, conn: ConnId) -> &TcpSender {
        self.world
            .endpoint(self.senders[&conn])
            .expect("sender attached")
            .as_any()
            .downcast_ref::<TcpSender>()
            .expect("endpoint is a TcpSender")
    }

    /// The receiver object of a connection.
    pub fn receiver(&self, conn: ConnId) -> &TcpReceiver {
        self.world
            .endpoint(self.receivers[&conn])
            .expect("receiver attached")
            .as_any()
            .downcast_ref::<TcpReceiver>()
            .expect("endpoint is a TcpReceiver")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_connections() {
        let sc = Scenario::paper(1, 1000, SimDuration::from_millis(10), Some(20))
            .with_fwd(3, ConnSpec::paper())
            .with_rev(2, ConnSpec::paper());
        assert_eq!(sc.fwd.len(), 3);
        assert_eq!(sc.rev.len(), 2);
    }

    #[test]
    fn short_run_produces_consistent_ids() {
        let mut sc = crate::fig45::scenario(1, 30, 20);
        sc.warmup = SimDuration::from_secs(5);
        let run = sc.run();
        assert_eq!(run.conns().len(), 2);
        assert_eq!(run.fwd.len(), 1);
        assert_eq!(run.rev.len(), 1);
        // Senders/receivers resolvable and typed.
        for c in run.conns() {
            let _ = run.sender(c).stats();
            let _ = run.receiver(c).stats();
        }
        // Both directions moved data.
        assert!(run.util12() > 0.1);
        assert!(run.util21() > 0.1);
        // Queue series exist.
        assert!(!run.queue1().is_empty());
        assert!(!run.queue2().is_empty());
    }

    #[test]
    fn same_seed_same_world() {
        let mut sc = crate::fig45::scenario(1, 20, 20);
        sc.warmup = SimDuration::from_secs(2);
        let a = sc.run();
        let b = sc.run();
        assert_eq!(a.world.events_dispatched(), b.world.events_dispatched());
        assert_eq!(a.world.trace().len(), b.world.trace().len());
        assert_eq!(a.util12(), b.util12());
    }

    #[test]
    fn different_seed_different_start_times() {
        let mut sc = crate::fig45::scenario(1, 20, 20);
        sc.warmup = SimDuration::from_secs(2);
        let a = sc.run();
        sc.seed = 2;
        let b = sc.run();
        assert_ne!(a.world.trace().len(), b.world.trace().len());
    }

    #[test]
    #[should_panic(expected = "measurement window")]
    fn warmup_must_precede_end() {
        let mut sc = Scenario::paper(1, 1000, SimDuration::from_millis(10), Some(20));
        sc.warmup = sc.duration;
        let _ = sc.run();
    }

    /// Calibration guard for the trace pre-allocation: a busy two-way run
    /// must fit inside the estimate (so the reservation really does kill
    /// reallocation) without the estimate being orders of magnitude
    /// oversized.
    #[test]
    fn trace_reservation_covers_a_busy_run() {
        let mut sc = Scenario::paper(1, 60, SimDuration::from_millis(10), Some(20))
            .with_fwd(5, ConnSpec::paper())
            .with_rev(5, ConnSpec::paper());
        sc.warmup = SimDuration::from_secs(10);
        let estimate = sc.trace_records_estimate();
        let run = sc.run();
        let len = run.world.trace().len();
        assert!(
            len <= estimate,
            "estimate {estimate} undershot actual {len}: reservation would realloc"
        );
        assert!(
            len * 10 >= estimate,
            "estimate {estimate} is >10x actual {len}: wasting memory"
        );
        assert!(run.world.trace().capacity() >= estimate);
    }

    /// A run with neither a trace nor an observer has nothing to
    /// measure; answering `0.0` / an empty series would be a lie.
    #[test]
    #[should_panic(expected = "recorded nothing")]
    fn metrics_of_a_run_that_recorded_nothing_panic() {
        let mut sc = crate::fig45::scenario(1, 20, 20);
        sc.warmup = SimDuration::from_secs(2);
        sc.record_trace = false;
        let run = sc.run();
        let _ = run.util12();
    }

    #[test]
    fn watchdog_run_reports_an_outcome() {
        let mut sc = crate::fig45::scenario(1, 20, 20);
        sc.warmup = SimDuration::from_secs(2);
        sc.watchdog = Some(WatchdogConfig::default());
        let run = sc.run();
        let outcome = run.outcome.as_ref().expect("watchdog verdict");
        assert!(
            !outcome.is_stalled(),
            "clean paper run stalled: {outcome:?}"
        );
        assert_eq!(run.world.audit().total_violations(), 0);
    }

    #[test]
    fn fault_plan_outage_silences_the_link_then_recovers() {
        let mut sc = crate::fig45::scenario(1, 30, 20);
        sc.warmup = SimDuration::from_secs(1);
        let (down, up) = (SimTime::from_secs(5), SimTime::from_secs(8));
        sc.fault_fwd = FaultPlan::with_outages(vec![td_net::Outage { down, up }]);
        let run = sc.run();
        // The downed channel refuses to start transmissions for the whole
        // outage window.
        let tx_during_outage = run
            .world
            .trace()
            .records()
            .iter()
            .filter(|r| {
                r.t > down
                    && r.t < up
                    && matches!(r.ev, td_net::TraceEvent::TxStart { ch, .. } if ch == run.bottleneck_12)
            })
            .count();
        assert_eq!(tx_during_outage, 0, "channel transmitted while down");
        // The connection keeps making progress after the link returns.
        assert!(run.util12() > 0.1, "forward path never recovered");
        assert_eq!(run.world.audit().total_violations(), 0);
    }

    #[test]
    fn record_trace_off_disables_recording() {
        let mut sc = crate::fig45::scenario(1, 20, 20);
        sc.warmup = SimDuration::from_secs(2);
        sc.record_trace = false;
        let run = sc.run();
        assert!(run.world.trace().is_empty(), "disabled trace recorded");
        assert_eq!(run.world.trace().capacity(), 0, "disabled trace allocated");
        // The simulation itself must be unaffected by tracing.
        sc.record_trace = true;
        let traced = sc.run();
        assert_eq!(
            run.world.events_dispatched(),
            traced.world.events_dispatched()
        );
    }
}
