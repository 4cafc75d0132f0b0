//! The one implementation of the paper's measurements — bottleneck queue
//! length, cwnd, drops, departures (clustering), windowed utilization,
//! endpoint deliveries (ACK spacing, goodput) and per-packet queueing
//! delay — as a fold over the event record stream.
//!
//! A [`StreamSpec`] names the measurements wanted and
//! `StreamAnalyzer::fold` is the only code that reads a
//! [`TraceEvent`] for them. The fold has two feeds:
//!
//! * **Observer feed.** The analyzer is a [`td_net::TraceObserver`]
//!   registered on a [`td_net::World`] (or one per shard of a
//!   [`td_net::ShardedWorld`]). The world feeds observers at every
//!   emission site **whether or not trace recording is enabled**, so a
//!   run that registers an analyzer and disables its trace uses O(live
//!   state) memory instead of O(events).
//! * **Replay feed.** [`StreamAnalyzer::replay`] folds the records of a
//!   stored [`Trace`] in record order. The [`extract`](crate::extract)
//!   and [`sojourn`](crate::sojourn) functions are one-measurement specs
//!   replayed this way.
//!
//! Same records in the same order give the same bits, whichever feed
//! delivered them.
//!
//! ## Record order
//!
//! * A plain serial [`td_net::World`] stores records in emission order,
//!   and its observer folds in that same order.
//! * A [`td_net::ShardedWorld`] re-sorts the merged trace into canonical
//!   `(time, causal rank, content)` order, while each shard's analyzer
//!   sees only its own emissions in dispatch order. Building the analyzer
//!   with [`StreamSpec::canonical_ties`] makes it buffer same-instant
//!   records and fold them in [`td_net::canonical_trace_cmp`] order.
//!   Because every channel, connection endpoint, and host lives wholly
//!   on one shard, sorting a *shard's* same-instant group by the global
//!   comparator puts each key's records in exactly the relative order
//!   they occupy in the merged trace — so the merged per-shard folds
//!   equal a replay of the merged trace bit for bit at any shard count.
//!   Only drops aggregate across keys; they are kept as raw records and
//!   canonically re-sorted in [`StreamAnalyzer::merge`].
//!
//! ## Shard merge
//!
//! [`td_net::ShardedWorld::add_observers`] registers one analyzer per
//! shard; after the run, downcast them back (via
//! [`td_net::TraceObserver::into_any`]) and combine with
//! [`StreamAnalyzer::merge`] — the same union-of-disjoint-tallies shape
//! the audit and telemetry merges already use. Per-key state is disjoint
//! across shards, so merging is concatenation, never reconciliation;
//! a key with data in two parts trips an assertion rather than silently
//! interleaving.

use crate::epochs::DropEvent;
use crate::extract::Departure;
use crate::series::TimeSeries;
use crate::sojourn::Sojourn;
use std::any::Any;
use std::collections::HashMap;
use td_engine::{SimDuration, SimTime};
use td_net::{
    canonical_trace_cmp, ChannelId, ConnId, NodeId, PacketId, ProtoEvent, Trace, TraceEvent,
    TraceObserver, TraceRecord,
};

/// What a [`StreamAnalyzer`] should compute. Build one per experiment,
/// listing exactly the measurements its report needs.
#[derive(Clone, Debug, Default)]
pub struct StreamSpec {
    queues: Vec<ChannelId>,
    cwnds: Vec<ConnId>,
    utils: Vec<(ChannelId, SimTime, SimTime)>,
    drops: bool,
    departures: Vec<ChannelId>,
    // The endpoint and sojourn items are kept as the (empty) state the
    // analyzer starts them from.
    deliveries: Vec<DeliveryState>,
    delivered: Vec<DeliveredState>,
    goodputs: Vec<GoodputState>,
    sojourns: Vec<SojournState>,
    canonical_ties: bool,
}

impl StreamSpec {
    /// An empty spec: computes nothing until measurements are added.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a buffer-occupancy series for `ch`: waiting + in-service
    /// packets after every enqueue and every finished transmission.
    #[must_use]
    pub fn queue(mut self, ch: ChannelId) -> Self {
        self.queues.push(ch);
        self
    }

    /// Add a cwnd series for `conn`, from the sender's `Cwnd`
    /// annotations.
    #[must_use]
    pub fn cwnd(mut self, conn: ConnId) -> Self {
        self.cwnds.push(conn);
        self
    }

    /// Add windowed utilization of `ch`: the fraction of `[t0, t1]` its
    /// transmitter was serializing, from `TxStart`/`TxEnd` pairs clipped
    /// to the window.
    #[must_use]
    pub fn utilization(mut self, ch: ChannelId, t0: SimTime, t1: SimTime) -> Self {
        assert!(t1 > t0, "empty utilization window");
        self.utils.push((ch, t0, t1));
        self
    }

    /// Collect all buffer-overflow and fault drops, in record order.
    #[must_use]
    pub fn drops(mut self) -> Self {
        self.drops = true;
        self
    }

    /// Collect departures (TxEnd) of `ch`, in record order.
    #[must_use]
    pub fn departures(mut self, ch: ChannelId) -> Self {
        self.departures.push(ch);
        self
    }

    /// Collect deliveries to the endpoint of `conn` on `node`, in record
    /// order, optionally ACKs only — the arrivals whose spacing is the
    /// ACK clock at a data source.
    #[must_use]
    pub fn deliveries(mut self, node: NodeId, conn: ConnId, acks_only: bool) -> Self {
        self.deliveries.push(DeliveryState {
            node,
            conn,
            acks_only,
            out: Vec::new(),
        });
        self
    }

    /// Count the data packets delivered to `node` for `conn` in
    /// `[t0, t1]` — per-connection goodput.
    #[must_use]
    pub fn delivered(mut self, node: NodeId, conn: ConnId, t0: SimTime, t1: SimTime) -> Self {
        self.delivered.push(DeliveredState {
            node,
            conn,
            t0,
            t1,
            count: 0,
        });
        self
    }

    /// Add a goodput step series: data packets delivered to `node` for
    /// `conn`, counted in consecutive bins of width `bin` over
    /// `[t0, t1)`, in packets/second.
    #[must_use]
    pub fn goodput(
        mut self,
        node: NodeId,
        conn: ConnId,
        t0: SimTime,
        t1: SimTime,
        bin: SimDuration,
    ) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        assert!(t1 > t0, "empty goodput window");
        self.goodputs.push(GoodputState {
            node,
            conn,
            t0,
            t1,
            bin,
            counts: vec![0; t1.since(t0).as_nanos().div_ceil(bin.as_nanos()) as usize],
        });
        self
    }

    /// Collect the completed sojourns (enqueue → end of serialization)
    /// at `ch` whose departure falls in `[t0, t1]`.
    #[must_use]
    pub fn sojourns(mut self, ch: ChannelId, t0: SimTime, t1: SimTime) -> Self {
        self.sojourns.push(SojournState {
            ch,
            t0,
            t1,
            pending: HashMap::new(),
            out: Vec::new(),
        });
        self
    }

    /// Fold same-instant records in canonical merged-trace order instead
    /// of emission order. Required on sharded worlds (any shard count —
    /// the merged trace is canonically sorted even at `--shards 1`);
    /// wrong for plain serial worlds, whose trace keeps emission order.
    #[must_use]
    pub fn canonical_ties(mut self) -> Self {
        self.canonical_ties = true;
        self
    }
}

/// Running state of one windowed-utilization measurement.
#[derive(Clone, Debug)]
struct UtilState {
    ch: ChannelId,
    t0: SimTime,
    t1: SimTime,
    busy: SimDuration,
    started: Option<SimTime>,
}

/// Collected deliveries to one endpoint.
#[derive(Clone, Debug)]
struct DeliveryState {
    node: NodeId,
    conn: ConnId,
    acks_only: bool,
    out: Vec<Departure>,
}

/// Running count of one windowed data-delivery measurement.
#[derive(Clone, Debug)]
struct DeliveredState {
    node: NodeId,
    conn: ConnId,
    t0: SimTime,
    t1: SimTime,
    count: u64,
}

/// Per-bin delivery counts of one goodput series.
#[derive(Clone, Debug)]
struct GoodputState {
    node: NodeId,
    conn: ConnId,
    t0: SimTime,
    t1: SimTime,
    bin: SimDuration,
    counts: Vec<u64>,
}

/// Running state of one channel's sojourn measurement.
#[derive(Clone, Debug)]
struct SojournState {
    ch: ChannelId,
    t0: SimTime,
    t1: SimTime,
    /// Accepted packets not yet departed or dropped. Enqueue→TxEnd
    /// pairing via a FIFO-per-channel assumption does not hold for Fair
    /// Queueing, so match on packet identity.
    pending: HashMap<PacketId, SimTime>,
    out: Vec<Sojourn>,
}

/// An incremental fold of the measurements a [`StreamSpec`] lists, fed
/// record-by-record through [`td_net::TraceObserver`] or all at once by
/// [`StreamAnalyzer::replay`]. See the [module docs](self) for record
/// order and the shard-merge contract.
#[derive(Debug)]
pub struct StreamAnalyzer {
    canonical_ties: bool,
    /// Same-instant records awaiting canonical ordering (canonical-ties
    /// mode only; always empty otherwise).
    pending: Vec<TraceRecord>,
    queues: Vec<(ChannelId, TimeSeries)>,
    cwnds: Vec<(ConnId, TimeSeries)>,
    utils: Vec<UtilState>,
    drops: Option<Vec<TraceRecord>>,
    departures: Vec<(ChannelId, Vec<Departure>)>,
    deliveries: Vec<DeliveryState>,
    delivered: Vec<DeliveredState>,
    goodputs: Vec<GoodputState>,
    sojourns: Vec<SojournState>,
}

impl StreamAnalyzer {
    /// A fresh analyzer computing what `spec` lists.
    pub fn new(spec: &StreamSpec) -> Self {
        StreamAnalyzer {
            canonical_ties: spec.canonical_ties,
            pending: Vec::new(),
            queues: spec
                .queues
                .iter()
                .map(|&ch| (ch, TimeSeries::new()))
                .collect(),
            cwnds: spec.cwnds.iter().map(|&c| (c, TimeSeries::new())).collect(),
            utils: spec
                .utils
                .iter()
                .map(|&(ch, t0, t1)| UtilState {
                    ch,
                    t0,
                    t1,
                    busy: SimDuration::ZERO,
                    started: None,
                })
                .collect(),
            drops: spec.drops.then(Vec::new),
            departures: spec.departures.iter().map(|&ch| (ch, Vec::new())).collect(),
            deliveries: spec.deliveries.clone(),
            delivered: spec.delivered.clone(),
            goodputs: spec.goodputs.clone(),
            sojourns: spec.sojourns.clone(),
        }
    }

    /// Fold the records of a stored trace, in record order, and finish.
    /// Record order is right for any trace: a serial world's is emission
    /// order, a sharded world's merged trace is already canonically
    /// sorted — so [`StreamSpec::canonical_ties`] is not consulted.
    ///
    /// # Panics
    /// Panics on a trace that is disabled *and* empty: the run recorded
    /// nothing, so every measurement of it would be a silent zero.
    pub fn replay(spec: &StreamSpec, trace: &Trace) -> StreamMetrics {
        assert!(
            trace.is_enabled() || !trace.is_empty(),
            "this run recorded nothing to measure: keep the trace on \
             (Scenario::record_trace) and replay it, or attach a StreamAnalyzer \
             observer (Scenario::stream) and read its result"
        );
        let mut an = StreamAnalyzer::new(spec);
        for r in trace.records() {
            an.fold(r.t, &r.ev);
        }
        an.finish()
    }

    /// Fold one record: the only place a [`TraceEvent`] is read for a
    /// measurement.
    fn fold(&mut self, t: SimTime, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Enqueue {
                ch,
                pkt,
                qlen_after,
            } => {
                for (c, ts) in &mut self.queues {
                    if *c == ch {
                        ts.push(t, qlen_after as f64);
                    }
                }
                for s in &mut self.sojourns {
                    if s.ch == ch {
                        s.pending.insert(pkt.id, t);
                    }
                }
            }
            TraceEvent::TxEnd {
                ch,
                pkt,
                qlen_after,
            } => {
                for (c, ts) in &mut self.queues {
                    if *c == ch {
                        ts.push(t, qlen_after as f64);
                    }
                }
                for u in &mut self.utils {
                    if u.ch == ch {
                        // A TxEnd without a seen TxStart means the
                        // transmission began before observation (clipped
                        // at t0 below via max).
                        let s = u.started.take().unwrap_or(SimTime::ZERO);
                        let lo = s.max(u.t0);
                        let hi = t.min(u.t1);
                        if hi > lo {
                            u.busy += hi.since(lo);
                        }
                    }
                }
                for (c, deps) in &mut self.departures {
                    if *c == ch {
                        deps.push(Departure { t, pkt });
                    }
                }
                for s in &mut self.sojourns {
                    if s.ch == ch {
                        if let Some(enq) = s.pending.remove(&pkt.id) {
                            if t >= s.t0 && t <= s.t1 {
                                s.out.push(Sojourn {
                                    pkt,
                                    enqueued: enq,
                                    delay: t.since(enq),
                                });
                            }
                        }
                    }
                }
            }
            TraceEvent::TxStart { ch, .. } => {
                for u in &mut self.utils {
                    if u.ch == ch {
                        u.started = Some(t);
                    }
                }
            }
            TraceEvent::Proto {
                conn,
                ev: ProtoEvent::Cwnd { cwnd, .. },
                ..
            } => {
                for (c, ts) in &mut self.cwnds {
                    if *c == conn {
                        ts.push(t, cwnd);
                    }
                }
            }
            TraceEvent::Drop { pkt, .. } => {
                if let Some(drops) = &mut self.drops {
                    drops.push(TraceRecord { t, ev: *ev });
                }
                // A packet is pending at the one channel holding it, so
                // a drop anywhere else removes nothing.
                for s in &mut self.sojourns {
                    s.pending.remove(&pkt.id);
                }
            }
            TraceEvent::Deliver { node, pkt } => {
                for d in &mut self.deliveries {
                    if d.node == node && d.conn == pkt.conn && (!d.acks_only || pkt.is_ack()) {
                        d.out.push(Departure { t, pkt });
                    }
                }
                if !pkt.is_data() {
                    return;
                }
                for d in &mut self.delivered {
                    if d.node == node && d.conn == pkt.conn && t >= d.t0 && t <= d.t1 {
                        d.count += 1;
                    }
                }
                for g in &mut self.goodputs {
                    if g.node == node && g.conn == pkt.conn && t >= g.t0 && t < g.t1 {
                        let idx = (t.since(g.t0).as_nanos() / g.bin.as_nanos()) as usize;
                        let last = g.counts.len() - 1;
                        g.counts[idx.min(last)] += 1;
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether [`Self::fold`] reads `ev` at all: one arm per `fold` arm,
    /// testing the same spec lists. Canonical-ties mode asks before
    /// buffering, so a spec naming 2 channels out of thousands does not
    /// copy and sort every record of the run. Dropping unread records
    /// cannot reorder the kept ones: [`canonical_trace_cmp`] is a total
    /// order, so a subset sorts into the same relative order.
    fn wants(&self, ev: &TraceEvent) -> bool {
        match *ev {
            TraceEvent::Enqueue { ch, .. } => {
                self.queues.iter().any(|(c, _)| *c == ch)
                    || self.sojourns.iter().any(|s| s.ch == ch)
            }
            TraceEvent::TxEnd { ch, .. } => {
                self.queues.iter().any(|(c, _)| *c == ch)
                    || self.utils.iter().any(|u| u.ch == ch)
                    || self.departures.iter().any(|(c, _)| *c == ch)
                    || self.sojourns.iter().any(|s| s.ch == ch)
            }
            TraceEvent::TxStart { ch, .. } => self.utils.iter().any(|u| u.ch == ch),
            TraceEvent::Proto {
                conn,
                ev: ProtoEvent::Cwnd { .. },
                ..
            } => self.cwnds.iter().any(|(c, _)| *c == conn),
            TraceEvent::Drop { .. } => self.drops.is_some() || !self.sojourns.is_empty(),
            TraceEvent::Deliver { node, pkt } => {
                let hit = |n: NodeId, c: ConnId| n == node && c == pkt.conn;
                self.deliveries.iter().any(|d| hit(d.node, d.conn))
                    || self.delivered.iter().any(|d| hit(d.node, d.conn))
                    || self.goodputs.iter().any(|g| hit(g.node, g.conn))
            }
            _ => false,
        }
    }

    /// Sort and fold the buffered same-instant group (canonical-ties
    /// mode).
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut group = std::mem::take(&mut self.pending);
        group.sort_by(canonical_trace_cmp);
        for rec in &group {
            self.fold(rec.t, &rec.ev);
        }
        group.clear();
        self.pending = group; // keep the allocation
    }

    /// Combine per-shard analyzers into one. Per-key state (queues,
    /// cwnds, utilization, departures, deliveries, sojourns) is disjoint
    /// across shards — every channel, connection endpoint and host lives
    /// wholly on one shard — so combining is a union; drops aggregate
    /// across shards and are canonically re-sorted into merged-trace
    /// order.
    ///
    /// # Panics
    /// Panics on an empty input, on parts built from different specs, or
    /// if two parts carry data for the same key (which would mean the
    /// disjointness invariant broke upstream).
    pub fn merge(parts: Vec<StreamAnalyzer>) -> StreamAnalyzer {
        let mut parts = parts.into_iter();
        let mut acc = parts.next().expect("merge of zero analyzers");
        acc.flush_pending();
        for mut part in parts {
            part.flush_pending();
            assert_eq!(acc.queues.len(), part.queues.len(), "spec mismatch");
            for ((c_a, a), (c_b, b)) in acc.queues.iter_mut().zip(part.queues) {
                assert_eq!(*c_a, c_b, "spec mismatch");
                *a = merge_disjoint_series(std::mem::take(a), b, "channel");
            }
            assert_eq!(acc.cwnds.len(), part.cwnds.len(), "spec mismatch");
            for ((c_a, a), (c_b, b)) in acc.cwnds.iter_mut().zip(part.cwnds) {
                assert_eq!(*c_a, c_b, "spec mismatch");
                *a = merge_disjoint_series(std::mem::take(a), b, "connection");
            }
            assert_eq!(acc.utils.len(), part.utils.len(), "spec mismatch");
            for (a, b) in acc.utils.iter_mut().zip(part.utils) {
                assert_eq!(a.ch, b.ch, "spec mismatch");
                a.busy += b.busy;
                assert!(
                    a.started.is_none() || b.started.is_none(),
                    "channel {:?} has in-flight transmissions on two shards",
                    a.ch
                );
                a.started = a.started.or(b.started);
            }
            match (&mut acc.drops, part.drops) {
                (Some(a), Some(b)) => a.extend(b),
                (None, None) => {}
                _ => panic!("spec mismatch"),
            }
            assert_eq!(acc.departures.len(), part.departures.len(), "spec mismatch");
            for ((c_a, a), (c_b, b)) in acc.departures.iter_mut().zip(part.departures) {
                assert_eq!(*c_a, c_b, "spec mismatch");
                assert!(
                    a.is_empty() || b.is_empty(),
                    "channel {c_b:?} has departures on two shards"
                );
                if a.is_empty() {
                    *a = b;
                }
            }
            assert_eq!(acc.deliveries.len(), part.deliveries.len(), "spec mismatch");
            for (a, b) in acc.deliveries.iter_mut().zip(part.deliveries) {
                assert_eq!((a.node, a.conn), (b.node, b.conn), "spec mismatch");
                assert!(
                    a.out.is_empty() || b.out.is_empty(),
                    "host {:?} has deliveries on two shards",
                    a.node
                );
                if a.out.is_empty() {
                    a.out = b.out;
                }
            }
            assert_eq!(acc.delivered.len(), part.delivered.len(), "spec mismatch");
            for (a, b) in acc.delivered.iter_mut().zip(part.delivered) {
                assert_eq!((a.node, a.conn), (b.node, b.conn), "spec mismatch");
                assert!(
                    a.count == 0 || b.count == 0,
                    "host {:?} has deliveries on two shards",
                    a.node
                );
                a.count += b.count;
            }
            assert_eq!(acc.goodputs.len(), part.goodputs.len(), "spec mismatch");
            for (a, b) in acc.goodputs.iter_mut().zip(part.goodputs) {
                assert_eq!((a.node, a.conn), (b.node, b.conn), "spec mismatch");
                assert!(
                    a.counts.iter().all(|&c| c == 0) || b.counts.iter().all(|&c| c == 0),
                    "host {:?} has deliveries on two shards",
                    a.node
                );
                for (x, y) in a.counts.iter_mut().zip(b.counts) {
                    *x += y;
                }
            }
            assert_eq!(acc.sojourns.len(), part.sojourns.len(), "spec mismatch");
            for (a, b) in acc.sojourns.iter_mut().zip(part.sojourns) {
                assert_eq!(a.ch, b.ch, "spec mismatch");
                assert!(
                    (a.out.is_empty() && a.pending.is_empty())
                        || (b.out.is_empty() && b.pending.is_empty()),
                    "channel {:?} has sojourns on two shards",
                    a.ch
                );
                if a.out.is_empty() && a.pending.is_empty() {
                    *a = b;
                }
            }
        }
        if let Some(drops) = &mut acc.drops {
            // Cross-shard aggregation: restore merged-trace order. Within
            // one part the records are already canonically ordered (ties
            // were flushed through the same comparator), so the stable
            // sort only interleaves parts.
            drops.sort_by(canonical_trace_cmp);
        }
        acc
    }

    /// Finish the fold and extract the computed measurements.
    pub fn finish(mut self) -> StreamMetrics {
        self.flush_pending();
        let utils = self
            .utils
            .into_iter()
            .map(|u| {
                let mut busy = u.busy;
                // A transmission still in progress at t1.
                if let Some(s) = u.started {
                    let lo = s.max(u.t0);
                    if u.t1 > lo {
                        busy += u.t1.since(lo);
                    }
                }
                let frac = busy.as_secs_f64() / u.t1.since(u.t0).as_secs_f64();
                (u.ch, frac)
            })
            .collect();
        let drops = self.drops.map(|recs| {
            recs.into_iter()
                .map(|r| match r.ev {
                    TraceEvent::Drop {
                        ch, pkt, reason, ..
                    } => DropEvent {
                        t: r.t,
                        ch,
                        conn: pkt.conn,
                        seq: pkt.seq,
                        is_data: pkt.is_data(),
                        reason,
                    },
                    _ => unreachable!("drops hold only Drop records"),
                })
                .collect()
        });
        let goodputs = self
            .goodputs
            .into_iter()
            .map(|g| {
                let mut ts = TimeSeries::new();
                let bin_s = g.bin.as_secs_f64();
                for (i, &c) in g.counts.iter().enumerate() {
                    ts.push(g.t0 + g.bin * i as u64, c as f64 / bin_s);
                }
                ((g.node, g.conn), ts)
            })
            .collect();
        StreamMetrics {
            queues: self.queues,
            cwnds: self.cwnds,
            utils,
            drops,
            departures: self.departures,
            deliveries: self
                .deliveries
                .into_iter()
                .map(|d| ((d.node, d.conn, d.acks_only), d.out))
                .collect(),
            delivered: self
                .delivered
                .into_iter()
                .map(|d| ((d.node, d.conn), d.count))
                .collect(),
            goodputs,
            sojourns: self.sojourns.into_iter().map(|s| (s.ch, s.out)).collect(),
        }
    }
}

impl TraceObserver for StreamAnalyzer {
    fn on_record(&mut self, t: SimTime, ev: &TraceEvent) {
        if self.canonical_ties {
            if !self.wants(ev) {
                return;
            }
            if self.pending.first().is_some_and(|r| r.t != t) {
                self.flush_pending();
            }
            self.pending.push(TraceRecord { t, ev: *ev });
        } else {
            self.fold(t, ev);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Union of two per-key series under the one-shard-per-key invariant.
fn merge_disjoint_series(a: TimeSeries, b: TimeSeries, what: &str) -> TimeSeries {
    assert!(
        a.is_empty() || b.is_empty(),
        "{what} has series points on two shards"
    );
    if a.is_empty() {
        b
    } else {
        a
    }
}

/// The finished measurements of a [`StreamAnalyzer`]. Accessors panic on
/// keys the [`StreamSpec`] did not list — an experiment asking for a
/// measurement it forgot to register is a bug, not an empty result.
#[derive(Debug)]
pub struct StreamMetrics {
    pub(crate) queues: Vec<(ChannelId, TimeSeries)>,
    pub(crate) cwnds: Vec<(ConnId, TimeSeries)>,
    utils: Vec<(ChannelId, f64)>,
    pub(crate) drops: Option<Vec<DropEvent>>,
    pub(crate) departures: Vec<(ChannelId, Vec<Departure>)>,
    pub(crate) deliveries: Vec<((NodeId, ConnId, bool), Vec<Departure>)>,
    delivered: Vec<((NodeId, ConnId), u64)>,
    pub(crate) goodputs: Vec<((NodeId, ConnId), TimeSeries)>,
    pub(crate) sojourns: Vec<(ChannelId, Vec<Sojourn>)>,
}

impl StreamMetrics {
    /// The queue-occupancy series of `ch` (must be in the spec).
    pub fn queue(&self, ch: ChannelId) -> &TimeSeries {
        &self
            .queues
            .iter()
            .find(|(c, _)| *c == ch)
            .unwrap_or_else(|| panic!("channel {ch:?} not in the StreamSpec queues"))
            .1
    }

    /// The cwnd series of `conn` (must be in the spec).
    pub fn cwnd(&self, conn: ConnId) -> &TimeSeries {
        &self
            .cwnds
            .iter()
            .find(|(c, _)| *c == conn)
            .unwrap_or_else(|| panic!("connection {conn:?} not in the StreamSpec cwnds"))
            .1
    }

    /// The windowed utilization of `ch` (must be in the spec).
    pub fn utilization(&self, ch: ChannelId) -> f64 {
        self.utils
            .iter()
            .find(|(c, _)| *c == ch)
            .unwrap_or_else(|| panic!("channel {ch:?} not in the StreamSpec utilizations"))
            .1
    }

    /// All drop events, in trace order (the spec must have enabled
    /// [`StreamSpec::drops`]).
    pub fn drops(&self) -> &[DropEvent] {
        self.drops.as_deref().expect("drops not in the StreamSpec")
    }

    /// The departures of `ch`, in trace order (must be in the spec).
    pub fn departures(&self, ch: ChannelId) -> &[Departure] {
        &self
            .departures
            .iter()
            .find(|(c, _)| *c == ch)
            .unwrap_or_else(|| panic!("channel {ch:?} not in the StreamSpec departures"))
            .1
    }

    /// Fraction of dropped packets that were data packets (the paper's
    /// §3.2 claim: 99.8 % in the ten-connection run); `None` if nothing
    /// dropped. The spec must have enabled [`StreamSpec::drops`].
    pub fn data_drop_fraction(&self) -> Option<f64> {
        let drops = self.drops();
        if drops.is_empty() {
            return None;
        }
        let data = drops.iter().filter(|d| d.is_data).count();
        Some(data as f64 / drops.len() as f64)
    }

    /// The deliveries to `conn`'s endpoint on `node`, in trace order
    /// (this `(node, conn, acks_only)` must be in the spec).
    pub fn deliveries(&self, node: NodeId, conn: ConnId, acks_only: bool) -> &[Departure] {
        &self
            .deliveries
            .iter()
            .find(|(k, _)| *k == (node, conn, acks_only))
            .unwrap_or_else(|| {
                panic!("deliveries of {conn:?} at {node:?} not in the StreamSpec deliveries")
            })
            .1
    }

    /// Data packets delivered to `node` for `conn` within the spec's
    /// window (must be in the spec).
    pub fn delivered(&self, node: NodeId, conn: ConnId) -> u64 {
        self.delivered
            .iter()
            .find(|(k, _)| *k == (node, conn))
            .unwrap_or_else(|| {
                panic!("delivery count of {conn:?} at {node:?} not in the StreamSpec delivered")
            })
            .1
    }

    /// The goodput step series of `conn` at `node` (must be in the spec).
    pub fn goodput(&self, node: NodeId, conn: ConnId) -> &TimeSeries {
        &self
            .goodputs
            .iter()
            .find(|(k, _)| *k == (node, conn))
            .unwrap_or_else(|| {
                panic!("goodput of {conn:?} at {node:?} not in the StreamSpec goodputs")
            })
            .1
    }

    /// The completed sojourns at `ch` within the spec's window, in
    /// departure order (must be in the spec).
    pub fn sojourns(&self, ch: ChannelId) -> &[Sojourn] {
        &self
            .sojourns
            .iter()
            .find(|(c, _)| *c == ch)
            .unwrap_or_else(|| panic!("channel {ch:?} not in the StreamSpec sojourns"))
            .1
    }

    /// Mean sojourn of ACK packets at `ch` over the spec's window, in
    /// seconds (`None` if no ACK completed) — the §4.3.1 "effective
    /// pipe" contribution.
    pub fn mean_ack_sojourn(&self, ch: ChannelId) -> Option<f64> {
        let s: Vec<f64> = self
            .sojourns(ch)
            .iter()
            .filter(|s| s.pkt.is_ack())
            .map(|s| s.delay.as_secs_f64())
            .collect();
        if s.is_empty() {
            None
        } else {
            Some(crate::stats::mean(&s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{
        cwnd_series, data_drop_fraction, delivered_in, deliveries, departures, drop_events,
        goodput_series, queue_series, utilization_in,
    };
    use crate::sojourn::{mean_ack_sojourn, sojourns};
    use td_engine::SimRng;
    use td_net::{DropReason, NodeId, Packet, PacketId, PacketKind, Trace};

    fn pkt(conn: u32, seq: u64, kind: PacketKind) -> Packet {
        Packet {
            id: PacketId(seq),
            conn: ConnId(conn),
            kind,
            seq,
            size: 500,
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
            ack: 0,
        }
    }

    /// A deterministic synthetic trace exercising every fold: two
    /// channels' queue/tx activity, two connections' cwnd updates, drops
    /// of several reasons, deliveries to two hosts, interleaved and with
    /// same-instant bursts. Packet ids are per channel (a packet waits in
    /// one buffer at a time), and departures and drops mostly name a
    /// packet that buffer accepted earlier, so sojourns pair up.
    fn synthetic_trace(seed: u64, n: usize) -> Trace {
        let mut rng = SimRng::new(seed);
        let mut tr = Trace::new();
        let mut t = SimTime::ZERO;
        let mut accepted: [Vec<PacketId>; 2] = [Vec::new(), Vec::new()];
        for i in 0..n {
            // Bursts: ~1/3 of records share their predecessor's instant.
            if !rng.chance(0.34) {
                t += td_engine::SimDuration::from_micros(rng.next_range(1, 500));
            }
            let ch = ChannelId(rng.next_below(2) as u32);
            let conn = rng.next_below(2) as u32;
            let kind = if rng.chance(0.7) {
                PacketKind::Data
            } else {
                PacketKind::Ack
            };
            let mut p = pkt(conn, i as u64, kind);
            p.id = PacketId(2 * i as u64 + ch.0 as u64);
            let qlen = rng.next_below(20) as u32;
            let variant = rng.next_below(6);
            let earlier = &mut accepted[ch.0 as usize];
            match variant {
                0 => earlier.push(p.id),
                2 | 3 if !earlier.is_empty() && rng.chance(0.8) => {
                    p.id = earlier[rng.next_below(earlier.len() as u64) as usize];
                }
                _ => {}
            }
            let ev = match variant {
                0 => TraceEvent::Enqueue {
                    ch,
                    pkt: p,
                    qlen_after: qlen,
                },
                1 => TraceEvent::TxStart { ch, pkt: p },
                2 => TraceEvent::TxEnd {
                    ch,
                    pkt: p,
                    qlen_after: qlen,
                },
                3 => TraceEvent::Drop {
                    ch,
                    pkt: p,
                    reason: if rng.chance(0.5) {
                        DropReason::BufferFull
                    } else {
                        DropReason::EarlyDrop
                    },
                    qlen,
                },
                4 => TraceEvent::Proto {
                    conn: ConnId(conn),
                    node: NodeId(conn),
                    ev: ProtoEvent::Cwnd {
                        cwnd: rng.next_below(30) as f64 + 1.0,
                        ssthresh: 32.0,
                    },
                },
                _ => TraceEvent::Deliver {
                    node: NodeId(conn),
                    pkt: p,
                },
            };
            tr.push(t, ev);
        }
        tr
    }

    fn spec(t0: SimTime, t1: SimTime) -> StreamSpec {
        StreamSpec::new()
            .queue(ChannelId(0))
            .queue(ChannelId(1))
            .cwnd(ConnId(0))
            .cwnd(ConnId(1))
            .utilization(ChannelId(0), t0, t1)
            .utilization(ChannelId(1), t0, t1)
            .drops()
            .departures(ChannelId(0))
            .deliveries(NodeId(0), ConnId(0), false)
            .deliveries(NodeId(1), ConnId(1), true)
            .delivered(NodeId(0), ConnId(0), t0, t1)
            .goodput(NodeId(1), ConnId(1), t0, t1, SimDuration::from_millis(100))
            .sojourns(ChannelId(0), t0, t1)
            .sojourns(ChannelId(1), t0, t1)
    }

    /// `m` equals a replay of `tr` (through the `extract` drivers), field
    /// for field and bit for bit.
    fn assert_matches_replay(m: &StreamMetrics, tr: &Trace, t0: SimTime, t1: SimTime) {
        for ch in [ChannelId(0), ChannelId(1)] {
            assert_eq!(*m.queue(ch), queue_series(tr, ch), "queue {ch:?}");
            let replayed = utilization_in(tr, ch, t0, t1);
            assert_eq!(
                m.utilization(ch).to_bits(),
                replayed.to_bits(),
                "utilization {ch:?}"
            );
        }
        for conn in [ConnId(0), ConnId(1)] {
            assert_eq!(*m.cwnd(conn), cwnd_series(tr, conn), "cwnd {conn:?}");
        }
        let replayed_drops = drop_events(tr);
        assert_eq!(m.drops().len(), replayed_drops.len());
        for (a, b) in m.drops().iter().zip(&replayed_drops) {
            assert_eq!((a.t, a.ch, a.conn, a.seq), (b.t, b.ch, b.conn, b.seq));
            assert_eq!(a.is_data, b.is_data);
        }
        let replayed_deps = departures(tr, ChannelId(0));
        assert_eq!(m.departures(ChannelId(0)).len(), replayed_deps.len());
        for (a, b) in m.departures(ChannelId(0)).iter().zip(&replayed_deps) {
            assert_eq!((a.t, a.pkt.id, a.pkt.seq), (b.t, b.pkt.id, b.pkt.seq));
        }
        let (n0, n1, c0, c1) = (NodeId(0), NodeId(1), ConnId(0), ConnId(1));
        assert_eq!(m.deliveries(n0, c0, false), deliveries(tr, n0, c0, false));
        assert_eq!(m.deliveries(n1, c1, true), deliveries(tr, n1, c1, true));
        assert!(!m.deliveries(n1, c1, true).is_empty());
        assert_eq!(m.delivered(n0, c0), delivered_in(tr, n0, c0, t0, t1));
        assert!(m.delivered(n0, c0) > 0);
        let bin = SimDuration::from_millis(100);
        assert_eq!(*m.goodput(n1, c1), goodput_series(tr, n1, c1, t0, t1, bin));
        for ch in [ChannelId(0), ChannelId(1)] {
            assert_eq!(m.sojourns(ch), sojourns(tr, ch, t0, t1), "sojourns {ch:?}");
            assert!(!m.sojourns(ch).is_empty(), "no sojourn paired at {ch:?}");
            assert_eq!(
                m.mean_ack_sojourn(ch).map(f64::to_bits),
                mean_ack_sojourn(tr, ch, t0, t1).map(f64::to_bits)
            );
        }
        assert_eq!(m.data_drop_fraction(), data_drop_fraction(tr));
    }

    /// Splitting a canonically-sorted trace across "shards" by channel
    /// (per-key disjointness) and merging the per-shard analyzers
    /// reproduces a replay of the whole trace — including same-instant
    /// groups folded through `canonical_ties`.
    #[test]
    fn sharded_fold_with_canonical_ties_matches_batch() {
        let mut records: Vec<TraceRecord> = synthetic_trace(7, 4000).records().to_vec();
        // The merged trace a ShardedWorld produces is canonically
        // sorted; build that view first.
        records.sort_by(canonical_trace_cmp);
        let mut sorted = Trace::new();
        let mut shard_views: Vec<Vec<TraceRecord>> = vec![Vec::new(), Vec::new()];
        for r in &records {
            sorted.push(r.t, r.ev);
            // Partition by channel; Proto/Deliver records go by
            // connection/node id, mirroring endpoint placement.
            let shard = match r.ev {
                TraceEvent::Enqueue { ch, .. }
                | TraceEvent::TxStart { ch, .. }
                | TraceEvent::TxEnd { ch, .. }
                | TraceEvent::Drop { ch, .. } => ch.0 as usize,
                TraceEvent::Proto { conn, .. } => conn.0 as usize,
                TraceEvent::Deliver { node, .. } | TraceEvent::Send { node, .. } => node.0 as usize,
            };
            shard_views[shard].push(*r);
        }
        let (t0, t1) = (SimTime::from_millis(50), SimTime::from_millis(900));
        let sp = spec(t0, t1).canonical_ties();
        let parts: Vec<StreamAnalyzer> = shard_views
            .iter()
            .map(|view| {
                let mut an = StreamAnalyzer::new(&sp);
                // Each shard sees its records in *dispatch* order, which
                // within an instant need not match the canonical order —
                // feed them reversed within the whole view to prove the
                // tie buffering reorders correctly. (Reversing breaks
                // cross-instant order too, so reverse only within each
                // same-t group.)
                let mut i = 0;
                while i < view.len() {
                    let j = view[i..]
                        .iter()
                        .position(|r| r.t != view[i].t)
                        .map_or(view.len(), |p| i + p);
                    for r in view[i..j].iter().rev() {
                        an.on_record(r.t, &r.ev);
                    }
                    i = j;
                }
                an
            })
            .collect();
        let m = StreamAnalyzer::merge(parts).finish();
        assert_matches_replay(&m, &sorted, t0, t1);
    }

    /// The trailing in-flight transmission is clipped to t1.
    #[test]
    fn utilization_counts_inflight_transmission() {
        let ch = ChannelId(0);
        let (t0, t1) = (SimTime::ZERO, SimTime::from_millis(100));
        let mut an = StreamAnalyzer::new(&StreamSpec::new().utilization(ch, t0, t1));
        an.on_record(
            SimTime::from_millis(90),
            &TraceEvent::TxStart {
                ch,
                pkt: pkt(0, 1, PacketKind::Data),
            },
        );
        let m = an.finish();
        assert!((m.utilization(ch) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not in the StreamSpec")]
    fn missing_key_panics() {
        let m = StreamAnalyzer::new(&StreamSpec::new()).finish();
        let _ = m.queue(ChannelId(0));
    }
}
