//! Always-on runtime invariant auditor.
//!
//! Every [`crate::World`] carries an [`Audit`]: a set of cheap online
//! checks of the simulation's own bookkeeping —
//!
//! * **packet conservation**: every injected packet is eventually
//!   delivered, dropped, or still in the network (checked exactly at
//!   quiescence, monotonically while running);
//! * **monotone cumulative ACKs**: the ACK sequence a host emits for one
//!   connection never goes backwards;
//! * **window bounds**: cwnd samples are finite, positive, and within the
//!   registered `maxwnd`; ssthresh is finite and non-negative;
//! * **queue occupancy** never exceeds a channel's capacity.
//!
//! Violations become structured [`AuditViolation`]s, *not* panics: a
//! corrupted run completes and reports what went wrong (the experiment
//! runner surfaces them through `timings.json`). The checks are passive —
//! no events, no randomness, no trace records — so an audited run is
//! byte-identical to an unaudited one.
//!
//! Every violation is also ticked into the thread's [`td_engine::meter`]
//! (`Counter::AuditViolations` plus the rendered report as a note), which
//! is how the experiment harness sees violations of worlds it never holds.

use crate::packet::{ConnId, NodeId};
use crate::world::ChannelId;
use td_engine::meter::{self, Counter, Meter};
use td_engine::{SimTime, SnapError, SnapReader, SnapWriter};

/// Keep the first this-many violation records (the count keeps rising).
pub const MAX_RECORDED: usize = meter::MAX_NOTES;

/// The host of a vacant ACK-mark slot.
const NO_HOST: NodeId = NodeId(u32::MAX);

const NO_MARK: (NodeId, u64) = (NO_HOST, 0);

/// Entry `conn` of a table indexed by connection id, growing the table
/// with `vacant` entries to reach it.
fn entry<T: Clone>(table: &mut Vec<T>, conn: ConnId, vacant: T) -> &mut T {
    let c = conn.0 as usize;
    if c >= table.len() {
        table.resize(c + 1, vacant);
    }
    &mut table[c]
}

/// The highest ACK sequence per (connection, emitting host): two tables
/// indexed by `ConnId`, for the first and the second host to ACK on a
/// connection, each entry `(host, seq)` ([`NO_MARK`] while vacant). Two
/// suffice — a connection has at most two endpoints, on distinct hosts
/// (`World::attach` enforces it) — and only connections that ACK both
/// ways grow the second.
#[derive(Clone, Default)]
struct AckMarks([Vec<(NodeId, u64)>; 2]);

impl AckMarks {
    /// `host`'s mark on `conn`: its own, else a vacant one (`None` when
    /// two other hosts hold both).
    fn slot(&mut self, conn: ConnId, host: NodeId) -> Option<&mut (NodeId, u64)> {
        let [first, second] = &mut self.0;
        let m = entry(first, conn, NO_MARK);
        if m.0 == host || m.0 == NO_HOST {
            return Some(m);
        }
        let m = entry(second, conn, NO_MARK);
        (m.0 == host || m.0 == NO_HOST).then_some(m)
    }

    /// Every mark as `(conn, host, seq)`, in `(conn, host)` order. The
    /// second table never outgrows the first: it gains an entry only
    /// where the first holds another host.
    fn sorted(&self) -> impl Iterator<Item = (ConnId, NodeId, u64)> + '_ {
        let [first, second] = &self.0;
        (0..).map(ConnId).zip(first).flat_map(move |(c, &a)| {
            let b = second.get(c.0 as usize).copied().unwrap_or(NO_MARK);
            let pair = if b.0 < a.0 { [b, a] } else { [a, b] };
            (pair.into_iter().filter(|m| m.0 != NO_HOST)).map(move |(host, seq)| (c, host, seq))
        })
    }
}

/// Which invariant a violation broke.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Invariant {
    /// injected = delivered + dropped + in-flight.
    PacketConservation,
    /// Cumulative ACK sequence regressed.
    MonotoneAck,
    /// cwnd/ssthresh out of bounds.
    WindowBound,
    /// Buffer occupancy exceeded capacity.
    QueueOccupancy,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Invariant::PacketConservation => "packet-conservation",
            Invariant::MonotoneAck => "monotone-ack",
            Invariant::WindowBound => "window-bound",
            Invariant::QueueOccupancy => "queue-occupancy",
        };
        f.write_str(s)
    }
}

/// One structured invariant violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditViolation {
    /// Simulation time of the offending observation.
    pub t: SimTime,
    /// The invariant broken.
    pub invariant: Invariant,
    /// Human-readable specifics.
    pub detail: String,
}

impl AuditViolation {
    /// One-line rendering, used for diagnostics and `timings.json`.
    pub fn render(&self) -> String {
        format!(
            "[{}] t={:.6}s {}",
            self.invariant,
            self.t.as_secs_f64(),
            self.detail
        )
    }
}

/// The per-world auditor state. Owned by [`crate::World`]; experiments
/// read it back through [`crate::World::audit`].
#[derive(Clone, Default)]
pub struct Audit {
    injected: u64,
    delivered: u64,
    dropped: u64,
    /// Highest ACK sequence seen per (connection, emitting host).
    last_ack: AckMarks,
    /// Registered cwnd upper bound per connection (sender `maxwnd`),
    /// indexed by `ConnId`.
    window_bounds: Vec<Option<f64>>,
    violations: Vec<AuditViolation>,
    total: u64,
    /// Conservation is flagged at most once: a broken counter would
    /// otherwise flood the record with one violation per delivery.
    conservation_flagged: bool,
    /// This auditor covers one shard of a sharded run: packets crossing
    /// shard borders are injected on one auditor and delivered on
    /// another, so per-shard conservation checks are disabled. The
    /// sharded executor checks conservation on the merged counters
    /// instead. Structural (set before running), so not serialized.
    distributed: bool,
}

impl Audit {
    /// Record a violation (first [`MAX_RECORDED`] kept; count unbounded),
    /// mirrored into the thread's meter for the harness.
    fn record(&mut self, t: SimTime, invariant: Invariant, detail: String) {
        let v = AuditViolation {
            t,
            invariant,
            detail,
        };
        meter_violation(&v);
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(v);
        }
    }

    /// A packet entered the network (endpoint send or fault duplication).
    pub(crate) fn on_inject(&mut self) {
        self.injected += 1;
    }

    /// A packet was discarded (buffer, AQM, fault, or outage).
    pub(crate) fn on_drop(&mut self) {
        self.dropped += 1;
    }

    /// A packet reached an endpoint. Checks the running conservation
    /// inequality: accounted packets can never exceed injected ones.
    pub(crate) fn on_deliver(&mut self, t: SimTime) {
        self.delivered += 1;
        if !self.distributed
            && !self.conservation_flagged
            && self.delivered + self.dropped > self.injected
        {
            self.conservation_flagged = true;
            self.record(
                t,
                Invariant::PacketConservation,
                format!(
                    "delivered {} + dropped {} > injected {}",
                    self.delivered, self.dropped, self.injected
                ),
            );
        }
    }

    /// An ACK left a host: its cumulative sequence must not regress.
    pub(crate) fn on_ack_send(&mut self, t: SimTime, conn: ConnId, host: NodeId, seq: u64) {
        let slot = (self.last_ack.slot(conn, host)).expect("at most two endpoints per connection");
        if slot.0 == host && seq < slot.1 {
            let prev = slot.1;
            self.record(
                t,
                Invariant::MonotoneAck,
                format!(
                    "conn {} host {} ack regressed {prev} -> {seq}",
                    conn.0, host.0
                ),
            );
        } else {
            *slot = (host, seq);
        }
    }

    /// A cwnd sample was emitted. Checked against the registered bound
    /// (if any) and basic sanity (finite, positive; ssthresh finite,
    /// non-negative).
    pub(crate) fn on_cwnd(&mut self, t: SimTime, conn: ConnId, cwnd: f64, ssthresh: f64) {
        if !cwnd.is_finite() || cwnd <= 0.0 {
            self.record(
                t,
                Invariant::WindowBound,
                format!("conn {} cwnd = {cwnd} is not finite-positive", conn.0),
            );
        } else if let Some(bound) = self.window_bounds.get(conn.0 as usize).copied().flatten() {
            // The usable window is ⌊min(cwnd, maxwnd)⌋: the integer part
            // of cwnd is clamped at maxwnd while congestion avoidance
            // keeps accumulating the fractional increment, so the raw
            // variable legitimately sits in [maxwnd, maxwnd + 1). Only a
            // full packet beyond the cap is a broken clamp.
            if cwnd >= bound + 1.0 {
                self.record(
                    t,
                    Invariant::WindowBound,
                    format!("conn {} cwnd {cwnd} exceeds maxwnd {bound} + 1", conn.0),
                );
            }
        }
        if !ssthresh.is_finite() || ssthresh < 0.0 {
            self.record(
                t,
                Invariant::WindowBound,
                format!(
                    "conn {} ssthresh = {ssthresh} is not finite-nonnegative",
                    conn.0
                ),
            );
        }
    }

    /// A packet was accepted into a buffer; occupancy must respect
    /// capacity.
    pub(crate) fn on_enqueue(
        &mut self,
        t: SimTime,
        ch: ChannelId,
        occupancy: u32,
        capacity: Option<u32>,
    ) {
        if let Some(cap) = capacity {
            if occupancy > cap {
                self.record(
                    t,
                    Invariant::QueueOccupancy,
                    format!("channel {} occupancy {occupancy} > capacity {cap}", ch.0),
                );
            }
        }
    }

    /// The event queue drained: conservation must now hold exactly, with
    /// `in_network` the packets still buffered in channels and host
    /// processing queues.
    pub(crate) fn on_quiescent(&mut self, t: SimTime, in_network: u64) {
        if self.distributed {
            return;
        }
        if self.delivered + self.dropped + in_network != self.injected {
            self.record(
                t,
                Invariant::PacketConservation,
                format!(
                    "at quiescence: injected {} != delivered {} + dropped {} + in-network {}",
                    self.injected, self.delivered, self.dropped, in_network
                ),
            );
        }
    }

    /// Register the cwnd upper bound of a connection (its sender's
    /// `maxwnd`). Samples at or above `maxwnd + 1` are flagged — the raw
    /// variable may carry a sub-packet fractional overshoot while its
    /// integer part is clamped.
    pub(crate) fn set_window_bound(&mut self, conn: ConnId, maxwnd: f64) {
        *entry(&mut self.window_bounds, conn, None) = Some(maxwnd);
    }

    /// Switch this auditor into distributed (per-shard) mode; see the
    /// `distributed` field.
    pub(crate) fn set_distributed(&mut self) {
        self.distributed = true;
    }

    #[cfg(test)]
    pub(crate) fn is_distributed(&self) -> bool {
        self.distributed
    }

    /// Fold one shard's auditor into this (merged) one: counters add,
    /// ACK high-water marks union by max, window bounds union, recorded
    /// violations concatenate (canonicalized by
    /// [`Audit::finalize_merge`]). Direct field arithmetic, never
    /// [`Audit::record`]: the shard already mirrored its violations into
    /// its thread's meter when they happened.
    pub(crate) fn merge_from(&mut self, other: &Audit) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        for (c, host, seq) in other.last_ack.sorted() {
            let slot = (self.last_ack.slot(c, host)).expect("at most two endpoints per connection");
            let prev = if slot.0 == host { slot.1 } else { seq };
            *slot = (host, prev.max(seq));
        }
        for (c, bound) in (0..).map(ConnId).zip(&other.window_bounds) {
            if bound.is_some() {
                *entry(&mut self.window_bounds, c, None) = *bound;
            }
        }
        self.violations.extend(other.violations.iter().cloned());
        self.total += other.total;
        self.conservation_flagged |= other.conservation_flagged;
    }

    /// Canonicalize a merged auditor: violations in `(t, invariant,
    /// detail)` order — a shard-count-independent order, unlike the
    /// interleaving-dependent order they were observed in — truncated to
    /// the recording cap.
    pub(crate) fn finalize_merge(&mut self) {
        fn tag(i: Invariant) -> u8 {
            match i {
                Invariant::PacketConservation => 0,
                Invariant::MonotoneAck => 1,
                Invariant::WindowBound => 2,
                Invariant::QueueOccupancy => 3,
            }
        }
        self.violations.sort_by(|a, b| {
            (a.t, tag(a.invariant), &a.detail).cmp(&(b.t, tag(b.invariant), &b.detail))
        });
        self.violations.truncate(MAX_RECORDED);
    }

    /// Global conservation over merged counters, checked at the end of a
    /// sharded run. The run stops at a time bound, not at quiescence, so
    /// in-flight packets are unaccounted and only the inequality
    /// `delivered + dropped ≤ injected` must hold.
    pub(crate) fn check_merged_conservation(&mut self, t: SimTime) {
        if !self.conservation_flagged && self.delivered + self.dropped > self.injected {
            self.conservation_flagged = true;
            self.record(
                t,
                Invariant::PacketConservation,
                format!(
                    "merged: delivered {} + dropped {} > injected {}",
                    self.delivered, self.dropped, self.injected
                ),
            );
        }
    }

    /// Packets injected so far (sends + fault duplications).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets delivered to endpoints so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped so far (any reason).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Recorded violations (first [`MAX_RECORDED`]; see
    /// [`Audit::total_violations`] for the full count).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Total violations observed, including any beyond the recording cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Write the ACK marks as a `(conn, host, seq)` list sorted by
    /// `(conn, host)`, then the window bounds as a `(conn, bound)` list
    /// sorted by conn — the layout [`Audit::save_state`] and
    /// [`Audit::write_canonical`] share.
    fn write_tables(&self, w: &mut SnapWriter) {
        w.write_u64(self.last_ack.sorted().count() as u64);
        for (c, host, seq) in self.last_ack.sorted() {
            w.write_u32(c.0);
            w.write_u32(host.0);
            w.write_u64(seq);
        }
        let bounds = (0u32..).zip(&self.window_bounds);
        let bounds = bounds.filter_map(|(c, b)| Some((c, (*b)?)));
        w.write_u64(bounds.clone().count() as u64);
        for (c, b) in bounds {
            w.write_u32(c);
            w.write_f64(b);
        }
    }

    /// Serialize the auditor (snapshot support).
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.write_u64(self.injected);
        w.write_u64(self.delivered);
        w.write_u64(self.dropped);
        self.write_tables(w);
        w.write_u64(self.violations.len() as u64);
        for v in &self.violations {
            w.write_time(v.t);
            w.write_u8(match v.invariant {
                Invariant::PacketConservation => 0,
                Invariant::MonotoneAck => 1,
                Invariant::WindowBound => 2,
                Invariant::QueueOccupancy => 3,
            });
            w.write_str(&v.detail);
        }
        w.write_u64(self.total);
        w.write_bool(self.conservation_flagged);
    }

    /// Stream the *behavioral* subset of the auditor into a canonical
    /// state encoding (see `World::state_hash`): the packet balance
    /// still in the network (not the absolute totals — two histories
    /// with different throughput but identical in-flight packets behave
    /// identically), the protocol-visible ACK high-water marks and
    /// window bounds (sorted, like [`Audit::save_state`]), and the
    /// conservation latch. Recorded violations and their count are
    /// reporting, not state, and are excluded.
    pub(crate) fn write_canonical(&self, w: &mut SnapWriter) {
        w.write_i64(self.injected as i64 - self.delivered as i64 - self.dropped as i64);
        self.write_tables(w);
        w.write_bool(self.conservation_flagged);
    }

    /// Restore state written by [`Audit::save_state`] for a world whose
    /// connection ids lie below `conn_ids`; an id at or above it is
    /// [`SnapError::Mismatch`] (and never sizes a table).
    ///
    /// Fields are assigned directly, never through [`Audit::record`]:
    /// replaying captured violations must not re-mirror them into the
    /// thread's meter.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        conn_ids: usize,
    ) -> Result<(), SnapError> {
        let read_conn = |r: &mut SnapReader<'_>| {
            let c = r.read_u32()?;
            if c as usize >= conn_ids {
                return Err(SnapError::Mismatch(format!(
                    "audit names connection {c}, this world has ids below {conn_ids} only"
                )));
            }
            Ok(ConnId(c))
        };
        self.injected = r.read_u64()?;
        self.delivered = r.read_u64()?;
        self.dropped = r.read_u64()?;
        let n_acks = r.read_len()?;
        self.last_ack = AckMarks::default();
        for _ in 0..n_acks {
            let c = read_conn(r)?;
            let host = NodeId(r.read_u32()?);
            let seq = r.read_u64()?;
            match self.last_ack.slot(c, host) {
                Some(slot) if host != NO_HOST => *slot = (host, seq),
                _ => {
                    return Err(SnapError::Corrupt(format!(
                        "ACK mark of connection {} from host {}: a third host, or none",
                        c.0, host.0
                    )))
                }
            }
        }
        let n_bounds = r.read_len()?;
        self.window_bounds = Vec::new();
        for _ in 0..n_bounds {
            let c = read_conn(r)?;
            *entry(&mut self.window_bounds, c, None) = Some(r.read_f64()?);
        }
        let n_viol = r.read_len()?;
        self.violations = Vec::with_capacity(n_viol.min(MAX_RECORDED));
        for _ in 0..n_viol {
            let t = r.read_time()?;
            let invariant = match r.read_u8()? {
                0 => Invariant::PacketConservation,
                1 => Invariant::MonotoneAck,
                2 => Invariant::WindowBound,
                3 => Invariant::QueueOccupancy,
                k => return Err(SnapError::Corrupt(format!("unknown invariant tag {k}"))),
            };
            let detail = r.read_str()?;
            self.violations.push(AuditViolation {
                t,
                invariant,
                detail,
            });
        }
        self.total = r.read_u64()?;
        self.conservation_flagged = r.read_bool()?;
        Ok(())
    }
}

/// The auditor's verdict on one harness task, as `timings.json` carries
/// it: the task's [`Meter`] read back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Total violations while the task ran.
    pub total: u64,
    /// Rendered violations (first [`MAX_RECORDED`]).
    pub reports: Vec<String>,
}

impl Tally {
    /// The auditor's share of what `m` metered.
    pub fn of(m: &Meter) -> Tally {
        Tally {
            total: m.count(Counter::AuditViolations),
            reports: m.notes().to_vec(),
        }
    }
}

fn meter_violation(v: &AuditViolation) {
    meter::add(Counter::AuditViolations, 1);
    meter::note(v.render());
}

/// Test-only hook: inject a synthetic violation into this thread's meter,
/// so harness plumbing (timings.json surfacing) can be exercised without
/// corrupting a real simulation.
pub fn inject_violation_for_test(detail: &str) {
    meter_violation(&AuditViolation {
        t: SimTime::ZERO,
        invariant: Invariant::PacketConservation,
        detail: detail.to_owned(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_audit_reports_nothing() {
        let (a, m) = meter::scoped(|| {
            let mut a = Audit::default();
            a.on_inject();
            a.on_deliver(SimTime::from_secs(1));
            a.on_inject();
            a.on_drop();
            a.on_quiescent(SimTime::from_secs(2), 0);
            a
        });
        assert_eq!(a.total_violations(), 0);
        assert!(a.violations().is_empty());
        assert_eq!(Tally::of(&m), Tally::default());
    }

    #[test]
    fn conservation_violation_is_flagged_once() {
        let (a, m) = meter::scoped(|| {
            let mut a = Audit::default();
            a.on_deliver(SimTime::from_secs(1)); // delivered with nothing injected
            a.on_deliver(SimTime::from_secs(2));
            a
        });
        assert_eq!(a.total_violations(), 1, "flood-guarded to one record");
        assert_eq!(a.violations()[0].invariant, Invariant::PacketConservation);
        let tally = Tally::of(&m);
        assert_eq!(tally.total, 1);
        assert!(tally.reports[0].contains("packet-conservation"));
    }

    #[test]
    fn quiescence_accounts_in_network_packets() {
        let mut a = Audit::default();
        for _ in 0..5 {
            a.on_inject();
        }
        a.on_deliver(SimTime::from_secs(1));
        a.on_drop();
        // 3 still buffered: balanced.
        a.on_quiescent(SimTime::from_secs(9), 3);
        assert_eq!(a.total_violations(), 0);
        // 0 in network but 3 unaccounted: violation.
        a.on_quiescent(SimTime::from_secs(10), 0);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn ack_regression_detected_per_conn_and_host() {
        let mut a = Audit::default();
        let (c, h) = (ConnId(1), NodeId(2));
        a.on_ack_send(SimTime::from_secs(1), c, h, 5);
        a.on_ack_send(SimTime::from_secs(2), c, h, 5); // equal is fine
        a.on_ack_send(SimTime::from_secs(3), c, h, 9);
        // A different connection has its own sequence.
        a.on_ack_send(SimTime::from_secs(4), ConnId(2), h, 1);
        assert_eq!(a.total_violations(), 0);
        a.on_ack_send(SimTime::from_secs(5), c, h, 3);
        assert_eq!(a.total_violations(), 1);
        assert_eq!(a.violations()[0].invariant, Invariant::MonotoneAck);
    }

    #[test]
    fn window_bounds_checked_when_registered() {
        let mut a = Audit::default();
        let c = ConnId(0);
        a.set_window_bound(c, 8.0);
        a.on_cwnd(SimTime::from_secs(1), c, 7.5, 4.0);
        // Congestion avoidance legitimately parks cwnd in
        // [maxwnd, maxwnd + 1) while the usable window stays ⌊min⌋-capped.
        a.on_cwnd(SimTime::from_secs(1), c, 8.875, 4.0);
        assert_eq!(a.total_violations(), 0);
        a.on_cwnd(SimTime::from_secs(2), c, 9.0, 4.0);
        assert_eq!(a.total_violations(), 1);
        a.on_cwnd(SimTime::from_secs(3), c, f64::NAN, 4.0);
        a.on_cwnd(SimTime::from_secs(4), c, 1.0, f64::NAN);
        assert_eq!(a.total_violations(), 3);
        assert!(a
            .violations()
            .iter()
            .all(|v| v.invariant == Invariant::WindowBound));
    }

    #[test]
    fn occupancy_over_capacity_detected() {
        let mut a = Audit::default();
        a.on_enqueue(SimTime::from_secs(1), ChannelId(0), 20, Some(20));
        a.on_enqueue(SimTime::from_secs(1), ChannelId(0), 7, None);
        assert_eq!(a.total_violations(), 0);
        a.on_enqueue(SimTime::from_secs(2), ChannelId(0), 21, Some(20));
        assert_eq!(a.total_violations(), 1);
        assert_eq!(a.violations()[0].invariant, Invariant::QueueOccupancy);
    }

    #[test]
    fn recording_caps_but_count_does_not() {
        let (a, m) = meter::scoped(|| {
            let mut a = Audit::default();
            for i in 0..(MAX_RECORDED as u32 + 10) {
                a.on_enqueue(SimTime::from_secs(1), ChannelId(0), 100 + i, Some(1));
            }
            a
        });
        assert_eq!(a.violations().len(), MAX_RECORDED);
        assert_eq!(a.total_violations(), MAX_RECORDED as u64 + 10);
        let tally = Tally::of(&m);
        assert_eq!(tally.total, MAX_RECORDED as u64 + 10);
        assert_eq!(tally.reports.len(), MAX_RECORDED);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A hand-built auditor over sparse connections: conn 5 ACKs from two
    /// hosts, conn 9 regresses once, conn 7 has a window bound and never
    /// ACKs.
    fn sparse_audit() -> Audit {
        let mut a = Audit::default();
        for _ in 0..7 {
            a.on_inject();
        }
        a.on_deliver(SimTime::from_secs(1));
        a.on_drop();
        a.on_ack_send(SimTime::from_secs(1), ConnId(9), NodeId(4), 12);
        a.on_ack_send(SimTime::from_secs(1), ConnId(5), NodeId(3), 7);
        a.on_ack_send(SimTime::from_secs(2), ConnId(5), NodeId(1), 2);
        a.on_ack_send(SimTime::from_secs(2), ConnId(0), NodeId(2), 1);
        a.on_ack_send(SimTime::from_secs(3), ConnId(9), NodeId(4), 10);
        a.on_ack_send(SimTime::from_secs(3), ConnId(5), NodeId(3), 8);
        a.set_window_bound(ConnId(7), 20.0);
        a.set_window_bound(ConnId(0), 8.0);
        a
    }

    /// The bytes `save_state` and `write_canonical` write — sorted
    /// `(conn, host)` ACK marks, sorted window bounds — and a merge that
    /// keeps the larger mark of each `(conn, host)`, pinned whatever
    /// tables hold them.
    #[test]
    fn state_bytes_are_pinned() {
        let a = sparse_audit();
        assert_eq!(a.total_violations(), 1, "conn 9's regression");
        let mut w = td_engine::SnapWriter::new();
        a.save_state(&mut w);
        let saved = hex(&w.into_bytes());
        let mut w = td_engine::SnapWriter::new();
        a.write_canonical(&mut w);
        let canonical = hex(&w.into_bytes());

        let mut other = Audit::default();
        other.on_ack_send(SimTime::from_secs(4), ConnId(5), NodeId(1), 9);
        other.on_ack_send(SimTime::from_secs(4), ConnId(5), NodeId(3), 4);
        other.on_ack_send(SimTime::from_secs(4), ConnId(12), NodeId(6), 3);
        other.set_window_bound(ConnId(12), 4.0);
        let mut merged = a.clone();
        merged.merge_from(&other);
        let mut w = td_engine::SnapWriter::new();
        merged.write_canonical(&mut w);
        let merged = hex(&w.into_bytes());

        // (conn, host, seq) ACK marks in (conn, host) order, then
        // (conn, bound) window bounds in conn order.
        const ACKS: &str = concat!(
            "0400000000000000",
            "00000000020000000100000000000000",
            "05000000010000000200000000000000",
            "05000000030000000800000000000000",
            "09000000040000000c00000000000000",
        );
        const BOUNDS: &str = concat!(
            "0200000000000000",
            "000000000000000000002040",
            "070000000000000000003440",
        );
        let expect_saved = [
            "070000000000000001000000000000000100000000000000",
            ACKS,
            BOUNDS,
            "0100000000000000005ed0b20000000001240000000000000063",
            "6f6e6e203920686f737420342061636b20726567726573736564203132202d3e203130",
            "010000000000000000",
        ]
        .concat();
        assert_eq!(saved, expect_saved, "save_state bytes moved");
        let expect_canonical = ["0500000000000000", ACKS, BOUNDS, "00"].concat();
        assert_eq!(canonical, expect_canonical, "write_canonical bytes moved");
        let expect_merged = [
            "0500000000000000",
            "0500000000000000",
            "00000000020000000100000000000000",
            "05000000010000000900000000000000",
            "05000000030000000800000000000000",
            "09000000040000000c00000000000000",
            "0c000000060000000300000000000000",
            "0300000000000000",
            "000000000000000000002040",
            "070000000000000000003440",
            "0c0000000000000000001040",
            "00",
        ]
        .concat();
        assert_eq!(merged, expect_merged, "merged marks are not the maxima");
    }

    /// Restore rebuilds the dense tables exactly, and refuses a connection
    /// id its world does not have rather than sizing a table for it.
    #[test]
    fn load_refuses_ids_past_the_worlds_connections() {
        let a = sparse_audit();
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = Audit::default();
        let mut r = SnapReader::new(&bytes);
        back.load_state(&mut r, 10).unwrap();
        r.finish().unwrap();
        let mut again = SnapWriter::new();
        back.save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        // Conn 9 holds a mark: ids below 9 cannot name it.
        let err = (Audit::default().load_state(&mut SnapReader::new(&bytes), 9)).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "got {err:?}");
    }
}
