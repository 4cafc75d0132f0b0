//! The snapshot codec: TDSN ([`Snapshot`]), the parts of TDSW
//! ([`crate::ShardSnapshot`]) it shares, and [`World::state_hash`].
//!
//! All three write pending events one way — pop order, each as due time
//! plus encoded event — and a held [`TimerHandle`] as its event's index in
//! that list. An `Arrival` is encoded with its packet, never with its
//! flight-arena index; restore stashes each decoded packet in a fresh
//! arena and rebuilds the queue with [`EventQueue::from_pending`], so no
//! byte depends on slot reuse or arena history.
//!
//! After the header, the fingerprint and a head of their own, TDSN and
//! TDSW end in one tail — trace, audit, host rows, channel rows, endpoint
//! rows — written by `write_tail` and read by `read_tail`. Each row comes
//! from the world that owns it: a [`World`] owns all of its rows; in a
//! [`crate::ShardedWorld`] the shard holding the host, the channel's
//! sender or the endpoint's host does.

use super::*;
use crate::trace::TraceRecord;
use std::cell::RefCell;
use std::collections::HashMap;
use std::mem::take;
use std::path::Path;
use std::thread::LocalKey;
use td_engine::meter::{self, Counter};

thread_local! {
    /// While a snapshot writes endpoint rows: each pending event's id → its
    /// index in the pending list written beside them.
    static HANDLE_INDEX: RefCell<Option<HashMap<EventId, u64>>> =
        const { RefCell::new(None) };
    /// While a restore reads endpoint rows: pending index → the event's id
    /// in the rebuilt queue (`None` where another shard's queue holds it).
    static HANDLE_IDS: RefCell<Option<Vec<Option<EventId>>>> =
        const { RefCell::new(None) };
}

/// Run `f` with `table` installed in `slot` for this thread (one of the
/// handle translations above), then hand the table back.
fn with_table<T: Default, R>(
    slot: &'static LocalKey<RefCell<Option<T>>>,
    table: &mut T,
    f: impl FnOnce() -> R,
) -> R {
    slot.set(Some(take(table)));
    let out = f();
    *table = slot.take().unwrap_or_default();
    out
}

/// How a snapshot writes a handle whose timer is no longer pending.
const STALE_HANDLE: (u32, u64) = (u32::MAX, u64::MAX);

impl TimerHandle {
    /// Serialize the handle (snapshot support for endpoints holding armed
    /// timers) as `(index, 0)`, its event's index in the pending list the
    /// snapshot writes — or, for a timer that has fired or been cancelled,
    /// as the stale marker `(u32::MAX, u64::MAX)`.
    ///
    /// # Panics
    /// Outside a world snapshot, where there is no pending list to index.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let index = HANDLE_INDEX.with_borrow(|index| {
            let index = index
                .as_ref()
                .expect("timer handle saved outside a world snapshot");
            index.get(&self.0).copied()
        });
        let (idx, tag) = index.map_or(STALE_HANDLE, |i| (i as u32, 0));
        w.write_u32(idx);
        w.write_u64(tag);
    }

    /// Deserialize a handle written by [`TimerHandle::save_state`] as the
    /// restored event's new id. An index with no pending event behind it —
    /// past the list, or held by another shard — is
    /// [`SnapError::Corrupt`]: restored as stale, it would be a timer that
    /// silently never fires.
    ///
    /// # Panics
    /// Outside a world restore.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<TimerHandle, SnapError> {
        let raw = (r.read_u32()?, r.read_u64()?);
        if raw == STALE_HANDLE {
            // Out of any slab's range, so `cancel` reports "already
            // fired", exactly like a handle whose generation moved on.
            return Ok(TimerHandle(EventId::from_raw(raw.0, raw.1)));
        }
        let id = HANDLE_IDS.with_borrow(|ids| {
            let ids = ids
                .as_ref()
                .expect("timer handle loaded outside a world restore");
            match raw {
                (idx, 0) => ids.get(idx as usize).copied().flatten(),
                _ => None,
            }
        });
        id.map(TimerHandle).ok_or_else(|| {
            SnapError::Corrupt(format!("timer handle {raw:?} names no pending event"))
        })
    }
}

/// One pending event as snapshots see it: due time, tie key, live queue
/// id (for the timer-handle translation) and encoded event.
pub(crate) type PendingBlob = (SimTime, u64, EventId, Vec<u8>);

/// Write a pending list — its length, then each event's due time and
/// encoded bytes — the one layout TDSN, TDSW and `World::state_hash`
/// share. Tie keys are left out: the restoring world derives them.
pub(crate) fn write_pending<'a>(
    w: &mut SnapWriter,
    pending: impl ExactSizeIterator<Item = &'a PendingBlob>,
) {
    w.write_u64(pending.len() as u64);
    for (at, _, _, blob) in pending {
        w.write_time(*at);
        w.write_bytes(blob);
    }
}

/// One decoded pending event: due time, event, and — for an `Arrival` —
/// its packet, which [`World::rebuild_queue`] stashes in the flight arena
/// before pointing the event at it.
pub(crate) type LoadedEvent = (SimTime, Event, Option<Packet>);

/// Read a list written by [`write_pending`], decoding every event.
pub(crate) fn read_pending(r: &mut SnapReader<'_>) -> Result<Vec<LoadedEvent>, SnapError> {
    let n = r.read_len()?;
    (0..n)
        .map(|_| {
            let at = r.read_time()?;
            let (ev, pkt) = r.read_section(load_event)?;
            Ok((at, ev, pkt))
        })
        .collect()
}

/// Encode `ev` as its tag and the id of the component it names, then a
/// `Timer`'s token or an `Arrival`'s packet, read out of `flight`.
fn save_event(ev: &Event, flight: &[Packet], w: &mut SnapWriter) {
    let (tag, id) = match *ev {
        Event::TxComplete(ch) => (0, ch.0),
        Event::Arrival { ch, .. } => (1, ch.0),
        Event::HostProcess(node) => (2, node.0),
        Event::Timer { ep, .. } => (3, ep.0),
        Event::Start(ep) => (4, ep.0),
        Event::LinkUp(ch) => (5, ch.0),
    };
    w.write_u8(tag);
    w.write_u32(id);
    match *ev {
        Event::Arrival { flight: i, .. } => flight[i as usize].save_state(w),
        Event::Timer { token, .. } => w.write_u64(token),
        _ => {}
    }
}

/// Decode an event written by [`save_event`]. An `Arrival` comes back with
/// its packet beside it and a flight index that names nothing yet.
fn load_event(r: &mut SnapReader<'_>) -> Result<(Event, Option<Packet>), SnapError> {
    let (tag, id) = (r.read_u8()?, r.read_u32()?);
    Ok(match tag {
        0 => (Event::TxComplete(ChannelId(id)), None),
        1 => {
            let (ch, flight) = (ChannelId(id), u32::MAX);
            (Event::Arrival { ch, flight }, Some(Packet::load_state(r)?))
        }
        2 => (Event::HostProcess(NodeId(id)), None),
        3 => {
            let (ep, token) = (EndpointId(id), r.read_u64()?);
            (Event::Timer { ep, token }, None)
        }
        4 => (Event::Start(EndpointId(id)), None),
        5 => (Event::LinkUp(ChannelId(id)), None),
        t => return Err(SnapError::Corrupt(format!("unknown event tag {t}"))),
    })
}

/// A versioned, self-contained capture of a [`World`]'s mutable state,
/// produced by [`World::snapshot`] and consumed by [`World::restore`].
///
/// The format is a flat little-endian byte stream behind a 4-byte magic
/// and a `u32` version; readers refuse unknown versions rather than
/// guessing. Structural configuration (topology, rates, capacities, fault
/// *plans*, endpoint parameters) is **not** captured — a snapshot is
/// applied onto a world freshly built from the same `(config, seed)`
/// pair, and [`World::restore`] cross-checks seed and component counts to
/// catch mismatched pairings early.
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// File/stream magic: "TDSN".
    pub const MAGIC: &'static [u8; 4] = b"TDSN";
    /// Current format version. Version 2 added the canonical-mode flag,
    /// per-endpoint packet-id counters, and per-event ordering keys
    /// inside the queue section. Version 3 added the model-checking
    /// fault overlay (injected outages + forced-drop counters) to each
    /// channel row, so restoring a branch snapshot reconstructs the
    /// branch's decisions without replaying them. Version 4 writes the
    /// queue as its clock, counters and pop-ordered pending list instead
    /// of its slab, and timer handles as indices into that list.
    /// Version 5 drops the world-shared RNG stream and the global
    /// packet-id counter, which no world has any more.
    pub const VERSION: u32 = 5;

    /// The raw snapshot bytes (header included).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopt raw bytes, validating the header and the structural
    /// fingerprint's basic sanity (the payload is validated lazily by
    /// [`World::restore`]). Declared component counts are bounded by the
    /// byte length — every component costs at least one payload byte — so
    /// corrupt counts fail here as a structured error instead of asking
    /// the restore path to allocate for them.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        check_header(&bytes, Self::MAGIC, Self::VERSION)?;
        Ok(Snapshot { bytes })
    }

    /// Write the snapshot to `path` atomically and durably
    /// ([`td_engine::write_atomic`]), so a crash mid-write never leaves a
    /// truncated snapshot under the final name.
    pub fn write_to_file(&self, path: &Path) -> std::io::Result<()> {
        td_engine::write_atomic(path, &self.bytes)
    }

    /// Read and header-validate a snapshot file.
    pub fn read_from_file(path: &Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Read a TDSN or TDSW header — magic, then `version`, the one this build
/// decodes — and the structural fingerprint after it: the seed, then the
/// node, channel and endpoint counts. Returns them with a reader past both.
fn read_fingerprint<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<(SnapReader<'a>, u64, [u32; 3]), SnapError> {
    let mut r = SnapReader::new(bytes);
    r.expect_header(magic, version..=version)?;
    let seed = r.read_u64()?;
    let counts = [r.read_u32()?, r.read_u32()?, r.read_u32()?];
    Ok((r, seed, counts))
}

/// Check a TDSN or TDSW header and that the fingerprint's component
/// counts fit the bytes after it: every component costs at least one
/// payload byte.
pub(crate) fn check_header(bytes: &[u8], magic: &[u8; 4], version: u32) -> Result<(), SnapError> {
    let (r, _, counts) = read_fingerprint(bytes, magic, version)?;
    let declared: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    if declared > r.remaining() as u64 {
        return Err(SnapError::Corrupt(format!(
            "snapshot declares {declared} components but only {} payload byte(s) remain",
            r.remaining()
        )));
    }
    Ok(())
}

impl World {
    /// Capture every piece of mutable simulation state: the clock, the
    /// event queue's counters and its pending events in pop order, all RNG
    /// streams, per-channel occupancy and fault progress, host
    /// processing queues, every endpoint's protocol state, the trace, and
    /// the auditor. Restoring onto a world freshly built from the same
    /// `(config, seed)` and running to the end is byte-identical to never
    /// having stopped (see [`World::restore`]).
    ///
    /// Must be called between events — i.e. from outside the event loop,
    /// never from inside an endpoint callback.
    pub fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::with_header(Snapshot::MAGIC, Snapshot::VERSION);
        self.write_fingerprint(&mut w);
        // Engine state: the clock, the queue's counters and pending events,
        // the tie rule, and the packet-id counters.
        w.write_time(self.now());
        w.write_u64(self.queue.dispatched());
        w.write_u64(self.queue.scheduled());
        w.write_u64(self.queue.peak_len() as u64);
        let mut index = self.write_pending_and_counters(&mut w);
        write_tail(
            &mut w,
            &self.trace,
            &self.audit,
            std::slice::from_ref(self),
            |_| 0,
            std::slice::from_mut(&mut index),
        );
        meter::add(Counter::SnapshotsTaken, 1);
        Snapshot {
            bytes: w.into_bytes(),
        }
    }

    /// A 64-bit FNV-1a hash of the world's *canonical* state encoding,
    /// streamed through a hashing [`SnapWriter`] so no snapshot buffer is
    /// ever materialized. Two worlds with equal hashes (collisions aside)
    /// evolve identically under identical future inputs; the model
    /// checker uses this for visited-state deduplication.
    ///
    /// The canonical encoding differs from the snapshot encoding by
    /// excluding state that is pure *observation* — it records what
    /// happened but never feeds back into behavior, so keeping it would
    /// only split states that are behaviorally one:
    ///
    /// * the trace (flag and records);
    /// * the event queue's dispatch/schedule/peak counters — pending
    ///   events are written in pop order, as in the snapshot, which
    ///   captures everything dispatch can see, including FIFO
    ///   tie-breaking, and timer handles as indices into that list;
    /// * per-channel throughput counters ([`ChannelStats`]);
    /// * the audit's absolute injected/delivered/dropped totals — their
    ///   *balance* (packets in the network) is behavioral and is hashed;
    ///   the recorded-violation list is reporting, not state;
    /// * injected model-checking outages that have fully expired (their
    ///   window can no longer cover or cut anything).
    ///
    /// The hash still covers the codec header, so a snapshot version bump
    /// automatically invalidates any persisted dedup set.
    pub fn state_hash(&self) -> u64 {
        let mut w = SnapWriter::hashing_with_header(Snapshot::MAGIC, Snapshot::VERSION);
        self.write_fingerprint(&mut w);
        let now = self.now();
        w.write_time(now);
        let mut index = self.write_pending_and_counters(&mut w);
        self.audit.write_canonical(&mut w);
        for ni in 0..self.nodes.len() {
            if self.hosts.is_host(ni) {
                self.save_host_row(ni, &mut w);
            }
        }
        for ci in 0..self.channels.len() {
            // The behavioral subset of `save_channel_row`: no throughput
            // counters, and only the live part of the mc overlay.
            self.save_channel_prefix(ci, &mut w);
            self.save_channel_suffix(ci, now, &mut w);
        }
        save_endpoint_rows(
            &mut w,
            std::slice::from_ref(self),
            |_| 0,
            std::slice::from_mut(&mut index),
        );
        w.finish_hash()
    }

    /// Apply a [`Snapshot`] onto this world, which must have been freshly
    /// built from the same `(config, seed)` pair as the world that was
    /// captured. The seed and component counts are cross-checked; queue,
    /// clock, RNG streams, channel and host occupancy, endpoint state,
    /// trace, and auditor are all replaced wholesale. After a successful
    /// restore, continuing the run is byte-identical (trace, report,
    /// golden hash) to the uninterrupted original.
    ///
    /// On error the world is left in an unspecified half-restored state
    /// and must be discarded; nothing outside `self` is touched. Note the
    /// watchdog's livelock progress window restarts at the restore point
    /// — the window's loop-local bookkeeping is intentionally not part of
    /// the world (a resumed run gets a fresh grace period, never a
    /// spurious verdict).
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapError> {
        let mut r = self.open_snapshot(snap.as_bytes(), Snapshot::MAGIC, Snapshot::VERSION)?;
        // The queue is replaced wholesale — it carries the clock and any
        // pending `LinkUp` wake-ups the builder already scheduled, so
        // nothing is double-scheduled.
        let now = r.read_time()?;
        let (dispatched, scheduled) = (r.read_u64()?, r.read_u64()?);
        let peak_len = r.read_u64()? as usize;
        let pending = read_pending(&mut r)?;
        let ids = self.rebuild_queue(now, dispatched, scheduled, peak_len, pending)?;
        let canonical = r.read_bool()?;
        if canonical != self.canonical {
            let rule = |c: bool| if c { "content-keyed" } else { "FIFO" };
            return Err(SnapError::Mismatch(format!(
                "snapshot was taken with {} ties, this world uses {} ties",
                rule(canonical),
                rule(self.canonical),
            )));
        }
        for ctr in &mut self.ep_packet_ctr {
            *ctr = r.read_u64()?;
        }
        // The tail reads this world's rows while filling its trace and
        // auditor: lift those two out for the duration.
        let mut ids = ids.into_iter().map(Some).collect();
        let (mut trace, mut audit) = (take(&mut self.trace), take(&mut self.audit));
        let tail = read_tail(
            &mut r,
            &mut trace,
            &mut audit,
            std::slice::from_mut(self),
            |_| 0,
            std::slice::from_mut(&mut ids),
        );
        (self.trace, self.audit) = (trace, audit);
        tail?;
        r.finish()?;
        meter::add(Counter::SnapshotsRestored, 1);
        Ok(())
    }

    /// Write what TDSN and `state_hash` both write after the clock and
    /// counters: the pending list, the tie rule and the packet-id
    /// counters. Returns the handle table the endpoint rows are written
    /// through: each pending event's queue id → its index in the list.
    fn write_pending_and_counters(&self, w: &mut SnapWriter) -> HashMap<EventId, u64> {
        let pending = self.pending_event_blobs();
        write_pending(w, pending.iter());
        w.write_bool(self.canonical);
        for &ctr in &self.ep_packet_ctr {
            w.write_u64(ctr);
        }
        (pending.iter().enumerate())
            .map(|(i, &(_, _, id, _))| (id, i as u64))
            .collect()
    }

    /// Write the structural fingerprint every snapshot of this world opens
    /// with — seed, then node, channel and endpoint counts — for
    /// [`World::open_snapshot`] to cross-check.
    pub(crate) fn write_fingerprint(&self, w: &mut SnapWriter) {
        w.write_u64(self.seed);
        w.write_u32(self.nodes.len() as u32);
        w.write_u32(self.channels.len() as u32);
        w.write_u32(self.endpoints.len() as u32);
    }

    /// A reader over snapshot `bytes` past their header and fingerprint,
    /// once both check out: a seed or component count other than this
    /// world's is [`SnapError::Mismatch`].
    pub(crate) fn open_snapshot<'a>(
        &self,
        bytes: &'a [u8],
        magic: &[u8; 4],
        version: u32,
    ) -> Result<SnapReader<'a>, SnapError> {
        let (r, seed, counts) = read_fingerprint(bytes, magic, version)?;
        if seed != self.seed {
            return Err(SnapError::Mismatch(format!(
                "snapshot was taken with seed {seed}, this world uses {}",
                self.seed
            )));
        }
        for (what, got, want) in [
            ("nodes", counts[0], self.nodes.len() as u32),
            ("channels", counts[1], self.channels.len() as u32),
            ("endpoints", counts[2], self.endpoints.len() as u32),
        ] {
            if got != want {
                return Err(SnapError::Mismatch(format!(
                    "snapshot has {got} {what}, this world has {want}"
                )));
            }
        }
        Ok(r)
    }

    /// The pending event set in pop order, each event encoded to bytes —
    /// the one list TDSN, TDSW and [`World::state_hash`] write. The queue
    /// id correlates entries with timer handles held by endpoints.
    pub(crate) fn pending_event_blobs(&self) -> Vec<PendingBlob> {
        self.queue
            .pending_entries()
            .into_iter()
            .map(|(at, key, id, ev)| {
                let mut w = SnapWriter::new();
                save_event(ev, &self.flight, &mut w);
                (at, key, id, w.into_bytes())
            })
            .collect()
    }

    /// Replace the event queue with `pending` (pop order), each `Arrival`'s
    /// packet stashed in an emptied flight arena and each event keyed as
    /// [`World::schedule_event`] would key it, the clock at `now` and the
    /// queue's counters as given (see [`EventQueue::from_pending`]).
    /// Returns the events' new ids, in list order.
    pub(crate) fn rebuild_queue(
        &mut self,
        now: SimTime,
        dispatched: u64,
        scheduled: u64,
        peak_len: usize,
        pending: Vec<LoadedEvent>,
    ) -> Result<Vec<EventId>, SnapError> {
        self.flight.clear();
        self.flight_free.clear();
        let keyed = (pending.into_iter()).map(|(at, mut ev, pkt)| {
            if let (Event::Arrival { flight, .. }, Some(pkt)) = (&mut ev, pkt) {
                *flight = self.stash(pkt);
            }
            (at, self.tie_key(&ev), ev)
        });
        let (queue, ids) = EventQueue::from_pending(now, dispatched, scheduled, peak_len, keyed)?;
        self.queue = queue;
        Ok(ids)
    }

    /// Serialize one host's receive-path state (processing flag + queue).
    fn save_host_row(&self, ni: usize, w: &mut SnapWriter) {
        w.write_bool(self.hosts.proc_busy(ni));
        Packet::save_queue(self.hosts.proc_queue(ni), w);
    }

    /// Restore one host's receive-path state.
    fn load_host_row(&mut self, ni: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let busy = r.read_bool()?;
        self.hosts.set_proc_busy(ni, busy);
        *self.hosts.proc_queue_mut(ni) = Packet::load_queue(r)?;
        Ok(())
    }

    /// The behavioural prefix of a channel row, which
    /// [`World::state_hash`] writes too: in-service slot, burst-loss phase
    /// and private RNG.
    fn save_channel_prefix(&self, ci: usize, w: &mut SnapWriter) {
        match self.channels.row(ci).in_service {
            Some((pkt, started)) => {
                w.write_bool(true);
                pkt.save_state(w);
                w.write_time(started);
            }
            None => w.write_bool(false),
        }
        w.write_bool(
            self.channels
                .fault(ci)
                .burst
                .as_ref()
                .is_some_and(|b| b.in_bad()),
        );
        w.write_rng(self.channels.rng(ci));
    }

    /// The rest of a channel row after its counters, which
    /// [`World::state_hash`] writes too: the discipline's own section, the
    /// injected outages still open after `since`, and the pending forced
    /// drops. The model-checking overlay is always empty outside mc runs,
    /// so ordinary snapshots pay two fixed-size fields per channel.
    fn save_channel_suffix(&self, ci: usize, since: SimTime, w: &mut SnapWriter) {
        let row = self.channels.row(ci);
        let mut dw = SnapWriter::new();
        row.discipline.save_state(&mut dw);
        w.write_section(dw);
        let inj = self.channels.injected_outages(ci);
        let open: Vec<&Outage> = inj.iter().filter(|o| o.up > since).collect();
        w.write_u64(open.len() as u64);
        for o in open {
            w.write_time(o.down);
            w.write_time(o.up);
        }
        w.write_u32(row.forced_drops);
    }

    /// Serialize one channel's mutable state: the prefix, the throughput
    /// counters, then the suffix with every injected outage — each window
    /// ends after time zero, restore refusing an empty one.
    fn save_channel_row(&self, ci: usize, w: &mut SnapWriter) {
        self.save_channel_prefix(ci, w);
        let stats = self.channels.row(ci).stats;
        w.write_dur(stats.busy);
        w.write_u64(stats.tx_packets);
        w.write_u64(stats.tx_bytes);
        w.write_u64(stats.drops);
        w.write_u64(stats.enqueued);
        self.save_channel_suffix(ci, SimTime::ZERO, w);
    }

    /// Restore one channel's mutable state. Refuses state the channel
    /// could never reach: more packets than its capacity (the snapshot's
    /// fingerprint does not cover capacities, so this is what catches a
    /// restore onto a world rebuilt with smaller buffers), or an injected
    /// outage window that is empty.
    fn load_channel_row(&mut self, ci: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let in_service = if r.read_bool()? {
            let pkt = Packet::load_state(r)?;
            let started = r.read_time()?;
            Some((pkt, started))
        } else {
            None
        };
        self.channels.row_mut(ci).in_service = in_service;
        let in_bad = r.read_bool()?;
        match &mut self.channels.fault_mut(ci).burst {
            Some(b) => b.set_in_bad(in_bad),
            None if in_bad => {
                return Err(SnapError::Mismatch(
                    "snapshot carries burst-loss state for a channel without a \
                     burst process"
                        .into(),
                ))
            }
            None => {}
        }
        *self.channels.rng_mut(ci) = r.read_rng()?;
        let row = self.channels.row_mut(ci);
        let stats = &mut row.stats;
        stats.busy = r.read_dur()?;
        stats.tx_packets = r.read_u64()?;
        stats.tx_bytes = r.read_u64()?;
        stats.drops = r.read_u64()?;
        stats.enqueued = r.read_u64()?;
        r.read_section(|r| row.discipline.load_state(r))?;
        if let Some(cap) = row.capacity {
            let held = row.discipline.len() as u64 + u64::from(row.in_service.is_some());
            if held > u64::from(cap) {
                return Err(SnapError::Mismatch(format!(
                    "snapshot holds {held} packets on channel {ci}, whose capacity is {cap}"
                )));
            }
        }
        let n_inj = r.read_len()?;
        let mut inj = Vec::with_capacity(n_inj);
        for _ in 0..n_inj {
            let down = r.read_time()?;
            let up = r.read_time()?;
            if down >= up {
                return Err(SnapError::Corrupt(format!(
                    "injected outage [{down:?}, {up:?}) on channel {ci} is empty"
                )));
            }
            inj.push(Outage { down, up });
        }
        *self.channels.injected_outages_mut(ci) = inj;
        self.channels.row_mut(ci).forced_drops = r.read_u32()?;
        Ok(())
    }

    /// Serialize one endpoint as a length-prefixed section.
    fn save_endpoint_row(&self, i: usize, w: &mut SnapWriter) {
        let mut ew = SnapWriter::new();
        if let Some(ep) = &self.endpoints[i] {
            ep.save_state(&mut ew);
        }
        w.write_section(ew);
    }

    /// Restore one endpoint from its length-prefixed section.
    fn load_endpoint_row(&mut self, i: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ep = &mut self.endpoints[i];
        r.read_section(|r| match ep {
            Some(ep) => ep.load_state(r),
            None => Ok(()),
        })
    }
}

/// Write the tail TDSN and TDSW share: trace, audit, then host, channel
/// and endpoint rows in global-id order. Each row comes from
/// `worlds[owner(node)]`, where `node` is the host, the channel's sender
/// or the endpoint's host; an endpoint's timer handles are written as
/// indices through `index[owner(node)]` (queue id → pending-list index).
pub(crate) fn write_tail(
    w: &mut SnapWriter,
    trace: &Trace,
    audit: &Audit,
    worlds: &[World],
    owner: impl Fn(NodeId) -> usize,
    index: &mut [HashMap<EventId, u64>],
) {
    w.write_bool(trace.is_enabled());
    let records = trace.records();
    w.write_u64(records.len() as u64);
    for rec in records {
        rec.save_state(w);
    }
    audit.save_state(w);
    let w0 = &worlds[0];
    // Per-host receive-path state (switches carry none).
    for ni in 0..w0.nodes.len() {
        if w0.hosts.is_host(ni) {
            worlds[owner(NodeId(ni as u32))].save_host_row(ni, w);
        }
    }
    for ci in 0..w0.channels.len() {
        worlds[owner(w0.channels.row(ci).src)].save_channel_row(ci, w);
    }
    save_endpoint_rows(w, worlds, owner, index);
}

/// Serialize every endpoint, one section each (empty for a detached
/// slot, which can only be observed if snapshot were called
/// mid-dispatch — the symmetric read keeps even that case consistent),
/// timer handles written through the owning world's `index` entry.
fn save_endpoint_rows(
    w: &mut SnapWriter,
    worlds: &[World],
    owner: impl Fn(NodeId) -> usize,
    index: &mut [HashMap<EventId, u64>],
) {
    for i in 0..worlds[0].endpoints.len() {
        let s = owner(worlds[0].ep_meta[i].host);
        with_table(&HANDLE_INDEX, &mut index[s], || {
            worlds[s].save_endpoint_row(i, w)
        });
    }
}

/// Read a tail written by [`write_tail`]: the trace and audit into
/// `trace` and `audit`, each row into `worlds[owner(node)]`, and an
/// endpoint's timer handles through `ids[owner(node)]` (pending-list
/// index → the event's id in that world's rebuilt queue).
pub(crate) fn read_tail(
    r: &mut SnapReader<'_>,
    trace: &mut Trace,
    audit: &mut Audit,
    worlds: &mut [World],
    owner: impl Fn(NodeId) -> usize,
    ids: &mut [Vec<Option<EventId>>],
) -> Result<(), SnapError> {
    let enabled = r.read_bool()?;
    let n_rec = r.read_len()?;
    let records = (0..n_rec).map(|_| TraceRecord::load_state(r));
    trace.set_records(records.collect::<Result<_, _>>()?);
    trace.set_enabled(enabled);
    audit.load_state(r, worlds[0].conn_id_bound())?;
    for ni in 0..worlds[0].nodes.len() {
        if worlds[0].hosts.is_host(ni) {
            worlds[owner(NodeId(ni as u32))].load_host_row(ni, r)?;
        }
    }
    for ci in 0..worlds[0].channels.len() {
        let s = owner(worlds[0].channels.row(ci).src);
        worlds[s].load_channel_row(ci, r)?;
    }
    for i in 0..worlds[0].endpoints.len() {
        let s = owner(worlds[0].ep_meta[i].host);
        with_table(&HANDLE_IDS, &mut ids[s], || {
            worlds[s].load_endpoint_row(i, r)
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DisciplineKind;
    use crate::fault::GilbertElliott;
    use crate::world::tests::{blaster_world, data_seen, direct_world, Acker, Blaster};

    /// Sends one data packet per timer tick; carries a live [`TimerHandle`]
    /// across snapshots, exercising the endpoint save/load hooks.
    struct Ticker {
        interval: SimDuration,
        remaining: u64,
        acks: u64,
        pending: Option<TimerHandle>,
    }

    impl Endpoint for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.pending = Some(ctx.set_timer(self.interval, 1));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.is_ack() {
                self.acks += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(token, 1);
            self.pending = None;
            if self.remaining == 0 {
                return;
            }
            ctx.send(PacketKind::Data, self.remaining, 500, false);
            self.remaining -= 1;
            if self.remaining > 0 {
                self.pending = Some(ctx.set_timer(self.interval, 1));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn save_state(&self, w: &mut SnapWriter) {
            w.write_u64(self.remaining);
            w.write_u64(self.acks);
            match &self.pending {
                Some(h) => {
                    w.write_bool(true);
                    h.save_state(w);
                }
                None => w.write_bool(false),
            }
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.remaining = r.read_u64()?;
            self.acks = r.read_u64()?;
            self.pending = if r.read_bool()? {
                Some(TimerHandle::load_state(r)?)
            } else {
                None
            };
            Ok(())
        }
    }

    /// A world exercising every snapshotted subsystem at once: RED's
    /// average-queue estimator and the shared RNG (early drops), a
    /// capacity-limited buffer (overflow drops), a Gilbert–Elliott burst
    /// process on the reverse channel (private fault RNG + Markov state),
    /// pending timers, and two endpoints' worth of protocol state.
    fn busy_world(seed: u64) -> World {
        let mut w = World::new(seed);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let _fwd = w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(5),
            DisciplineKind::Red.build(),
        );
        let rev = w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        w.set_fault_plan(
            rev,
            FaultPlan::with_burst(GilbertElliott::new(0.2, 0.5, 0.8).unwrap()),
        )
        .unwrap();
        let ticker = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Ticker {
                interval: SimDuration::from_millis(50),
                remaining: 30,
                acks: 0,
                pending: None,
            }),
        );
        let blaster = w.attach(
            h0,
            h1,
            ConnId(1),
            Box::new(Blaster {
                n: 30,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let ack0 = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        let ack1 = w.attach(h1, h0, ConnId(1), Box::new(Acker { data_seen: 0 }));
        for ep in [ticker, blaster, ack0, ack1] {
            w.start_at(ep, SimTime::ZERO);
        }
        w
    }

    const T_MID: SimTime = SimTime::from_secs(2);
    const T_END: SimTime = SimTime::from_secs(120);

    #[test]
    fn restored_run_is_identical_to_uninterrupted() {
        // Reference: run straight through.
        let mut a = busy_world(42);
        a.run_until(T_MID);
        let t_snap = a.now();
        let snap = a.snapshot();
        a.run_until(T_END);

        // Restore onto a freshly built world and continue.
        let mut b = busy_world(42);
        b.restore(&snap).unwrap();
        assert_eq!(b.now(), t_snap, "clock must resume at the capture point");
        b.run_until(T_END);

        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_dispatched(), b.events_dispatched());
        assert_eq!(a.trace().records(), b.trace().records(), "trace diverged");
        assert_eq!(a.audit().injected(), b.audit().injected());
        assert_eq!(a.audit().delivered(), b.audit().delivered());
        assert_eq!(a.audit().dropped(), b.audit().dropped());
        assert_eq!(a.audit().total_violations(), b.audit().total_violations());
        for ch in [ChannelId(0), ChannelId(1)] {
            let (sa, sb) = (a.channel_stats(ch), b.channel_stats(ch));
            assert_eq!(sa.tx_packets, sb.tx_packets);
            assert_eq!(sa.tx_bytes, sb.tx_bytes);
            assert_eq!(sa.drops, sb.drops);
            assert_eq!(sa.enqueued, sb.enqueued);
            assert_eq!(sa.busy, sb.busy);
        }
        // Final protocol state matches too.
        let ta = a.endpoint(EndpointId(0)).unwrap().as_any();
        let tb = b.endpoint(EndpointId(0)).unwrap().as_any();
        let (ta, tb) = (
            ta.downcast_ref::<Ticker>().unwrap(),
            tb.downcast_ref::<Ticker>().unwrap(),
        );
        assert_eq!(ta.acks, tb.acks);
        assert_eq!(ta.remaining, tb.remaining);
    }

    #[test]
    fn snapshot_of_restored_world_is_byte_identical() {
        let mut a = busy_world(9);
        a.run_until(T_MID);
        let snap = a.snapshot();
        let mut b = busy_world(9);
        b.restore(&snap).unwrap();
        assert_eq!(
            snap.as_bytes(),
            b.snapshot().as_bytes(),
            "restore must reproduce every captured field exactly"
        );
    }

    #[test]
    fn restored_twin_snapshots_like_the_original_after_running_on() {
        // Captured while the ticker's timer is armed; the twin's queue
        // reuses slots in another order from here on, yet every later
        // snapshot must still match byte for byte.
        let mut a = busy_world(11);
        a.run_until(SimTime::from_millis(700));
        let mut b = busy_world(11);
        b.restore(&a.snapshot()).unwrap();
        for t in [SimTime::from_millis(1_000), T_END] {
            a.run_until(t);
            b.run_until(t);
            assert_eq!(
                a.snapshot().as_bytes(),
                b.snapshot().as_bytes(),
                "twin diverged by {t:?}"
            );
            assert_eq!(a.state_hash(), b.state_hash());
        }
    }

    #[test]
    fn handle_index_without_a_pending_event_is_corrupt() {
        let mut a = busy_world(4);
        a.run_until(SimTime::from_millis(700));
        let ticker = (a.endpoint(EndpointId(0)).unwrap().as_any())
            .downcast_ref::<Ticker>()
            .unwrap();
        assert!(
            ticker.pending.is_some(),
            "the ticker must hold a live timer"
        );
        let mut bytes = a.snapshot().bytes;
        busy_world(4)
            .restore(&Snapshot::from_bytes(bytes.clone()).unwrap())
            .expect("the undamaged snapshot restores");
        // The ticker's row ends in its armed handle, `(index, 0)`; point
        // the index past the pending list.
        let row = [
            &ticker.remaining.to_le_bytes()[..],
            &ticker.acks.to_le_bytes(),
            &[1],
        ]
        .concat();
        let at = bytes.windows(row.len()).rposition(|w| w == row).unwrap() + row.len();
        bytes[at..at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        let err = busy_world(4)
            .restore(&Snapshot::from_bytes(bytes).unwrap())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn restore_rejects_mismatched_world() {
        let mut a = busy_world(1);
        a.run_until(T_MID);
        let snap = a.snapshot();
        // Wrong seed.
        let err = busy_world(2).restore(&snap).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "got {err:?}");
        // Wrong topology (extra host).
        let mut w = busy_world(1);
        w.add_host("extra", SimDuration::ZERO);
        let err = w.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "got {err:?}");
    }

    /// The fingerprint checks only the seed and component counts, so a
    /// twin rebuilt with smaller buffers passes it; the channel row must
    /// then refuse a backlog the twin's `offer` could never build.
    #[test]
    fn restore_rejects_a_backlog_over_the_twins_capacity() {
        let build = |capacity| {
            let (mut w, h0, h1, c01, _) = direct_world(
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                Some(capacity),
            );
            let src = w.attach(
                h0,
                h1,
                ConnId(0),
                Box::new(Blaster {
                    n: 7,
                    acks_seen: 0,
                    data_size: 500,
                }),
            );
            w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
            w.start_at(src, SimTime::ZERO);
            (w, c01)
        };
        let (mut a, c01) = build(8);
        a.run_until(SimTime::from_millis(1));
        let row = a.channels.row(c01.0 as usize);
        assert_eq!(
            row.discipline.len(),
            6,
            "six wait behind the one in service"
        );
        let snap = a.snapshot();
        build(8)
            .0
            .restore(&snap)
            .expect("a same-capacity twin restores");
        let err = build(4).0.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "got {err:?}");
    }

    #[test]
    fn snapshot_header_is_validated() {
        let mut a = busy_world(3);
        a.run_until(T_MID);
        let bytes = a.snapshot().bytes;
        assert!(matches!(
            Snapshot::from_bytes(b"XXXX0000rest".to_vec()),
            Err(SnapError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(wrong_version),
            Err(SnapError::UnsupportedVersion(99))
        ));
        // Version 3 wrote the queue's slab; its bytes are refused.
        let mut v3 = bytes.clone();
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(v3),
            Err(SnapError::UnsupportedVersion(3))
        ));
        // Truncation anywhere in the payload surfaces as an error, never
        // a half-restored world that silently diverges.
        let truncated = Snapshot::from_bytes(bytes[..bytes.len() / 2].to_vec()).unwrap();
        assert!(busy_world(3).restore(&truncated).is_err());
    }

    #[test]
    fn snapshot_files_roundtrip_atomically() {
        let dir = std::env::temp_dir().join(format!("td-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.tdsnap");
        let mut a = busy_world(7);
        a.run_until(T_MID);
        let snap = a.snapshot();
        snap.write_to_file(&path).unwrap();
        let back = Snapshot::read_from_file(&path).unwrap();
        assert_eq!(snap.as_bytes(), back.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_hash_is_trace_invariant_and_state_sensitive() {
        let (mut a, _, _) = blaster_world();
        let (mut b, _, _) = blaster_world();
        b.trace_mut().set_enabled(false);
        a.run_until(SimTime::from_millis(100));
        b.run_until(SimTime::from_millis(100));
        assert_ne!(
            a.snapshot().as_bytes(),
            b.snapshot().as_bytes(),
            "the snapshots must differ (one carries a trace)"
        );
        assert_eq!(
            a.state_hash(),
            b.state_hash(),
            "the hash must not see the trace"
        );
        let before = a.state_hash();
        a.run_until(SimTime::from_millis(200));
        assert_ne!(before, a.state_hash(), "advancing state must move the hash");
    }

    #[test]
    fn snapshot_v3_roundtrips_the_mc_overlay() {
        let (mut w, _, c01) = blaster_world();
        w.inject_outage(c01, SimTime::from_millis(85), SimTime::from_millis(300));
        w.force_drops(c01, 1);
        w.run_until(SimTime::from_millis(50));
        let snap = w.snapshot();
        let (mut twin, twin_snk, _) = blaster_world();
        twin.restore(&snap).unwrap();
        assert_eq!(twin.snapshot().as_bytes(), snap.as_bytes());
        assert_eq!(twin.state_hash(), w.state_hash());
        // The restored overlay keeps acting: continue both runs and the
        // futures agree byte for byte.
        w.run_to_completion();
        twin.run_to_completion();
        assert_eq!(w.trace().records(), twin.trace().records());
        // Forced drop (packet 1 at 80 ms) plus outage cuts leave only the
        // post-recovery packets.
        assert_eq!(data_seen(&twin, twin_snk), 3);
    }

    /// `inject_outage` refuses an empty window, and so does restore.
    #[test]
    fn restore_rejects_an_empty_injected_outage() {
        let (mut w, _, c01) = blaster_world();
        let (down, up) = (SimTime::from_millis(85), SimTime::from_millis(300));
        w.inject_outage(c01, down, up);
        let window = |a: SimTime, b: SimTime| {
            [a.as_nanos().to_le_bytes(), b.as_nanos().to_le_bytes()].concat()
        };
        let mut bytes = w.snapshot().as_bytes().to_vec();
        // The overlay writes the window as `down`, `up`: swap them.
        let at = (bytes.windows(16).rposition(|b| b == window(down, up)))
            .expect("the overlay holds the window");
        bytes[at..at + 16].copy_from_slice(&window(up, down));
        let err = blaster_world()
            .0
            .restore(&Snapshot::from_bytes(bytes).unwrap())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
    }
}
