//! The pending-event set: a two-tier queue over a generation-counted slab.
//!
//! Events live in a **slab**: scheduling claims a slot (reusing freed
//! ones), and the returned [`EventId`] is the pair `(slot, generation)`.
//! The pending set is ordered by `(time, key, seq)`, where `seq` is a
//! monotone counter assigned at scheduling time — so events scheduled for
//! the same instant (and key) fire in scheduling order. This total order is
//! what makes whole-simulation runs reproducible: there is never an
//! "arbitrary" choice left to hash-map iteration order or heap
//! tie-breaking, and it is byte-for-byte the order the engine's original
//! binary-heap queue produced (`tests/queue_differential.rs` locksteps the
//! two; the old queue lives on only as that test's reference module).
//!
//! Sim time is cut into fixed **epochs** of 2²¹ ns (≈ 2 ms), and the
//! pending set into two tiers by epoch alone:
//!
//! * The **near tier** is a 4-ary min-heap holding every event whose epoch
//!   is at or before `near_epoch`. Its entries carry `(at, key, seq, slot)`
//!   inline, so a sift compares and moves 32-byte cells of one dense array
//!   and never loads from the slab.
//! * The **parked tier** holds every later event, unsorted, in one bucket
//!   of slot indices per epoch: a ring of 2048 buckets (≈ 4.3 s) for the
//!   epochs just past `near_epoch`, an ordered map for the few beyond the
//!   ring's horizon. Parking is a `Vec::push`; cancelling a parked event
//!   is a `swap_remove`.
//!
//! One dense backlink array (`pos`, indexed by slot) records where in its
//! container — heap or bucket — each pending event sits; which container
//! follows from the event's epoch. A parked event enters the heap only
//! when the heap runs empty: the earliest non-empty bucket is promoted
//! whole and `near_epoch` jumps to its epoch. Every mutating operation
//! ends with that refill done, so *heap empty ⇒ nothing parked*, the heap
//! root is always the global minimum, and [`EventQueue::peek_time`] stays
//! `&self` and O(1). Because the tiers partition by time, which tier an
//! event waited in can never change the order it pops in.
//!
//! On a 100k-connection world ≈ 109 000 events are pending but only
//! ≈ 2 300 are due within the next few epochs; the rest are retransmit
//! timers and not-yet-started connections, nearly all cancelled or
//! re-armed before they come due. Those never touch the heap at all.
//! `near_epoch` moves only while the heap is empty, so the worst cases —
//! every pending event in one epoch, or a queue whose first event lies far
//! ahead of all that follow — degrade to a flat 4-ary heap with inline
//! keys until the clock passes `near_epoch`, never to a wrong order.
//!
//! Cancellation is **true removal** in both tiers: no tombstone is ever
//! stored, so `pop` never loops over corpses, `len` is exact, and there is
//! no hashing anywhere on the schedule/cancel/pop path. Liveness checks
//! ([`EventQueue::cancel`] re-cancel, [`EventQueue::has_fired`]) are a
//! **generation compare**: freeing a slot bumps its generation, so a stale
//! handle can never alias a reused slot (generations are `u64`; they do
//! not wrap in any feasible run).

use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::SimTime;
use std::collections::BTreeMap;

/// Snapshot marker in a vacant slot's `heap_pos` field.
const NOT_IN_HEAP: u32 = u32::MAX;

/// log₂ of the epoch width in nanoseconds: 2²¹ ns ≈ 2.1 ms.
const EPOCH_SHIFT: u32 = 21;

/// Buckets in the parked ring: epochs `near_epoch + 1 ..= near_epoch +
/// RING_LEN` (≈ 4.3 s of sim time, past a 3 s initial RTO) park in the
/// ring, later ones in the overflow map.
const RING_LEN: u64 = 2048;
const RING_WORDS: usize = RING_LEN as usize / 64;

/// Emptied bucket buffers kept for reuse. A bucket opens about as often as
/// one drains, so a handful is enough; without them a small world, whose
/// buckets hold one event each, pays the allocator once per event.
const SPARE_MAX: usize = 8;

#[inline]
fn epoch_of(at: SimTime) -> u64 {
    at.as_nanos() >> EPOCH_SHIFT
}

/// Opaque handle to a scheduled event, used to cancel it.
///
/// A handle is `(slot, generation)`: the slab slot the event occupies and
/// the generation of that occupancy. Slots are reused after an event
/// retires, but each reuse bumps the generation, so operations on a stale
/// handle are detected exactly and return `false` instead of touching the
/// wrong event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u64,
}

impl EventId {
    /// Decompose the handle into `(slot, generation)` for snapshotting.
    pub fn into_raw(self) -> (u32, u64) {
        (self.slot, self.gen)
    }

    /// Rebuild a handle from captured `(slot, generation)` parts. Only
    /// meaningful against a queue whose slab was restored from the same
    /// snapshot; against any other queue the handle is simply stale (the
    /// generation check makes misuse a no-op, never a wrong-event hit).
    pub fn from_raw(slot: u32, gen: u64) -> Self {
        EventId { slot, gen }
    }
}

/// One slab cell. `event == None` means vacant (on the free list, its
/// `gen` already bumped past every handle issued for it).
struct Slot<E> {
    /// Generation of the current (or next) occupant.
    gen: u64,
    /// Absolute due time of the current occupant.
    at: SimTime,
    /// Caller-supplied tie key, ordered before `seq` among same-time
    /// events. [`EventQueue::schedule_at`] always uses 0, preserving pure
    /// scheduling-order ties; [`EventQueue::schedule_keyed`] lets a caller
    /// impose a content-derived order that is independent of *when* the
    /// event was scheduled — the property sharded simulation needs.
    key: u64,
    /// Monotone schedule counter of the current occupant (tie-breaker).
    seq: u64,
    event: Option<E>,
}

/// One near-tier heap cell: the slot's sort key, copied out of the slab so
/// heap order can be restored without touching it.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    key: u64,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn order(&self) -> (SimTime, u64, u64) {
        (self.at, self.key, self.seq)
    }
}

/// A deterministic, cancellable discrete-event queue.
///
/// The queue also tracks the simulation clock: [`EventQueue::now`] is the
/// timestamp of the most recently popped event (initially [`SimTime::ZERO`]),
/// and scheduling into the past is a panic — causality violations are always
/// caller bugs.
///
/// Memory: the slab holds one cell per *concurrently pending* event (peak,
/// not total — retired slots are reused), plus four bytes of backlink and
/// either four bytes of bucket or one 32-byte heap cell per pending event.
/// An emptied bucket hands its buffer to the next bucket that opens (a
/// pool of at most eight) or back to the allocator; no ring cell
/// keeps capacity it is not using. Nothing grows with the number of events
/// ever scheduled.
pub struct EventQueue<E> {
    /// Near tier: every pending event with `epoch_of(at) <= near_epoch`,
    /// heap-ordered by `(at, key, seq)`.
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    /// Per slot: index of the pending event inside its container (`heap`,
    /// or the bucket of its epoch). Stale for vacant slots.
    pos: Vec<u32>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
    /// Every parked event's epoch is later than this.
    near_epoch: u64,
    /// Parked events of epoch `e`, `near_epoch < e <= near_epoch +
    /// RING_LEN`, sit in `ring[e % RING_LEN]`.
    ring: Vec<Vec<u32>>,
    /// Bit `i` set ⇔ `ring[i]` is non-empty.
    occupied: [u64; RING_WORDS],
    /// Parked events past the ring's horizon, by epoch. No bucket is empty.
    overflow: BTreeMap<u64, Vec<u32>>,
    /// Events in `ring` and `overflow` together.
    parked: usize,
    /// Emptied bucket buffers awaiting reuse.
    spare: Vec<Vec<u32>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Largest live length ever observed (post-schedule).
    peak_len: usize,
    /// Schedules not yet folded into the thread's [`crate::meter`];
    /// flushed once per pop (and on drop) instead of per call.
    unflushed_sched: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        // Flush schedules that never saw a pop (drained-by-drop queues,
        // runs truncated by a time bound) so the thread's meter stays exact.
        crate::meter::flush(self.unflushed_sched, 0, self.peak_len);
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with slab and heap capacity for `n` concurrently
    /// pending events (e.g. a peak depth observed by
    /// [`crate::meter`] on a previous comparable run).
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            pos: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            near_epoch: 0,
            ring: std::iter::repeat_with(Vec::new)
                .take(RING_LEN as usize)
                .collect(),
            occupied: [0; RING_WORDS],
            overflow: BTreeMap::new(),
            parked: 0,
            spare: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak_len: 0,
            unflushed_sched: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped (dispatched) so far. Handy as a progress /
    /// runaway-simulation guard.
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Number of events ever scheduled into this queue.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of live pending events ever held at once — the
    /// working-set size a capacity planner would care about.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of live pending events, both tiers. Exact: cancelled events
    /// leave the queue immediately.
    pub fn len(&self) -> usize {
        self.heap.len() + self.parked
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        // An empty heap means an empty parked tier.
        self.heap.is_empty()
    }

    // -- near tier ----------------------------------------------------------

    #[inline]
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        self.heap[pos] = entry;
        self.pos[entry.slot as usize] = pos as u32;
    }

    /// Move the entry at `pos` rootward while it sorts before its parent.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 4;
            let p = self.heap[parent];
            if entry.order() >= p.order() {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, entry);
    }

    /// Move the entry at `pos` leafward while some child sorts before it;
    /// returns where it came to rest.
    fn sift_down(&mut self, mut pos: usize) -> usize {
        let entry = self.heap[pos];
        let key = entry.order();
        loop {
            let first = pos * 4 + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + 4).min(self.heap.len());
            let mut best = first;
            let mut best_key = self.heap[first].order();
            for c in first + 1..last {
                let k = self.heap[c].order();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if best_key >= key {
                break;
            }
            let b = self.heap[best];
            self.place(pos, b);
            pos = best;
        }
        self.place(pos, entry);
        pos
    }

    /// Detach the heap entry at `pos`, restore heap order, and refill the
    /// heap from the parked tier if that emptied it. The caller still owns
    /// the slot's contents.
    fn remove_heap_entry(&mut self, pos: usize) {
        let moved = self.heap.pop().expect("removing from an empty heap");
        if pos < self.heap.len() {
            self.heap[pos] = moved;
            // The replacement came from a leaf: it moves down, or — when
            // the removed entry sat outside its parent chain — up, never both.
            if self.sift_down(pos) == pos {
                self.sift_up(pos);
            }
        } else if self.heap.is_empty() && self.parked > 0 {
            self.refill();
        }
    }

    // -- parked tier --------------------------------------------------------

    /// Ring index of a parked epoch, or `None` if it lies past the horizon.
    #[inline]
    fn ring_index(&self, epoch: u64) -> Option<usize> {
        debug_assert!(epoch > self.near_epoch);
        (epoch - self.near_epoch <= RING_LEN).then_some((epoch % RING_LEN) as usize)
    }

    /// Append `slot` to the bucket of `epoch` (which is past `near_epoch`).
    fn park(&mut self, epoch: u64, slot: u32) {
        let bucket = match self.ring_index(epoch) {
            Some(i) => {
                self.occupied[i / 64] |= 1 << (i % 64);
                &mut self.ring[i]
            }
            None => self.overflow.entry(epoch).or_default(),
        };
        if bucket.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *bucket = spare;
            }
        }
        self.pos[slot as usize] = bucket.len() as u32;
        bucket.push(slot);
        self.parked += 1;
    }

    /// Empty ring cell `i`, handing its bucket to the caller.
    fn take_ring_bucket(&mut self, i: usize) -> Vec<u32> {
        self.occupied[i / 64] &= !(1 << (i % 64));
        std::mem::take(&mut self.ring[i])
    }

    /// Keep an emptied bucket's buffer for the next bucket to open, up to
    /// [`SPARE_MAX`] of them.
    fn recycle(&mut self, mut buffer: Vec<u32>) {
        if self.spare.len() < SPARE_MAX {
            buffer.clear();
            self.spare.push(buffer);
        }
    }

    /// Remove `slot` from the bucket of `epoch` by swap-remove. A bucket
    /// that empties gives up its buffer rather than keep its high-water
    /// capacity in a ring cell that may not be used again for seconds.
    fn unpark(&mut self, epoch: u64, slot: u32) {
        let at = self.pos[slot as usize] as usize;
        let ring_index = self.ring_index(epoch);
        let bucket = match ring_index {
            Some(i) => &mut self.ring[i],
            None => self
                .overflow
                .get_mut(&epoch)
                .expect("parked event's overflow bucket exists"),
        };
        debug_assert_eq!(bucket[at], slot);
        bucket.swap_remove(at);
        if let Some(&moved) = bucket.get(at) {
            self.pos[moved as usize] = at as u32;
        }
        if bucket.is_empty() {
            let buffer = match ring_index {
                Some(i) => self.take_ring_bucket(i),
                None => self.overflow.remove(&epoch).expect("bucket was just used"),
            };
            self.recycle(buffer);
        }
        self.parked -= 1;
    }

    /// Epoch of the earliest non-empty ring bucket.
    fn next_ring_epoch(&self) -> Option<u64> {
        // Ring indices in epoch order start just past `near_epoch` and wrap.
        let start = ((self.near_epoch + 1) % RING_LEN) as usize;
        let (w0, b0) = (start / 64, start % 64);
        // The start word is visited twice: first its bits from `b0` up,
        // last (all of those being clear by then) the ones below.
        (0..=RING_WORDS).find_map(|k| {
            let w = (w0 + k) % RING_WORDS;
            let bits = match k {
                0 => self.occupied[w] & (!0 << b0),
                _ => self.occupied[w],
            };
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (i + RING_LEN as usize - start) % RING_LEN as usize;
                self.near_epoch + 1 + ahead as u64
            })
        })
    }

    /// The heap ran empty with events still parked: promote the earliest
    /// non-empty bucket whole and move `near_epoch` to its epoch.
    fn refill(&mut self) {
        debug_assert!(self.heap.is_empty() && self.parked > 0);
        // Overflow epochs all lie past the ring's, so the map is consulted
        // only when the ring is empty.
        let bucket = match self.next_ring_epoch() {
            Some(epoch) => {
                self.near_epoch = epoch;
                self.take_ring_bucket((epoch % RING_LEN) as usize)
            }
            None => {
                let (epoch, bucket) = self
                    .overflow
                    .pop_first()
                    .expect("parked events are in the ring or the overflow map");
                self.near_epoch = epoch;
                bucket
            }
        };
        // The horizon moved with `near_epoch`: overflow buckets it now
        // covers take their ring cells, vacant since the epochs that last
        // used them are at or behind `near_epoch`.
        while let Some(first) = self.overflow.first_entry() {
            if *first.key() > self.near_epoch + RING_LEN {
                break;
            }
            let i = (*first.key() % RING_LEN) as usize;
            debug_assert!(self.ring[i].is_empty());
            self.ring[i] = first.remove();
            self.occupied[i / 64] |= 1 << (i % 64);
        }
        self.parked -= bucket.len();
        for &slot in &bucket {
            self.pos[slot as usize] = self.heap.len() as u32;
            self.heap.push(self.heap_entry(slot));
        }
        self.recycle(bucket);
        // Floyd's bottom-up build: O(bucket), every backlink kept current.
        for pos in (0..self.heap.len().div_ceil(4)).rev() {
            self.sift_down(pos);
        }
    }

    // -- slab ---------------------------------------------------------------

    #[inline]
    fn heap_entry(&self, slot: u32) -> HeapEntry {
        let s = &self.slots[slot as usize];
        HeapEntry {
            at: s.at,
            key: s.key,
            seq: s.seq,
            slot,
        }
    }

    /// Enter an occupied slot, by its heap entry, into the tier its epoch
    /// belongs to.
    fn insert(&mut self, entry: HeapEntry) {
        let epoch = epoch_of(entry.at);
        if self.heap.is_empty() {
            // Nothing is pending, so any epoch may become the near one;
            // taking this event's keeps "heap empty ⇒ nothing parked".
            self.near_epoch = epoch;
        }
        if epoch <= self.near_epoch {
            let pos = self.heap.len();
            self.heap.push(entry);
            self.sift_up(pos);
        } else {
            self.park(epoch, entry.slot);
        }
    }

    /// Return `slot` to the free list, bumping its generation so every
    /// outstanding handle to the old occupant goes stale.
    fn retire(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.gen += 1;
        let ev = s.event.take().expect("retiring a vacant slot");
        self.free.push(slot);
        ev
    }

    /// `(at, key, seq, slot)` of every pending event, in pop order. Read
    /// off the slab, so the answer does not depend on which tier an event
    /// is waiting in.
    fn pending_order(&self) -> Vec<(SimTime, u64, u64, u32)> {
        let mut order: Vec<_> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.event.is_some())
            .map(|(slot, s)| (s.at, s.key, s.seq, slot as u32))
            .collect();
        // `seq` is unique, so the slot never takes part in a comparison.
        order.sort_unstable();
        order
    }

    // -- public operations --------------------------------------------------

    /// Schedule `event` to fire at absolute time `at`. Same-time events
    /// fire in scheduling order (tie key 0 for every event on this path,
    /// byte-for-byte the order the pre-key queue produced).
    ///
    /// # Panics
    /// Panics if `at` is before [`EventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_keyed(at, 0, event)
    }

    /// Schedule `event` to fire at absolute time `at` with an explicit
    /// tie `key`: same-time events order by `(key, scheduling order)`.
    /// A caller that derives keys from event *content* (and keeps them
    /// unique among simultaneous events) gets a dispatch order that no
    /// longer depends on scheduling interleaving — which is what lets a
    /// sharded simulation reproduce one canonical order for any shard
    /// count.
    ///
    /// # Panics
    /// Panics if `at` is before [`EventQueue::now`].
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.at = at;
                s.key = key;
                s.seq = seq;
                s.event = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                assert!(slot != u32::MAX, "event slab full");
                self.slots.push(Slot {
                    gen: 0,
                    at,
                    key,
                    seq,
                    event: Some(event),
                });
                self.pos.push(NOT_IN_HEAP);
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.insert(HeapEntry { at, key, seq, slot });
        self.peak_len = self.peak_len.max(self.len());
        self.unflushed_sched += 1;
        EventId { slot, gen }
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now guaranteed not to fire), `false` if it had
    /// already fired, been cancelled, or was never scheduled.
    ///
    /// True removal: the event leaves its tier immediately (an O(log n)
    /// sift in the heap, an O(1) swap-remove when parked), its slot is
    /// reusable at once, and no residue survives to be skipped by later
    /// pops.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.event.is_some() => {
                let epoch = epoch_of(s.at);
                if epoch <= self.near_epoch {
                    self.remove_heap_entry(self.pos[id.slot as usize] as usize);
                } else {
                    self.unpark(epoch, id.slot);
                }
                self.retire(id.slot);
                true
            }
            _ => false,
        }
    }

    /// True if the id refers to an event that has retired — fired, or been
    /// cancelled. (Mirrors the pre-slab queue, whose fired-set also
    /// absorbed cancelled entries once discarded; here the state is exact
    /// and immediate: a slot generation beyond the handle's.)
    pub fn has_fired(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| id.gen < s.gen)
    }

    /// Remove and return the earliest live event, advancing the clock.
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &HeapEntry { at, slot, .. } = self.heap.first()?;
        debug_assert!(at >= self.now, "heap produced an event in the past");
        self.remove_heap_entry(0);
        let event = self.retire(slot);
        self.now = at;
        self.popped += 1;
        crate::meter::flush(self.unflushed_sched, 1, self.peak_len);
        self.unflushed_sched = 0;
        Some((at, event))
    }

    /// Remove and return the earliest live event if it is due at or before
    /// `bound`. One call replaces the `peek_time` + `pop` pair in
    /// time-bounded run loops.
    pub fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > bound {
            return None;
        }
        self.pop()
    }

    /// Remove and return the earliest live event if it is due strictly
    /// before `bound` — [`EventQueue::pop_at_or_before`] for a run loop
    /// whose horizon is exclusive.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= bound {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next live event without popping it. O(1) and
    /// `&self`: cancelled events are removed eagerly and the heap is
    /// refilled whenever it empties, so its root is always the live
    /// minimum of both tiers.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Advance the clock to `t` without popping anything — a bounded run
    /// ends "at" its bound even when the last event fired earlier, and a
    /// sharded run must leave every shard's clock at the same instant.
    ///
    /// # Panics
    /// Panics if `t` is before [`EventQueue::now`] (the clock never
    /// rewinds).
    pub fn advance_clock(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot rewind the clock: t={t:?} now={:?}",
            self.now
        );
        self.now = t;
    }

    /// Remove *every* pending event, returning them as
    /// `(at, key, event)` sorted by `(at, key, seq)` — the exact order
    /// they would have popped in. The clock, dispatch count, and schedule
    /// count are untouched; every slot goes back on the free list with its
    /// generation bumped, as if each event had been cancelled in that
    /// order.
    ///
    /// This is the shard-construction primitive: a shard builds the full
    /// world (so ids line up globally), then drains the queue and
    /// re-schedules only the events it owns.
    pub fn drain_pending(&mut self) -> Vec<(SimTime, u64, E)> {
        let order = self.pending_order();
        self.heap.clear();
        self.ring.fill_with(Vec::new);
        self.occupied = [0; RING_WORDS];
        self.overflow.clear();
        self.parked = 0;
        order
            .into_iter()
            .map(|(at, key, _, slot)| (at, key, self.retire(slot)))
            .collect()
    }

    /// Borrow every pending event as `(at, key, &event)`, sorted by
    /// `(at, key, seq)` — pop order. Non-destructive; used to serialize a
    /// canonical (shard-count-independent) picture of the pending set.
    pub fn pending(&self) -> Vec<(SimTime, u64, &E)> {
        self.pending_entries()
            .into_iter()
            .map(|(at, key, _, e)| (at, key, e))
            .collect()
    }

    /// Like [`EventQueue::pending`], but also yields each event's live
    /// [`EventId`] so callers can correlate pending entries with handles
    /// held elsewhere (e.g. endpoint timer handles during a canonical
    /// snapshot).
    pub fn pending_entries(&self) -> Vec<(SimTime, u64, EventId, &E)> {
        self.pending_order()
            .into_iter()
            .map(|(at, key, _, slot)| {
                let s = &self.slots[slot as usize];
                let ev = s.event.as_ref().expect("pending slot is occupied");
                (at, key, EventId::from_raw(slot, s.gen), ev)
            })
            .collect()
    }

    /// Serialize the queue's complete state — slab (including vacant
    /// slots and their generations), pending order, free list, clock, and
    /// counters — encoding each pending event with `enc`.
    ///
    /// The slab is captured **cell for cell**, not just the live events:
    /// external holders keep [`EventId`] handles into specific slots, and
    /// those handles only stay valid (and stale handles only stay stale)
    /// if slot indices and generations survive the round trip exactly.
    ///
    /// The "heap" section lists the pending slots in pop order, and each
    /// slot's `heap_pos` is its rank in that list. A sorted array is a
    /// valid 4-ary heap, so the layout is the one the flat-heap queue
    /// wrote — but the bytes are a function of the pending set and the
    /// slab alone, not of which tier anything happened to be waiting in.
    pub fn save_state(&self, w: &mut SnapWriter, mut enc: impl FnMut(&E, &mut SnapWriter)) {
        let order = self.pending_order();
        let mut rank = vec![NOT_IN_HEAP; self.slots.len()];
        for (r, &(.., slot)) in order.iter().enumerate() {
            rank[slot as usize] = r as u32;
        }
        w.write_u64(self.next_seq);
        w.write_time(self.now);
        w.write_u64(self.popped);
        w.write_u64(self.peak_len as u64);
        w.write_u64(self.slots.len() as u64);
        for (s, &heap_pos) in self.slots.iter().zip(&rank) {
            w.write_u64(s.gen);
            w.write_u32(heap_pos);
            w.write_time(s.at);
            w.write_u64(s.key);
            w.write_u64(s.seq);
            match &s.event {
                Some(e) => {
                    w.write_bool(true);
                    enc(e, w);
                }
                None => w.write_bool(false),
            }
        }
        w.write_u64(order.len() as u64);
        for &(.., slot) in &order {
            w.write_u32(slot);
        }
        w.write_u64(self.free.len() as u64);
        for &slot in &self.free {
            w.write_u32(slot);
        }
    }

    /// Rebuild a queue from [`EventQueue::save_state`] bytes, decoding
    /// each pending event with `dec`. Slab/heap cross-links are verified,
    /// so a corrupt snapshot fails here instead of panicking mid-run.
    ///
    /// The heap section need only list each pending slot once, at the
    /// position its `heap_pos` names: the slots are re-entered into the
    /// tiers one by one, so a snapshot written by the flat-heap queue
    /// (heap-ordered, not sorted) loads and pops in the right order too.
    ///
    /// The rebuilt queue starts with a zero meter debt
    /// (`unflushed_sched`): its events were already counted by the queue
    /// that originally scheduled them.
    pub fn load_state(
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> Result<E, SnapError>,
    ) -> Result<Self, SnapError> {
        let next_seq = r.read_u64()?;
        let now = r.read_time()?;
        let popped = r.read_u64()?;
        let peak_len = r.read_u64()? as usize;
        let n_slots = r.read_len()?;
        let mut slots = Vec::with_capacity(n_slots);
        let mut pos = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let gen = r.read_u64()?;
            pos.push(r.read_u32()?);
            let at = r.read_time()?;
            let key = r.read_u64()?;
            let seq = r.read_u64()?;
            let event = if r.read_bool()? { Some(dec(r)?) } else { None };
            slots.push(Slot {
                gen,
                at,
                key,
                seq,
                event,
            });
        }
        let n_heap = r.read_u64()? as usize;
        if n_heap > n_slots {
            return Err(SnapError::Corrupt("heap larger than slab".into()));
        }
        let mut order = Vec::with_capacity(n_heap);
        for _ in 0..n_heap {
            order.push(r.read_u32()?);
        }
        let n_free = r.read_u64()? as usize;
        if n_heap + n_free != n_slots {
            return Err(SnapError::Corrupt("slab accounting broken".into()));
        }
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(r.read_u32()?);
        }
        // Verify cross-links: every heap entry points at an occupied slot
        // that points back; every free entry at a vacant, detached slot.
        for (at, &slot) in order.iter().enumerate() {
            let s = slots
                .get(slot as usize)
                .ok_or_else(|| SnapError::Corrupt("heap entry out of slab".into()))?;
            if pos[slot as usize] as usize != at || s.event.is_none() {
                return Err(SnapError::Corrupt("heap/slab backlink broken".into()));
            }
        }
        for &slot in &free {
            let s = slots
                .get(slot as usize)
                .ok_or_else(|| SnapError::Corrupt("free entry out of slab".into()))?;
            if pos[slot as usize] != NOT_IN_HEAP || s.event.is_some() {
                return Err(SnapError::Corrupt("free list points at live slot".into()));
            }
        }
        let mut q = Self::new();
        q.slots = slots;
        q.pos = pos;
        q.free = free;
        q.next_seq = next_seq;
        q.now = now;
        q.popped = popped;
        q.peak_len = peak_len;
        for slot in order {
            q.insert(q.heap_entry(slot));
        }
        Ok(q)
    }

    /// Two-tier invariant check, for tests: heap order, the tier boundary
    /// at `near_epoch`, the ring horizon, every backlink mutual, and the
    /// slab fully accounted for.
    #[cfg(test)]
    fn assert_invariants(&self) {
        assert_eq!(
            self.heap.len() + self.parked + self.free.len(),
            self.slots.len(),
            "slab accounting broken"
        );
        assert_eq!(self.pos.len(), self.slots.len());
        assert!(
            !self.heap.is_empty() || self.parked == 0,
            "events parked behind an empty heap"
        );
        for (pos, e) in self.heap.iter().enumerate() {
            let s = &self.slots[e.slot as usize];
            assert_eq!(self.pos[e.slot as usize] as usize, pos, "backlink broken");
            assert!(s.event.is_some(), "vacant slot in heap");
            assert_eq!(e.order(), (s.at, s.key, s.seq), "inline key out of date");
            assert!(epoch_of(e.at) <= self.near_epoch, "far event in the heap");
            if pos > 0 {
                assert!(
                    self.heap[(pos - 1) / 4].order() <= e.order(),
                    "heap order broken"
                );
            }
        }
        let buckets = (self.ring.iter().enumerate())
            .map(|(i, b)| {
                let occupied = self.occupied[i / 64] & (1 << (i % 64)) != 0;
                assert_eq!(occupied, !b.is_empty(), "occupancy bit out of date");
                let ahead = (i as u64 + RING_LEN - (self.near_epoch + 1) % RING_LEN) % RING_LEN;
                (self.near_epoch + 1 + ahead, b)
            })
            .chain(self.overflow.iter().map(|(&epoch, b)| {
                assert!(!b.is_empty(), "empty overflow bucket");
                assert!(
                    epoch > self.near_epoch + RING_LEN,
                    "overflow bucket inside the ring's horizon"
                );
                (epoch, b)
            }));
        let mut parked = 0;
        for (epoch, bucket) in buckets {
            for (at, &slot) in bucket.iter().enumerate() {
                let s = &self.slots[slot as usize];
                assert!(s.event.is_some(), "vacant slot parked");
                assert_eq!(epoch_of(s.at), epoch, "event in the wrong bucket");
                assert_eq!(self.pos[slot as usize] as usize, at, "backlink broken");
            }
            parked += bucket.len();
        }
        assert_eq!(parked, self.parked, "parked count out of date");
        for &slot in &self.free {
            assert!(self.slots[slot as usize].event.is_none());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_ties_order_by_key_then_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Scrambled insertion order; keys impose the canonical order.
        q.schedule_keyed(t, 3, "k3");
        q.schedule_keyed(t, 1, "k1b");
        q.schedule_keyed(t, 0, "k0");
        q.schedule_keyed(t, 1, "k1a");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Same key falls back to insertion order (seq).
        assert_eq!(order, vec!["k0", "k1b", "k1a", "k3"]);
    }

    #[test]
    fn keyed_events_sort_before_later_times_regardless_of_key() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_secs(2), 0, "later");
        q.schedule_keyed(SimTime::from_secs(1), u64::MAX, "earlier");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["earlier", "later"]);
    }

    #[test]
    fn drain_pending_returns_pop_order_and_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop(); // advance the clock so `now` is nonzero
        q.schedule_keyed(SimTime::from_secs(30), 2, "d");
        q.schedule_keyed(SimTime::from_secs(20), 5, "b");
        q.schedule_keyed(SimTime::from_secs(20), 5, "c"); // same (t, key): seq breaks tie
        q.schedule_keyed(SimTime::from_secs(20), 1, "a");
        let drained = q.drain_pending();
        assert_eq!(
            drained,
            vec![
                (SimTime::from_secs(20), 1, "a"),
                (SimTime::from_secs(20), 5, "b"),
                (SimTime::from_secs(20), 5, "c"),
                (SimTime::from_secs(30), 2, "d"),
            ]
        );
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(
            q.now(),
            SimTime::from_secs(10),
            "drain must not move the clock"
        );
        // The slab is reusable after a drain.
        q.schedule_at(SimTime::from_secs(40), "again");
        assert_eq!(q.pop(), Some((SimTime::from_secs(40), "again")));
    }

    #[test]
    fn drain_pending_staleness_matches_cancel() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), "x");
        q.drain_pending();
        assert!(!q.cancel(id), "drained handle must be stale");
        // Draining retires the slot, so the handle reports retired —
        // identical to what `cancel` would have left behind.
        assert!(q.has_fired(id));
        // Reusing the slot must not resurrect the old handle.
        let id2 = q.schedule_at(SimTime::from_secs(2), "y");
        assert_eq!(id.slot, id2.slot, "slot not reused — test premise broken");
        assert!(!q.cancel(id));
        assert!(q.cancel(id2));
    }

    #[test]
    fn pending_is_nondestructive_and_sorted() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_secs(2), 7, "b");
        q.schedule_keyed(SimTime::from_secs(1), 9, "a");
        let view: Vec<_> = q
            .pending()
            .into_iter()
            .map(|(t, k, e)| (t, k, *e))
            .collect();
        assert_eq!(
            view,
            vec![
                (SimTime::from_secs(1), 9, "a"),
                (SimTime::from_secs(2), 7, "b"),
            ]
        );
        assert_eq!(q.len(), 2, "pending() must not consume events");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
    }

    #[test]
    fn advance_clock_moves_now_forward() {
        let mut q = EventQueue::<()>::new();
        q.advance_clock(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        // Idempotent at the same time.
        q.advance_clock(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn advance_clock_rejects_rewind() {
        let mut q = EventQueue::<()>::new();
        q.advance_clock(SimTime::from_secs(5));
        q.advance_clock(SimTime::from_secs(4));
    }

    #[test]
    fn keyed_snapshot_roundtrip_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_secs(1), 5, 50u32);
        q.schedule_keyed(SimTime::from_secs(1), 2, 20u32);
        q.schedule_at(SimTime::from_secs(1), 99u32);
        let mut w = crate::snap::SnapWriter::new();
        q.save_state(&mut w, |e, w| w.write_u32(*e));
        let bytes = w.into_bytes();
        let mut restored: EventQueue<u32> =
            EventQueue::load_state(&mut crate::snap::SnapReader::new(&bytes), |r| r.read_u32())
                .unwrap();
        let order: Vec<_> = std::iter::from_fn(|| restored.pop())
            .map(|(_, e)| e)
            .collect();
        assert_eq!(order, vec![99, 20, 50]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(12));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), "dead");
        q.schedule_at(SimTime::from_secs(2), "alive");
        assert!(q.cancel(id));
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, "alive");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        assert!(!q.cancel(id));
        assert!(q.has_fired(id));
    }

    #[test]
    fn cancel_twice_returns_false() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_secs(1), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q = EventQueue::<()>::new();
        assert!(!q.cancel(EventId { slot: 999, gen: 0 }));
        assert!(!q.has_fired(EventId { slot: 999, gen: 0 }));
    }

    #[test]
    fn stale_handle_cannot_touch_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.pop();
        // The slot is reused for a new occupant at a later generation.
        let b = q.schedule_at(SimTime::from_secs(2), "b");
        assert_eq!(a.slot, b.slot, "slot not reused — test premise broken");
        assert!(q.has_fired(a));
        assert!(!q.has_fired(b));
        assert!(!q.cancel(a), "stale handle cancelled a reused slot");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn len_is_exact_under_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_is_immutable_and_skips_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        q.cancel(a);
        // `&self` peek: cancelled events are already gone from the heap.
        let q_ref: &EventQueue<()> = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn pop_at_or_before_respects_bound() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(3), "b");
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "a"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(2)), None);
        // Bound exactly on the event time: it fires.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(3)),
            Some((SimTime::from_secs(3), "b"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(100)), None);
    }

    #[test]
    fn dispatched_counts_pops() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule_at(SimTime::from_secs(i + 1), ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.dispatched(), 5);
    }

    #[test]
    fn slab_memory_is_bounded_by_peak_not_total() {
        let mut q = EventQueue::new();
        // 10_000 events scheduled over time, never more than 2 pending.
        for i in 0..10_000u64 {
            q.schedule_at(SimTime::from_secs(i + 1), ());
            q.schedule_at(SimTime::from_secs(i + 1), ());
            q.pop();
            q.pop();
        }
        assert_eq!(q.scheduled(), 20_000);
        assert!(
            q.slots.len() <= 2,
            "slab grew to {} slots for a working set of 2",
            q.slots.len()
        );
    }

    /// Audit of true cancellation (no residue by construction): a long
    /// interleaving of schedules, cancels of live / fired / stale /
    /// never-scheduled ids, double-cancels, and pops must keep the slab
    /// and heap mutually consistent at every step and leave the slab
    /// fully free once drained. The invariant check also verifies heap
    /// order and slot↔heap backlinks, so any sift bug surfaces here.
    #[test]
    fn cancel_heavy_run_leaves_no_residue() {
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0xCA9CE1);
        let mut live_ids: Vec<(EventId, u64)> = Vec::new();
        let mut fired_ids: Vec<EventId> = Vec::new();
        for step in 0..50_000u64 {
            match rng.next_below(10) {
                // Schedule at a jittered future instant (ties included).
                0..=3 => {
                    let at = q.now() + SimDuration::from_nanos(rng.next_below(50));
                    live_ids.push((q.schedule_at(at, step), step));
                }
                // Cancel something still (probably) pending.
                4..=6 if !live_ids.is_empty() => {
                    let k = rng.next_below(live_ids.len() as u64) as usize;
                    let (id, _) = live_ids.swap_remove(k);
                    q.cancel(id);
                    // Double-cancel must refuse and must not re-insert.
                    assert!(!q.cancel(id), "double cancel accepted");
                }
                // Cancel an id that already fired: must be a no-op.
                7 if !fired_ids.is_empty() => {
                    let k = rng.next_below(fired_ids.len() as u64) as usize;
                    assert!(!q.cancel(fired_ids[k]), "cancel of fired id accepted");
                    assert!(q.has_fired(fired_ids[k]));
                }
                // Cancel an id that was never scheduled: must be a no-op.
                8 => {
                    let bogus = EventId {
                        slot: u32::MAX - 1,
                        gen: step,
                    };
                    assert!(!q.cancel(bogus));
                }
                _ => {
                    if let Some((_, e)) = q.pop() {
                        if let Some(k) = live_ids.iter().position(|&(_, tag)| tag == e) {
                            fired_ids.push(live_ids.swap_remove(k).0);
                        }
                    }
                }
            }
            if step % 1024 == 0 {
                q.assert_invariants();
            }
            assert_eq!(q.len(), live_ids.len(), "len diverged at step {step}");
        }
        while q.pop().is_some() {}
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
        q.assert_invariants();
        assert_eq!(
            q.free.len(),
            q.slots.len(),
            "drained queue left occupied slots"
        );
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_secs(i + 1), i);
        }
        assert_eq!(q.peak_len(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.peak_len(), 10, "peak survives draining");
        assert_eq!(q.scheduled(), 10);
        // Cancelled entries do not count toward the live peak.
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), 0);
        q.cancel(a);
        q.schedule_at(SimTime::from_secs(2), 1);
        assert_eq!(q.peak_len(), 1);
    }

    #[test]
    fn cancelled_event_reports_retired() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert!(!q.has_fired(a));
        q.cancel(a);
        // Retirement is immediate — no lazy-discard window as in the old
        // design, where this only became true after `a` surfaced at the
        // heap root.
        assert!(q.has_fired(a));
        assert!(!q.cancel(a));
        q.pop();
        assert!(q.pop().is_none());
    }

    /// [`EventQueue::save_state`] bytes of a `u64`-event queue.
    fn state_bytes(q: &EventQueue<u64>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.save_state(&mut w, |e, w| w.write_u64(*e));
        w.into_bytes()
    }

    /// Round-trip helper for a `u64`-event queue.
    fn roundtrip(q: &EventQueue<u64>) -> EventQueue<u64> {
        let bytes = state_bytes(q);
        let mut r = SnapReader::new(&bytes);
        let restored = EventQueue::load_state(&mut r, |r| r.read_u64()).unwrap();
        r.finish().unwrap();
        restored
    }

    #[test]
    fn snapshot_round_trip_replays_identically() {
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0x5AFE);
        let mut ids = Vec::new();
        for step in 0..5_000u64 {
            match rng.next_below(4) {
                0..=1 => {
                    let at = q.now() + SimDuration::from_nanos(rng.next_below(100));
                    ids.push(q.schedule_at(at, step));
                }
                2 if !ids.is_empty() => {
                    let k = rng.next_below(ids.len() as u64) as usize;
                    q.cancel(ids.swap_remove(k));
                }
                _ => {
                    q.pop();
                }
            }
        }
        let mut restored = roundtrip(&q);
        restored.assert_invariants();
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.dispatched(), q.dispatched());
        assert_eq!(restored.scheduled(), q.scheduled());
        assert_eq!(restored.peak_len(), q.peak_len());
        // Outstanding handles survive: cancel through the restored queue.
        for &id in &ids {
            assert_eq!(q.has_fired(id), restored.has_fired(id));
        }
        // Both queues drain in the identical order and keep agreeing on
        // further mixed operations.
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_preserves_handle_validity_and_staleness() {
        let mut q = EventQueue::new();
        let fired = q.schedule_at(SimTime::from_secs(1), 0u64);
        q.pop();
        // Reuses the fired slot at a later generation.
        let live = q.schedule_at(SimTime::from_secs(2), 1u64);
        let cancelled = q.schedule_at(SimTime::from_secs(3), 2u64);
        q.cancel(cancelled);
        let mut restored = roundtrip(&q);
        assert!(restored.has_fired(fired));
        assert!(restored.has_fired(cancelled));
        assert!(!restored.has_fired(live));
        assert!(!restored.cancel(fired), "stale handle accepted");
        assert!(restored.cancel(live), "live handle rejected");
    }

    #[test]
    fn corrupt_snapshot_is_rejected_structurally() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 7u64);
        let mut w = SnapWriter::new();
        q.save_state(&mut w, |e, w| w.write_u64(*e));
        let bytes = w.into_bytes();
        // Truncation at every prefix either loads (only at full length) or
        // errors — never panics.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                EventQueue::<u64>::load_state(&mut r, |r| r.read_u64()).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn pop_before_excludes_its_bound() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(3), "b");
        assert_eq!(
            q.pop_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "a"))
        );
        // Bound exactly on the event time: it stays.
        assert_eq!(q.pop_before(SimTime::from_secs(3)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_before(SimTime::from_secs(4)),
            Some((SimTime::from_secs(3), "b"))
        );
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    /// A due-time offset from each tier's range: the same instant, inside
    /// the near epoch, out in the ring, past the ring's horizon.
    fn tiered_offset(rng: &mut crate::SimRng) -> SimDuration {
        let epoch = 1u64 << EPOCH_SHIFT;
        SimDuration::from_nanos(match rng.next_below(4) {
            0 => 0,
            1 => rng.next_below(epoch),
            2 => rng.next_range(1, RING_LEN) * epoch,
            _ => rng.next_range(RING_LEN, 40 * RING_LEN) * epoch,
        })
    }

    /// One step of a schedule / cancel / pop script whose events spread
    /// over heap, ring and overflow map. `ids` are handles that may still
    /// be live.
    fn tiered_step(q: &mut EventQueue<u64>, rng: &mut crate::SimRng, ids: &mut Vec<EventId>) {
        match rng.next_below(8) {
            0..=3 => {
                let at = q.now() + tiered_offset(rng);
                ids.push(q.schedule_keyed(at, rng.next_below(3), q.scheduled()));
            }
            4..=5 if !ids.is_empty() => {
                let k = rng.next_below(ids.len() as u64) as usize;
                q.cancel(ids.swap_remove(k));
            }
            _ => {
                q.pop();
            }
        }
    }

    #[test]
    fn both_tiers_keep_their_invariants() {
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0x2_71E5);
        let mut ids = Vec::new();
        let (mut seen_ring, mut seen_overflow) = (false, false);
        for step in 0..40_000u64 {
            tiered_step(&mut q, &mut rng, &mut ids);
            if step % 64 == 0 {
                q.assert_invariants();
            }
            seen_ring |= q.occupied.iter().any(|&w| w != 0);
            seen_overflow |= !q.overflow.is_empty();
        }
        assert!(seen_ring && seen_overflow, "script never left the heap");
        while q.pop().is_some() {}
        q.assert_invariants();
        assert_eq!(
            q.free.len(),
            q.slots.len(),
            "drained queue left occupied slots"
        );
        assert!(
            q.ring.iter().all(|b| b.capacity() == 0),
            "an emptied bucket kept its buffer"
        );
    }

    #[test]
    fn snapshot_mid_script_restores_every_tier_and_stays_in_lockstep() {
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0x5AFE_71E5);
        let mut ids = Vec::new();
        for _ in 0..4_000 {
            tiered_step(&mut q, &mut rng, &mut ids);
        }
        assert!(
            !q.heap.is_empty() && q.occupied.iter().any(|&w| w != 0) && !q.overflow.is_empty(),
            "snapshot point must have events in heap, ring and overflow map"
        );
        let mut restored = roundtrip(&q);
        restored.assert_invariants();
        assert_eq!(state_bytes(&restored), state_bytes(&q), "re-save diverged");
        // Same script from here on, handles included, on both queues.
        let mut rng2 = rng.clone();
        let mut ids2 = ids.clone();
        for _ in 0..4_000 {
            tiered_step(&mut q, &mut rng, &mut ids);
            tiered_step(&mut restored, &mut rng2, &mut ids2);
            assert_eq!(q.peek_time(), restored.peek_time());
            assert_eq!(q.len(), restored.len());
        }
        assert_eq!(ids, ids2);
        restored.assert_invariants();
        assert_eq!(
            state_bytes(&restored),
            state_bytes(&q),
            "final bytes diverged"
        );
        loop {
            let a = q.pop();
            assert_eq!(a, restored.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_bytes_ignore_tier_history() {
        // A far event first: `near_epoch` starts at its epoch, so the two
        // earlier events that follow both join the heap.
        let mut flat = EventQueue::new();
        flat.schedule_at(SimTime::from_secs(10), 0u64);
        flat.schedule_at(SimTime::from_secs(1), 1u64);
        flat.schedule_at(SimTime::from_secs(5), 2u64);
        assert_eq!((flat.heap.len(), flat.parked), (3, 0));
        // Loading re-tiers from the earliest event: one in the heap, one
        // in the ring, one in the overflow map.
        let tiered = roundtrip(&flat);
        assert_eq!((tiered.heap.len(), tiered.parked), (1, 2));
        assert_eq!(tiered.overflow.len(), 1);
        assert_eq!(state_bytes(&tiered), state_bytes(&flat));
    }

    /// The parts of an [`EventQueue::save_state`] image a test wants to
    /// set by hand, for a `u64`-event queue at clock zero.
    struct RawSnapshot {
        /// `(gen, heap_pos, at_secs, event)`; `seq` is the slot index.
        slots: Vec<(u64, u32, u64, Option<u64>)>,
        heap: Vec<u32>,
        free: Vec<u32>,
    }

    impl RawSnapshot {
        /// Six pending events whose heap section is a valid 4-ary heap but
        /// not sorted — what the flat-heap queue wrote — and one vacant
        /// slot. Heap array by due second: [1, 3, 2, 9, 7, 5]; 5 hangs
        /// under 3.
        fn flat_heap() -> Self {
            RawSnapshot {
                slots: vec![
                    (0, 3, 9, Some(90)),
                    (2, 0, 1, Some(10)),
                    (0, 5, 5, Some(50)),
                    (1, NOT_IN_HEAP, 4, None),
                    (0, 1, 3, Some(30)),
                    (0, 2, 2, Some(20)),
                    (0, 4, 7, Some(70)),
                ],
                heap: vec![1, 4, 5, 0, 6, 2],
                free: vec![3],
            }
        }

        fn load(&self) -> Result<EventQueue<u64>, SnapError> {
            let n = self.slots.len() as u64;
            let mut w = SnapWriter::new();
            w.write_u64(n); // next_seq
            w.write_time(SimTime::ZERO);
            w.write_u64(0); // popped
            w.write_u64(n); // peak_len
            w.write_u64(n);
            for (seq, &(gen, heap_pos, at_secs, event)) in self.slots.iter().enumerate() {
                w.write_u64(gen);
                w.write_u32(heap_pos);
                w.write_time(SimTime::from_secs(at_secs));
                w.write_u64(0); // key
                w.write_u64(seq as u64);
                w.write_bool(event.is_some());
                if let Some(e) = event {
                    w.write_u64(e);
                }
            }
            for section in [&self.heap, &self.free] {
                w.write_u64(section.len() as u64);
                for &slot in section {
                    w.write_u32(slot);
                }
            }
            let bytes = w.into_bytes();
            EventQueue::load_state(&mut SnapReader::new(&bytes), |r| r.read_u64())
        }
    }

    #[test]
    fn heap_ordered_snapshot_from_the_flat_queue_loads_and_pops_in_order() {
        let mut q = RawSnapshot::flat_heap().load().unwrap();
        q.assert_invariants();
        assert_eq!(q.len(), 6);
        assert!(q.parked > 0, "seconds apart: most of these park");
        // Handles into the old slab keep their meaning.
        assert!(q.has_fired(EventId::from_raw(1, 1)));
        assert!(q.cancel(EventId::from_raw(6, 0)));
        // Saving again writes the canonical, sorted form of the same state.
        let resaved = state_bytes(&q);
        assert_eq!(state_bytes(&roundtrip(&q)), resaved);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![10, 20, 30, 50, 90]);
    }

    #[test]
    fn corrupt_cross_links_are_rejected_by_name() {
        let corrupt = |edit: fn(&mut RawSnapshot)| {
            let mut raw = RawSnapshot::flat_heap();
            edit(&mut raw);
            match raw.load() {
                Err(SnapError::Corrupt(why)) => why,
                Err(other) => panic!("expected Corrupt, got {other:?}"),
                Ok(_) => panic!("corrupt snapshot loaded"),
            }
        };
        assert_eq!(
            corrupt(|raw| raw.heap.extend([0, 1])),
            "heap larger than slab"
        );
        assert_eq!(corrupt(|raw| raw.free.push(3)), "slab accounting broken");
        assert_eq!(corrupt(|raw| raw.heap[2] = 99), "heap entry out of slab");
        // A slot listed twice, a backlink naming another position, a heap
        // entry pointing at a vacant slot.
        for edit in [
            (|raw| raw.heap[1] = 1) as fn(&mut RawSnapshot),
            |raw| raw.slots[4].1 = 2,
            |raw| raw.slots[4].3 = None,
        ] {
            assert_eq!(corrupt(edit), "heap/slab backlink broken");
        }
        assert_eq!(corrupt(|raw| raw.free[0] = 99), "free entry out of slab");
        // A free entry naming an occupied slot, a vacant slot that claims
        // a heap position.
        for edit in [(|raw| raw.free[0] = 2) as fn(&mut RawSnapshot), |raw| {
            raw.slots[3].1 = 0
        }] {
            assert_eq!(corrupt(edit), "free list points at live slot");
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.heap.capacity() >= 64);
        assert!(q.slots.capacity() >= 64);
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_secs(i + 1), i);
        }
        assert_eq!(q.len(), 64);
    }
}
