//! The pre-slab event queue, kept verbatim as a reference semantics oracle.
//!
//! This is the `BinaryHeap + HashSet` design the engine shipped with before
//! the indexed d-ary heap landed in [`td_engine::EventQueue`]: cancellation
//! is lazy (a tombstone set consulted on every pop), and retired ids are
//! tracked with a fired-set + watermark. It is **not** part of the
//! `td-engine` library and no simulation uses it — it exists so that the
//! differential ordering test (`queue_differential.rs`, which declares it
//! as `mod legacy`) can drive both implementations with an identical
//! schedule/cancel/pop script and assert identical observable behaviour
//! at every step. A pinned hash over that script would say *that* the
//! order changed; only a second implementation says which side is right.
//!
//! Do not "improve" this module; its value is being frozen.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use td_engine::SimTime;

/// Opaque handle to an event scheduled into a [`LegacyEventQueue`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LegacyEventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-(time, seq) on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-slab deterministic, cancellable discrete-event queue.
///
/// Same observable contract as [`crate::EventQueue`] (total order
/// `(time, seq)`, clock at last pop, panics on scheduling into the past),
/// implemented with lazy cancellation. See the module docs for why it is
/// kept.
pub struct LegacyEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Seqs of pending events that have been cancelled but not yet discarded.
    cancelled: HashSet<u64>,
    /// Fired seqs above `fired_watermark` (events can fire out of seq order).
    fired: HashSet<u64>,
    /// All seqs below this have fired; keeps `fired` small.
    fired_watermark: u64,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Largest live length ever observed (post-schedule).
    peak_len: usize,
}

impl<E> Default for LegacyEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LegacyEventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        LegacyEventQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            fired: HashSet::new(),
            fired_watermark: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak_len: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped (dispatched) so far.
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Number of events ever scheduled into this queue.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of live pending events ever held at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of live (not-yet-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before [`LegacyEventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> LegacyEventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        let live = self.len();
        if live > self.peak_len {
            self.peak_len = live;
        }
        LegacyEventId(seq)
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) -> LegacyEventId {
        let at = self.now + delay;
        self.schedule_at(at, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending.
    pub fn cancel(&mut self, id: LegacyEventId) -> bool {
        if id.0 >= self.next_seq || self.has_fired(id) {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// True if the id refers to an event that has left the heap (fired, or
    /// cancelled and since lazily discarded).
    pub fn has_fired(&self, id: LegacyEventId) -> bool {
        id.0 < self.fired_watermark || self.fired.contains(&id.0)
    }

    /// Remove and return the earliest live event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                self.note_done(entry.seq);
                continue; // lazily discard cancelled entry
            }
            debug_assert!(entry.at >= self.now, "heap produced an event in the past");
            self.now = entry.at;
            self.popped += 1;
            self.note_done(entry.seq);
            return Some((entry.at, entry.event));
        }
        None
    }

    /// Timestamp of the next live event without popping it. `&mut self`
    /// because it discards surfaced tombstones — the wart the slab queue
    /// removed.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
                self.note_done(seq);
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Record that `seq` has left the heap so later `cancel` calls on it
    /// report `false`.
    fn note_done(&mut self, seq: u64) {
        self.fired.insert(seq);
        while self.fired.remove(&self.fired_watermark) {
            self.fired_watermark += 1;
        }
    }
}
