//! The pending-event set: a sorted run, a late heap and parked buckets
//! over a generation-counted slab.
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
//! Sim time is cut into fixed **epochs** of 2¹⁶ ns (≈ 65 µs), and the
//! pending set into two tiers by epoch alone:
//!
//! * The **near tier** holds every event whose epoch is at or before
//!   `near_epoch`, in two parts. The **run** is the bucket promoted last,
//!   sorted once, descending by `(at, key, seq)`, so its earliest event is
//!   its last cell and taking it is a `Vec::pop`. The **late heap** is a
//!   4-ary min-heap for the events scheduled into an epoch at or before
//!   `near_epoch` after that promotion. Cells of both carry
//!   `(at, key, seq, slot)` inline, so ordering never loads from the slab,
//!   and the earliest pending event is the earlier of the run's last cell
//!   and the heap's root.
//! * The **parked tier** holds every later event, unsorted, in one bucket
//!   per epoch: a ring of 65 536 cells (2³² ns ≈ 4.3 s, past a 3 s
//!   initial RTO) for the epochs just past `near_epoch`, an ordered map for
//!   the few beyond the ring's horizon. A bucket is a doubly linked list
//!   threaded through two per-slot arrays, and a ring cell is its head
//!   slot + 1, 0 for none — so the ring is one zeroed `u32` allocation,
//!   made when the first event parks, and no bucket owns a buffer. A
//!   two-level occupancy bitmap finds the next non-empty cell in a few
//!   word scans. Parking pushes onto the list's head; cancelling a parked
//!   event unlinks it; both are O(1).
//!
//! Two dense arrays indexed by slot say where each pending event sits:
//! `pos` holds its run index, its late-heap index (flagged), or — parked —
//! the previous slot in its bucket's list, and `next` the following one.
//! Which container follows from the event's epoch and the flag. A parked
//! event reaches the near tier only
//! when run and late heap are both empty: the earliest non-empty bucket is
//! promoted whole, sorted into the run, and `near_epoch` jumps to its
//! epoch. Every mutating operation ends with that refill done, so *near
//! tier empty ⇒ nothing parked*, the earlier of the two near-tier heads is
//! always the global minimum, and [`EventQueue::peek_time`] stays `&self`
//! and O(1). Because the tiers partition by time, which tier or part an
//! event waited in can never change the order it pops in.
//!
//! The widths come from the 100k-connection chain: its scheduling delays
//! cluster at 33–131 µs and 262–524 µs, so at 65 µs most events land a few
//! epochs out, park, and reach the near tier a sorted bucket at a time
//! instead of one heap sift each. About 109 000 events are pending there,
//! most of them retransmit timers and not-yet-started connections that are
//! cancelled or re-armed before they come due; they never leave the ring.
//! `near_epoch` moves only while the near tier is empty, so the worst
//! cases — every pending event in one epoch, or a first event far ahead
//! of all that follow — degrade to a flat 4-ary late heap with inline keys
//! until the clock passes `near_epoch`, never to a wrong order.
//!
//! Cancellation takes the event out at once, with one exception: a parked
//! event is unlinked from its bucket and a late one sifted out of the
//! heap, but a run cell is only marked dead, as shifting the run would
//! cost O(run). Dead cells are trimmed off the run's end after every pop
//! and cancel, so the run's last cell is always live; a live count keeps
//! `len` exact, and there is no hashing anywhere on the
//! schedule/cancel/pop path. Liveness checks ([`EventQueue::cancel`]
//! re-cancel, [`EventQueue::has_fired`]) are a **generation compare**:
//! freeing a slot bumps its generation, so a stale handle can never alias
//! a reused slot (generations are `u64`; they do not wrap in any feasible
//! run).
//!
//! The queue has no codec of its own. A snapshot lists the pending events
//! in pop order ([`EventQueue::pending_entries`]) and a restore schedules
//! them back into a fresh queue ([`EventQueue::from_pending`]); slots and
//! generations are never written, so snapshot bytes do not depend on the
//! slot-reuse history that led to a state.

use crate::snap::SnapError;
use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// log₂ of the epoch width in nanoseconds: 2¹⁶ ns ≈ 65.5 µs.
const EPOCH_SHIFT: u32 = 16;

/// Cells in the parked ring: epochs `near_epoch + 1 ..= near_epoch +
/// RING_LEN` (2³² ns ≈ 4.3 s of sim time) park in the ring, later ones in
/// the overflow map.
const RING_LEN: u64 = 1 << 16;
/// Words of the ring's occupancy bitmap, and of its summary (one bit per
/// bitmap word).
const RING_WORDS: usize = RING_LEN as usize / 64;
const SUMMARY_WORDS: usize = RING_WORDS / 64;

/// The slot of a run cell whose event was cancelled.
const DEAD: u32 = u32::MAX;

/// Flag on a `pos` entry: the event is in the late heap, at the index in
/// the low bits.
const LATE: u32 = 1 << 31;

/// No slot: the end of a bucket list, or an empty bucket.
const NIL: u32 = u32::MAX;

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
    /// A handle from raw `(slot, generation)` parts. Snapshots never carry
    /// these (they name a pending event by its place in pop order), so the
    /// use left is a handle that is stale by construction — a slot past
    /// any slab, e.g. `(u32::MAX, u64::MAX)` — on which `cancel` reports
    /// "already retired" like any other stale handle.
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

/// A payload shaped like a simulator's event: an enum of at most a `u32`
/// and a `u64`, whose tag gives `Option` a niche.
#[allow(dead_code)]
enum Payload16 {
    Wide(u32, u64),
    Narrow(u32, u32),
}

// Every schedule writes a slot and every pop moves one out: a field added
// to `Slot` must not silently grow the hot path past 48 bytes.
const _: () = assert!(std::mem::size_of::<Payload16>() == 16);
const _: () = assert!(std::mem::size_of::<Slot<Payload16>>() <= 48);

/// One near-tier cell, in the run or the late heap: the slot's sort key,
/// copied out of the slab so ordering never touches it.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    key: u64,
    seq: u64,
    slot: u32,
}

impl Entry {
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
/// not total — retired slots are reused), plus eight bytes of links per
/// slot and one 32-byte near-tier cell per event in the near tier; the run
/// may also hold the dead cells of cancelled events until they reach its
/// end. Buckets own no memory. The ring is 256 KiB of cells plus 8 KiB of
/// bitmap, allocated by the first event that parks. Nothing grows with the
/// number of events ever scheduled.
pub struct EventQueue<E> {
    /// Near tier, sorted part: the bucket promoted last, descending by
    /// `(at, key, seq)`. A cancelled cell stays, its slot [`DEAD`], until
    /// it reaches the end; the last cell is always live.
    run: Vec<Entry>,
    /// Live cells in `run`.
    run_live: usize,
    /// Near tier, late part: events scheduled into an epoch at or before
    /// `near_epoch` after `run` was promoted, heap-ordered by
    /// `(at, key, seq)`.
    late: Vec<Entry>,
    slots: Vec<Slot<E>>,
    /// Per slot: where the pending event sits — its run index, its
    /// late-heap index (flagged [`LATE`]), or, parked, the previous slot in
    /// its bucket's list ([`NIL`] at the head). Stale for vacant slots.
    pos: Vec<u32>,
    /// Per slot: the next slot in a parked event's bucket list ([`NIL`] at
    /// the tail). Stale for other slots.
    next: Vec<u32>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
    /// Every event in the near tier has an epoch at or before this, every
    /// parked event a later one.
    near_epoch: u64,
    /// Parked events of epoch `e`, `near_epoch < e <= near_epoch +
    /// RING_LEN`, form the bucket list whose head slot + 1 is
    /// `ring[e % RING_LEN]`, 0 for an empty bucket. Empty until an event
    /// first parks.
    ring: Vec<u32>,
    /// Bit `i` set ⇔ `ring[i]` is non-zero. Allocated with the ring.
    occupied: Vec<u64>,
    /// Bit `w` set ⇔ `occupied[w]` is non-zero.
    summary: [u64; SUMMARY_WORDS],
    /// Head slots of the bucket lists past the ring's horizon, by epoch.
    overflow: BTreeMap<u64, u32>,
    /// Events in the ring and the overflow map together.
    parked: usize,
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

    /// An empty queue with slab capacity for `n` concurrently pending
    /// events (e.g. a peak depth observed by [`crate::meter`] on a
    /// previous comparable run).
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            run: Vec::new(),
            run_live: 0,
            late: Vec::new(),
            slots: Vec::with_capacity(n),
            pos: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            near_epoch: 0,
            ring: Vec::new(),
            occupied: Vec::new(),
            summary: [0; SUMMARY_WORDS],
            overflow: BTreeMap::new(),
            parked: 0,
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

    /// Number of live pending events, both tiers. Exact: a cancelled event
    /// stops counting at once, even while its dead cell waits in the run.
    pub fn len(&self) -> usize {
        self.run_live + self.late.len() + self.parked
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        // The run's last cell is live, and an empty near tier means an
        // empty parked tier.
        self.run.is_empty() && self.late.is_empty()
    }

    // -- near tier ----------------------------------------------------------

    #[inline]
    fn place(&mut self, i: usize, entry: Entry) {
        self.late[i] = entry;
        self.pos[entry.slot as usize] = i as u32 | LATE;
    }

    /// Move the late-heap entry at `i` rootward while it sorts before its
    /// parent.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.late[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.late[parent];
            if entry.order() >= p.order() {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Move the late-heap entry at `i` leafward while some child sorts
    /// before it; returns where it came to rest.
    fn sift_down(&mut self, mut i: usize) -> usize {
        let entry = self.late[i];
        let key = entry.order();
        loop {
            let first = i * 4 + 1;
            if first >= self.late.len() {
                break;
            }
            let last = (first + 4).min(self.late.len());
            let mut best = first;
            let mut best_key = self.late[first].order();
            for c in first + 1..last {
                let k = self.late[c].order();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if best_key >= key {
                break;
            }
            let b = self.late[best];
            self.place(i, b);
            i = best;
        }
        self.place(i, entry);
        i
    }

    /// Detach the late-heap entry at `i` and restore heap order. The
    /// caller still owns the slot's contents.
    fn remove_late(&mut self, i: usize) {
        let moved = self.late.pop().expect("removing from an empty late heap");
        if i < self.late.len() {
            self.late[i] = moved;
            // The replacement came from a leaf: it moves down, or — when
            // the removed entry sat outside its parent chain — up, never both.
            if self.sift_down(i) == i {
                self.sift_up(i);
            }
        }
    }

    /// Drop dead cells off the run's end, so its last cell is live.
    #[inline]
    fn trim_run(&mut self) {
        while self.run.last().is_some_and(|e| e.slot == DEAD) {
            self.run.pop();
        }
    }

    /// A pop or cancel emptied the near tier: promote the next bucket.
    #[inline]
    fn refill_if_drained(&mut self) {
        if self.is_empty() && self.parked > 0 {
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

    /// Make `head` (a slot, or [`NIL`] for none) the head of ring cell
    /// `i`'s bucket, allocating the ring if nothing has parked yet.
    fn set_cell(&mut self, i: usize, head: u32) {
        if self.ring.is_empty() {
            // One zeroed allocation: every cell empty, every bit clear.
            self.ring = vec![0; RING_LEN as usize];
            self.occupied = vec![0; RING_WORDS];
        }
        // Cells hold head + 1, so NIL (u32::MAX) wraps to 0, the empty cell.
        self.ring[i] = head.wrapping_add(1);
        let w = i / 64;
        if head != NIL {
            self.occupied[w] |= 1 << (i % 64);
            self.summary[w / 64] |= 1 << (w % 64);
        } else {
            self.occupied[w] &= !(1 << (i % 64));
            if self.occupied[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        }
    }

    /// Push `slot` onto the bucket list of `epoch` (which is past
    /// `near_epoch`).
    fn park(&mut self, epoch: u64, slot: u32) {
        let head = match self.ring_index(epoch) {
            Some(i) => {
                let head = self.ring.get(i).map_or(NIL, |&c| c.wrapping_sub(1));
                self.set_cell(i, slot);
                head
            }
            None => self.overflow.insert(epoch, slot).unwrap_or(NIL),
        };
        self.pos[slot as usize] = NIL;
        self.next[slot as usize] = head;
        if head != NIL {
            self.pos[head as usize] = slot;
        }
        self.parked += 1;
    }

    /// Unlink `slot` from the bucket list of `epoch`.
    fn unpark(&mut self, epoch: u64, slot: u32) {
        let (prev, next) = (self.pos[slot as usize], self.next[slot as usize]);
        if next != NIL {
            self.pos[next as usize] = prev;
        }
        if prev != NIL {
            self.next[prev as usize] = next;
        } else {
            match self.ring_index(epoch) {
                Some(i) => self.set_cell(i, next),
                None if next == NIL => {
                    self.overflow.remove(&epoch);
                }
                None => {
                    self.overflow.insert(epoch, next);
                }
            }
        }
        self.parked -= 1;
    }

    /// Index of the first non-zero occupancy word at or after `from`.
    fn next_word(&self, from: usize) -> Option<usize> {
        let (s, b) = (from / 64, from % 64);
        (s..SUMMARY_WORDS).find_map(|k| {
            let bits = match k == s {
                true => self.summary[k] & (!0 << b),
                false => self.summary[k],
            };
            (bits != 0).then(|| k * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Epoch of the earliest non-empty ring bucket.
    fn next_ring_epoch(&self) -> Option<u64> {
        if self.ring.is_empty() {
            return None;
        }
        // Ring indices in epoch order start just past `near_epoch` and wrap.
        let start = ((self.near_epoch + 1) % RING_LEN) as usize;
        let (w, b) = (start / 64, start % 64);
        let i = match self.occupied[w] & (!0 << b) {
            // No bucket in the start word from `start` on: the next
            // non-empty word past it, else — wrapping — the first one,
            // which is at worst the start word's bits below `start`.
            0 => {
                let w = self.next_word(w + 1).or_else(|| self.next_word(0))?;
                w * 64 + self.occupied[w].trailing_zeros() as usize
            }
            bits => w * 64 + bits.trailing_zeros() as usize,
        };
        let ahead = (i + RING_LEN as usize - start) % RING_LEN as usize;
        Some(self.near_epoch + 1 + ahead as u64)
    }

    /// The near tier ran empty with events still parked: promote the
    /// earliest non-empty bucket whole, as the new run, and move
    /// `near_epoch` to its epoch.
    fn refill(&mut self) {
        debug_assert!(self.is_empty() && self.parked > 0);
        // Overflow epochs all lie past the ring's, so the map is consulted
        // only when the ring is empty.
        let (epoch, mut slot) = match self.next_ring_epoch() {
            Some(epoch) => {
                let i = (epoch % RING_LEN) as usize;
                let head = self.ring[i].wrapping_sub(1);
                self.set_cell(i, NIL);
                (epoch, head)
            }
            None => self
                .overflow
                .pop_first()
                .expect("parked events are in the ring or the overflow map"),
        };
        self.near_epoch = epoch;
        // The horizon moved with `near_epoch`: overflow buckets it now
        // covers take their ring cells, vacant since the epochs that last
        // used them are at or behind `near_epoch`.
        while let Some(first) = self.overflow.first_entry() {
            if *first.key() > self.near_epoch + RING_LEN {
                break;
            }
            let i = (*first.key() % RING_LEN) as usize;
            let head = first.remove();
            debug_assert!(self.ring.get(i).is_none_or(|&c| c == 0));
            self.set_cell(i, head);
        }
        while slot != NIL {
            let s = &self.slots[slot as usize];
            self.run.push(Entry {
                at: s.at,
                key: s.key,
                seq: s.seq,
                slot,
            });
            slot = self.next[slot as usize];
        }
        self.parked -= self.run.len();
        self.run_live = self.run.len();
        // Descending, so the earliest is last. Keys are unique (`seq`), so
        // an unstable sort is exact.
        self.run.sort_unstable_by_key(|e| Reverse(e.order()));
        for (i, e) in self.run.iter().enumerate() {
            self.pos[e.slot as usize] = i as u32;
        }
    }

    // -- slab ---------------------------------------------------------------

    /// Enter an occupied slot, by its near-tier cell, into the tier its
    /// epoch belongs to.
    fn insert(&mut self, entry: Entry) {
        let epoch = epoch_of(entry.at);
        if self.is_empty() {
            // Nothing is pending, so any epoch may become the near one;
            // taking this event's keeps "near tier empty ⇒ nothing parked".
            self.near_epoch = epoch;
            self.pos[entry.slot as usize] = 0;
            self.run.push(entry);
            self.run_live = 1;
        } else if epoch <= self.near_epoch {
            let i = self.late.len();
            self.late.push(entry);
            self.sift_up(i);
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
                // Container indices share `pos` with the late flag.
                assert!(slot < LATE, "event slab full");
                self.slots.push(Slot {
                    gen: 0,
                    at,
                    key,
                    seq,
                    event: Some(event),
                });
                // Set by `insert` below.
                self.pos.push(0);
                self.next.push(NIL);
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.insert(Entry { at, key, seq, slot });
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
    /// The event stops counting at once and its slot is reusable at once:
    /// a parked event is unlinked from its bucket (O(1)), a late one
    /// sifted out of the heap (O(log n)), and a run cell is marked dead —
    /// left in place, and trimmed with any dead neighbours the moment it
    /// is the run's last cell, so no pop ever returns or waits on it.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.event.is_some() => {
                let epoch = epoch_of(s.at);
                if epoch > self.near_epoch {
                    self.unpark(epoch, id.slot);
                } else {
                    let i = self.pos[id.slot as usize];
                    if i & LATE != 0 {
                        self.remove_late((i & !LATE) as usize);
                    } else {
                        self.run[i as usize].slot = DEAD;
                        self.run_live -= 1;
                        self.trim_run();
                    }
                    self.refill_if_drained();
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
        let Entry { at, slot, .. } = match (self.run.last(), self.late.first()) {
            (None, None) => return None,
            (Some(&r), Some(&l)) if l.order() < r.order() => {
                self.remove_late(0);
                l
            }
            (Some(&r), _) => {
                self.run.pop();
                self.run_live -= 1;
                self.trim_run();
                r
            }
            (None, Some(&l)) => {
                self.remove_late(0);
                l
            }
        };
        debug_assert!(at >= self.now, "queue produced an event in the past");
        self.refill_if_drained();
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
    /// `&self`: the run's last cell is always live and the near tier is
    /// refilled whenever it empties, so the earlier of the run's last cell
    /// and the late heap's root is the live minimum of both tiers.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.run.last(), self.late.first()) {
            (Some(r), Some(l)) => Some(r.at.min(l.at)),
            (r, l) => r.or(l).map(|e| e.at),
        }
    }

    /// Advance the clock to `t` without popping anything — a bounded run
    /// ends "at" its bound even when the last event fired earlier, and a
    /// sharded run must leave every shard's clock at the same instant.
    ///
    /// # Panics
    /// Panics if `t` is before [`EventQueue::now`] (the clock never
    /// rewinds), or after the earliest pending event (which would then be
    /// in the past, and the next pop would rewind the clock to it).
    pub fn advance_clock(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot rewind the clock: t={t:?} now={:?}",
            self.now
        );
        if let Some(next) = self.peek_time() {
            assert!(
                t <= next,
                "cannot advance the clock past a pending event: t={t:?} next={next:?}"
            );
        }
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
        self.run.clear();
        self.run_live = 0;
        self.late.clear();
        // The next event to park allocates a fresh, zeroed ring.
        self.ring = Vec::new();
        self.occupied = Vec::new();
        self.summary = [0; SUMMARY_WORDS];
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

    /// Rebuild a queue from its pending events — how a snapshot restores
    /// one. The clock stands at `now`, the [`EventQueue::dispatched`],
    /// [`EventQueue::scheduled`] and [`EventQueue::peak_len`] counters
    /// carry over, and `pending` — `(at, key, event)` in pop order, as
    /// [`EventQueue::pending`] lists them — is scheduled in turn. Returns
    /// the queue and each event's new [`EventId`], in input order.
    ///
    /// Dispatch order cannot change: the events take ascending seqs, so
    /// they keep their relative pop order, and every later schedule gets a
    /// larger seq than all of them, as in the queue they were listed from.
    /// Only the slab layout differs, and nothing observable depends on it.
    /// The rebuilt queue owes the thread's [`crate::meter`] nothing: its
    /// events were counted by the queue that first scheduled them.
    ///
    /// An event due before `now`, or more events than `scheduled` allows,
    /// is [`SnapError::Corrupt`] — damaged input, not a caller bug.
    pub fn from_pending(
        now: SimTime,
        dispatched: u64,
        scheduled: u64,
        peak_len: usize,
        pending: impl IntoIterator<Item = (SimTime, u64, E)>,
    ) -> Result<(Self, Vec<EventId>), SnapError> {
        let mut q = Self::new();
        q.now = now;
        let ids: Result<Vec<_>, _> = (pending.into_iter())
            .map(|(at, key, event)| {
                if at < now {
                    return Err(SnapError::Corrupt(format!(
                        "pending event at {at:?} is before the clock at {now:?}"
                    )));
                }
                Ok(q.schedule_keyed(at, key, event))
            })
            .collect();
        // Before any early return: a dropped queue flushes its debt.
        q.unflushed_sched = 0;
        let ids = ids?;
        if q.next_seq > scheduled {
            return Err(SnapError::Corrupt(format!(
                "{} pending events, but only {scheduled} ever scheduled",
                q.next_seq
            )));
        }
        q.next_seq = scheduled;
        q.popped = dispatched;
        q.peak_len = q.peak_len.max(peak_len);
        Ok((q, ids))
    }

    /// Invariant check, for tests: run order and liveness, late-heap
    /// order, the tier boundary at `near_epoch`, the ring's cells and
    /// bitmap, the ring horizon, every bucket list and backlink, and the
    /// slab fully accounted for.
    #[cfg(test)]
    fn assert_invariants(&self) {
        assert_eq!(
            self.len() + self.free.len(),
            self.slots.len(),
            "slab accounting broken"
        );
        assert_eq!(self.pos.len(), self.slots.len());
        assert_eq!(self.next.len(), self.slots.len());
        assert!(
            !self.is_empty() || self.parked == 0,
            "events parked behind an empty near tier"
        );
        // The run: live cells strictly descending, the last cell live.
        assert!(
            self.run.last().is_none_or(|e| e.slot != DEAD),
            "dead cell at the run's end"
        );
        let live: Vec<(usize, &Entry)> = (self.run.iter().enumerate())
            .filter(|(_, e)| e.slot != DEAD)
            .collect();
        assert_eq!(live.len(), self.run_live, "run live count out of date");
        assert!(
            live.windows(2).all(|w| w[0].1.order() > w[1].1.order()),
            "run out of order"
        );
        for &(i, e) in &live {
            self.assert_near(e, i as u32);
        }
        for (i, e) in self.late.iter().enumerate() {
            self.assert_near(e, i as u32 | LATE);
            if i > 0 {
                assert!(
                    self.late[(i - 1) / 4].order() <= e.order(),
                    "late heap order broken"
                );
            }
        }
        // The ring: bitmap and summary agree with the cells.
        assert_eq!(self.occupied.len(), self.ring.len() / 64);
        for (w, summary) in self.summary.iter().enumerate() {
            for b in 0..64 {
                let word = self.occupied.get(w * 64 + b).copied().unwrap_or(0);
                assert_eq!(summary >> b & 1 == 1, word != 0, "summary bit out of date");
            }
        }
        let mut heads = Vec::new();
        for (i, &cell) in self.ring.iter().enumerate() {
            let occupied = self.occupied[i / 64] & (1 << (i % 64)) != 0;
            assert_eq!(occupied, cell != 0, "occupancy bit out of date");
            if cell != 0 {
                let ahead = (i as u64 + RING_LEN - (self.near_epoch + 1) % RING_LEN) % RING_LEN;
                heads.push((self.near_epoch + 1 + ahead, cell - 1));
            }
        }
        for (&epoch, &head) in &self.overflow {
            assert!(
                epoch > self.near_epoch + RING_LEN,
                "overflow bucket inside the ring's horizon"
            );
            heads.push((epoch, head));
        }
        // Every bucket list: non-empty, linked both ways, one epoch.
        let mut parked = 0;
        for (epoch, head) in heads {
            assert_ne!(head, NIL, "empty bucket");
            let (mut prev, mut slot) = (NIL, head);
            while slot != NIL {
                let s = &self.slots[slot as usize];
                assert!(s.event.is_some(), "vacant slot parked");
                assert_eq!(epoch_of(s.at), epoch, "event in the wrong bucket");
                assert_eq!(self.pos[slot as usize], prev, "backlink broken");
                (prev, slot) = (slot, self.next[slot as usize]);
                parked += 1;
            }
        }
        assert_eq!(parked, self.parked, "parked count out of date");
        for &slot in &self.free {
            assert!(self.slots[slot as usize].event.is_none());
        }
    }

    /// One live near-tier cell, at container index `at` (flag included).
    #[cfg(test)]
    fn assert_near(&self, e: &Entry, at: u32) {
        let s = &self.slots[e.slot as usize];
        assert_eq!(self.pos[e.slot as usize], at, "backlink broken");
        assert!(s.event.is_some(), "vacant slot in the near tier");
        assert_eq!(e.order(), (s.at, s.key, s.seq), "inline key out of date");
        assert!(
            epoch_of(e.at) <= self.near_epoch,
            "far event in the near tier"
        );
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
    #[should_panic(expected = "past a pending event")]
    fn advance_clock_rejects_passing_a_pending_event() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), ());
        // Up to the event is fine; one nanosecond past it would leave it
        // in the past, and the next pop would rewind the clock.
        q.advance_clock(SimTime::from_secs(3));
        q.advance_clock(SimTime::from_secs(3) + SimDuration::from_nanos(1));
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
        // `&self` peek: a cancelled run cell never sits at the run's end.
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
    /// and near tier mutually consistent at every step and leave the slab
    /// fully free once drained. The invariant check also verifies run and
    /// heap order and every slot backlink, so any sift bug surfaces here.
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
    /// over near tier, ring and overflow map. `ids` are handles that may still
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
        assert!(
            seen_ring && seen_overflow,
            "script never left the near tier"
        );
        while q.pop().is_some() {}
        q.assert_invariants();
        assert_eq!(
            q.free.len(),
            q.slots.len(),
            "drained queue left occupied slots"
        );
        assert!(
            q.ring.iter().all(|&c| c == 0),
            "a drained ring kept a bucket"
        );
    }

    #[test]
    fn from_pending_rebuilds_every_tier_and_stays_in_lockstep() {
        // A script over near tier, ring and overflow map, with same-instant
        // keyed ties and cancels before the capture.
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::new(0x5AFE_71E5);
        let mut ids = Vec::new();
        for _ in 0..4_000 {
            tiered_step(&mut q, &mut rng, &mut ids);
        }
        let listed: Vec<_> = (q.pending_entries().into_iter())
            .map(|(at, key, id, &e)| (at, key, id, e))
            .collect();
        let (mut r, new_ids) = EventQueue::from_pending(
            q.now(),
            q.dispatched(),
            q.scheduled(),
            q.peak_len(),
            listed.iter().map(|&(at, key, _, e)| (at, key, e)),
        )
        .unwrap();
        r.assert_invariants();
        assert!(
            !r.run.is_empty() && r.occupied.iter().any(|&w| w != 0) && !r.overflow.is_empty(),
            "the rebuilt queue must hold events in run, ring and overflow map"
        );
        assert_eq!(
            r.unflushed_sched, 0,
            "a rebuilt queue owes the meter nothing"
        );
        assert_eq!(
            (
                r.now(),
                r.dispatched(),
                r.scheduled(),
                r.peak_len(),
                r.len()
            ),
            (
                q.now(),
                q.dispatched(),
                q.scheduled(),
                q.peak_len(),
                q.len()
            )
        );
        let relisted: Vec<_> = (r.pending_entries().into_iter())
            .map(|(at, key, id, &e)| (at, key, id, e))
            .collect();
        let old_ids: Vec<_> = listed.iter().map(|&(_, _, id, _)| id).collect();
        let strip = |l: &[(SimTime, u64, EventId, u64)]| -> Vec<_> {
            l.iter().map(|&(at, key, _, e)| (at, key, e)).collect()
        };
        assert_eq!(strip(&relisted), strip(&listed), "pop order moved");
        assert!(relisted.iter().map(|p| p.2).eq(new_ids.iter().copied()));
        // New schedules tie after every restored event: one at the root's
        // instant and key, in both queues.
        let (at, key, ..) = listed[0];
        q.schedule_keyed(at, key, u64::MAX);
        r.schedule_keyed(at, key, u64::MAX);
        // The same script from here on; the handle lists line up
        // entry for entry, so a cancel hits the same event in both.
        let (mut ids, mut ids2) = (old_ids, new_ids);
        let mut rng2 = rng.clone();
        for _ in 0..4_000 {
            tiered_step(&mut q, &mut rng, &mut ids);
            tiered_step(&mut r, &mut rng2, &mut ids2);
            assert_eq!(q.peek_time(), r.peek_time());
            assert_eq!(q.len(), r.len());
        }
        r.assert_invariants();
        loop {
            let a = q.pop();
            assert_eq!(a, r.pop());
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.dispatched(), r.dispatched());
        // Damaged input is an error, never a panic.
        let past = EventQueue::from_pending(
            SimTime::from_secs(2),
            0,
            1,
            1,
            [(SimTime::from_secs(1), 0, 0u64)],
        );
        assert!(matches!(past, Err(SnapError::Corrupt(_))));
        let uncounted =
            EventQueue::from_pending(SimTime::ZERO, 0, 0, 1, [(SimTime::ZERO, 0, 0u64)]);
        assert!(matches!(uncounted, Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.slots.capacity() >= 64 && q.pos.capacity() >= 64);
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_secs(i + 1), i);
        }
        assert_eq!(q.len(), 64);
    }

    #[test]
    fn a_queue_that_never_parks_never_allocates_the_ring() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        assert!(q.ring.is_empty() && q.occupied.is_empty());
        // The first event to park allocates it.
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(q.ring.len(), RING_LEN as usize);
        q.assert_invariants();
    }

    #[test]
    fn run_cancels_mark_dead_cells_and_trim_them_at_the_end() {
        let epoch = 1u64 << EPOCH_SHIFT;
        let t = |e: u64, ns: u64| SimTime::from_nanos(e * epoch + ns);
        let mut q = EventQueue::new();
        q.schedule_at(t(0, 0), 0);
        // Five events of epoch 2, scheduled out of time order: one bucket.
        let ids: Vec<_> = [3, 1, 5, 2, 4]
            .into_iter()
            .map(|i| (i, q.schedule_at(t(2, i * 100), i)))
            .collect();
        let id = |i| ids.iter().find(|&&(j, _)| j == i).unwrap().1;
        assert_eq!(q.pop(), Some((t(0, 0), 0)));
        // Promoted and sorted: the run is 5, 4, 3, 2, 1.
        assert_eq!((q.run.len(), q.run_live, q.parked), (5, 5, 0));
        assert!(q.cancel(id(3)), "mid-run cancel");
        assert_eq!((q.run.len(), q.len()), (5, 4), "marked, not removed");
        assert!(q.cancel(id(1)), "cancel at the run's end");
        assert_eq!(q.run.len(), 4, "trimmed back to a live cell");
        assert!(q.cancel(id(2)), "cancel beside a dead cell");
        assert_eq!(q.run.len(), 2, "trimmed past the dead neighbour");
        assert_eq!(q.peek_time(), Some(t(2, 400)));
        q.assert_invariants();
        // Late arrivals on both sides of the run's last cell.
        q.schedule_at(t(2, 450), 45);
        q.schedule_at(t(1, 0), 10);
        q.assert_invariants();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![10, 4, 45, 5]);
        // Cancelling a whole run promotes the next bucket.
        q.schedule_at(t(10, 0), 100);
        let a = q.schedule_at(t(10, 1), 101);
        q.schedule_at(t(20, 0), 200);
        assert_eq!(q.pop(), Some((t(10, 0), 100)));
        assert!(q.cancel(a));
        assert_eq!((q.near_epoch, q.peek_time()), (20, Some(t(20, 0))));
        q.assert_invariants();
    }

    /// Seeds and jitters of `tests/queue_differential.rs`'s short-jitter
    /// scripts.
    const SHORT_JITTER: [(u64, u64); 10] = [
        (0x5_4E71, 20_000),
        (0x5_4E72, 40_000),
        (0x5_4E73, 60_000),
        (0x5_4E74, 80_000),
        (0x5_4E75, 100_000),
        (0x5_4E76, 120_000),
        (0x5_4E77, 140_000),
        (0x5_4E78, 160_000),
        (0x5_4E79, 180_000),
        (0x5_4E7A, 200_000),
    ];
    const SHORT_JITTER_OPS: u64 = 4_000;

    /// The lockstep scripts' op mix, replayed on this queue alone with the
    /// same draws, so every path counted here is one those scripts take.
    #[test]
    fn short_jitter_scripts_reach_every_run_path() {
        // Cancels at the run's end, beside a dead cell, of a run's last
        // live cell; late arrivals before and after the run's last cell.
        let mut seen = [0u64; 5];
        let (mut runs, mut run_events) = (0u64, 0u64);
        for (seed, jitter) in SHORT_JITTER {
            let mut q = EventQueue::new();
            let mut rng = crate::SimRng::new(seed);
            let mut handles = Vec::new();
            let mut promoted = None;
            for step in 0..SHORT_JITTER_OPS {
                match rng.next_below(8) {
                    0..=3 => {
                        let at = q.now() + SimDuration::from_nanos(rng.next_below(jitter));
                        if let Some(last) = q.run.last() {
                            if epoch_of(at) <= q.near_epoch {
                                seen[if at < last.at { 3 } else { 4 }] += 1;
                            }
                        }
                        handles.push(q.schedule_at(at, step));
                    }
                    4..=5 if !handles.is_empty() => {
                        let k = rng.next_below(handles.len() as u64) as usize;
                        let id = handles[k];
                        let s = &q.slots[id.slot as usize];
                        let live = s.gen == id.gen && s.event.is_some();
                        let at = q.pos[id.slot as usize] as usize;
                        if live && epoch_of(s.at) <= q.near_epoch && at & LATE as usize == 0 {
                            let dead = |i: usize| q.run.get(i).is_some_and(|e| e.slot == DEAD);
                            seen[0] += u64::from(at + 1 == q.run.len());
                            seen[1] += u64::from(dead(at + 1) || (at > 0 && dead(at - 1)));
                            seen[2] += u64::from(q.run_live == 1);
                        }
                        if q.cancel(id) {
                            handles.swap_remove(k);
                        }
                    }
                    _ => {
                        q.pop();
                    }
                }
                if promoted != Some(q.near_epoch) {
                    promoted = Some(q.near_epoch);
                    runs += 1;
                    run_events += q.run.len() as u64;
                }
                if step % 256 == 0 {
                    q.assert_invariants();
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "a run path went unexercised: {seen:?}"
        );
        assert!(
            run_events >= 10 * runs,
            "runs too short to matter: {run_events} events in {runs} runs"
        );
    }
}
