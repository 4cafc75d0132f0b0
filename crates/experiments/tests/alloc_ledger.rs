//! Allocation ledger: heap allocations counted, not timed.
//!
//! A counting global allocator tallies, per thread, every allocation
//! call (`alloc`, `alloc_zeroed` and `realloc`) and the bytes each one
//! requested (a `realloc` counts its new size). Counting per thread keeps
//! the tests of this binary, which run on parallel threads, out of each
//! other's tallies; every measured region runs on the test's own thread.
//!
//! The pins are upper bounds just above the counts recorded from the
//! code that introduced them. Counts do not drift with the machine the
//! way seconds do, so a pin that fails means the code allocates more: a
//! change that raises one says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use td_engine::{SimDuration, SimTime};
use td_experiments::fig45;
use td_experiments::registry::Profile;
use td_experiments::scale::{build_chain, ScaleParams};
use td_net::World;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Tally one allocation of `bytes`. `try_with`: an allocation made while
/// the thread's locals are being torn down goes uncounted.
fn note(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the tally touches
// only const-initialised thread-locals without destructors, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return its result with the allocations and requested
/// bytes this thread made meanwhile.
fn ledger<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    (r, ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0)
}

/// The full-profile `scale` chain: 64 clusters, 10 236 connections.
fn chain_params() -> ScaleParams {
    ScaleParams::for_profile(Profile::Full)
}

fn built_chain() -> World {
    let mut w = World::new(1);
    build_chain(&mut w, 1, &chain_params());
    w.trace_mut().set_enabled(false);
    w
}

/// Allocations per dispatched event over `[t0, t1)` of a world already
/// run to `t0`.
fn allocs_per_event(w: &mut World, t0: SimTime, t1: SimTime) -> f64 {
    w.run_until(t0);
    let e0 = w.events_dispatched();
    let ((), allocs, _) = ledger(|| w.run_until(t1));
    let events = w.events_dispatched() - e0;
    assert!(events > 100_000, "window too short: {events} events");
    println!("{allocs} allocations in {events} events");
    allocs as f64 / events as f64
}

/// Building the chain: per connection, the sender and receiver boxes,
/// their share of the world's tables (grown by doubling), the topology,
/// the routes and the start events. The configs are shared per class, so
/// they cost nothing per connection.
#[test]
fn chain_build_allocations_per_connection() {
    let (w, allocs, bytes) = ledger(built_chain);
    let conns = chain_params().total_conns() as f64;
    let (per_conn, bytes_per_conn) = (allocs as f64 / conns, bytes as f64 / conns);
    println!("chain build: {allocs} allocations, {bytes} B: {per_conn:.3} and {bytes_per_conn:.0} B per connection");
    // Recorded: 22 467 allocations, 9 398 556 B (2.195, 918 B).
    assert!(per_conn <= 2.2, "{per_conn:.3} allocations per connection");
    assert!(
        bytes_per_conn <= 930.0,
        "{bytes_per_conn:.0} B per connection"
    );
    drop(w);
}

/// Steady-state dispatch on the fig45 dumbbell, trace and observer off:
/// what allocates is the receivers' reassembly set, when out-of-order
/// segments pile up behind a hole.
#[test]
fn dumbbell_steady_state_allocations_per_event() {
    let mut sc = fig45::scenario(1, 1_800, 20);
    sc.record_trace = false;
    sc.stream = false;
    let mut run = sc.build();
    let per_event = allocs_per_event(
        &mut run.world,
        SimTime::from_secs(200),
        SimTime::from_secs(1_800),
    );
    println!("fig45 dumbbell: {per_event:.6} allocations per event");
    // Recorded: 0.000957 (332 allocations in 346 969 events).
    assert!(per_event <= 0.001, "{per_event:.6} allocations per event");
}

/// Steady-state dispatch on the 64-cluster chain, trace off, after the
/// starts and the first losses.
#[test]
fn chain_steady_state_allocations_per_event() {
    let mut w = built_chain();
    let t0 = SimTime::ZERO + SimDuration::from_secs(20);
    let per_event = allocs_per_event(&mut w, t0, t0 + SimDuration::from_secs(20));
    println!("64-cluster chain: {per_event:.6} allocations per event");
    // Recorded: 0.003982 (8 676 allocations in 2 178 699 events).
    assert!(per_event <= 0.0041, "{per_event:.6} allocations per event");
}
