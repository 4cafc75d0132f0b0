//! Row and column storage for the hot simulation state.
//!
//! **Channels: one hot row each, plus three cold columns.** Every hop of
//! every packet runs `offer`, `maybe_start_tx` and `tx_complete` (in
//! `world.rs`) on one channel, and between them they read or write nearly
//! every field of it: rate, delay, capacity, mark threshold, forced drops,
//! the in-service slot, the stats and the discipline. Those live together
//! in one [`ChannelRow`], so a hop touches one row — three cache lines —
//! with the drop-tail FIFO's header inline in it (the discipline is an
//! enum, see [`crate::Discipline`]). The fault plan, the private RNG and
//! the model checker's injected-outage overlay are read per transmission
//! too, but are bulky or nearly always empty, so they stay in columns
//! beside the rows.
//!
//! The fields used to be 13 parallel columns, one `Vec` each, on the
//! theory that a dispatch would touch "a handful of cache lines instead of
//! chasing a pointer per field". A profile of the 640-cluster chain (seed
//! 1, one `td-bench pass`, 9 134 samples at 5 kHz) said otherwise: building
//! the 11-field per-call view cost 6.7 % — one cache line per field, from
//! 11 separate buffers — on top of 10.5 % for the boxed discipline behind
//! it. A hop uses all of one channel, not one field of all channels.
//!
//! [`ChannelArena::get_mut`] lends a channel's row and its cold columns
//! as one [`ChannelMut`], borrowed apart, so the world can hold it while
//! independently touching its own trace, audit and queue fields.
//!
//! **Hosts** keep a column layout ([`HostArena`]); the profile above did
//! not single out the host receive path.

use crate::discipline::Discipline;
use crate::fault::{FaultPlan, Outage};
use crate::packet::{NodeId, Packet};
use crate::world::ChannelStats;
use std::collections::VecDeque;
use td_engine::{Rate, SimDuration, SimRng, SimTime};

/// Everything a packet's hop reads or writes on one simplex channel.
pub(crate) struct ChannelRow {
    pub src: NodeId,
    pub dst: NodeId,
    pub rate: Rate,
    pub delay: SimDuration,
    /// Buffer bound in packets, waiting plus in service (`None` =
    /// unbounded).
    pub capacity: Option<u32>,
    /// DECbit marking threshold (see `World::set_mark_threshold`).
    pub mark_threshold: Option<u32>,
    /// Transmissions the model checker has forced to drop, still pending
    /// (see `World::force_drops`); 0 outside `td_net::mc`.
    pub forced_drops: u32,
    /// The packet being serialized and when it started.
    pub in_service: Option<(Packet, SimTime)>,
    pub stats: ChannelStats,
    /// The waiting packets.
    pub discipline: Discipline,
}

impl ChannelRow {
    /// A fresh row: empty buffer, idle transmitter, no marking, zeroed
    /// stats.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        rate: Rate,
        delay: SimDuration,
        capacity: Option<u32>,
        discipline: Discipline,
    ) -> Self {
        ChannelRow {
            src,
            dst,
            rate,
            delay,
            capacity,
            mark_threshold: None,
            forced_drops: 0,
            in_service: None,
            stats: ChannelStats::default(),
            discipline,
        }
    }

    /// Buffer occupancy: waiting packets plus the one in service.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.discipline.len() as u32 + self.in_service.is_some() as u32
    }
}

/// Every simplex channel in a world: hot rows plus cold columns, all
/// indexed by `ChannelId`.
pub(crate) struct ChannelArena {
    rows: Vec<ChannelRow>,
    fault: Vec<FaultPlan>,
    rng: Vec<SimRng>,
    /// Model-checking fault overlay (empty outside `td_net::mc`).
    injected_outages: Vec<Vec<Outage>>,
}

/// One channel lent out whole: its hot row and its cold columns.
pub(crate) struct ChannelMut<'a> {
    pub row: &'a mut ChannelRow,
    pub fault: &'a mut FaultPlan,
    pub rng: &'a mut SimRng,
    pub injected_outages: &'a [Outage],
}

impl ChannelMut<'_> {
    /// True if the link is down at instant `t`, under either the static
    /// fault plan or a dynamically injected model-checking outage.
    #[inline]
    pub fn link_down(&self, t: SimTime) -> bool {
        self.fault.is_down(t) || self.injected_outages.iter().any(|o| o.covers(t))
    }
}

impl ChannelArena {
    pub fn new() -> Self {
        ChannelArena {
            rows: Vec::new(),
            fault: Vec::new(),
            rng: Vec::new(),
            injected_outages: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Append a channel; returns its index.
    pub fn push(&mut self, row: ChannelRow, fault: FaultPlan, rng: SimRng) -> usize {
        self.rows.push(row);
        self.fault.push(fault);
        self.rng.push(rng);
        self.injected_outages.push(Vec::new());
        self.rows.len() - 1
    }

    #[inline]
    pub fn row(&self, i: usize) -> &ChannelRow {
        &self.rows[i]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut ChannelRow {
        &mut self.rows[i]
    }

    #[inline]
    pub fn get_mut(&mut self, i: usize) -> ChannelMut<'_> {
        ChannelMut {
            row: &mut self.rows[i],
            fault: &mut self.fault[i],
            rng: &mut self.rng[i],
            injected_outages: &self.injected_outages[i],
        }
    }

    pub fn fault(&self, i: usize) -> &FaultPlan {
        &self.fault[i]
    }
    pub fn fault_mut(&mut self, i: usize) -> &mut FaultPlan {
        &mut self.fault[i]
    }
    pub fn rng(&self, i: usize) -> &SimRng {
        &self.rng[i]
    }
    pub fn rng_mut(&mut self, i: usize) -> &mut SimRng {
        &mut self.rng[i]
    }
    pub fn injected_outages(&self, i: usize) -> &[Outage] {
        &self.injected_outages[i]
    }
    pub fn injected_outages_mut(&mut self, i: usize) -> &mut Vec<Outage> {
        &mut self.injected_outages[i]
    }
}

/// Column storage for the host receive path, indexed by `NodeId` with
/// inert entries for switches (a switch never touches its row, and the
/// uniform indexing keeps `NodeId → row` a plain array lookup).
pub(crate) struct HostArena {
    proc_delay: Vec<SimDuration>,
    proc_busy: Vec<bool>,
    proc_queue: Vec<VecDeque<Packet>>,
    is_host: Vec<bool>,
}

impl HostArena {
    pub fn new() -> Self {
        HostArena {
            proc_delay: Vec::new(),
            proc_busy: Vec::new(),
            proc_queue: Vec::new(),
            is_host: Vec::new(),
        }
    }

    pub fn push_host(&mut self, proc_delay: SimDuration) {
        self.proc_delay.push(proc_delay);
        self.proc_busy.push(false);
        self.proc_queue.push(VecDeque::new());
        self.is_host.push(true);
    }

    pub fn push_switch(&mut self) {
        self.proc_delay.push(SimDuration::ZERO);
        self.proc_busy.push(false);
        self.proc_queue.push(VecDeque::new());
        self.is_host.push(false);
    }

    pub fn is_host(&self, i: usize) -> bool {
        self.is_host[i]
    }
    pub fn proc_delay(&self, i: usize) -> SimDuration {
        self.proc_delay[i]
    }
    pub fn proc_busy(&self, i: usize) -> bool {
        self.proc_busy[i]
    }
    pub fn set_proc_busy(&mut self, i: usize, busy: bool) {
        self.proc_busy[i] = busy;
    }
    pub fn proc_queue(&self, i: usize) -> &VecDeque<Packet> {
        &self.proc_queue[i]
    }
    pub fn proc_queue_mut(&mut self, i: usize) -> &mut VecDeque<Packet> {
        &mut self.proc_queue[i]
    }

    /// Packets waiting in every host processing queue.
    pub fn queued_packets(&self) -> u64 {
        self.proc_queue.iter().map(|q| q.len() as u64).sum()
    }
}
