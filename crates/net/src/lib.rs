//! # td-net — packet-level network substrate
//!
//! This crate models the network of the SIGCOMM '91 paper *"Observations on
//! the Dynamics of a Congestion Control Algorithm: The Effects of Two-Way
//! Traffic"* (Zhang, Shenker, Clark): hosts, store-and-forward switches,
//! simplex channels with exact integer serialization times, per-output-port
//! queues with pluggable disciplines (FIFO drop-tail as in the paper, plus
//! Random Drop and Fair Queueing for ablations), and an event-sourced trace
//! of everything that happens to every packet.
//!
//! The transport protocol is *not* here — `td-core` implements TCP on top of
//! the [`Endpoint`] trait. The separation mirrors the paper's own layering:
//! §2.2 describes the network model, §2.1 the algorithm under study.
//!
//! ## Model (paper §2.2)
//!
//! * Links are pairs of simplex **channels**; each channel has a bandwidth,
//!   a propagation delay, and (at its sending side) a packet buffer with a
//!   queue discipline. A packet occupies a buffer slot from the moment it is
//!   accepted until its last bit has been serialized, so the paper's
//!   "buffer size of 20 packets" bounds *waiting + in-service* occupancy.
//! * **Switches** forward with zero processing delay (the paper gives none)
//!   using static shortest-path routes computed from the topology.
//! * **Hosts** charge a per-packet processing delay (0.1 ms in the paper)
//!   on the receive path, serially, before handing the packet to the
//!   attached protocol endpoint. Transmissions requested by an endpoint go
//!   straight to the host's uplink queue.
//! * Packets are metadata only (no payload bytes are simulated): kind
//!   (data/ACK), connection, sequence number, size in bytes.
//!
//! ## Example: a custom protocol on a two-host link
//!
//! ```
//! use td_engine::{Rate, SimDuration, SimTime};
//! use td_net::*;
//! use std::any::Any;
//!
//! /// Sends one data packet at start; remembers when its ACK came back.
//! struct PingOnce { acked_at: Option<SimTime> }
//! impl Endpoint for PingOnce {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(PacketKind::Data, 1, 500, false);
//!     }
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
//!         assert!(pkt.is_ack());
//!         self.acked_at = Some(ctx.now());
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
//!     fn as_any(&self) -> &dyn Any { self }
//! }
//! /// Acknowledges every data packet.
//! struct Echo;
//! impl Endpoint for Echo {
//!     fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
//!         ctx.send(PacketKind::Ack, pkt.seq, 50, false);
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
//!     fn as_any(&self) -> &dyn Any { self }
//! }
//!
//! let mut w = World::new(42);
//! let a = w.add_host("A", SimDuration::from_micros(100));
//! let b = w.add_host("B", SimDuration::from_micros(100));
//! for (src, dst) in [(a, b), (b, a)] {
//!     w.add_channel(src, dst, Rate::from_kbps(50), SimDuration::from_millis(10),
//!                   Some(20), DisciplineKind::DropTail.build(), FaultModel::NONE);
//! }
//! let ping = w.attach(a, b, ConnId(0), Box::new(PingOnce { acked_at: None }));
//! let _echo = w.attach(b, a, ConnId(0), Box::new(Echo));
//! w.start_at(ping, SimTime::ZERO);
//! w.run_to_completion();
//!
//! // 80 ms data + 8 ms ACK serialization, 2 x 10 ms propagation,
//! // host-link and processing overheads: the ACK arrives at 108.2 ms.
//! let p = w.endpoint(ping).unwrap().as_any().downcast_ref::<PingOnce>().unwrap();
//! assert_eq!(p.acked_at, Some(SimTime::from_micros(108_200)));
//! ```
//!
//! ## Determinism
//!
//! All state transitions happen in the total event order provided by
//! `td-engine`. Randomness comes from two kinds of seeded
//! [`td_engine::SimRng`] streams, both derived from the world seed: the
//! shared world stream (Random Drop, RED, scenario start-time jitter) and
//! one private stream per channel that feeds only that channel's
//! [`FaultPlan`]. Fault decisions never touch the shared stream, so
//! configuring faults on one channel cannot perturb any other random
//! decision — and a channel whose plan is [`FaultPlan::NONE`] never draws
//! at all, keeping error-free runs byte-identical whether or not faults
//! exist elsewhere. A `(config, seed)` pair fully determines a run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
pub mod audit;
pub mod deadline;
mod discipline;
mod fault;
pub mod mc;
mod packet;
mod partition;
pub mod pcap;
mod route;
pub mod shard;
mod topology;
mod trace;
mod watchdog;
mod world;

pub use discipline::{Discipline, DisciplineKind, DropTail, FairQueueing, RandomDrop, Red, Victim};
pub use fault::{
    FaultError, FaultKind, FaultModel, FaultOutcome, FaultPlan, GilbertElliott, Outage,
    ReorderJitter,
};
pub use packet::{ConnId, NodeId, Packet, PacketId, PacketKind};
pub use pcap::{text_dump, to_pcap_bytes, write_pcap, CapturePoint};
pub use shard::{ShardSnapshot, ShardedWorld};
pub use topology::{chain, dumbbell, Chain, Dumbbell, LinkSpec};
pub use trace::{
    canonical_trace_cmp, DropReason, LossKind, ProtoEvent, Trace, TraceEvent, TraceObserver,
    TraceRecord,
};
pub use watchdog::{
    EndpointProgress, RunOutcome, StallKind, StallReport, StuckConn, WatchdogConfig,
};
pub use world::{ChannelId, ChannelStats, Ctx, Endpoint, EndpointId, Snapshot, TimerHandle, World};
