//! Queue disciplines for switch output ports.
//!
//! The paper's gateways are FIFO with drop-tail discarding (§2.2):
//! [`Discipline::DropTail`]. The related-work studies it cites examine
//! Random Drop (\[4, 5, 10, 18\]) and Fair Queueing (\[2, 3\]); we implement
//! both, plus RED, so the ablation benches can show how the discipline
//! interacts with the clustering that drives ACK-compression.
//!
//! A discipline owns the *waiting* packets. The packet currently being
//! serialized lives in the channel, not the discipline; buffer-capacity
//! enforcement (which counts waiting + in-service, matching the paper's
//! queue-length plots) happens in the channel, which asks the discipline to
//! pick a victim when the buffer is full.
//!
//! [`Discipline`] is a closed enum over the four built-in disciplines, not
//! a trait object. Every hop of every packet asks its channel's discipline
//! up to four things (`admit`, `len`, `enqueue`, `dequeue`); behind a
//! `Box<dyn …>` each was a virtual call and then a second pointer to the
//! queue's buffer, 10.5 % of a 640-cluster chain pass when profiled. As an
//! enum the drop-tail FIFO sits inline in the channel's row and each call
//! is a match the compiler inlines. Fair Queueing and RED are boxed, so the
//! two large variants do not widen every channel's row.

use crate::packet::{ConnId, Packet};
use std::collections::VecDeque;
use td_engine::{SimRng, SnapError, SnapReader, SnapWriter};

/// A buildable, copyable selector for the discipline of a channel —
/// what scenario configs carry instead of the discipline itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DisciplineKind {
    /// FIFO + drop-tail: the paper's gateway.
    #[default]
    DropTail,
    /// FIFO + uniform random victim on overflow.
    RandomDrop,
    /// Bit-round Fair Queueing.
    FairQueueing,
    /// Random Early Detection with default parameters.
    Red,
}

impl DisciplineKind {
    /// Instantiate a fresh, empty discipline of this kind.
    pub fn build(self) -> Discipline {
        match self {
            DisciplineKind::DropTail => Discipline::DropTail(VecDeque::new()),
            DisciplineKind::RandomDrop => Discipline::RandomDrop(VecDeque::new()),
            DisciplineKind::FairQueueing => Discipline::FairQueueing(Box::default()),
            DisciplineKind::Red => Discipline::Red(Box::default()),
        }
    }
}

/// Which packet to discard when a packet arrives at a full buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Victim {
    /// Discard the arriving packet (drop-tail behaviour).
    Arriving,
    /// Discard this already-queued packet and accept the arriving one.
    Queued(Packet),
}

/// A queue discipline: the buffering and service order of one output port.
pub enum Discipline {
    /// FIFO service; an arrival at a full buffer is itself discarded.
    /// This is the paper's gateway (§2.2, footnote 6).
    DropTail(VecDeque<Packet>),
    /// FIFO service; when the buffer is full, the victim is drawn
    /// uniformly from the waiting packets plus the arrival (the "Random
    /// Drop" gateway of Hashem \[5\] and Mankin \[10\]).
    RandomDrop(VecDeque<Packet>),
    /// Bit-round Fair Queueing; see [`FairQueueing`].
    FairQueueing(Box<FairQueueing>),
    /// Random Early Detection; see [`Red`]. Build one with explicit
    /// parameters as `Discipline::Red(Box::new(Red::new(…)))`.
    Red(Box<Red>),
}

impl Discipline {
    /// Early-drop decision, consulted on every arrival *before* the
    /// capacity check. `occupancy` is the buffer occupancy the packet
    /// sees (waiting + in service). Returning `false` discards the
    /// arrival. Only active queue management (RED) ever refuses, and it
    /// judges by occupancy alone, never by the packet.
    #[inline]
    pub fn admit(&mut self, _pkt: &Packet, occupancy: u32, rng: &mut SimRng) -> bool {
        match self {
            Discipline::Red(red) => red.admit(occupancy, rng),
            _ => true,
        }
    }

    /// Store an arriving packet. Called only when the buffer has room.
    #[inline]
    pub fn enqueue(&mut self, pkt: Packet) {
        match self {
            Discipline::DropTail(q) | Discipline::RandomDrop(q) => q.push_back(pkt),
            Discipline::FairQueueing(fq) => fq.enqueue(pkt),
            Discipline::Red(red) => red.q.push_back(pkt),
        }
    }

    /// Remove the next packet to serialize, per the discipline's order.
    #[inline]
    pub fn dequeue(&mut self) -> Option<Packet> {
        match self {
            Discipline::DropTail(q) | Discipline::RandomDrop(q) => q.pop_front(),
            Discipline::FairQueueing(fq) => fq.dequeue(),
            Discipline::Red(red) => red.q.pop_front(),
        }
    }

    /// Number of waiting packets.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Discipline::DropTail(q) | Discipline::RandomDrop(q) => q.len(),
            Discipline::FairQueueing(fq) => fq.waiting,
            Discipline::Red(red) => red.q.len(),
        }
    }

    /// True if no packets wait.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Choose what to discard when `arriving` shows up at a full buffer.
    /// A [`Victim::Queued`] packet has already been removed from storage.
    pub fn select_victim(&mut self, arriving: &Packet, rng: &mut SimRng) -> Victim {
        match self {
            Discipline::RandomDrop(q) => {
                // One of (len + 1) equally likely victims; index len = the
                // arrival, which `remove` reports as `None`.
                let idx = rng.next_below(q.len() as u64 + 1) as usize;
                q.remove(idx).map_or(Victim::Arriving, Victim::Queued)
            }
            Discipline::FairQueueing(fq) => fq.select_victim(arriving),
            // RED's physical buffer is still finite: drop-tail at the brim.
            Discipline::DropTail(_) | Discipline::Red(_) => Victim::Arriving,
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Discipline::DropTail(_) => "drop-tail",
            Discipline::RandomDrop(_) => "random-drop",
            Discipline::FairQueueing(_) => "fair-queueing",
            Discipline::Red(_) => "red",
        }
    }

    /// Structural parameters, which `World::structure_digest` hashes:
    /// RED's `w_q`, `min_th`, `max_th` and `max_p`; the other disciplines
    /// have none.
    pub(crate) fn params(&self) -> Option<[f64; 4]> {
        match self {
            Discipline::Red(red) => Some([red.w_q, red.min_th, red.max_th, red.max_p]),
            _ => None,
        }
    }

    /// Serialize the discipline's mutable state — buffered packets plus
    /// any online estimators (snapshot support). Structural parameters
    /// (thresholds, weights) are carried by the rebuilt scenario, not the
    /// snapshot.
    pub fn save_state(&self, w: &mut SnapWriter) {
        match self {
            Discipline::DropTail(q) | Discipline::RandomDrop(q) => Packet::save_queue(q, w),
            Discipline::FairQueueing(fq) => fq.save_state(w),
            Discipline::Red(red) => red.save_state(w),
        }
    }

    /// Restore state written by [`Discipline::save_state`] onto a freshly
    /// built discipline of the same kind and parameters.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match self {
            Discipline::DropTail(q) | Discipline::RandomDrop(q) => *q = Packet::load_queue(r)?,
            Discipline::FairQueueing(fq) => fq.load_state(r)?,
            Discipline::Red(red) => red.load_state(r)?,
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FairQueueing
// ---------------------------------------------------------------------------

/// Bit-round Fair Queueing (Demers, Keshav, Shenker \[3\]), packetized via
/// finish tags.
///
/// Each connection gets its own FIFO; an arriving packet is stamped with a
/// finish tag `max(virtual_time, last_finish(flow)) + size`, and service
/// picks the smallest tag. Virtual time advances to the tag of each packet
/// as it is served. When the buffer is full, the victim is the last packet
/// of the flow with the most queued *bytes* — the policy of the FQ paper.
#[derive(Default)]
pub struct FairQueueing {
    flows: Vec<(ConnId, VecDeque<TaggedPacket>)>,
    virtual_time: u64,
    waiting: usize,
}

#[derive(Clone, Copy)]
struct TaggedPacket {
    pkt: Packet,
    finish: u64,
}

impl FairQueueing {
    /// An empty fair queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn flow_mut(&mut self, conn: ConnId) -> &mut VecDeque<TaggedPacket> {
        if let Some(i) = self.flows.iter().position(|(c, _)| *c == conn) {
            &mut self.flows[i].1
        } else {
            self.flows.push((conn, VecDeque::new()));
            &mut self.flows.last_mut().expect("just pushed").1
        }
    }

    fn enqueue(&mut self, pkt: Packet) {
        let vt = self.virtual_time;
        let flow = self.flow_mut(pkt.conn);
        let start = flow.back().map(|t| t.finish).unwrap_or(0).max(vt);
        // Count a zero-size packet as one byte so tags still advance.
        let finish = start + pkt.size.max(1) as u64;
        flow.push_back(TaggedPacket { pkt, finish });
        self.waiting += 1;
    }

    fn dequeue(&mut self) -> Option<Packet> {
        // Pick the flow whose head packet has the smallest finish tag;
        // ties broken by flow insertion order (deterministic).
        let best = self
            .flows
            .iter()
            .enumerate()
            .filter_map(|(i, (_, q))| q.front().map(|t| (i, t.finish)))
            .min_by_key(|&(i, finish)| (finish, i))?;
        let tagged = self.flows[best.0].1.pop_front().expect("non-empty");
        self.virtual_time = self.virtual_time.max(tagged.finish);
        self.waiting -= 1;
        Some(tagged.pkt)
    }

    fn select_victim(&mut self, arriving: &Packet) -> Victim {
        // Victim: tail of the flow with the most queued bytes, counting the
        // arrival as part of its own flow's backlog.
        let mut worst_flow: Option<usize> = None;
        let mut worst_bytes: u64 = 0;
        for (i, (conn, q)) in self.flows.iter().enumerate() {
            let mut bytes: u64 = q.iter().map(|t| t.pkt.size as u64).sum();
            if *conn == arriving.conn {
                bytes += arriving.size as u64;
            }
            if bytes > worst_bytes {
                worst_bytes = bytes;
                worst_flow = Some(i);
            }
        }
        let arriving_bytes = arriving.size as u64;
        match worst_flow {
            Some(i) if worst_bytes > arriving_bytes => {
                let victim = self.flows[i]
                    .1
                    .pop_back()
                    .expect("worst flow cannot be empty");
                self.waiting -= 1;
                Victim::Queued(victim.pkt)
            }
            _ => Victim::Arriving,
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.write_u64(self.virtual_time);
        w.write_u64(self.flows.len() as u64);
        for (conn, q) in &self.flows {
            w.write_u32(conn.0);
            w.write_u64(q.len() as u64);
            for t in q {
                t.pkt.save_state(w);
                w.write_u64(t.finish);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.virtual_time = r.read_u64()?;
        let n_flows = r.read_len()?;
        self.flows = Vec::with_capacity(n_flows);
        self.waiting = 0;
        for _ in 0..n_flows {
            let conn = ConnId(r.read_u32()?);
            let n = r.read_len()?;
            let mut q = VecDeque::with_capacity(n);
            for _ in 0..n {
                let pkt = Packet::load_state(r)?;
                let finish = r.read_u64()?;
                q.push_back(TaggedPacket { pkt, finish });
            }
            self.waiting += q.len();
            self.flows.push((conn, q));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// RED
// ---------------------------------------------------------------------------

/// Random Early Detection (Floyd & Jacobson), the successor to the phase-
/// effects line of work the paper cites as \[4\].
///
/// An exponentially weighted moving average of the queue length is updated
/// on every arrival; packets are dropped probabilistically once the
/// average crosses `min_th`, with the probability ramping to `max_p` at
/// `max_th` (hard drop above). The `count` mechanism spreads drops evenly
/// between marks, as in the published algorithm. The whole point —
/// demonstrated by the `abl-red` experiment — is to decouple the drop
/// decision from the deterministic buffer-overflow instant, breaking the
/// loss synchronization that drop-tail gateways impose on every
/// connection at once (this paper's Figure 2 behaviour).
///
/// The parameters are fixed at [`Red::new`], which checks them.
pub struct Red {
    q: VecDeque<Packet>,
    /// EWMA weight.
    w_q: f64,
    /// Average-queue threshold where early drops begin.
    min_th: f64,
    /// Average-queue threshold above which every arrival drops.
    max_th: f64,
    /// Drop probability at `max_th`.
    max_p: f64,
    avg: f64,
    /// Packets since the last drop (−1 right after a drop).
    count: i64,
}

impl Default for Red {
    fn default() -> Self {
        // Scaled to the paper's 20-30 packet buffers.
        Red::new(0.2, 5.0, 15.0, 0.1)
    }
}

impl Red {
    /// A RED queue with explicit parameters.
    ///
    /// # Panics
    /// If `min_th ≥ max_th`, or `w_q` or `max_p` lies outside `[0, 1]`.
    pub fn new(w_q: f64, min_th: f64, max_th: f64, max_p: f64) -> Self {
        assert!(min_th < max_th, "RED thresholds inverted");
        assert!((0.0..=1.0).contains(&max_p) && (0.0..=1.0).contains(&w_q));
        Red {
            q: VecDeque::new(),
            w_q,
            min_th,
            max_th,
            max_p,
            avg: 0.0,
            count: -1,
        }
    }

    /// Current average queue estimate.
    pub fn avg_queue(&self) -> f64 {
        self.avg
    }

    fn admit(&mut self, occupancy: u32, rng: &mut SimRng) -> bool {
        self.avg = (1.0 - self.w_q) * self.avg + self.w_q * occupancy as f64;
        if self.avg < self.min_th {
            self.count = -1;
            return true;
        }
        if self.avg >= self.max_th {
            self.count = 0;
            return false;
        }
        self.count += 1;
        let p_b = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th);
        // Spread drops uniformly between marks (Floyd & Jacobson eq. 3).
        let denom = 1.0 - self.count as f64 * p_b;
        let p_a = if denom <= 0.0 {
            1.0
        } else {
            (p_b / denom).min(1.0)
        };
        if rng.chance(p_a) {
            self.count = 0;
            false
        } else {
            true
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        Packet::save_queue(&self.q, w);
        w.write_f64(self.avg);
        w.write_i64(self.count);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.q = Packet::load_queue(r)?;
        self.avg = r.read_f64()?;
        self.count = r.read_i64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketId, PacketKind};
    use td_engine::SimTime;

    fn pkt(conn: u32, seq: u64, size: u32) -> Packet {
        Packet {
            id: PacketId(seq + conn as u64 * 1000),
            conn: ConnId(conn),
            kind: PacketKind::Data,
            seq,
            size,
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
            ack: 0,
        }
    }

    fn drain(d: &mut Discipline) -> Vec<(u32, u64)> {
        std::iter::from_fn(|| d.dequeue())
            .map(|p| (p.conn.0, p.seq))
            .collect()
    }

    #[test]
    fn drop_tail_is_fifo() {
        let mut d = DisciplineKind::DropTail.build();
        for i in 0..5 {
            d.enqueue(pkt(0, i, 500));
        }
        assert_eq!(d.len(), 5);
        let order: Vec<u64> = drain(&mut d).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(d.is_empty());
    }

    #[test]
    fn drop_tail_victim_is_arrival() {
        let mut d = DisciplineKind::DropTail.build();
        d.enqueue(pkt(0, 0, 500));
        let mut rng = SimRng::new(1);
        assert_eq!(d.select_victim(&pkt(0, 1, 500), &mut rng), Victim::Arriving);
        assert_eq!(d.len(), 1, "queued packets untouched");
    }

    #[test]
    fn only_red_refuses_admission() {
        let mut rng = SimRng::new(1);
        for kind in [
            DisciplineKind::DropTail,
            DisciplineKind::RandomDrop,
            DisciplineKind::FairQueueing,
        ] {
            let mut d = kind.build();
            assert!(d.admit(&pkt(0, 0, 500), 1_000, &mut rng), "{}", d.name());
        }
        let mut red = DisciplineKind::Red.build();
        assert!(!(0..10).all(|i| red.admit(&pkt(0, i, 500), 1_000, &mut rng)));
    }

    #[test]
    fn random_drop_victims_cover_all_positions() {
        let mut rng = SimRng::new(5);
        let mut dropped_arriving = 0;
        let mut dropped_queued = 0;
        for _ in 0..200 {
            let mut d = DisciplineKind::RandomDrop.build();
            for i in 0..4 {
                d.enqueue(pkt(0, i, 500));
            }
            match d.select_victim(&pkt(0, 99, 500), &mut rng) {
                Victim::Arriving => {
                    dropped_arriving += 1;
                    assert_eq!(d.len(), 4);
                }
                Victim::Queued(v) => {
                    dropped_queued += 1;
                    assert!(v.seq < 4);
                    assert_eq!(d.len(), 3, "victim removed from storage");
                }
            }
        }
        assert!(dropped_arriving > 0, "arrival never chosen");
        assert!(dropped_queued > 0, "queued never chosen");
    }

    #[test]
    fn random_drop_service_is_fifo() {
        let mut d = DisciplineKind::RandomDrop.build();
        for i in 0..3 {
            d.enqueue(pkt(0, i, 500));
        }
        assert_eq!(d.dequeue().unwrap().seq, 0);
    }

    #[test]
    fn fq_single_flow_is_fifo() {
        let mut d = DisciplineKind::FairQueueing.build();
        for i in 0..5 {
            d.enqueue(pkt(0, i, 500));
        }
        let order: Vec<u64> = drain(&mut d).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fq_interleaves_two_equal_flows() {
        let mut d = DisciplineKind::FairQueueing.build();
        // Flow 0 dumps a burst first, then flow 1 dumps a burst.
        for i in 0..3 {
            d.enqueue(pkt(0, i, 500));
        }
        for i in 0..3 {
            d.enqueue(pkt(1, i, 500));
        }
        // Finish tags: flow0 = 500,1000,1500; flow1 = 500,1000,1500 →
        // interleaved, ties to flow 0 (earlier insertion).
        assert_eq!(
            drain(&mut d),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn fq_small_packets_get_through_between_large() {
        let mut d = DisciplineKind::FairQueueing.build();
        for i in 0..4 {
            d.enqueue(pkt(0, i, 500)); // bulky flow
        }
        for i in 0..4 {
            d.enqueue(pkt(1, i, 50)); // thin (ACK-like) flow
        }
        let order = drain(&mut d);
        // Thin flow's tags: 50,100,150,200 — all beat the bulky flow's 500+,
        // so the whole thin burst jumps the bulky backlog.
        let thin_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == 1)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(thin_positions, vec![0, 1, 2, 3], "thin flow not starved");
        assert_eq!(order[4], (0, 0), "bulky flow resumes in order");
    }

    #[test]
    fn fq_victim_comes_from_biggest_flow() {
        let mut d = DisciplineKind::FairQueueing.build();
        for i in 0..5 {
            d.enqueue(pkt(0, i, 500)); // 2500 B backlog
        }
        d.enqueue(pkt(1, 0, 50)); // 50 B backlog
        let mut rng = SimRng::new(1);
        match d.select_victim(&pkt(1, 1, 50), &mut rng) {
            Victim::Queued(v) => {
                assert_eq!(v.conn, ConnId(0));
                assert_eq!(v.seq, 4, "tail of the fat flow");
                assert_eq!(d.len(), 5);
            }
            Victim::Arriving => panic!("should have punished the fat flow"),
        }
    }

    #[test]
    fn fq_zero_size_packets_still_flow() {
        let mut d = DisciplineKind::FairQueueing.build();
        for i in 0..3 {
            d.enqueue(pkt(0, i, 0));
        }
        assert_eq!(d.len(), 3);
        let order: Vec<u64> = drain(&mut d).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn fq_virtual_time_monotone() {
        let mut d = FairQueueing::new();
        d.enqueue(pkt(0, 0, 500));
        d.dequeue();
        let vt1 = d.virtual_time;
        d.enqueue(pkt(1, 0, 50));
        d.dequeue();
        assert!(d.virtual_time >= vt1);
    }

    #[test]
    fn fq_serves_smallest_finish_tag_first() {
        let mut d = DisciplineKind::FairQueueing.build();
        for i in 0..2 {
            d.enqueue(pkt(0, i, 500));
        }
        d.enqueue(pkt(1, 0, 50));
        assert_eq!(drain(&mut d), vec![(1, 0), (0, 0), (0, 1)]);
    }

    /// Every variant's state survives a save / load onto a fresh build.
    #[test]
    fn state_roundtrips_for_every_kind() {
        for kind in [
            DisciplineKind::DropTail,
            DisciplineKind::RandomDrop,
            DisciplineKind::FairQueueing,
            DisciplineKind::Red,
        ] {
            let mut rng = SimRng::new(2);
            let mut d = kind.build();
            for i in 0..6 {
                if d.admit(&pkt((i % 2) as u32, i, 500), i as u32, &mut rng) {
                    d.enqueue(pkt((i % 2) as u32, i, 500));
                }
            }
            let mut w = SnapWriter::new();
            d.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut back = kind.build();
            let mut r = SnapReader::new(&bytes);
            back.load_state(&mut r).unwrap();
            r.finish().unwrap();
            let mut again = SnapWriter::new();
            back.save_state(&mut again);
            assert_eq!(again.into_bytes(), bytes, "{}", d.name());
            assert_eq!(drain(&mut back), drain(&mut d), "{}", d.name());
        }
    }
}

#[cfg(test)]
mod red_tests {
    use super::*;
    use crate::packet::{NodeId, PacketId, PacketKind};
    use td_engine::SimTime;

    fn pkt(seq: u64) -> Packet {
        Packet {
            id: PacketId(seq),
            conn: ConnId(0),
            kind: PacketKind::Data,
            seq,
            ack: 0,
            size: 500,
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
        }
    }

    #[test]
    fn empty_queue_admits_everything() {
        let mut red = Red::default();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert!(red.admit(0, &mut rng));
        }
        assert!(red.avg_queue() < 1.0);
    }

    #[test]
    fn sustained_congestion_forces_drops() {
        let mut red = Red::default();
        let mut rng = SimRng::new(2);
        let mut dropped = 0;
        for _ in 0..500 {
            if !red.admit(12, &mut rng) {
                dropped += 1;
            }
        }
        assert!(dropped > 5, "early drops expected, got {dropped}");
        assert!(dropped < 250, "should not drop most traffic, got {dropped}");
    }

    #[test]
    fn above_max_threshold_drops_everything() {
        let mut red = Red::new(1.0, 2.0, 5.0, 0.1); // w=1: avg = instantaneous
        let mut rng = SimRng::new(3);
        assert!(!red.admit(10, &mut rng));
        assert!(!red.admit(10, &mut rng));
    }

    #[test]
    fn average_tracks_occupancy() {
        let mut red = Red::new(0.5, 50.0, 100.0, 0.1);
        let mut rng = SimRng::new(4);
        for _ in 0..50 {
            red.admit(10, &mut rng);
        }
        assert!((red.avg_queue() - 10.0).abs() < 0.1);
    }

    #[test]
    fn service_is_fifo() {
        let mut red = Discipline::Red(Box::new(Red::new(0.5, 50.0, 100.0, 0.1)));
        for i in 0..4 {
            red.enqueue(pkt(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| red.dequeue())
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "thresholds inverted")]
    fn rejects_bad_thresholds() {
        let _ = Red::new(0.1, 10.0, 5.0, 0.1);
    }
}
