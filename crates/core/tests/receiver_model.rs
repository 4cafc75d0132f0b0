//! Property test: the receiver against a reference model.
//!
//! Feed the real `TcpReceiver` randomized interleavings (with duplicates)
//! of segments 1..=n through a scripted source, and compare against the
//! obvious model: delivery count = number of *distinct* segments once all
//! have arrived, cumulative ack = highest contiguous prefix at every step.
//!
//! Cases come from the engine's own deterministic [`SimRng`] (fixed seed
//! per case), so failures reproduce by case number without any external
//! test-framework dependency.

use std::any::Any;
use td_core::{ReceiverConfig, TcpReceiver};
use td_engine::{Rate, SimDuration, SimRng, SimTime};
use td_net::{ConnId, Ctx, DisciplineKind, Endpoint, Packet, PacketKind, World};

/// Scripted source: sends `seqs` at 1 ms intervals; records ack stream.
struct Script {
    seqs: Vec<u64>,
    acks: Vec<u64>,
}
impl Endpoint for Script {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.seqs.len() {
            ctx.set_timer(SimDuration::from_millis(i as u64 + 1), i as u64);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        self.acks.push(pkt.seq);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        ctx.send(PacketKind::Data, self.seqs[token as usize], 500, false);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn run_sequence(seqs: Vec<u64>) -> (Vec<u64>, u64, u64) {
    let mut w = World::new(1);
    let h0 = w.add_host("src", SimDuration::from_nanos(1));
    let h1 = w.add_host("dst", SimDuration::from_nanos(1));
    for (a, b) in [(h0, h1), (h1, h0)] {
        w.add_channel(
            a,
            b,
            Rate::from_mbps(1000),
            SimDuration::from_nanos(1),
            None,
            DisciplineKind::DropTail.build(),
        );
    }
    let src = w.attach(h0, h1, ConnId(0), Box::new(Script { seqs, acks: vec![] }));
    let dst = w.attach(
        h1,
        h0,
        ConnId(0),
        TcpReceiver::boxed(ReceiverConfig::paper()),
    );
    w.start_at(src, SimTime::ZERO);
    w.run_to_completion();
    let acks = w
        .endpoint(src)
        .unwrap()
        .as_any()
        .downcast_ref::<Script>()
        .unwrap()
        .acks
        .clone();
    let rx = w
        .endpoint(dst)
        .unwrap()
        .as_any()
        .downcast_ref::<TcpReceiver>()
        .unwrap();
    (acks, rx.cumulative_ack(), rx.stats().delivered)
}

/// A shuffled multiset over 1..=n: every value appears at least once, some
/// repeated.
fn segment_stream(rng: &mut SimRng) -> (u64, Vec<u64>) {
    let n = rng.next_range(1, 39);
    let extras = rng.next_below(20) as usize;
    let mut all: Vec<u64> = (1..=n).collect();
    for _ in 0..extras {
        all.push(rng.next_range(1, n));
    }
    // A permutation via random priorities (stable for equal keys, but the
    // keys are 64-bit so collisions are negligible).
    let mut pairs: Vec<(u64, u64)> = all.into_iter().map(|v| (rng.next_u64(), v)).collect();
    pairs.sort();
    (n, pairs.into_iter().map(|(_, v)| v).collect())
}

#[test]
fn receiver_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0x00AC_CE55 + case);
        let (n, seqs) = segment_stream(&mut rng);
        let (acks, cumulative, delivered) = run_sequence(seqs.clone());
        // Final state: everything 1..=n delivered exactly once.
        assert_eq!(cumulative, n, "case {case}");
        assert_eq!(delivered, n, "case {case}");
        // One ack per arriving segment, cumulative at each step.
        assert_eq!(acks.len(), seqs.len(), "case {case}");
        let mut seen = vec![false; n as usize + 1];
        let mut expect_cum = 0u64;
        for (i, &s) in seqs.iter().enumerate() {
            seen[s as usize] = true;
            while (expect_cum as usize) < n as usize && seen[expect_cum as usize + 1] {
                expect_cum += 1;
            }
            assert_eq!(
                acks[i], expect_cum,
                "case {case}: after segment {s} (#{i}) expected cumulative {expect_cum}"
            );
        }
        // Ack stream is monotone nondecreasing.
        assert!(
            acks.windows(2).all(|w| w[0] <= w[1]),
            "case {case}: ack stream not monotone"
        );
    }
}
