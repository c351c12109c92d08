//! Timing properties of the queue-mode operand network, exercised
//! through the public `voltron_sim::network` API on meshes up to 4x2:
//!
//! * XY link contention: two messages between *disjoint* core pairs
//!   whose XY routes share a directed link serialize on that link;
//! * uncontended latency is exactly `queue_overhead + hops`, and under
//!   arbitrary traffic the observed latency never drops below it;
//! * delivery is FIFO per (sender, tag) even when a sender interleaves
//!   tags and a receiver interleaves senders.

use rand::rngs::StdRng;
use rand::Rng;
use voltron_ir::Value;
use voltron_sim::network::{OperandNetwork, Payload};
use voltron_sim::MachineConfig;

#[path = "../crates/sim/tests/common/cases.rs"]
mod cases;
use cases::{cases, vec_of};

/// A machine wider than the paper's 4 cores (same parameters), as the
/// scaling experiments build it: 8 cores form a 4x2 mesh.
fn scaled(cores: usize) -> MachineConfig {
    MachineConfig {
        cores,
        ..MachineConfig::paper(4)
    }
}

#[test]
fn disjoint_pairs_sharing_a_link_serialize() {
    // 4x2 mesh: 0-1-2-3 / 4-5-6-7. Message A goes 0 -> 2 (east, east),
    // message B goes 1 -> 3 (east, east); the pairs are disjoint but
    // both routes cross the directed link 1 -> 2.
    let mut n = OperandNetwork::new(&scaled(8));
    assert!(n.send(0, 2, 7, Payload::Data(Value::Int(100)), 0));
    assert!(n.send(1, 3, 9, Payload::Data(Value::Int(200)), 0));
    for t in 1..10 {
        n.tick(t);
    }
    // A is injected first (lower core id) and is uncontended:
    // 0 (send) + 2 (overhead) + 2 hops = 4.
    assert!(!n.can_recv(2, 0, 7, 3));
    assert!(n.can_recv(2, 0, 7, 4));
    // B alone would also arrive at 4 (see the control below), but its
    // first hop 1 -> 2 is reserved by A through cycle 3, so B crosses
    // at 4, reaches core 3 at 5, and is available at 6.
    assert!(!n.can_recv(3, 1, 9, 5));
    assert!(n.can_recv(3, 1, 9, 6));
    assert_eq!(n.recv(2, 0, 7, 6), Some(Value::Int(100)));
    assert_eq!(n.recv(3, 1, 9, 6), Some(Value::Int(200)));
}

#[test]
fn the_same_route_uncontended_meets_the_paper_latency() {
    // Control for the contention test: B's route with no competing
    // traffic delivers at send + overhead + hops = 0 + 2 + 2 = 4.
    let mut n = OperandNetwork::new(&scaled(8));
    assert!(n.send(1, 3, 9, Payload::Data(Value::Int(200)), 0));
    for t in 1..10 {
        n.tick(t);
    }
    assert!(!n.can_recv(3, 1, 9, 3));
    assert!(n.can_recv(3, 1, 9, 4));
}

/// Under arbitrary traffic the source-to-receive-queue latency of every
/// message is at least `queue_overhead + hops` — contention can only push
/// deliveries later, never earlier.
#[test]
fn latency_is_bounded_below_by_overhead_plus_hops() {
    let pair = |rng: &mut StdRng| (rng.gen_range(0u8..8), rng.gen_range(0u8..8));
    let sample = |rng: &mut StdRng| vec_of(rng, 1..10, pair);
    cases(1_800_000, 24, sample, |traffic| {
        let cfg = scaled(8);
        let mut n = OperandNetwork::new(&cfg);
        // Unique tag per message so each can be probed independently.
        let msgs: Vec<(usize, usize, u32)> = traffic
            .iter()
            .enumerate()
            .filter(|(_, &(f, t))| f != t)
            .map(|(i, &(f, t))| (f as usize, t as usize, i as u32))
            .collect();
        for &(from, to, tag) in &msgs {
            assert!(n.send(from, to, tag, Payload::Data(Value::Int(tag as i64)), 0));
        }
        const HORIZON: u64 = 1_000;
        for t in 1..HORIZON {
            n.tick(t);
        }
        for &(from, to, tag) in &msgs {
            let arrived = (0..HORIZON).find(|&t| n.can_recv(to, from, tag, t));
            let at = arrived.expect("message never became available");
            let floor = cfg.queue_overhead + cfg.hops(from, to);
            assert!(
                at >= floor,
                "{from}->{to} available at {at}, below the {floor} floor"
            );
        }
    });
}

/// FIFO holds independently per (sender, tag) stream even when the
/// streams interleave arbitrarily at both ends.
#[test]
fn interleaved_streams_stay_fifo_per_sender_and_tag() {
    let send = |rng: &mut StdRng| {
        let (sender, tag) = (rng.gen_range(0u8..2), rng.gen_range(0u8..2));
        (sender, tag, rng.gen_range(-1000i64..1000))
    };
    let sample = |rng: &mut StdRng| vec_of(rng, 1..24, send);
    cases(1_900_000, 24, sample, |stream| {
        let mut n = OperandNetwork::new(&MachineConfig::paper(4));
        let mut sent: Vec<Vec<i64>> = vec![Vec::new(); 4];
        let mut now = 0u64;
        for &(sender, tag, v) in stream {
            let (sender, tag) = (sender as usize, tag as u32);
            while !n.send(sender, 3, tag, Payload::Data(Value::Int(v)), now) {
                n.tick(now);
                now += 1;
                assert!(now < 100_000, "send queue never drained");
            }
            sent[sender * 2 + tag as usize].push(v);
        }
        for t in now..now + 200 {
            n.tick(t);
        }
        let end = now + 400;
        for sender in 0..2 {
            for tag in 0..2u32 {
                let mut got = Vec::new();
                while let Some(Value::Int(v)) = n.recv(3, sender, tag, end) {
                    got.push(v);
                }
                assert_eq!(
                    got,
                    sent[sender * 2 + tag as usize],
                    "stream ({sender}, {tag})"
                );
            }
        }
    });
}
