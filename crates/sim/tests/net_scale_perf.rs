//! Host-side perf probe for the operand-network hot paths at scale.
//!
//! Not a regression test (host timing is machine-dependent) — run it by
//! hand to quantify the receive-CAM / spawn-scan / broadcast-probe cost
//! at large core counts:
//!
//! `cargo test --release -p voltron-sim --test net_scale_perf -- --ignored --nocapture`

use std::time::Instant;
use voltron_ir::{BlockId, Value};
use voltron_sim::network::{OperandNetwork, Payload};
use voltron_sim::MachineConfig;

fn cfg(cores: usize) -> MachineConfig {
    MachineConfig {
        cores,
        ..MachineConfig::paper(4)
    }
}

/// Many (sender, tag) streams converging on one receiver: the delivery
/// path and `can_recv`/`recv` all search the receiver-side CAM.
#[test]
#[ignore = "host-timing probe, run by hand"]
fn delivery_and_recv_under_fanin() {
    let cores = 64;
    let tags = 8u32;
    let mut n = OperandNetwork::new(&cfg(cores));
    let t0 = Instant::now();
    let mut received = 0u64;
    let mut now = 0u64;
    for round in 0..2_000u64 {
        for from in 1..cores {
            let tag = (round as u32 + from as u32) % tags;
            n.send(from, 0, tag, Payload::Data(Value::Int(round as i64)), now);
        }
        for _ in 0..8 {
            now += 1;
            n.tick(now);
        }
        now += 200; // everything in flight is now available
        for from in 1..cores {
            for tag in 0..tags {
                if n.can_recv(0, from, tag, now) {
                    n.recv(0, from, tag, now);
                    received += 1;
                }
            }
        }
    }
    println!(
        "fan-in delivery+recv: {received} messages in {:?} ({:.0} ns/msg)",
        t0.elapsed(),
        t0.elapsed().as_nanos() as f64 / received.max(1) as f64
    );
}

/// Spawn-scan cost: `has_spawn` is probed every cycle by every idle core.
#[test]
#[ignore = "host-timing probe, run by hand"]
fn spawn_probe_scan() {
    let cores = 64;
    let mut n = OperandNetwork::new(&cfg(cores));
    // One parked (not yet available) spawn so the scan never short-circuits.
    n.send(1, 0, 0, Payload::Spawn(BlockId(1)), 0);
    n.tick(1);
    let t0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..2_000_000u64 {
        if n.has_spawn(0, 1) {
            hits += 1;
        }
    }
    println!(
        "has_spawn x2M (64 cores, empty): {:?} ({hits} hits, {:.1} ns/probe)",
        t0.elapsed(),
        t0.elapsed().as_nanos() as f64 / 2e6
    );
    let t1 = Instant::now();
    let mut taken = 0u64;
    for round in 0..200_000u64 {
        for from in 1..5 {
            n.send(from, 0, 0, Payload::Spawn(BlockId(1)), round);
        }
        n.tick(round + 1);
        let now = round + 100;
        while n.take_spawn(0, now).is_some() {
            taken += 1;
        }
    }
    println!(
        "take_spawn: {taken} spawns in {:?} ({:.0} ns/spawn)",
        t1.elapsed(),
        t1.elapsed().as_nanos() as f64 / taken.max(1) as f64
    );
}

/// `can_bcast` is probed every cycle by every coupled core at a BCAST.
#[test]
#[ignore = "host-timing probe, run by hand"]
fn bcast_probe_scan() {
    let cores = 64;
    let n = OperandNetwork::new(&cfg(cores));
    let t0 = Instant::now();
    let mut free = 0u64;
    for _ in 0..2_000_000u64 {
        if n.can_bcast(0) {
            free += 1;
        }
    }
    println!(
        "can_bcast x2M (64 cores, all free): {:?} ({free} free, {:.1} ns/probe)",
        t0.elapsed(),
        t0.elapsed().as_nanos() as f64 / 2e6
    );
}

/// `next_event` is asked on every fast-forward attempt. It used to walk
/// all 64 x 64 `(receiver, sender)` stream maps per call; it now reads
/// the stream-head index, so the cost follows the number of non-empty
/// streams — timed here with a handful, and with a 63-sender fan-in —
/// and the exhaustive scan it replaced is timed beside it.
#[test]
#[ignore = "host-timing probe, run by hand"]
fn next_event_at_64_cores() {
    let cores = 64;
    let calls = 1_000_000u64;
    for senders in [3, cores - 1] {
        let mut n = OperandNetwork::new(&cfg(cores));
        for from in 1..=senders {
            n.send(from, 0, 7, Payload::Data(Value::Int(1)), 0);
        }
        // Drain the send queues; everything is then parked in core 0's
        // CAM, available far enough out that every head is a future event.
        for now in 1..200 {
            n.tick(now);
        }
        let mut sum = 0u64;
        let t0 = Instant::now();
        for _ in 0..calls {
            sum += std::hint::black_box(&n).next_event(0).unwrap_or(0);
        }
        let indexed = t0.elapsed();
        let t1 = Instant::now();
        for _ in 0..calls / 100 {
            sum += std::hint::black_box(&n).next_event_by_scan(0).unwrap_or(0);
        }
        let scanned = t1.elapsed();
        println!(
            "next_event, 64 cores, {senders} streams buffered: {:.1} ns/call indexed, \
             {:.1} ns/call exhaustive ({sum})",
            indexed.as_nanos() as f64 / calls as f64,
            scanned.as_nanos() as f64 / (calls / 100) as f64
        );
    }
}
