//! Invariants of the event-gated cycle loop (DESIGN.md §6 and §14).
//!
//! The loop charges a core's cycles when its accounting bucket
//! *changes*, leaves parked cores untouched, and fast-forwards without
//! accounting at all — so "every core-cycle lands in exactly one bucket,
//! of both the core's stats and the current region's" is no longer true
//! tick by tick, only at flush points. These suites pin that it is true
//! there, in every corner, and that the operand network's pending-work
//! indexes report what an exhaustive scan does.
//!
//! The matrix suite sweeps the four {fast-forward on, off} × {plain,
//! `ChromeTracer` + interval probes} corners itself.

use rand::rngs::StdRng;
use rand::Rng;
use voltron_compiler::{compile, CompileOptions, Strategy};
use voltron_ir::{BlockId, Dir, Value};
use voltron_sim::network::{OperandNetwork, Payload};
use voltron_sim::{
    ChromeTracer, CoherenceBackend, FaultPlan, Machine, MachineConfig, MachineProgram, RunOutcome,
    StallReason,
};
use voltron_workloads::{by_name, Scale};

use crate::common::cases::{cases, vec_of};
use crate::common::mesh;

const ALL_FOUR: &[Strategy] = &[
    Strategy::Ilp,
    Strategy::FineGrainTlp,
    Strategy::Llp,
    Strategy::Hybrid,
];

/// The `cycle_golden` matrix: (benchmark, strategies at 4 cores, whether
/// hybrid/2 is pinned too). Every benchmark also runs serial/1.
const PAPER: &[(&str, &[Strategy], bool)] = &[
    ("164.gzip", ALL_FOUR, true),
    ("rawcaudio", ALL_FOUR, true),
    ("171.swim", ALL_FOUR, true),
    (
        "179.art",
        &[Strategy::FineGrainTlp, Strategy::Hybrid],
        false,
    ),
    ("epic", &[Strategy::FineGrainTlp, Strategy::Hybrid], false),
    ("mpeg2dec", &[Strategy::Llp, Strategy::Hybrid], false),
];

/// Every (benchmark, strategy, config) of the `cycle_golden` and
/// `scaling_golden` matrices.
fn golden_matrix() -> Vec<(&'static str, Strategy, MachineConfig)> {
    let mut m = Vec::new();
    for &(bench, strategies, two_cores) in PAPER {
        m.push((bench, Strategy::Serial, MachineConfig::paper(1)));
        for &s in strategies {
            m.push((bench, s, MachineConfig::paper(4)));
        }
        if two_cores {
            m.push((bench, Strategy::Hybrid, MachineConfig::paper(2)));
        }
    }
    for bench in ["164.gzip", "rawcaudio"] {
        for s in [Strategy::Hybrid, Strategy::FineGrainTlp] {
            for cores in [8, 16] {
                for backend in [
                    CoherenceBackend::Snooping,
                    CoherenceBackend::directory_for(cores),
                ] {
                    m.push((bench, s, MachineConfig::scaled(cores).with_backend(backend)));
                }
            }
        }
    }
    m
}

/// Every core accounts exactly the cycles it was simulated for, every
/// region accounts exactly its own cycles on every core, and the two
/// views agree bucket by bucket.
fn assert_exact_accounting(tag: &str, out: &RunOutcome) {
    let s = &out.stats;
    let simulated = s.cycles + s.drained_cycles;
    for (i, c) in s.cores.iter().enumerate() {
        assert_eq!(c.accounted(), simulated, "{tag}: core {i}");
    }
    assert_eq!(s.coupled_cycles + s.decoupled_cycles, simulated, "{tag}");
    let n = s.cores.len() as u64;
    for (r, rb) in &s.regions {
        assert_eq!(rb.buckets.accounted(), rb.cycles * n, "{tag}: region {r}");
    }
    let regions = |f: &dyn Fn(&voltron_sim::RegionBreakdown) -> u64| -> u64 {
        s.regions.values().map(f).sum()
    };
    let cores = |f: &dyn Fn(&voltron_sim::CoreStats) -> u64| -> u64 { s.cores.iter().map(f).sum() };
    assert_eq!(regions(&|r| r.cycles), simulated, "{tag}: region cycles");
    assert_eq!(
        regions(&|r| r.buckets.issued),
        cores(&|c| c.issued + c.nops),
        "{tag}: issued"
    );
    assert_eq!(
        regions(&|r| r.buckets.idle),
        cores(&|c| c.idle),
        "{tag}: idle"
    );
    assert_eq!(
        regions(&|r| r.buckets.spawn_starts),
        cores(&|c| c.spawn_starts),
        "{tag}: spawn starts"
    );
    for reason in StallReason::ALL {
        let i = reason.index();
        assert_eq!(
            regions(&|r| r.buckets.stalls[i]),
            cores(&|c| c.stalls[i]),
            "{tag}: {reason}"
        );
    }
}

fn run(p: &MachineProgram, cfg: &MachineConfig, ff: bool, observed: bool) -> RunOutcome {
    let mut cfg = cfg.clone();
    cfg.fast_forward = ff;
    cfg.probe_period = observed.then_some(64);
    let mut m = Machine::new(p.clone(), &cfg).expect("boot");
    if observed {
        m.set_tracer(Box::new(ChromeTracer::new()));
    }
    m.run().expect("run")
}

#[test]
fn every_core_cycle_is_charged_once_across_the_golden_matrix() {
    for (bench, strategy, cfg) in golden_matrix() {
        let w = by_name(bench, Scale::Test).expect("benchmark registered");
        let compiled = compile(&w.program, strategy, &cfg, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{bench} {strategy}/{}: compile: {e}", cfg.cores));
        let mut reference = None;
        for ff in [true, false] {
            for observed in [false, true] {
                let tag = format!(
                    "{bench}/{strategy}/{}/{} ff={ff} observed={observed}",
                    cfg.cores,
                    cfg.coherence.label()
                );
                let out = run(&compiled.machine, &cfg, ff, observed);
                assert_exact_accounting(&tag, &out);
                // One set of numbers in all four corners.
                let stats = reference.get_or_insert_with(|| out.stats.clone());
                assert_eq!(*stats, out.stats, "{tag}");
            }
        }
    }
}

/// A 16-core image that is almost always parked, whose master crosses a
/// region boundary straight into a cold miss every iteration: the probe
/// boundaries inside the skipped spans fall in runs that opened in one
/// region and are charged in another. The series — per-core counters
/// and gauges — must not depend on whether the spans were ticked.
#[test]
fn probe_series_is_identical_with_parked_cores_and_region_changes_in_skipped_spans() {
    let (p, out_addr) = mesh::fork_join_loop(16, 12, 16);
    let mut cfg = MachineConfig::scaled(16);
    cfg.probe_period = Some(5);
    let mut outs = [false, true].map(|ff| {
        cfg.fast_forward = ff;
        Machine::new(p.clone(), &cfg)
            .expect("boot")
            .run()
            .expect("run")
    });
    let [off, on] = &mut outs;
    assert_eq!(
        on.memory.load_i64(out_addr).unwrap(),
        mesh::fork_join_sum(16, 12)
    );
    assert_eq!(off.stats, on.stats);
    assert_eq!(off.memory, on.memory);
    assert!(
        on.ticked_cycles * 2 < off.ticked_cycles,
        "expected most cycles skipped: ticked {} of {}",
        on.ticked_cycles,
        off.ticked_cycles
    );
    assert_eq!(on.stats.regions.len(), 2, "the master visits two regions");
    assert_eq!(on.stats.spawns, 15 * 12);
    assert_eq!(on.stats.mode_switches, 2 * 12);
    assert_exact_accounting("fork-join off", off);
    assert_exact_accounting("fork-join on", on);
    let series = on.probes.take().expect("probes recorded");
    assert!(series.samples.len() > 100);
    assert_eq!(Some(series), off.probes.take(), "probe series diverged");
}

// ---------- the operand network's pending-work indexes ----------

#[derive(Debug, Clone)]
enum NetOp {
    /// `n` back-to-back sends on one stream: they leave the send queue
    /// one per cycle, so their availabilities are staggered and a
    /// receive exposes a head that is still in the future.
    Burst(usize, usize, u32, usize),
    Spawn(usize, usize),
    /// Receive whatever is available at a core, from anyone.
    Drain(usize),
    TakeSpawn(usize),
    Put(usize, usize),
    Get(usize, usize),
    Bcast(usize),
    GetB(usize),
    Tick(u64),
}

/// A 2x2 mesh and two tags: few enough streams that random traffic
/// keeps revisiting the same ones.
const CORES: usize = 4;
const TAGS: u32 = 2;
const DIRS: [Dir; 4] = [Dir::East, Dir::West, Dir::South, Dir::North];

/// One random operation; `Burst`, `Drain` and `Tick` are listed more
/// than once to weight the mix towards traffic that queues up.
fn net_op(rng: &mut StdRng) -> NetOp {
    let core = |rng: &mut StdRng| rng.gen_range(0..CORES);
    match rng.gen_range(0..13) {
        0 | 1 => NetOp::Burst(
            core(rng),
            core(rng),
            rng.gen_range(0..TAGS),
            rng.gen_range(1..5),
        ),
        2 => NetOp::Spawn(core(rng), core(rng)),
        3 | 4 => NetOp::Drain(core(rng)),
        5 => NetOp::TakeSpawn(core(rng)),
        6 => NetOp::Put(core(rng), rng.gen_range(0..4)),
        7 => NetOp::Get(core(rng), rng.gen_range(0..4)),
        8 => NetOp::Bcast(core(rng)),
        9 => NetOp::GetB(core(rng)),
        _ => NetOp::Tick(rng.gen_range(1..4)),
    }
}

/// Drive `ops` through a network and compare the indexed `next_event`
/// with the exhaustive scan after every one of them.
fn check_next_event(ops: &[NetOp], faults: Option<FaultPlan>) {
    let mut cfg = MachineConfig::scaled(CORES);
    cfg.faults = faults;
    let mut net = OperandNetwork::new(&cfg);
    let mut now = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            NetOp::Burst(from, to, tag, n) if from != to => {
                for i in 0..n {
                    let v = Value::Int((step * 8 + i) as i64);
                    net.send(from, to, tag, Payload::Data(v), now);
                }
            }
            NetOp::Spawn(from, to) if from != to => {
                net.send(from, to, 0, Payload::Spawn(BlockId(1)), now);
            }
            NetOp::Burst(..) | NetOp::Spawn(..) => {}
            NetOp::Drain(core) => {
                for from in 0..CORES {
                    for tag in 0..TAGS {
                        while net.recv(core, from, tag, now).is_some() {}
                    }
                }
            }
            NetOp::TakeSpawn(core) => {
                net.take_spawn(core, now);
            }
            NetOp::Put(core, d) => {
                // Off-mesh directions are an error the machine reports;
                // here they are just not a transfer.
                let _ = net.put(core, DIRS[d], Value::Int(1), now);
            }
            NetOp::Get(core, d) => {
                net.get(core, DIRS[d], now);
            }
            NetOp::Bcast(core) => {
                net.bcast(core, Value::Pred(true), now);
            }
            NetOp::GetB(core) => {
                net.getb(core, now);
            }
            NetOp::Tick(n) => {
                for _ in 0..n {
                    now += 1;
                    net.tick(now);
                }
            }
        }
        // Both the cycle fast-forward asks about (`now - 1` once the
        // tick for `now` ran) and the current one.
        for at in [now.saturating_sub(1), now] {
            let (indexed, scanned) = (net.next_event(at), net.next_event_by_scan(at));
            assert_eq!(indexed, scanned, "after step {step} ({op:?}) at cycle {at}");
        }
    }
}

/// Random queue- and direct-mode traffic on a 2x2 mesh: the stream-head
/// list, the sending and pending-spawn sets and the latch counters always
/// describe exactly the heads a scan of every queue, latch and stream
/// finds.
#[test]
fn next_event_equals_a_scan_of_every_head() {
    let sample = |rng: &mut StdRng| vec_of(rng, 1..120, net_op);
    cases(600_000, 96, sample, |ops| check_next_event(ops, None));
}

/// The same under a fault plan that drops, delays and duplicates about
/// one injection in five: backing-off and parked heads, late arrivals and
/// deduplicated resends all go through the same indexes.
#[test]
fn next_event_equals_a_scan_of_every_head_under_faults() {
    let sample = |rng: &mut StdRng| (vec_of(rng, 1..120, net_op), rng.gen_range(0..1000u64));
    cases(700_000, 96, sample, |(ops, seed)| {
        check_next_event(ops, Some(FaultPlan::seeded(*seed, 0.2)));
    });
}
