//! Cycle-exact regression pins for the simulator.
//!
//! The performance work on the network/machine hot path must be
//! *semantics-preserving*: the rewrite may make the simulator faster on
//! the host, but every simulated cycle count and stall breakdown has to
//! come out bit-identical. This test pins a fixed workload x strategy
//! matrix to the exact numbers produced before the rewrite; any diff here
//! is either an intentional timing-model change (update the table and
//! call it out in CHANGES.md) or a bug.
//!
//! Regenerate the table with:
//! `CYCLE_GOLDEN_PRINT=1 cargo test --test cycle_golden -- --nocapture`
//!
//! Every configuration is compiled once and run in all four
//! {fast-forward on, off} × {plain, `ChromeTracer` + interval probes}
//! corners (`common::fingerprint`); the pinned fingerprint must hold in
//! each. That is the end-to-end proof that the skip engine is
//! architecturally invisible (DESIGN.md §6) and that the observability
//! layer may collect anything it likes but may not perturb a single
//! architectural number (DESIGN.md §8).

mod common;

use voltron_core::Strategy;
use voltron_sim::MachineConfig;

/// One pinned configuration: benchmark, strategy, cores, and the
/// fingerprint `cycles/coupled/decoupled/insts/spawns|stall0,...,stall8`
/// (stalls summed over cores in `StallReason::ALL` order).
const GOLDEN: &[(&str, Strategy, usize, &str)] = &[
    (
        "164.gzip",
        Strategy::Serial,
        1,
        "164.gzip/serial/1: 15701/0/15701/1835/0|845,12971,0,50,0,0,0,0,0",
    ),
    (
        "164.gzip",
        Strategy::Ilp,
        4,
        "164.gzip/ilp/4: 18592/17729/863/8699/3|14911,49088,0,48,0,0,0,0,717",
    ),
    (
        "164.gzip",
        Strategy::FineGrainTlp,
        4,
        "164.gzip/fine-grain-tlp/4: 17818/0/17818/4371/3|3941,20538,0,52,0,19985,20876,0,238",
    ),
    (
        "164.gzip",
        Strategy::Llp,
        4,
        "164.gzip/llp/4: 16497/0/16497/1938/3|12523,46465,0,78,0,629,0,0,680",
    ),
    (
        "164.gzip",
        Strategy::Hybrid,
        4,
        "164.gzip/hybrid/4: 16497/0/16497/1938/3|12523,46465,0,78,0,629,0,0,680",
    ),
    (
        "164.gzip",
        Strategy::Hybrid,
        2,
        "164.gzip/hybrid/2: 14246/0/14246/1880/1|3323,22115,0,76,0,258,0,0,303",
    ),
    (
        "rawcaudio",
        Strategy::Serial,
        1,
        "rawcaudio/serial/1: 42806/0/42806/25611/0|845,5900,0,10450,0,0,0,0,0",
    ),
    (
        "rawcaudio",
        Strategy::Ilp,
        4,
        "rawcaudio/ilp/4: 38088/37222/866/115261/3|11232,23800,0,200,0,3,0,0,835",
    ),
    (
        "rawcaudio",
        Strategy::FineGrainTlp,
        4,
        "rawcaudio/fine-grain-tlp/4: 47345/0/47345/47249/3|4053,6119,0,12798,0,86840,30455,0,0",
    ),
    (
        "rawcaudio",
        Strategy::Llp,
        4,
        "rawcaudio/llp/4: 42806/0/42806/25611/0|845,5900,0,10450,0,0,0,0,0",
    ),
    (
        "rawcaudio",
        Strategy::Hybrid,
        4,
        "rawcaudio/hybrid/4: 38088/37222/866/115261/3|11232,23800,0,200,0,3,0,0,835",
    ),
    (
        "rawcaudio",
        Strategy::Hybrid,
        2,
        "rawcaudio/hybrid/2: 39271/38532/739/62433/1|3853,11662,0,98,0,3,0,0,123",
    ),
    (
        "171.swim",
        Strategy::Serial,
        1,
        "171.swim/serial/1: 44844/0/44844/12585/0|1147,26615,0,4497,0,0,0,0,0",
    ),
    (
        "171.swim",
        Strategy::Ilp,
        4,
        "171.swim/ilp/4: 51352/41678/9674/58433/66|10422,107436,0,1084,0,638,0,0,694",
    ),
    (
        "171.swim",
        Strategy::FineGrainTlp,
        4,
        "171.swim/fine-grain-tlp/4: 45211/0/45211/33520/5|5851,57595,0,6291,0,66261,0,0,2291",
    ),
    (
        "171.swim",
        Strategy::Llp,
        4,
        "171.swim/llp/4: 26048/0/26048/12755/6|10539,65736,0,4558,0,1729,0,0,2743",
    ),
    (
        "171.swim",
        Strategy::Hybrid,
        4,
        "171.swim/hybrid/4: 26048/0/26048/12755/6|10539,65736,0,4558,0,1729,0,0,2743",
    ),
    (
        "171.swim",
        Strategy::Hybrid,
        2,
        "171.swim/hybrid/2: 24300/0/24300/12663/2|3328,26045,0,4538,0,370,0,0,965",
    ),
    (
        "179.art",
        Strategy::Serial,
        1,
        "179.art/serial/1: 86391/0/86391/10813/0|603,69576,0,5399,0,0,0,0,0",
    ),
    (
        "179.art",
        Strategy::FineGrainTlp,
        4,
        "179.art/fine-grain-tlp/4: 70517/0/70517/19246/2|2835,147432,0,5400,0,18171,0,0,0",
    ),
    (
        "179.art",
        Strategy::Hybrid,
        4,
        "179.art/hybrid/4: 70517/0/70517/19246/2|2835,147432,0,5400,0,18171,0,0,0",
    ),
    (
        "epic",
        Strategy::Serial,
        1,
        "epic/serial/1: 29259/0/29259/11709/0|1158,14856,0,1536,0,0,0,0,0",
    ),
    (
        "epic",
        Strategy::FineGrainTlp,
        4,
        "epic/fine-grain-tlp/4: 32068/0/32068/30096/6|5631,17509,0,1151,0,19214,18489,0,18788",
    ),
    (
        "epic",
        Strategy::Hybrid,
        4,
        "epic/hybrid/4: 23230/0/23230/11788/3|6003,40700,0,1554,0,604,0,0,1329",
    ),
    (
        "mpeg2dec",
        Strategy::Serial,
        1,
        "mpeg2dec/serial/1: 78489/0/78489/30730/0|484,42155,0,5120,0,0,0,0,0",
    ),
    (
        "mpeg2dec",
        Strategy::Llp,
        4,
        "mpeg2dec/llp/4: 43093/0/43093/30888/6|9846,115053,0,5177,0,1569,0,0,4992",
    ),
    (
        "mpeg2dec",
        Strategy::Hybrid,
        4,
        "mpeg2dec/hybrid/4: 43093/0/43093/30888/6|9846,115053,0,5177,0,1569,0,0,4992",
    ),
];

#[test]
fn cycle_counts_and_stall_breakdowns_are_pinned() {
    let print = std::env::var("CYCLE_GOLDEN_PRINT").is_ok();
    let mut failures = Vec::new();
    for &(bench, strategy, cores, expected) in GOLDEN {
        let label = format!("{bench}/{strategy}/{cores}");
        let actual = common::fingerprint(&label, bench, strategy, &MachineConfig::paper(cores));
        if print {
            println!("    (\"{bench}\", Strategy::{strategy:?}, {cores}, \"{actual}\"),");
        } else if actual != expected {
            failures.push(format!("  expected {expected}\n  actual   {actual}"));
        }
    }
    assert!(
        failures.is_empty(),
        "cycle-golden drift ({} of {} configs):\n{}",
        failures.len(),
        GOLDEN.len(),
        failures.join("\n")
    );
}

/// FNV-1a over formatted text, fed straight from the formatter. Unlike
/// `DefaultHasher`, its output is fixed by its definition.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Every field of `MachineStats` — the memory-system, network, TM and
/// fault counters the fingerprints above omit included — over the
/// matrix above and `scaling_golden.rs`'s programs at 8–64 cores on the
/// directory, with fast-forward on and off, folded into one digest: each
/// run's `Debug` text with its region map sorted. A host-side change to
/// the tick loop must leave it alone; a deliberate timing-model change
/// updates it and says why.
#[test]
fn every_statistic_is_pinned() {
    use std::fmt::Write;
    use std::sync::Arc;
    use voltron_compiler::{compile, CompileOptions};
    use voltron_sim::{CoherenceBackend, Machine};
    use voltron_workloads::{by_name, Scale};

    const DIGEST: u64 = 0x1b09_ce0d_709a_15bb;
    let scaled = ["164.gzip", "rawcaudio"].into_iter().flat_map(|bench| {
        [Strategy::Hybrid, Strategy::FineGrainTlp]
            .into_iter()
            .flat_map(move |s| [8, 16, 32, 64].map(|cores| (bench, s, cores)))
    });
    let configs = GOLDEN
        .iter()
        .map(|&(bench, strategy, cores, _)| (bench, strategy, MachineConfig::paper(cores)))
        .chain(scaled.map(|(bench, strategy, cores)| {
            let cfg =
                MachineConfig::scaled(cores).with_backend(CoherenceBackend::directory_for(cores));
            (bench, strategy, cfg)
        }));
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (bench, strategy, cfg) in configs {
        let label = format!("{bench}/{strategy}/{}/{}", cfg.cores, cfg.coherence.label());
        let w = by_name(bench, Scale::Test).expect("benchmark registered");
        let compiled = compile(&w.program, strategy, &cfg, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{label}: compile: {e}"));
        let image = Arc::new(compiled.machine);
        for fast_forward in [true, false] {
            let cfg = MachineConfig {
                fast_forward,
                ..cfg.clone()
            };
            let mut stats = Machine::new_shared(Arc::clone(&image), &cfg)
                .and_then(Machine::run)
                .unwrap_or_else(|e| panic!("{label} (fast-forward {fast_forward}): {e}"))
                .stats;
            let mut regions: Vec<_> = std::mem::take(&mut stats.regions).into_iter().collect();
            regions.sort_unstable_by_key(|&(r, _)| r);
            write!(h, "{label}{stats:?}{regions:?}").expect("hashing");
        }
    }
    assert_eq!(h.0, DIGEST, "statistics digest {:#018x}", h.0);
}
