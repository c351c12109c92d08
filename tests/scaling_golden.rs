//! Cycle-exact regression pins for the scaled (8/16-core) machines on
//! both coherence backends.
//!
//! `tests/cycle_golden.rs` pins the paper's 1/2/4-core machines; this
//! matrix extends the same guarantee to the scaled meshes
//! ([`MachineConfig::scaled`]) and to the banked directory backend, so
//! neither the geometry generalization nor the backend split can drift
//! silently. Like that matrix, every configuration is compiled once and
//! run in all four {fast-forward on, off} × {plain, tracer + probes}
//! corners (`common::fingerprint`): fast-forward and observability are
//! architecturally invisible at every geometry and on every backend
//! (DESIGN.md §9).
//!
//! Regenerate the table with:
//! `CYCLE_GOLDEN_PRINT=1 cargo test --test scaling_golden -- --nocapture`

mod common;

use voltron_core::Strategy;
use voltron_sim::{CoherenceBackend, MachineConfig};

/// Resolve a backend label from the pinned table: `"snooping"` or
/// `"directory"` (bank count per [`CoherenceBackend::directory_for`]).
fn backend_of(label: &str, cores: usize) -> CoherenceBackend {
    match label {
        "snooping" => CoherenceBackend::Snooping,
        "directory" => CoherenceBackend::directory_for(cores),
        other => panic!("unknown backend label {other}"),
    }
}

/// One pinned configuration: benchmark, strategy, cores, backend label,
/// and the fingerprint
/// `cycles/coupled/decoupled/insts/spawns|stall0,...,stall8`
/// (stalls summed over cores in `StallReason::ALL` order).
const GOLDEN: &[(&str, Strategy, usize, &str, &str)] = &[
    ("164.gzip", Strategy::Hybrid, 8, "snooping", "164.gzip/hybrid/8/snooping: 20835/0/20835/2054/7|45286,87094,0,85,0,1452,0,0,11305"),
    ("164.gzip", Strategy::Hybrid, 8, "directory", "164.gzip/hybrid/8/directory: 12447/0/12447/2054/7|25762,46107,0,85,0,770,0,0,9425"),
    ("164.gzip", Strategy::Hybrid, 16, "snooping", "164.gzip/hybrid/16/snooping: 29383/0/29383/2286/15|126266,120891,0,99,0,3615,0,0,94738"),
    ("164.gzip", Strategy::Hybrid, 16, "directory", "164.gzip/hybrid/16/directory: 11999/0/11999/2286/15|49749,35126,0,99,0,2838,0,0,36365"),
    ("164.gzip", Strategy::FineGrainTlp, 8, "snooping", "164.gzip/fine-grain-tlp/8/snooping: 19123/0/19123/6517/7|11019,20807,0,52,0,36740,72412,0,0"),
    ("164.gzip", Strategy::FineGrainTlp, 8, "directory", "164.gzip/fine-grain-tlp/8/directory: 16418/0/16418/6517/7|7938,17257,0,52,0,31445,63307,0,0"),
    ("164.gzip", Strategy::FineGrainTlp, 16, "snooping", "164.gzip/fine-grain-tlp/16/snooping: 22252/0/22252/9837/13|28155,27329,0,149,0,68475,158397,0,0"),
    ("164.gzip", Strategy::FineGrainTlp, 16, "directory", "164.gzip/fine-grain-tlp/16/directory: 18601/0/18601/9837/13|20916,22302,0,151,0,55841,135486,0,0"),
    ("rawcaudio", Strategy::Hybrid, 8, "snooping", "rawcaudio/hybrid/8/snooping: 41206/39261/1945/230511/7|42455,47600,0,400,0,1348,0,0,2006"),
    ("rawcaudio", Strategy::Hybrid, 8, "directory", "rawcaudio/hybrid/8/directory: 41151/39401/1750/230511/7|41085,48800,0,400,0,1381,0,0,2421"),
    ("rawcaudio", Strategy::Hybrid, 16, "snooping", "rawcaudio/hybrid/16/snooping: 47347/43101/4246/461007/15|159620,95200,0,800,0,11772,0,0,4854"),
    ("rawcaudio", Strategy::Hybrid, 16, "directory", "rawcaudio/hybrid/16/directory: 47069/43337/3732/461007/15|158829,97600,0,800,0,5266,0,0,10898"),
    ("rawcaudio", Strategy::FineGrainTlp, 8, "snooping", "rawcaudio/fine-grain-tlp/8/snooping: 47828/0/47828/66487/7|8648,6239,0,12798,0,162379,39836,0,0"),
    ("rawcaudio", Strategy::FineGrainTlp, 8, "directory", "rawcaudio/fine-grain-tlp/8/directory: 47434/0/47434/66487/7|6943,6150,0,12798,0,161639,39525,0,0"),
    ("rawcaudio", Strategy::FineGrainTlp, 16, "snooping", "rawcaudio/fine-grain-tlp/16/snooping: 47828/0/47828/66487/7|8648,6239,0,12798,0,162379,39836,0,0"),
    ("rawcaudio", Strategy::FineGrainTlp, 16, "directory", "rawcaudio/fine-grain-tlp/16/directory: 47067/0/47067/66487/7|5052,6619,0,12798,0,160716,39518,0,0"),
];

#[test]
fn scaled_machine_fingerprints_are_pinned_on_both_backends() {
    let print = std::env::var("CYCLE_GOLDEN_PRINT").is_ok();
    let mut failures = Vec::new();
    for &(bench, strategy, cores, backend, expected) in GOLDEN {
        let label = format!("{bench}/{strategy}/{cores}/{backend}");
        let cfg = MachineConfig::scaled(cores).with_backend(backend_of(backend, cores));
        let actual = common::fingerprint(&label, bench, strategy, &cfg);
        if print {
            println!(
                "    (\"{bench}\", Strategy::{strategy:?}, {cores}, \"{backend}\", \"{actual}\"),"
            );
        } else if actual != expected {
            failures.push(format!("  expected {expected}\n  actual   {actual}"));
        }
    }
    assert!(
        failures.is_empty(),
        "scaling-golden drift ({} of {} configs):\n{}",
        failures.len(),
        GOLDEN.len(),
        failures.join("\n")
    );
}
