//! The one run record and the one JSON value (`voltron_core::report`).
//!
//! `tests/golden/bench_one_sidecar.json` is `voltron bench_one 164.gzip
//! --test --whatif`'s `BENCH_bench_one.json` with its host-time values
//! masked to `null`: the document as the parent of the run record wrote
//! it, plus the keys the record added (`schema`, and `ticked_cycles` in
//! each run row). The document `Harvest::report` writes must reproduce it
//! byte for byte under the same masking, so a renamed, reordered, dropped
//! or added key, or a moved number, is a diff of a committed file. The
//! record reads back what it writes and refuses any other schema, and
//! the JSON writer and parser are inverses.

use rand::rngs::StdRng;
use rand::Rng;
use voltron_bench::cli::bench_one;
use voltron_bench::harness::HarnessArgs;
use voltron_core::report::{parse, Json, RunRecord};
use voltron_core::{FaultSite, FaultStats, Strategy as Technique};
use voltron_sim::StallReason;
use voltron_workloads::Scale;

#[path = "../crates/sim/tests/common/cases.rs"]
mod cases;
use cases::{cases, vec_of};

const GOLDEN: &str = include_str!("golden/bench_one_sidecar.json");

/// Members whose values are host wall-clock time, not simulation.
const HOST_TIME: [&str; 2] = ["host_seconds", "cycles_per_host_second"];

fn mask(v: &mut Json) {
    match v {
        Json::Obj(members) => {
            for (k, v) in members {
                if HOST_TIME.contains(&k.as_str()) {
                    *v = Json::Null;
                } else {
                    mask(v);
                }
            }
        }
        Json::Arr(xs) => xs.iter_mut().for_each(mask),
        _ => {}
    }
}

#[test]
fn bench_one_sidecar_is_the_committed_golden() {
    let argv = ["164.gzip", "--test", "--whatif"];
    let args = HarnessArgs::parse(Scale::Test, &["--test", "--whatif"], 1, &argv);
    let args = args.expect("flags parse");
    let harvest = bench_one(&args).expect("bench_one runs");
    let mut doc = harvest.document("bench_one", &args);
    mask(&mut doc);
    assert_eq!(doc.render(), GOLDEN.trim_end());
}

#[test]
fn a_record_reads_back_what_it_wrote_and_refuses_other_schemas() {
    let mut faults = FaultStats::default();
    faults.site_mut(FaultSite::Fetch).injected = 3;
    faults.site_mut(FaultSite::Fetch).recovered = 3;
    let r = RunRecord {
        strategy: "hybrid".into(),
        cores: 4,
        backend: "directory",
        cycles: 16_497,
        ticked_cycles: 1_964,
        speedup: 0.95,
        dominant_stall: Some(StallReason::DMiss),
        shared_with: Some(Technique::Llp),
        faults,
    };
    let text = r.to_json().render();
    assert!(
        text.starts_with("{\"schema\":1,\"strategy\":\"hybrid\""),
        "{text}"
    );
    assert_eq!(RunRecord::from_json(&parse(&text).unwrap()), Ok(r.clone()));
    let plain = RunRecord {
        dominant_stall: None,
        shared_with: None,
        faults: FaultStats::default(),
        ..r
    };
    assert_eq!(RunRecord::from_json(&plain.to_json()), Ok(plain.clone()));
    let sum = (
        "\"injected\":3,\"recovered\"",
        "\"injected\":4,\"recovered\"",
    );
    for (bad, needle) in [
        (text.replace("\"schema\":1", "\"schema\":2"), "schema 2"),
        (text.replace("\"schema\":1,", ""), "schema none"),
        (text.replace("\"cores\":4", "\"cores\":4.5"), "'cores'"),
        (text.replace("\"llp\"", "\"magic\""), "'shared_with'"),
        (text.replacen(sum.0, sum.1, 1), "'faults'"),
    ] {
        let err = RunRecord::from_json(&parse(&bad).unwrap()).expect_err(&bad);
        assert!(err.contains(needle), "{bad}: {err}");
    }
}

/// Characters a string is drawn from: the escaped ones, control
/// characters, and multi-byte UTF-8.
const ALPHABET: [char; 10] = ['"', '\\', '\n', '\0', '\u{1f}', 'a', '/', '\t', 'é', '😀'];

fn string(tape: &mut impl Iterator<Item = u64>) -> String {
    let w = tape.next().unwrap_or(0);
    let chars = (0..w % 9).map(|i| ALPHABET[(w >> (8 + 4 * i)) as usize % ALPHABET.len()]);
    chars.collect()
}

/// A value read off `tape`, one word per decision, containers at most
/// `depth` deep. A float that is a non-negative integer below 2^64 has
/// one JSON spelling, its integer literal, which reads back as `UInt` —
/// so it is drawn as one.
fn value(tape: &mut impl Iterator<Item = u64>, depth: u32) -> Json {
    let w = tape.next().unwrap_or(0);
    let len = (w >> 61) as usize;
    match w % if depth == 0 { 5 } else { 7 } {
        0 => Json::Null,
        1 => Json::Bool(w & 8 != 0),
        2 => Json::UInt(if w & 8 != 0 { u64::MAX } else { w >> 4 }),
        3 => match f64::from_bits(tape.next().unwrap_or(0)) {
            x if !x.is_finite() => Json::Null,
            x if x >= 0.0 && x.fract() == 0.0 && x < 18446744073709551616.0 => Json::UInt(x as u64),
            x => Json::Num(x),
        },
        4 => Json::Str(string(tape)),
        5 => Json::Arr((0..len).map(|_| value(tape, depth - 1)).collect()),
        _ => Json::Obj(
            (0..len)
                .map(|_| (string(tape), value(tape, depth - 1)))
                .collect(),
        ),
    }
}

/// The writer and the parser are inverses on every finite value.
#[test]
fn parse_inverts_render() {
    let sample = |rng: &mut StdRng| vec_of(rng, 1..160, |rng| rng.gen::<u64>());
    cases(1_600_000, 512, sample, |tape| {
        let v = value(&mut tape.iter().copied(), 3);
        assert_eq!(parse(&v.render()), Ok(v));
    });
}
