//! Acceptance test for the Chrome trace-event export: the JSON an
//! observed run emits must actually parse and carry the span taxonomy
//! DESIGN.md §8 promises — per-core stall spans, region spans on the
//! region track, and TM transaction spans — not just "some events".
//!
//! Runs through `Experiment::run_observed_on`, the same path the
//! `--trace-out` flags use.

use std::collections::BTreeSet;
use voltron_core::report::{parse, Json};
use voltron_core::{Experiment, FaultPlan, ObsRequest, Strategy};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{all, by_name, Scale};

/// Machine-wide track ids (`voltron_sim::obs`): per-core tracks sit
/// below `REGION_TID`, TM tracks at `TM_TID_BASE + core`.
const REGION_TID: f64 = 90.0;
const TM_TID_BASE: f64 = 100.0;

fn observed_events(strategy: Strategy, cores: usize) -> (Vec<Json>, String) {
    let w = by_name("164.gzip", Scale::Test).expect("gzip registered");
    let mut exp = Experiment::new(&w.program).expect("experiment");
    let req = ObsRequest {
        chrome_trace: true,
        probe_period: Some(128),
    };
    let o = exp
        .run_observed_on(strategy, cores, CoherenceBackend::Snooping, &req)
        .expect("observed run");
    let doc = parse(&o.trace_json)
        .unwrap_or_else(|e| panic!("{strategy}/{cores} trace is not valid JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .to_vec();
    assert!(!events.is_empty(), "{strategy}/{cores} trace is empty");
    let probes_json = o
        .probes
        .as_ref()
        .map(|p| p.render_json())
        .expect("probe series requested");
    (events, probes_json)
}

fn cat_of(e: &Json) -> Option<&str> {
    e.get("cat").and_then(Json::as_str)
}

fn ph_of(e: &Json) -> Option<&str> {
    e.get("ph").and_then(Json::as_str)
}

fn tid_of(e: &Json) -> f64 {
    e.get("tid").and_then(Json::as_num).unwrap_or(-1.0)
}

#[test]
fn gzip_ftlp4_trace_has_stall_and_region_spans() {
    let (events, probes_json) = observed_events(Strategy::FineGrainTlp, 4);

    // Per-core stall spans: `B` events with cat "stall" on core tracks.
    let stall_cores: BTreeSet<u64> = events
        .iter()
        .filter(|e| cat_of(e) == Some("stall") && ph_of(e) == Some("B"))
        .map(|e| tid_of(e) as u64)
        .collect();
    assert!(
        stall_cores.len() >= 2 && stall_cores.iter().all(|&t| (t as f64) < REGION_TID),
        "expected stall spans on several core tracks, got {stall_cores:?}"
    );
    // Every span that opens on a track also closes: B and E balance.
    for &core in &stall_cores {
        let b = events
            .iter()
            .filter(|e| ph_of(e) == Some("B") && tid_of(e) as u64 == core)
            .count();
        let e = events
            .iter()
            .filter(|e| ph_of(e) == Some("E") && tid_of(e) as u64 == core)
            .count();
        assert_eq!(b, e, "unbalanced spans on core track {core}");
    }

    // Region spans on the region track, with recognizable names.
    let regions: Vec<&str> = events
        .iter()
        .filter(|e| cat_of(e) == Some("region") && ph_of(e) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        regions.iter().any(|n| n.starts_with("region ")),
        "expected named region spans, got {regions:?}"
    );
    assert!(
        events.iter().all(|e| tid_of(e) != REGION_TID
            || ph_of(e) != Some("B")
            || cat_of(e) == Some("region")),
        "non-region span on the region track"
    );

    // The probe series parses too, with the advertised shape.
    let probes = parse(&probes_json).expect("probe series JSON parses");
    assert_eq!(probes.get("cores").and_then(Json::as_num), Some(4.0));
    let samples = probes
        .get("samples")
        .and_then(Json::as_arr)
        .expect("samples array");
    assert!(!samples.is_empty(), "probe series has no samples");
    assert!(samples[0].get("cycle").is_some() && samples[0].get("stalls").is_some());
}

#[test]
fn gzip_hybrid4_trace_has_tm_transaction_spans() {
    // gzip's fTLP build never enters a transaction; the hybrid (LLP)
    // build commits its speculative DOALL chunks through the TM.
    let (events, _) = observed_events(Strategy::Hybrid, 4);
    let tm_spans = events
        .iter()
        .filter(|e| cat_of(e) == Some("tm") && ph_of(e) == Some("B"))
        .count();
    assert!(tm_spans > 0, "expected TM transaction spans");
    assert!(
        events
            .iter()
            .filter(|e| cat_of(e) == Some("tm") && ph_of(e) == Some("B"))
            .all(|e| tid_of(e) >= TM_TID_BASE),
        "TM spans must live on the TM tracks"
    );
    let commits = events
        .iter()
        .filter(|e| {
            cat_of(e) == Some("tm")
                && e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("commit"))
        })
        .count();
    assert!(commits > 0, "expected TM commit markers");
}

/// FNV-1a over `bytes`, continuing from `h`. Unlike `DefaultHasher`, its
/// output is fixed by its definition.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every byte of the traces `observed_runs` asks for: the 25 test-scale
/// programs at hybrid/4 snooping with probe counters spliced in, three of
/// them again under a fault plan (so `fault` records are covered), and
/// one 16-core directory run (TM tracks and core tids beyond 4), folded
/// into one digest. A tracer change that only makes tracing cheaper must
/// leave it alone; a deliberate change to any emitted byte updates it and
/// says why.
#[test]
fn observed_traces_are_pinned() {
    const DIGEST: u64 = 0x9ca9_798b_e460_4117;
    const FAULTED: [&str; 3] = ["164.gzip", "rawcaudio", "gsmdecode"];
    let req = ObsRequest {
        chrome_trace: true,
        probe_period: Some(256),
    };
    let plan = FaultPlan::parse("seed=7,rate=0.002").expect("a well-formed plan");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in all(Scale::Test) {
        let mut exp = Experiment::new(&w.program).expect("experiment");
        let mut trace = |exp: &mut Experiment<'_>, cores, backend| {
            let o = exp.run_observed_on(Strategy::Hybrid, cores, backend, &req);
            let o = o.unwrap_or_else(|e| panic!("{} hybrid/{cores}: {e}", w.name));
            h = fnv1a(h, o.trace_json.as_bytes());
            o.trace_json
        };
        trace(&mut exp, 4, CoherenceBackend::Snooping);
        if FAULTED.contains(&w.name) {
            exp.set_fault_plan(Some(plan.clone()));
            let faulted = trace(&mut exp, 4, CoherenceBackend::Snooping);
            assert!(
                faulted.contains("\"cat\":\"fault\""),
                "{}: no fault record",
                w.name
            );
            exp.set_fault_plan(None);
        }
        if w.name == "164.gzip" {
            let wide = trace(&mut exp, 16, CoherenceBackend::directory_for(16));
            assert!(wide.contains("\"tid\":115"), "no TM track for core 15");
        }
    }
    assert_eq!(h, DIGEST, "an observed trace changed: {h:#018x}");
}
