//! The chaos suite: deterministic fault injection from flit to figure.
//!
//! The recovery contract (DESIGN.md §10): under *any* fault plan a run
//! either completes with final memory byte-identical to the fault-free
//! run — only cycle counts may move — or fails closed with a typed
//! `SimError::FaultBudget`. These tests pin that contract per injection
//! site (directed), across fast-forward modes (the RNG draws happen at
//! architectural opportunities, so the schedules must coincide), and
//! over randomized plans.

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use voltron_compiler::{compile, CompileOptions};
use voltron_core::{outputs_equivalent, run_reference, Strategy};
use voltron_ir::Program;
use voltron_sim::{
    ChromeTracer, FaultKind, FaultPlan, FaultSite, Machine, MachineConfig, RunOutcome, SealedImage,
    SimError,
};
use voltron_workloads::{by_name, Scale};

#[path = "../crates/sim/tests/common/cases.rs"]
mod cases;
use cases::cases;

/// Run one (strategy, cores) configuration of `program` under `plan`.
fn run_with(
    program: &Program,
    strategy: Strategy,
    cores: usize,
    plan: Option<FaultPlan>,
    fast_forward: bool,
) -> Result<RunOutcome, SimError> {
    let mut mcfg = MachineConfig::paper(cores);
    mcfg.fast_forward = fast_forward;
    mcfg.faults = plan;
    let compiled = compile(program, strategy, &mcfg, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{strategy}/{cores}: compile: {e}"));
    Machine::new(compiled.machine, &mcfg)
        .unwrap_or_else(|e| panic!("{strategy}/{cores}: boot: {e}"))
        .run()
}

/// The combos a per-site sweep probes: enough variety that every site
/// sees opportunities (decoupled messaging for the network sites, TM
/// for spurious aborts, plain issue traffic for the rest). The 2-core
/// LLP combo is the shape that once leaked: its master chunk wraps the
/// worker spawn and live-in sends inside the order-0 transaction.
const COMBOS: [(Strategy, usize); 4] = [
    (Strategy::FineGrainTlp, 4),
    (Strategy::Hybrid, 4),
    (Strategy::Llp, 4),
    (Strategy::Llp, 2),
];

/// Inject at one site across the combo sweep; every run must land on the
/// fault-free memory, and the site must actually have fired somewhere.
fn check_site(site: FaultSite, rate: f64) {
    check_site_on("164.gzip", site, rate);
}

fn check_site_on(name: &str, site: FaultSite, rate: f64) {
    let w = by_name(name, Scale::Test).expect("benchmark registered");
    let mut injected = 0;
    for (strategy, cores) in COMBOS {
        let clean = run_with(&w.program, strategy, cores, None, true)
            .unwrap_or_else(|e| panic!("{strategy}/{cores}: fault-free run: {e}"));
        let plan = FaultPlan::seeded(0xC0FFEE, rate).only(site);
        match run_with(&w.program, strategy, cores, Some(plan), true) {
            Ok(out) => {
                injected += out.stats.faults.site(site).injected;
                assert_eq!(
                    out.stats.faults.gave_up(),
                    0,
                    "{strategy}/{cores}: a completed run cannot have given up"
                );
                assert!(
                    outputs_equivalent(&clean.memory, &out.memory).is_ok(),
                    "{strategy}/{cores}: {} faults diverged the final memory",
                    site.label()
                );
            }
            // Budget exhaustion is an acceptable *closed* failure; silent
            // divergence and panics are what this suite outlaws.
            Err(SimError::FaultBudget(r)) => {
                assert_eq!(r.site, site, "budget report blames the wrong site");
                injected += 1;
            }
            Err(e) => panic!("{strategy}/{cores}: untyped failure under faults: {e}"),
        }
    }
    assert!(injected > 0, "site {} never fired", site.label());
}

#[test]
fn net_drop_recovers_to_identical_memory() {
    check_site(FaultSite::NetDrop, 0.02);
}

#[test]
fn net_delay_recovers_to_identical_memory() {
    check_site(FaultSite::NetDelay, 0.05);
}

#[test]
fn net_duplicate_recovers_to_identical_memory() {
    check_site(FaultSite::NetDuplicate, 0.05);
}

#[test]
fn grant_loss_recovers_to_identical_memory() {
    check_site(FaultSite::GrantLoss, 0.02);
}

#[test]
fn bank_stall_recovers_to_identical_memory() {
    check_site(FaultSite::BankStall, 0.05);
}

#[test]
fn tm_spurious_abort_recovers_to_identical_memory() {
    // The draw happens per commit attempt, so the rate is a
    // per-transaction abort probability — 0.3 aborts plenty of chunks
    // while 9-in-a-row budget exhaustion stays vanishingly unlikely.
    // gsmdecode is the TM-heaviest kernel at Test scale (gzip has too
    // few revocable commits for the site to reliably fire).
    check_site_on("gsmdecode", FaultSite::TmAbort, 0.3);
}

/// Regression: gsmdecode under LLP at 2 cores is the shape whose master
/// transaction wraps the worker spawn and the live-in sends. A spurious
/// abort replaying those would duplicate the messages and silently
/// corrupt the output — the irrevocability latch must keep the injector
/// off such transactions while still aborting the (clean) worker chunks.
#[test]
fn gsmdecode_llp2_spurious_aborts_converge() {
    let w = by_name("gsmdecode", Scale::Test).expect("gsmdecode registered");
    let clean = run_with(&w.program, Strategy::Llp, 2, None, true).expect("fault-free run");
    let mut injected = 0;
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed, 0.3).only(FaultSite::TmAbort);
        let out = run_with(&w.program, Strategy::Llp, 2, Some(plan), true)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        injected += out.stats.faults.site(FaultSite::TmAbort).injected;
        assert!(
            outputs_equivalent(&clean.memory, &out.memory).is_ok(),
            "seed {seed}: spurious aborts diverged gsmdecode llp/2"
        );
    }
    assert!(injected > 0, "no seed ever aborted a worker chunk");
}

#[test]
fn fetch_hiccup_recovers_to_identical_memory() {
    check_site(FaultSite::Fetch, 0.02);
}

/// Directed events reproduce a specific scenario: each fires at its
/// pinned cycle's next opportunity, and the run still converges.
#[test]
fn directed_events_fire_and_recover() {
    let w = by_name("164.gzip", Scale::Test).expect("gzip registered");
    let clean = run_with(&w.program, Strategy::Hybrid, 4, None, true).expect("fault-free run");
    let plan = FaultPlan::seeded(0, 0.0)
        .with_event(50, FaultKind::FetchHiccup(9))
        .with_event(200, FaultKind::Drop)
        .with_event(400, FaultKind::Stall(7))
        .with_event(600, FaultKind::SpuriousAbort);
    let out = run_with(&w.program, Strategy::Hybrid, 4, Some(plan), true)
        .expect("directed faults must be recoverable");
    assert!(
        out.stats.faults.injected() >= 2,
        "directed events mostly consumed, got {:?}",
        out.stats.faults
    );
    assert!(outputs_equivalent(&clean.memory, &out.memory).is_ok());
}

/// The fault schedule is a function of the seed and the architectural
/// opportunity sequence — not of fast-forward. Both engines must report
/// *identical* statistics (cycles, stalls, and fault counters included)
/// and identical memory under the same plan.
#[test]
fn fault_schedule_is_fast_forward_invariant() {
    let w = by_name("164.gzip", Scale::Test).expect("gzip registered");
    for (strategy, cores) in COMBOS {
        let plan = FaultPlan::seeded(9, 0.01);
        let ff = run_with(&w.program, strategy, cores, Some(plan.clone()), true);
        let tick = run_with(&w.program, strategy, cores, Some(plan), false);
        match (ff, tick) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.stats, b.stats,
                    "{strategy}/{cores}: fast-forward changed faulted statistics"
                );
                assert!(outputs_equivalent(&a.memory, &b.memory).is_ok());
            }
            (Err(SimError::FaultBudget(a)), Err(SimError::FaultBudget(b))) => {
                assert_eq!(a, b, "{strategy}/{cores}: divergent budget forensics");
            }
            (a, b) => panic!("{strategy}/{cores}: modes disagree: {a:?} vs {b:?}"),
        }
    }
}

/// An unsurvivable plan (every network send drops, forever) must fail
/// closed with the typed budget error, never hang or diverge.
#[test]
fn certain_drop_exhausts_the_budget_and_fails_closed() {
    let w = by_name("164.gzip", Scale::Test).expect("gzip registered");
    let plan = FaultPlan::seeded(1, 1.0).only(FaultSite::NetDrop);
    match run_with(&w.program, Strategy::FineGrainTlp, 4, Some(plan), true) {
        Err(SimError::FaultBudget(r)) => {
            assert_eq!(r.site, FaultSite::NetDrop);
            assert!(r.attempts > r.budget, "{r}");
            let msg = r.to_string();
            assert!(msg.contains("retry budget"), "{msg}");
        }
        other => panic!("expected FaultBudget, got {other:?}"),
    }
}

/// Same for TM: a revocable transaction that spuriously aborts on every
/// commit attempt can never get through; the machine must report the
/// exhausted chunk rather than livelock.
#[test]
fn certain_spurious_abort_exhausts_the_budget() {
    let w = by_name("164.gzip", Scale::Test).expect("gzip registered");
    let plan = FaultPlan::seeded(1, 1.0).only(FaultSite::TmAbort);
    match run_with(&w.program, Strategy::Hybrid, 4, Some(plan), true) {
        Err(SimError::FaultBudget(r)) => {
            assert_eq!(r.site, FaultSite::TmAbort);
            assert!(r.detail.contains("transaction"), "{}", r.detail);
        }
        other => panic!("expected FaultBudget, got {other:?}"),
    }
}

/// A compiled-in-but-disabled fault layer must be invisible: no plan and
/// a rate-0 plan with no directed events produce identical statistics.
#[test]
fn disabled_fault_layer_is_invisible() {
    let w = by_name("rawcaudio", Scale::Test).expect("rawcaudio registered");
    for (strategy, cores) in COMBOS {
        let off =
            run_with(&w.program, strategy, cores, None, true).unwrap_or_else(|e| panic!("{e}"));
        let zero = run_with(
            &w.program,
            strategy,
            cores,
            Some(FaultPlan::seeded(42, 0.0)),
            true,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            off.stats, zero.stats,
            "{strategy}/{cores}: a rate-0 plan perturbed the run"
        );
        assert!(!zero.stats.faults.any());
    }
}

/// A pooled machine carries no optional layer across a reboot: after a
/// traced run on which both machine-side injectors fired (so the
/// irrevocability latch, abort streaks and hiccup timers were live),
/// rebooting onto the same image with no plan and no tracer reproduces a
/// fresh boot exactly.
#[test]
fn a_reboot_after_a_traced_faulted_run_matches_a_fresh_boot() {
    let w = by_name("gsmdecode", Scale::Test).expect("gsmdecode registered");
    let plain = MachineConfig::paper(2);
    let compiled = compile(
        &w.program,
        Strategy::Llp,
        &plain,
        &CompileOptions::default(),
    )
    .expect("gsmdecode llp/2 compiles");
    let image = SealedImage::seal(Arc::new(compiled.machine), &plain).expect("seal");
    let plan = FaultPlan {
        sites: vec![FaultSite::TmAbort, FaultSite::Fetch],
        ..FaultPlan::seeded(7, 0.3)
    };
    let faulted = MachineConfig {
        faults: Some(plan),
        ..plain.clone()
    };
    let mut m = Machine::boot(&image, &faulted).expect("boot");
    m.set_tracer(Box::new(ChromeTracer::new()));
    let out = m.run_mut().expect("the faulted run recovers");
    for site in [FaultSite::TmAbort, FaultSite::Fetch] {
        let injected = out.stats.faults.site(site).injected;
        assert!(injected > 0, "{} never fired", site.label());
    }
    assert!(!out.trace.is_empty());

    m.reboot(&image, &plain).expect("reboot");
    let pooled = m.run_mut().expect("pooled run");
    let fresh = Machine::boot(&image, &plain)
        .expect("boot")
        .run()
        .expect("fresh run");
    assert_eq!(pooled.memory, fresh.memory);
    assert_eq!(pooled.stats, fresh.stats);
    assert_eq!(pooled.ticked_cycles, fresh.ticked_cycles);
    assert!(pooled.trace.is_empty(), "the reboot kept the tracer");
}

/// Randomized chaos: any seeded plan over any site subset either
/// completes on the reference memory or fails closed with a typed error.
/// Panics and silent divergence are the only losing moves.
#[test]
fn random_fault_plans_never_diverge() {
    let sample = |rng: &mut StdRng| {
        // The rate in per mille, so a failing one prints exactly.
        let plan = (
            rng.gen::<u64>(),
            rng.gen_range(0u32..30),
            rng.gen_range(1u8..128),
        );
        (plan, rng.gen_range(0..COMBOS.len()), rng.gen::<bool>())
    };
    cases(
        1_500_000,
        12,
        sample,
        |&((seed, rate_pm, site_mask), combo, gzip)| {
            let rate = rate_pm as f64 / 1000.0;
            let name = if gzip { "164.gzip" } else { "rawcaudio" };
            let w = by_name(name, Scale::Test).expect("benchmark registered");
            let golden = run_reference(&w.program).expect("reference run");
            let mut plan = FaultPlan::seeded(seed, rate);
            plan.sites = FaultSite::ALL
                .into_iter()
                .filter(|s| site_mask & (1 << s.index()) != 0)
                .collect();
            let (strategy, cores) = COMBOS[combo];
            match run_with(&w.program, strategy, cores, Some(plan), true) {
                Ok(out) => assert!(
                    outputs_equivalent(&golden.memory, &out.memory).is_ok(),
                    "{strategy}/{cores} seed {seed} rate {rate} diverged"
                ),
                // Fail-closed outcomes: the budget gave out, or the fault
                // pressure tripped a watchdog. All typed, all attributable.
                Err(SimError::FaultBudget(_))
                | Err(SimError::Deadlock { .. })
                | Err(SimError::Livelock { .. }) => {}
                Err(e) => panic!("untyped failure: {e}"),
            }
        },
    );
}
