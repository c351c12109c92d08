//! Shared simulations are indistinguishable from fresh ones
//! (DESIGN.md, "Shared simulations").
//!
//! `Experiment::run_all_on` compiles a batch first and simulates each
//! distinct `(cores, backend, image)` once; every other member of a class
//! gets its `RunResult` from the leader's statistics. The claim this
//! rests on — a simulation is a function of exactly that triple plus the
//! experiment-wide budget, fault plan and knobs — is checked here against
//! oracles that share nothing: `run_configuration` (fresh front end,
//! fresh compile, a machine built for the run — `Experiment`'s come from
//! its pool, reset) and, under a fault plan, a second `Experiment` asked
//! for one configuration at a time (a batch of one is a class of one, so
//! every run is simulated).

use voltron_core::{
    run_configuration, run_reference, Experiment, FaultPlan, RunResult, Strategy, SystemError,
};
use voltron_sim::{CoherenceBackend, SimError};
use voltron_workloads::{all, by_name, Scale};

type Config = (Strategy, usize, CoherenceBackend);

/// Programs also held to the oracle on the banked directory.
const DIRECTORY_PROGRAMS: [&str; 3] = ["164.gzip", "171.swim", "gsmencode"];

/// {llp, hybrid} × 16 cores on the directory sized for them.
fn directory_configs() -> Vec<Config> {
    let directory = CoherenceBackend::directory_for(16);
    vec![
        (Strategy::Llp, 16, directory),
        (Strategy::Hybrid, 16, directory),
    ]
}

/// {ilp, fine-grain-tlp, llp, hybrid} × {2, 4, 16} on the snooping bus.
fn configs() -> Vec<Config> {
    let mut v = Vec::new();
    for s in [
        Strategy::Ilp,
        Strategy::FineGrainTlp,
        Strategy::Llp,
        Strategy::Hybrid,
    ] {
        for cores in [2, 4, 16] {
            v.push((s, cores, CoherenceBackend::Snooping));
        }
    }
    v
}

fn assert_same(tag: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(
        (got.strategy, got.cores, got.backend),
        (want.strategy, want.cores, want.backend),
        "{tag}: configuration"
    );
    assert_eq!(got.cycles, want.cycles, "{tag}: cycles");
    assert_eq!(got.ticked_cycles, want.ticked_cycles, "{tag}: ticked");
    assert_eq!(
        got.speedup.to_bits(),
        want.speedup.to_bits(),
        "{tag}: speedup bits"
    );
    assert_eq!(got.stats, want.stats, "{tag}: MachineStats");
    assert_eq!(got.region_kinds, want.region_kinds, "{tag}: region kinds");
    assert_eq!(
        got.region_weights, want.region_weights,
        "{tag}: region weights"
    );
}

/// The runs of `exp` that were simulated rather than shared.
fn distinct(exp: &Experiment<'_>) -> Vec<u64> {
    exp.results()
        .iter()
        .filter(|r| r.shared_with.is_none())
        .map(|r| r.cycles)
        .collect()
}

#[test]
fn every_batched_result_equals_a_fresh_run() {
    let mut shared = 0;
    for w in all(Scale::Test) {
        let mut configs = configs();
        if DIRECTORY_PROGRAMS.contains(&w.name) {
            configs.extend(directory_configs());
        }
        let golden = run_reference(&w.program).expect("golden").memory;
        let mut exp = Experiment::new(&w.program).expect("experiment");
        exp.run_all_on(&configs)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let baseline = exp.baseline_cycles();
        for &(s, c, b) in &configs {
            let tag = format!("{}/{s}/{c}", w.name);
            let fresh = run_configuration(&w.program, &golden, (s, c, b), baseline)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let got = exp.run_on(s, c, b).expect("cached");
            assert_same(&tag, got, &fresh);
            let shared_with = got.shared_with;
            if let Some(leader) = shared_with {
                shared += 1;
                assert!(
                    exp.run_on(leader, c, b).unwrap().shared_with.is_none(),
                    "{tag}: the leader {leader} was itself simulated"
                );
            }
        }
        // Each simulation performed is counted once, shared runs never.
        assert_eq!(
            exp.simulated_cycles(),
            baseline + distinct(&exp).iter().sum::<u64>(),
            "{}: simulated-cycle total",
            w.name
        );
    }
    assert!(shared > 0, "no configuration shared a simulation");
}

#[test]
fn faulted_batches_equal_one_configuration_at_a_time() {
    let configs = configs();
    let plan = FaultPlan::parse("seed=7,rate=0.002").expect("plan");
    for w in all(Scale::Test) {
        let mut batch = Experiment::new(&w.program).expect("experiment");
        batch.set_fault_plan(Some(plan.clone()));
        let batched = batch.run_all_on(&configs).map_err(|e| e.to_string());
        let mut single = Experiment::new(&w.program).expect("experiment");
        single.set_fault_plan(Some(plan.clone()));
        // A sequential sweep stops at its first failure; so must a batch.
        let sequential = configs
            .iter()
            .try_for_each(|&(s, c, b)| single.run_on(s, c, b).map(|_| ()))
            .map_err(|e| e.to_string());
        assert_eq!(batched, sequential, "{}: outcome", w.name);
        let (got, want) = (batch.results(), single.results());
        assert_eq!(got.len(), want.len(), "{}: committed runs", w.name);
        for (g, r) in got.iter().zip(&want) {
            assert!(r.shared_with.is_none(), "a batch of one never shares");
            assert_same(&format!("{}/{}/{}", w.name, r.strategy, r.cores), g, r);
        }
        assert_eq!(
            single.simulated_cycles() - batch.simulated_cycles(),
            got.iter()
                .filter(|r| r.shared_with.is_some())
                .map(|r| r.cycles)
                .sum::<u64>(),
            "{}: cycles saved are exactly the shared runs'",
            w.name
        );
    }
}

#[test]
fn first_failure_in_batch_order_wins_and_earlier_results_commit() {
    // gsmencode: LLP wins every region, so hybrid/2 shares llp/2's
    // simulation — the class that fails here has a member behind it.
    let w = by_name("gsmencode", Scale::Test).expect("workload");
    let snoop = CoherenceBackend::Snooping;
    let slow = (Strategy::Llp, 2, snoop);
    let member = (Strategy::Hybrid, 2, snoop);
    let mut probe = Experiment::new(&w.program).expect("experiment");
    probe.run_all_on(&configs()).expect("unbudgeted sweep");
    let hybrid2 = probe.run_on(member.0, member.1, snoop).unwrap();
    assert_eq!(hybrid2.shared_with, Some(slow.0));
    let slow_cycles = hybrid2.cycles;
    let mut by_cycles: Vec<(u64, Config)> = probe
        .results()
        .iter()
        .map(|r| (r.cycles, (r.strategy, r.cores, r.backend)))
        .collect();
    by_cycles.sort_by_key(|&(cycles, _)| cycles);
    let (fast_cycles, fast) = by_cycles[0];
    let (_, also_fast) = by_cycles[1];
    // Room for the fast run's post-halt drain below the cap.
    let budget = slow_cycles - 1;
    assert!(
        fast_cycles + 2_000 < budget,
        "gsmencode's runs are too close"
    );

    let mut exp = Experiment::new(&w.program).expect("experiment");
    exp.set_cycle_budget(Some(budget));
    match exp.run_all_on(&[fast, slow, member, also_fast]) {
        Err(SystemError::Sim(SimError::MaxCycles(b))) if b == budget => {}
        other => panic!("expected the budget overrun of llp/2, got {other:?}"),
    }
    let committed: Vec<Config> = exp
        .results()
        .iter()
        .map(|r| (r.strategy, r.cores, r.backend))
        .collect();
    assert_eq!(committed, vec![fast], "only what preceded the failure");
    assert_same(
        "gsmencode/fast",
        exp.run_on(fast.0, fast.1, snoop).unwrap(),
        probe.run_on(fast.0, fast.1, snoop).unwrap(),
    );
    // Nothing of the failed batch lingers: lifting the cap recovers.
    exp.set_cycle_budget(None);
    exp.run_all_on(&[fast, slow, member, also_fast])
        .expect("uncapped");
    assert_eq!(exp.results().len(), 4);
}

#[test]
fn a_sharing_program_simulates_once_per_distinct_image() {
    let snoop = CoherenceBackend::Snooping;
    // gsmencode at 4 cores: LLP wins every region of the hybrid plan.
    let w = by_name("gsmencode", Scale::Test).expect("workload");
    let mut exp = Experiment::new(&w.program).expect("experiment");
    let pair = [(Strategy::Llp, 4, snoop), (Strategy::Hybrid, 4, snoop)];
    exp.run_all_on(&pair).expect("sweep");
    assert_eq!(distinct(&exp).len(), pair.len() - 1);
    let llp = exp.run_on(Strategy::Llp, 4, snoop).unwrap().cycles;
    assert_eq!(exp.simulated_cycles(), exp.baseline_cycles() + llp);
    let hybrid = exp.run_on(Strategy::Hybrid, 4, snoop).unwrap();
    assert_eq!(hybrid.shared_with, Some(Strategy::Llp));
    assert_eq!(hybrid.strategy, Strategy::Hybrid);
    // Asked for on its own, the same configuration is simulated.
    let mut alone = Experiment::new(&w.program).expect("experiment");
    let fresh = alone.run_on(Strategy::Hybrid, 4, snoop).unwrap();
    assert_eq!(fresh.shared_with, None);
    assert_same("gsmencode/hybrid/4", hybrid, fresh);

    // gsmdecode: twelve configurations, twelve different programs.
    let w = by_name("gsmdecode", Scale::Test).expect("workload");
    let mut exp = Experiment::new(&w.program).expect("experiment");
    exp.run_all_on(&configs()).expect("sweep");
    assert_eq!(distinct(&exp).len(), configs().len());
}
