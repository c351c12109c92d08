//! One Criterion bench per evaluation figure: each runs the figure's
//! pipeline on a representative benchmark at test scale, so `cargo bench`
//! exercises every experiment end to end. The full-table regeneration
//! is the `voltron` binary's `figall` / `fig03`..`fig14` commands
//! (`cargo run -p voltron-bench --bin voltron -- figall`).

use criterion::{criterion_group, criterion_main, Criterion};
use voltron_core::{Experiment, Strategy};
use voltron_workloads::{by_name, Scale};

fn run(strategy: Strategy, cores: usize, bench: &str) -> f64 {
    let w = by_name(bench, Scale::Test).expect("benchmark exists");
    let mut exp = Experiment::new(&w.program).expect("baseline");
    exp.run(strategy, cores).expect("run").speedup
}

fn fig03_breakdown(c: &mut Criterion) {
    c.bench_function("fig03/attribution_cjpeg_4core", |b| {
        b.iter(|| {
            let w = by_name("cjpeg", Scale::Test).unwrap();
            let mut exp = Experiment::new(&w.program).unwrap();
            exp.run(Strategy::Hybrid, 4)
                .unwrap()
                .parallelism_breakdown()
        });
    });
}

fn fig10_2core(c: &mut Criterion) {
    c.bench_function("fig10/llp_gsmencode_2core", |b| {
        b.iter(|| run(Strategy::Llp, 2, "gsmencode"));
    });
}

fn fig11_4core(c: &mut Criterion) {
    c.bench_function("fig11/ftlp_art_4core", |b| {
        b.iter(|| run(Strategy::FineGrainTlp, 4, "179.art"));
    });
}

fn fig12_stalls(c: &mut Criterion) {
    c.bench_function("fig12/stall_breakdown_gzip", |b| {
        b.iter(|| {
            let w = by_name("164.gzip", Scale::Test).unwrap();
            let mut exp = Experiment::new(&w.program).unwrap();
            let base = exp.baseline_cycles();
            let r = exp.run(Strategy::FineGrainTlp, 4).unwrap();
            r.normalized_stall(voltron_core::StallCategory::RecvData, base)
        });
    });
}

fn fig13_hybrid(c: &mut Criterion) {
    c.bench_function("fig13/hybrid_mpeg2dec_4core", |b| {
        b.iter(|| run(Strategy::Hybrid, 4, "mpeg2dec"));
    });
}

fn fig14_modetime(c: &mut Criterion) {
    c.bench_function("fig14/mode_residency_gsmdecode", |b| {
        b.iter(|| {
            let w = by_name("gsmdecode", Scale::Test).unwrap();
            let mut exp = Experiment::new(&w.program).unwrap();
            exp.run(Strategy::Hybrid, 4).unwrap().coupled_fraction()
        });
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = fig03_breakdown, fig10_2core, fig11_4core, fig12_stalls, fig13_hybrid, fig14_modetime
}
criterion_main!(figures);
