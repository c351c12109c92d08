//! Component microbenchmarks: how fast the substrates themselves run
//! (host-side throughput of the simulator's building blocks).

use criterion::{criterion_group, criterion_main, Criterion};
use voltron_compiler::inline::inline_program;
use voltron_compiler::{compile, compile_prepared, CompileOptions, FrontEnd, Strategy};
use voltron_ir::interp::GOLDEN_FUEL;
use voltron_ir::profile::profile;
use voltron_sim::cache::{LineState, TagCache};
use voltron_sim::network::{OperandNetwork, Payload};
use voltron_sim::tm::TxnManager;
use voltron_sim::{Machine, MachineConfig};
use voltron_workloads::{by_name, Scale};

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/l1d_access_stream", |b| {
        let mut cache = TagCache::new(4096, 2, 32);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(32) & 0xffff;
            if cache.access(addr).is_none() {
                cache.fill(addr, LineState::E);
            }
        });
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("network/queue_send_route_recv", |b| {
        let cfg = MachineConfig::paper(4);
        let mut net = OperandNetwork::new(&cfg);
        let mut now = 0u64;
        b.iter(|| {
            net.send(0, 3, 1, Payload::Data(voltron_ir::Value::Int(7)), now);
            for _ in 0..4 {
                now += 1;
                net.tick(now);
            }
            now += 4;
            net.recv(3, 0, 1, now)
        });
    });
}

fn bench_tm(c: &mut Criterion) {
    c.bench_function("tm/begin_write_commit", |b| {
        let mut tm = TxnManager::new(4, 32);
        let mut sink = 0u64;
        b.iter(|| {
            tm.begin(0, 0);
            for i in 0..16u64 {
                tm.write(0, 0x1_0000 + i * 8, 8, i);
            }
            let (lines, _) = tm.commit(0, |a, v| sink = sink.wrapping_add(a + u64::from(v)));
            lines.len()
        });
    });
}

fn bench_compiler(c: &mut Criterion) {
    let w = by_name("gsmdecode", Scale::Test).unwrap();
    let cfg = MachineConfig::paper(4);
    let opts = CompileOptions::default();
    c.bench_function("compiler/compile_gsmdecode_hybrid", |b| {
        b.iter(|| compile(&w.program, Strategy::Hybrid, &cfg, &opts).unwrap());
    });
}

/// The two halves of the image pipeline at 64 cores, each timed alone:
/// plan + emit from one shared front end (its dependence graphs built
/// once, as in a sweep), and the static validation of what was emitted.
fn bench_image_pipeline(c: &mut Criterion) {
    let w = by_name("gsmdecode", Scale::Test).unwrap();
    let cfg = MachineConfig::scaled(64);
    let opts = CompileOptions::default();
    let fe = FrontEnd::new(&w.program, Strategy::Hybrid, &cfg, &opts).unwrap();
    c.bench_function("compiler/compile_prepared_gsmdecode_hybrid64", |b| {
        b.iter(|| compile_prepared(&fe, Strategy::Hybrid, &cfg, &opts).unwrap());
    });
    let image = compile_prepared(&fe, Strategy::Hybrid, &cfg, &opts)
        .unwrap()
        .machine;
    c.bench_function("sim/validate_gsmdecode_hybrid64", |b| {
        b.iter(|| image.validate(&cfg).unwrap());
    });
}

fn bench_machine(c: &mut Criterion) {
    let w = by_name("rawcaudio", Scale::Test).unwrap();
    let cfg = MachineConfig::paper(4);
    let compiled = compile(
        &w.program,
        Strategy::Hybrid,
        &cfg,
        &CompileOptions::default(),
    )
    .unwrap();
    c.bench_function("machine/simulate_rawcaudio_hybrid", |b| {
        b.iter(|| {
            Machine::new(compiled.machine.clone(), &cfg)
                .unwrap()
                .run()
                .unwrap()
                .stats
                .cycles
        });
    });
}

fn bench_interp(c: &mut Criterion) {
    let w = by_name("rawcaudio", Scale::Test).unwrap();
    c.bench_function("interp/reference_rawcaudio", |b| {
        b.iter(|| {
            voltron_ir::interp::run(&w.program, 1_000_000_000)
                .unwrap()
                .steps
        });
    });
}

/// The compiler's profiling run, on the program as written and on the
/// single inlined function the compiler actually profiles.
fn bench_profile(c: &mut Criterion) {
    for name in ["gsmencode", "171.swim"] {
        let w = by_name(name, Scale::Test).unwrap();
        let inlined = inline_program(&w.program).unwrap();
        for (shape, program) in [("original", &w.program), ("inlined", &inlined)] {
            c.bench_function(&format!("profile/{name}_{shape}"), |b| {
                b.iter(|| profile(program, GOLDEN_FUEL).unwrap().steps);
            });
        }
    }
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20);
    targets = bench_cache, bench_network, bench_tm, bench_compiler, bench_image_pipeline,
        bench_machine, bench_interp, bench_profile
}
criterion_main!(components);
