//! Per-tick allocation hygiene: once a run is warm, an un-traced
//! [`Machine::tick`] must not touch the heap — no completion vector per
//! cycle, no per-issue `Arc` traffic, no operand vectors. The loop below
//! issues ALU ops, a taken branch, and loads and stores that stream
//! through more lines than the L1 holds, so the bus, the store buffer and
//! the fill-completion path are all live while allocations are counted.
//! A second, 16-core image (`common/mesh.rs`) does the same for the
//! event-gated parts of the loop: cores parking and unparking, receive
//! streams entering and leaving the network's stream-head index, and the
//! all-core flush at every region change and mode switch. Traced, the
//! same machine may ask the heap only to grow the trace document.
//!
//! The same counter guards the static validator: what
//! [`MachineProgram::validate`] asks of the heap depends on the network,
//! latch and switch *sites* of an image, not on how many instructions it
//! walks to find them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use voltron_ir::{BlockId, CmpCc, DataSegment, Inst, MemWidth, Opcode, Operand, Reg, Signedness};
use voltron_sim::{
    ChromeTracer, CoreImage, IdealKnobs, MBlock, Machine, MachineConfig, MachineProgram,
};

#[path = "common/mesh.rs"]
mod mesh;

thread_local! {
    /// Heap requests made by this thread (const-initialized and without a
    /// destructor, so the allocator may touch it at any time).
    static HEAP_REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_REQUESTS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_REQUESTS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `for (i = 0; i < n; i++) { a[i] += i; }` over 8-byte elements.
fn streaming_loop(n: i64) -> MachineProgram {
    let gpr = Reg::gpr;
    let mut data = DataSegment::default();
    let a = data.zeroed("a", n as u64 * 8) as i64;
    let mut entry = MBlock::new("entry", 0);
    entry
        .insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(a)]));
    entry
        .insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(1), vec![Operand::Imm(0)]));
    let mut body = MBlock::new("body", 1);
    body.insts.push(Inst::with_dst(
        Opcode::Load(MemWidth::W8, Signedness::Signed),
        gpr(2),
        vec![gpr(0).into(), Operand::Imm(0)],
    ));
    body.insts.push(Inst::with_dst(
        Opcode::Add,
        gpr(2),
        vec![gpr(2).into(), gpr(1).into()],
    ));
    body.insts.push(Inst::new(
        Opcode::Store(MemWidth::W8),
        vec![gpr(0).into(), Operand::Imm(0), gpr(2).into()],
    ));
    body.insts.push(Inst::with_dst(
        Opcode::Add,
        gpr(0),
        vec![gpr(0).into(), Operand::Imm(8)],
    ));
    body.insts.push(Inst::with_dst(
        Opcode::Add,
        gpr(1),
        vec![gpr(1).into(), Operand::Imm(1)],
    ));
    body.insts.push(Inst::with_dst(
        Opcode::Cmp(CmpCc::Lt),
        Reg::pred(0),
        vec![gpr(1).into(), Operand::Imm(n)],
    ));
    body.insts.push(Inst::new(
        Opcode::Br,
        vec![Operand::Block(BlockId(1)), Reg::pred(0).into()],
    ));
    body.insts.push(Inst::new(Opcode::Halt, vec![]));
    MachineProgram {
        name: "stream".into(),
        cores: vec![CoreImage {
            blocks: vec![entry, body],
        }],
        data,
    }
}

#[test]
fn a_warm_untraced_tick_does_not_allocate() {
    let mut cfg = MachineConfig::paper(1);
    // Tick by tick: every cycle of the window goes through `tick`.
    cfg.fast_forward = false;
    let mut m = Machine::new(streaming_loop(1 << 15), &cfg).unwrap();
    // Warm up past the decode, every queue's growth, and the first fill
    // of each of the L2's 1024 sets (one line per ~130-cycle miss).
    for _ in 0..200_000 {
        m.tick().unwrap();
    }
    let before = HEAP_REQUESTS.with(Cell::get);
    for _ in 0..50_000 {
        m.tick().unwrap();
    }
    let during = HEAP_REQUESTS.with(Cell::get) - before;
    assert_eq!(during, 0, "heap requests in 50000 warm ticks");
    // The window really was the loop, misses included, and the run still
    // completes afterwards.
    let out = m.run().unwrap();
    assert!(out.stats.mem.mem_fetches > 1_000);
    assert!(out.stats.dynamic_insts > 100_000);
}

/// The what-if path: under infinite bandwidth every request is granted
/// on arrival and overlaps the others in flight, and a warm tick still
/// finishes the due ones without touching the heap.
#[test]
fn a_warm_infinite_bandwidth_tick_does_not_allocate() {
    let mut cfg = MachineConfig::paper(1);
    cfg.fast_forward = false;
    cfg.ideal = IdealKnobs {
        infinite_bandwidth: true,
        ..IdealKnobs::default()
    };
    let mut m = Machine::new(streaming_loop(1 << 15), &cfg).unwrap();
    for _ in 0..200_000 {
        m.tick().unwrap();
    }
    let before = HEAP_REQUESTS.with(Cell::get);
    for _ in 0..50_000 {
        m.tick().unwrap();
    }
    let during = HEAP_REQUESTS.with(Cell::get) - before;
    assert_eq!(during, 0, "heap requests in 50000 warm ticks");
    let out = m.run().unwrap();
    assert!(out.stats.mem.mem_fetches > 1_000);
    assert!(out.stats.dynamic_insts > 100_000);
}

#[test]
fn parking_the_head_index_and_region_flushes_do_not_allocate() {
    let iters = 4_000;
    let (p, out) = mesh::fork_join_loop(16, iters, 8);
    let mut cfg = MachineConfig::scaled(16);
    cfg.fast_forward = false;
    let mut m = Machine::new(p, &cfg).unwrap();
    // An iteration is ~100 cycles; warm up past the decode, the eight
    // lines' fills and every queue's, stream's and index's growth.
    for _ in 0..20_000 {
        m.tick().unwrap();
    }
    let before = HEAP_REQUESTS.with(Cell::get);
    for _ in 0..50_000 {
        m.tick().unwrap();
    }
    let during = HEAP_REQUESTS.with(Cell::get) - before;
    assert_eq!(during, 0, "heap requests in 50000 warm ticks");
    let run = m.run().unwrap();
    assert_eq!(
        run.memory.load_i64(out).unwrap(),
        mesh::fork_join_sum(16, iters)
    );
    // The window really forked, switched modes and crossed regions.
    assert_eq!(run.stats.spawns, 15 * iters as u64);
    assert_eq!(run.stats.mode_switches, 2 * iters as u64);
    assert_eq!(run.stats.regions.len(), 2);
    assert!(run.stats.cycles > 70_000, "the loop outlasts the window");
}

/// A traced tick writes its records straight into the one trace
/// document: over a warm window the only heap requests are that buffer's
/// doublings, however many records the window writes.
#[test]
fn a_warm_traced_tick_allocates_only_to_grow_the_document() {
    let (p, _) = mesh::fork_join_loop(16, 4_000, 8);
    let mut cfg = MachineConfig::scaled(16);
    cfg.fast_forward = false;
    let mut m = Machine::new(p, &cfg).unwrap();
    m.set_tracer(Box::new(ChromeTracer::new()));
    // Fast-forward is off, so tick `k` executes cycle `k`.
    let window = 20_000..70_000u64;
    for _ in 0..window.start {
        m.tick().unwrap();
    }
    let before = HEAP_REQUESTS.with(Cell::get);
    for _ in window.clone() {
        m.tick().unwrap();
    }
    let during = HEAP_REQUESTS.with(Cell::get) - before;
    let trace = m.run().unwrap().trace;
    let written = trace
        .split("\"ts\":")
        .skip(1)
        .filter_map(|rest| rest.split([',', '}']).next()?.parse::<u64>().ok())
        .filter(|ts| window.contains(ts))
        .count();
    assert!(written >= 1_000, "{written} records in the window");
    assert!(
        during <= 32,
        "{during} heap requests for {written} trace records in 50000 warm ticks"
    );
}

#[test]
fn validating_a_longer_image_does_not_allocate_more() {
    let cfg = MachineConfig::scaled(16);
    let (p, _) = mesh::fork_join_loop(16, 4, 8);
    // The same image with every block padded to eight times its length
    // by ALU instructions in front: 7x more to walk, not one site more.
    let mut padded = p.clone();
    let mut added = 0u64;
    for b in padded.cores.iter_mut().flat_map(|img| &mut img.blocks) {
        let pad = Inst::with_dst(
            Opcode::Add,
            Reg::gpr(7),
            vec![Reg::gpr(7).into(), Operand::Imm(1)],
        );
        let n = 7 * b.insts.len();
        b.insts.splice(0..0, std::iter::repeat_n(pad, n));
        added += n as u64;
    }
    let requests = |p: &MachineProgram| {
        let before = HEAP_REQUESTS.with(Cell::get);
        p.validate(&cfg).unwrap();
        HEAP_REQUESTS.with(Cell::get) - before
    };
    let (short, long) = (requests(&p), requests(&padded));
    assert!(
        added > 1_000,
        "the padding is material ({added} instructions)"
    );
    // Site lists are the only allocations; padding adds no site, so at
    // most a vector doubling or two may differ. (A validator that builds
    // a `Site` per instruction makes `added` more requests.)
    assert!(
        long <= short + 4,
        "{short} heap requests for the image, {long} once padded by {added} instructions"
    );
}
