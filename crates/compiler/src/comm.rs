//! Communication insertion and branch replication for parallel regions.
//!
//! Lowers one original basic block into per-core operation lists:
//!
//! * every instruction goes to its assigned core;
//! * a use whose register is homed elsewhere triggers an operand transfer
//!   — `PUT`/`GET` hop chains (with relay operations on intermediate
//!   cores) in coupled mode, tagged `SEND`/`RECV` in decoupled mode —
//!   reused for later uses in the same block until the register is
//!   redefined;
//! * terminators are replicated on every core (the distributed branch
//!   architecture): the branch condition is broadcast (`BCAST`/`GETB` in
//!   coupled mode, tagged predicate sends in decoupled mode) and coupled
//!   branches go through `PBR` + `BR` so every core redirects its own
//!   fetch in the same cycle.

use crate::partition::Assignment;
use voltron_ir::hash::{IntMap, IntSet};
use voltron_ir::{BlockId, Dir, ExecMode, Function, Inst, Opcode, Operand, Reg, RegClass};
use voltron_sim::MachineConfig;

/// Fresh virtual-register allocator shared across a compilation.
#[derive(Debug, Clone)]
pub struct FreshRegs {
    next: [u32; 4],
}

impl FreshRegs {
    /// Start above a function's existing registers.
    pub fn for_function(f: &Function) -> FreshRegs {
        FreshRegs {
            next: f.reg_counts(),
        }
    }

    /// Allocate a register of `class`.
    pub fn fresh(&mut self, class: RegClass) -> Reg {
        let i = self.next[class.index()];
        self.next[class.index()] += 1;
        Reg { class, index: i }
    }
}

/// CAM-tag allocator: unique tags per (sender, receiver) pair.
#[derive(Debug, Clone, Default)]
pub struct TagAlloc {
    next: IntMap<(usize, usize), u32>,
}

impl TagAlloc {
    /// Allocate the next tag for messages `from -> to`.
    ///
    /// # Panics
    /// Panics if a pair exhausts the 16-bit tag space (far beyond any
    /// realistic region).
    pub fn tag(&mut self, from: usize, to: usize) -> u32 {
        let t = self.next.entry((from, to)).or_insert(1);
        let tag = *t;
        *t += 1;
        assert!(tag < voltron_sim::network::TAG_JOIN, "tag space exhausted");
        tag
    }
}

/// A set of cores, one bit each (an image has at most 64 cores).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreSet(u64);

impl CoreSet {
    /// Cores `0..n`, for `n` in `1..=64`.
    pub fn first(n: usize) -> CoreSet {
        CoreSet(u64::MAX >> (64 - n))
    }

    /// Add core `c`.
    pub fn insert(&mut self, c: usize) {
        self.0 |= 1 << c;
    }

    /// Whether core `c` is in the set.
    pub fn contains(self, c: usize) -> bool {
        self.0 & (1 << c) != 0
    }

    /// Number of cores in the set.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The cores in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let c = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                c
            })
        })
    }
}

/// One operation in a per-core pre-schedule list.
#[derive(Debug, Clone)]
pub struct CoreOp {
    /// The instruction.
    pub inst: Inst,
    /// Index in the original block (None for inserted communication).
    pub orig: Option<usize>,
}

/// A cross-core scheduling constraint (coupled mode): `from` must issue at
/// least `latency` cycles before `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEdge {
    /// Producer (core, index in that core's list).
    pub from: (usize, usize),
    /// Consumer (core, index).
    pub to: (usize, usize),
    /// Minimum issue distance in cycles.
    pub latency: u32,
}

/// The lowered form of one original block.
#[derive(Debug, Clone)]
pub struct LoweredBlock {
    /// Ordered operation list per core.
    pub per_core: Vec<Vec<CoreOp>>,
    /// Cross-core constraints for the coupled scheduler.
    pub pair_edges: Vec<PairEdge>,
}

/// What a region replicates on every participating core (the paper's
/// Fig. 5(c) "condition computation replicated" and the induction-variable
/// replication transform).
///
/// Replicating the self-increment chains (`iv = iv + k`) and the branch
/// compares they feed removes the per-iteration condition broadcast from
/// the steady state of every counted loop — in both coupled mode (no
/// `BCAST`/`GETB` on the critical path) and decoupled mode (no predicate
/// `SEND`/`RECV` per iteration).
#[derive(Debug, Clone, Default)]
pub struct ReplicationPlan {
    /// Registers kept live on every participant (all their defs clone).
    pub regs: IntSet<Reg>,
    /// Instruction positions cloned on every participant.
    pub insts: IntSet<(BlockId, usize)>,
    /// Region-invariant registers that replicated compares read: these
    /// must be preloaded on *every* participant.
    pub extra_invariants: Vec<Reg>,
}

/// True for operations a replication clone may duplicate: pure,
/// unguard-able register-to-register compute (no memory, network,
/// control, or TM effects).
fn pure_op(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Add | Sub
            | Mul
            | Div
            | Rem
            | And
            | Or
            | Xor
            | Shl
            | Shr
            | Sar
            | Min
            | Max
            | Mov
            | Ldi
            | Fldi
            | Cmp(_)
            | Fcmp(_)
            | Sel
            | Fsel
            | PAnd
            | POr
            | PNot
            | ItoF
            | FtoI
            | PtoG
            | GtoP
            | Fadd
            | Fsub
            | Fmul
            | Fdiv
            | Fabs
            | Fneg
            | Fmin
            | Fmax
            | Fsqrt
    )
}

/// Decide what to replicate in a region (generalized scalar
/// rematerialization).
///
/// A register is *eligible* when every def is a pure unguarded operation
/// whose operands are immediates, region invariants, the register itself
/// (self-steps), or other eligible registers — i.e. its whole value
/// history can be recomputed locally on any core. Among the eligible, we
/// *select* the registers with multi-core demand (used by operations on
/// at least two different cores, or consumed by a replicated branch),
/// then close the selection over the operand chains so every clone is
/// purely local. This subsumes the paper's induction-variable replication
/// and Fig. 5(c) condition recomputation.
pub fn plan_replication(
    f: &Function,
    blocks: &[BlockId],
    asg: &Assignment,
    participants: CoreSet,
) -> ReplicationPlan {
    let mut plan = ReplicationPlan::default();
    if participants.count() < 2 {
        return plan;
    }
    let mut defs: IntMap<Reg, Vec<(BlockId, usize)>> = IntMap::default();
    for &b in blocks {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                defs.entry(d).or_default().push((b, i));
            }
        }
    }
    let invariant = |r: &Reg| !defs.contains_key(r);

    // Eligibility fixpoint.
    let mut eligible: IntSet<Reg> = IntSet::default();
    loop {
        let mut changed = false;
        for (r, sites) in &defs {
            if eligible.contains(r) {
                continue;
            }
            let ok = sites.iter().all(|&(b, i)| {
                let inst = &f.block(b).insts[i];
                pure_op(inst.op)
                    && inst.guard.is_none()
                    && inst.srcs.iter().all(|sop| match sop {
                        Operand::Imm(_) | Operand::FImm(_) => true,
                        Operand::Reg(x) => x == r || invariant(x) || eligible.contains(x),
                        _ => false,
                    })
            });
            if ok {
                eligible.insert(*r);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Demand: eligible registers used on >= 2 distinct cores, or feeding
    // a branch (terminators run on every participant).
    let mut demand: IntSet<Reg> = IntSet::default();
    let mut use_cores: IntMap<Reg, CoreSet> = IntMap::default();
    for &b in blocks {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if inst.op == Opcode::Br {
                if let Some(Operand::Reg(p)) = inst.srcs.get(1) {
                    if eligible.contains(p) {
                        demand.insert(*p);
                    }
                }
                continue;
            }
            if inst.op.is_terminator() {
                continue;
            }
            let c = asg.core_of(b, i);
            for u in inst.uses() {
                if eligible.contains(&u) {
                    use_cores.entry(u).or_default().insert(c);
                }
            }
        }
    }
    for (r, cores) in &use_cores {
        if cores.count() >= 2 {
            demand.insert(*r);
        }
    }

    // Close the selection over operand chains.
    let mut selected: Vec<Reg> = demand.iter().copied().collect();
    let mut i = 0;
    while i < selected.len() {
        let r = selected[i];
        i += 1;
        for &(b, idx) in &defs[&r] {
            let inst = &f.block(b).insts[idx];
            for sop in &inst.srcs {
                if let Operand::Reg(x) = sop {
                    if *x != r && !invariant(x) && !selected.contains(x) {
                        selected.push(*x);
                    }
                    if invariant(x) && !plan.extra_invariants.contains(x) {
                        plan.extra_invariants.push(*x);
                    }
                }
            }
        }
    }
    for r in selected {
        plan.regs.insert(r);
        plan.insts.extend(defs[&r].iter().copied());
    }
    plan
}

/// Lowers region blocks one at a time, tracking tag allocation across the
/// region.
#[derive(Debug)]
pub struct RegionLowerer<'a> {
    f: &'a Function,
    asg: &'a Assignment,
    cfg: &'a MachineConfig,
    mode: ExecMode,
    fresh: &'a mut FreshRegs,
    tags: &'a mut TagAlloc,
    /// Region-invariant values already shipped to remote cores at region
    /// entry: (original reg, core) -> that core's local copy. Hoists the
    /// per-iteration transfer of loop-invariant operands (base addresses,
    /// scale factors) out of the region body.
    preloaded: IntMap<(Reg, usize), Reg>,
    /// Cores participating in this region (always includes the master).
    participants: CoreSet,
    /// Replication decisions (induction variables + branch compares).
    replication: ReplicationPlan,
    /// Loop-invariant transfers to materialize at the end of each loop
    /// preheader: (source, home, consumer, local copy).
    loop_preloads: IntMap<BlockId, Vec<(Reg, usize, usize, Reg)>>,
    /// Scoped copies those transfers create: valid for blocks in
    /// `first..=last`.
    scoped_copies: Vec<((u32, u32), Reg, usize, Reg)>,
}

impl<'a> RegionLowerer<'a> {
    /// Create a lowerer for one region.
    pub fn new(
        f: &'a Function,
        asg: &'a Assignment,
        cfg: &'a MachineConfig,
        mode: ExecMode,
        fresh: &'a mut FreshRegs,
        tags: &'a mut TagAlloc,
    ) -> RegionLowerer<'a> {
        RegionLowerer {
            f,
            asg,
            cfg,
            mode,
            fresh,
            tags,
            preloaded: IntMap::default(),
            participants: CoreSet::first(cfg.cores),
            replication: ReplicationPlan::default(),
            loop_preloads: IntMap::default(),
            scoped_copies: Vec::new(),
        }
    }

    /// Register an entry-hoisted invariant copy (see the emitter).
    pub fn preload(&mut self, orig: Reg, core: usize, local: Reg) {
        self.preloaded.insert((orig, core), local);
    }

    /// Restrict the region to `cores` (must contain the master).
    pub fn set_participants(&mut self, cores: CoreSet) {
        debug_assert!(cores.contains(0), "master always participates");
        self.participants = cores;
    }

    /// Install the replication plan for this region.
    pub fn set_replication(&mut self, plan: ReplicationPlan) {
        self.replication = plan;
    }

    /// Register a loop-invariant transfer: at the end of `preheader`, the
    /// value of `src` ships from `home` to `to` into `copy`, which then
    /// serves every use in blocks `range` (a loop the source is never
    /// redefined in). Hoists per-iteration transfers out of loops.
    pub fn add_loop_preload(
        &mut self,
        preheader: BlockId,
        range: (u32, u32),
        src: Reg,
        home: usize,
        to: usize,
        copy: Reg,
    ) {
        self.loop_preloads
            .entry(preheader)
            .or_default()
            .push((src, home, to, copy));
        self.scoped_copies.push((range, src, to, copy));
    }

    /// The mesh direction from core `a` to adjacent core `b`.
    fn dir_between(&self, a: usize, b: usize) -> Dir {
        for d in [Dir::East, Dir::West, Dir::North, Dir::South] {
            if self.cfg.neighbor(a, d) == Some(b) {
                return d;
            }
        }
        unreachable!("cores {a} and {b} are not adjacent")
    }

    /// XY route from `from` to `to`, inclusive of both endpoints.
    fn route(&self, from: usize, to: usize) -> Vec<usize> {
        let w = self.cfg.mesh_width();
        let (mut x, mut y) = self.cfg.coords(from);
        let (tx, ty) = self.cfg.coords(to);
        let mut path = vec![from];
        while x != tx {
            x = if x < tx { x + 1 } else { x - 1 };
            path.push(y * w + x);
        }
        while y != ty {
            y = if y < ty { y + 1 } else { y - 1 };
            path.push(y * w + x);
        }
        path
    }

    /// Lower one block. Returns per-core code with the original branch
    /// targets still symbolic (original [`BlockId`]s); the emitter remaps
    /// them per core.
    pub fn lower_block(&mut self, b: BlockId) -> LoweredBlock {
        let n = self.cfg.cores;
        let insts = &self.f.block(b).insts;
        let mut out = LoweredBlock {
            per_core: vec![Vec::new(); n],
            pair_edges: Vec::new(),
        };
        // Local copies of remote registers, valid until the source is
        // redefined.
        let mut cur_copy: IntMap<(Reg, usize), Reg> = IntMap::default();
        // Last GET on each directed link, for latch serialization.
        let mut last_get: IntMap<(usize, Dir), (usize, usize)> = IntMap::default();

        let term_start = insts
            .iter()
            .position(|i| i.op.is_terminator())
            .unwrap_or(insts.len());

        for (i, inst) in insts.iter().enumerate().take(term_start) {
            if self.replication.insts.contains(&(b, i)) {
                // Cloned on every participant; operands are immediates,
                // replicated registers, or preloaded invariants, so each
                // core's copy is purely local.
                for c in self.participants.iter() {
                    let mut ni = inst.clone();
                    for sop in &mut ni.srcs {
                        if let Operand::Reg(r) = sop {
                            if let Some(copy) = self.preloaded.get(&(*r, c)) {
                                *r = *copy;
                            }
                        }
                    }
                    out.per_core[c].push(CoreOp {
                        inst: ni,
                        orig: Some(i),
                    });
                }
                if let Some(d) = inst.def() {
                    cur_copy.retain(|(r, _), _| *r != d);
                }
                continue;
            }
            let c = self.asg.core_of(b, i);
            let mut ni = inst.clone();
            // Rewrite remote uses through transfers.
            let fix = |r: &mut Reg,
                       lowerer: &mut RegionLowerer<'_>,
                       out: &mut LoweredBlock,
                       cur_copy: &mut IntMap<(Reg, usize), Reg>,
                       last_get: &mut IntMap<(usize, Dir), (usize, usize)>| {
                if r.class == RegClass::Btr {
                    return;
                }
                if lowerer.replication.regs.contains(r) {
                    return; // replicated: every participant has a live copy
                }
                let h = lowerer.asg.home_of(*r);
                if h == c {
                    return;
                }
                if let Some(copy) = lowerer.preloaded.get(&(*r, c)) {
                    *r = *copy;
                    return;
                }
                if let Some(copy) = lowerer
                    .scoped_copies
                    .iter()
                    .find(|((lo, hi), src, core, _)| {
                        *src == *r && *core == c && b.0 >= *lo && b.0 <= *hi
                    })
                    .map(|(_, _, _, copy)| *copy)
                {
                    *r = copy;
                    return;
                }
                if let Some(copy) = cur_copy.get(&(*r, c)) {
                    *r = *copy;
                    return;
                }
                let fr = lowerer.fresh.fresh(r.class);
                lowerer.emit_transfer(h, c, *r, fr, out, last_get);
                cur_copy.insert((*r, c), fr);
                *r = fr;
            };
            for s in &mut ni.srcs {
                if let Operand::Reg(r) = s {
                    fix(r, self, &mut out, &mut cur_copy, &mut last_get);
                }
            }
            if let Some(g) = ni.guard.as_mut() {
                fix(g, self, &mut out, &mut cur_copy, &mut last_get);
            }
            out.per_core[c].push(CoreOp {
                inst: ni,
                orig: Some(i),
            });
            if let Some(d) = inst.def() {
                cur_copy.retain(|(r, _), _| *r != d);
            }
        }

        // Materialize loop-invariant transfers registered for this block
        // (it is some loop's preheader) ahead of its terminators.
        if let Some(entries) = self.loop_preloads.get(&b).cloned() {
            for (src, home, to, copy) in entries {
                self.emit_transfer(home, to, src, copy, &mut out, &mut last_get);
            }
        }
        self.lower_terminators(b, term_start, &mut out, &mut cur_copy);
        out
    }

    /// Emit a transfer of `src` (on `h`) into `dst` (on `c`).
    fn emit_transfer(
        &mut self,
        h: usize,
        c: usize,
        src: Reg,
        dst: Reg,
        out: &mut LoweredBlock,
        last_get: &mut IntMap<(usize, Dir), (usize, usize)>,
    ) {
        debug_assert_ne!(h, c);
        match self.mode {
            ExecMode::Decoupled => {
                let tag = self.tags.tag(h, c);
                out.per_core[h].push(CoreOp {
                    inst: Inst::new(
                        Opcode::Send,
                        vec![
                            src.into(),
                            Operand::Core(c as u8),
                            Operand::Imm(i64::from(tag)),
                        ],
                    ),
                    orig: None,
                });
                out.per_core[c].push(CoreOp {
                    inst: Inst::with_dst(
                        Opcode::Recv,
                        dst,
                        vec![Operand::Core(h as u8), Operand::Imm(i64::from(tag))],
                    ),
                    orig: None,
                });
            }
            ExecMode::Coupled => {
                let path = self.route(h, c);
                let mut carried = src;
                for hop in 0..path.len() - 1 {
                    let a = path[hop];
                    let nxt = path[hop + 1];
                    let d = self.dir_between(a, nxt);
                    let put_at = (a, out.per_core[a].len());
                    out.per_core[a].push(CoreOp {
                        inst: Inst::new(Opcode::Put, vec![carried.into(), Operand::Dir(d)]),
                        orig: None,
                    });
                    let rdst = if nxt == c {
                        dst
                    } else {
                        self.fresh.fresh(src.class)
                    };
                    let get_at = (nxt, out.per_core[nxt].len());
                    out.per_core[nxt].push(CoreOp {
                        inst: Inst::with_dst(Opcode::Get, rdst, vec![Operand::Dir(d.opposite())]),
                        orig: None,
                    });
                    out.pair_edges.push(PairEdge {
                        from: put_at,
                        to: get_at,
                        latency: 1,
                    });
                    // Latch serialization: the previous GET on this link
                    // must have consumed before this PUT can issue.
                    if let Some(prev) = last_get.insert((a, d), get_at) {
                        out.pair_edges.push(PairEdge {
                            from: prev,
                            to: put_at,
                            latency: 1,
                        });
                    }
                    carried = rdst;
                }
            }
        }
    }

    /// Replicate the block's terminators on every core.
    fn lower_terminators(
        &mut self,
        b: BlockId,
        term_start: usize,
        out: &mut LoweredBlock,
        cur_copy: &mut IntMap<(Reg, usize), Reg>,
    ) {
        let n = self.cfg.cores;
        let parts = self.participants;
        let insts = &self.f.block(b).insts;
        for inst in &insts[term_start..] {
            match inst.op {
                Opcode::Jump => {
                    // Invariant: Program::verify admits only Block (or
                    // Btr) jump targets, and comm runs on verified IR
                    // before any Btr rewriting exists.
                    let t = inst.srcs[0].as_block().expect("IR jump targets a block");
                    for k in parts.iter() {
                        self.emit_jump(k, t, out);
                    }
                }
                Opcode::Br => {
                    // Invariant: same verified-IR grammar — Br is
                    // (block target, predicate register).
                    let t = inst.srcs[0].as_block().expect("IR branch targets a block");
                    let p = inst.srcs[1].as_reg().expect("branch predicate");
                    let hp = self.asg.home_of(p);
                    // Distribute the condition (unless its compare was
                    // replicated, in which case every core owns a copy).
                    let replicated_p = self.replication.regs.contains(&p);
                    let mut local: Vec<Reg> = vec![p; n];
                    match self.mode {
                        ExecMode::Coupled => {
                            if n > 1 && !replicated_p {
                                let bcast_at = (hp, out.per_core[hp].len());
                                out.per_core[hp].push(CoreOp {
                                    inst: Inst::new(Opcode::Bcast, vec![p.into()]),
                                    orig: None,
                                });
                                for (k, slot) in local.iter_mut().enumerate() {
                                    if k == hp {
                                        continue;
                                    }
                                    if let Some(copy) = cur_copy.get(&(p, k)) {
                                        // Already transferred for a guard
                                        // or select in this block.
                                        *slot = *copy;
                                        continue;
                                    }
                                    let fr = self.fresh.fresh(RegClass::Pred);
                                    let get_at = (k, out.per_core[k].len());
                                    out.per_core[k].push(CoreOp {
                                        inst: Inst::with_dst(Opcode::GetB, fr, vec![]),
                                        orig: None,
                                    });
                                    out.pair_edges.push(PairEdge {
                                        from: bcast_at,
                                        to: get_at,
                                        latency: 1,
                                    });
                                    *slot = fr;
                                }
                            }
                        }
                        ExecMode::Decoupled => {
                            for (k, slot) in local.iter_mut().enumerate() {
                                if k == hp || replicated_p || !parts.contains(k) {
                                    continue;
                                }
                                if let Some(copy) = cur_copy.get(&(p, k)) {
                                    *slot = *copy;
                                    continue;
                                }
                                let tag = self.tags.tag(hp, k);
                                out.per_core[hp].push(CoreOp {
                                    inst: Inst::new(
                                        Opcode::Send,
                                        vec![
                                            p.into(),
                                            Operand::Core(k as u8),
                                            Operand::Imm(i64::from(tag)),
                                        ],
                                    ),
                                    orig: None,
                                });
                                let fr = self.fresh.fresh(RegClass::Pred);
                                out.per_core[k].push(CoreOp {
                                    inst: Inst::with_dst(
                                        Opcode::Recv,
                                        fr,
                                        vec![Operand::Core(hp as u8), Operand::Imm(i64::from(tag))],
                                    ),
                                    orig: None,
                                });
                                *slot = fr;
                            }
                        }
                    }
                    for k in parts.iter() {
                        match self.mode {
                            ExecMode::Coupled => {
                                let btr = self.fresh.fresh(RegClass::Btr);
                                out.per_core[k].push(CoreOp {
                                    inst: Inst::with_dst(Opcode::Pbr, btr, vec![Operand::Block(t)]),
                                    orig: None,
                                });
                                out.per_core[k].push(CoreOp {
                                    inst: Inst::new(Opcode::Br, vec![btr.into(), local[k].into()]),
                                    orig: None,
                                });
                            }
                            ExecMode::Decoupled => {
                                out.per_core[k].push(CoreOp {
                                    inst: Inst::new(
                                        Opcode::Br,
                                        vec![Operand::Block(t), local[k].into()],
                                    ),
                                    orig: None,
                                });
                            }
                        }
                    }
                }
                Opcode::Halt | Opcode::Ret | Opcode::Call => {
                    unreachable!("region blocks cannot contain {:?}", inst.op)
                }
                _ => unreachable!("non-terminator after terminator start"),
            }
        }
    }

    fn emit_jump(&mut self, core: usize, t: BlockId, out: &mut LoweredBlock) {
        match self.mode {
            ExecMode::Coupled => {
                let btr = self.fresh.fresh(RegClass::Btr);
                out.per_core[core].push(CoreOp {
                    inst: Inst::with_dst(Opcode::Pbr, btr, vec![Operand::Block(t)]),
                    orig: None,
                });
                out.per_core[core].push(CoreOp {
                    inst: Inst::new(Opcode::Jump, vec![btr.into()]),
                    orig: None,
                });
            }
            ExecMode::Decoupled => {
                out.per_core[core].push(CoreOp {
                    inst: Inst::new(Opcode::Jump, vec![Operand::Block(t)]),
                    orig: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{bug_partition, PartitionParams};
    use crate::FrontEnd;
    use voltron_ir::builder::ProgramBuilder;

    fn lower_simple(mode: ExecMode) -> (LoweredBlock, usize) {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[1; 8]);
        let b = pb.data_mut().array_i64("b", &[2; 8]);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        let x = fb.load8(ba, 0);
        let y = fb.load8(bb, 0);
        let s = fb.add(x, y); // needs both chains -> at least one transfer
        fb.store8(ba, 8, s);
        let done = fb.label();
        fb.jump(done);
        fb.bind(done);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let fe = FrontEnd::of_flat(&p);
        let asg = bug_partition(
            &fe.inputs(),
            &[BlockId(0)],
            &PartitionParams::ebug(2),
            &IntMap::default(),
        );
        let cfg = MachineConfig::paper(2);
        let mut fresh = FreshRegs::for_function(f);
        let mut tags = TagAlloc::default();
        let mut lw = RegionLowerer::new(f, &asg, &cfg, mode, &mut fresh, &mut tags);
        let spread = asg.per_core_counts(2).iter().filter(|&&c| c > 0).count();
        (lw.lower_block(BlockId(0)), spread)
    }

    #[test]
    fn decoupled_transfers_use_matched_tags() {
        let (lb, spread) = lower_simple(ExecMode::Decoupled);
        if spread < 2 {
            return; // partitioner kept everything local; nothing to check
        }
        let sends: Vec<&CoreOp> = lb
            .per_core
            .iter()
            .flatten()
            .filter(|o| o.inst.op == Opcode::Send)
            .collect();
        let recvs: Vec<&CoreOp> = lb
            .per_core
            .iter()
            .flatten()
            .filter(|o| o.inst.op == Opcode::Recv)
            .collect();
        assert_eq!(sends.len(), recvs.len());
        assert!(!sends.is_empty());
        for s in &sends {
            let tag = match s.inst.srcs[2] {
                Operand::Imm(t) => t,
                _ => panic!("send without tag"),
            };
            assert!(recvs
                .iter()
                .any(|r| matches!(r.inst.srcs[1], Operand::Imm(t2) if t2 == tag)));
        }
    }

    #[test]
    fn coupled_transfers_use_put_get_pairs() {
        let (lb, spread) = lower_simple(ExecMode::Coupled);
        if spread < 2 {
            return;
        }
        let puts = lb
            .per_core
            .iter()
            .flatten()
            .filter(|o| o.inst.op == Opcode::Put)
            .count();
        let gets = lb
            .per_core
            .iter()
            .flatten()
            .filter(|o| o.inst.op == Opcode::Get)
            .count();
        assert_eq!(puts, gets);
        assert!(puts >= 1);
        assert!(!lb.pair_edges.is_empty());
    }

    #[test]
    fn conditional_branch_is_replicated_with_condition_broadcast() {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("pad", 8);
        let mut fb = pb.function("main");
        let a = fb.ldi(1);
        let exit = fb.label();
        let p0 = fb.cmp(voltron_ir::CmpCc::Lt, a, 10i64);
        fb.br_if(p0, exit);
        fb.bind(exit);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let fe = FrontEnd::of_flat(&p);
        let asg = bug_partition(
            &fe.inputs(),
            &[BlockId(0)],
            &PartitionParams::bug(4),
            &IntMap::default(),
        );
        let cfg = MachineConfig::paper(4);
        let mut fresh = FreshRegs::for_function(f);
        let mut tags = TagAlloc::default();
        let mut lw = RegionLowerer::new(f, &asg, &cfg, ExecMode::Coupled, &mut fresh, &mut tags);
        let lb = lw.lower_block(BlockId(0));
        // Every core ends with PBR + BR.
        for ops in &lb.per_core {
            let brs = ops.iter().filter(|o| o.inst.op == Opcode::Br).count();
            let pbrs = ops.iter().filter(|o| o.inst.op == Opcode::Pbr).count();
            assert_eq!(brs, 1);
            assert_eq!(pbrs, 1);
        }
        // Exactly one broadcast and three GETBs.
        let bcasts: usize = lb
            .per_core
            .iter()
            .flatten()
            .filter(|o| o.inst.op == Opcode::Bcast)
            .count();
        let getbs: usize = lb
            .per_core
            .iter()
            .flatten()
            .filter(|o| o.inst.op == Opcode::GetB)
            .count();
        assert_eq!(bcasts, 1);
        assert_eq!(getbs, 3);
    }
}

#[cfg(test)]
mod replication_tests {
    use super::*;
    use crate::partition::{bug_partition, PartitionParams};
    use crate::FrontEnd;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::{BlockId, CmpCc};

    /// A loop whose address chain roots at replicable values.
    fn assignment_for(p: &voltron_ir::Program, cores: usize) -> Assignment {
        let fe = FrontEnd::of_flat(p);
        let blocks: Vec<BlockId> = p.main_func().iter_blocks().map(|(b, _)| b).collect();
        bug_partition(
            &fe.inputs(),
            &blocks[..blocks.len() - 1], // skip the halt block
            &PartitionParams::ebug(cores),
            &IntMap::default(),
        )
    }

    #[test]
    fn induction_and_condition_chains_are_selected() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 64);
        let b = pb.data_mut().zeroed("b", 8 * 64);
        let mut fb = pb.function("main");
        let ab = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        fb.counted_loop(0i64, 64i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let pa = f.add(ab, off);
            let v = f.mul(iv, 3i64);
            f.store8(pa, 0, v);
            let pb2 = f.add(bb, off);
            let w = f.mul(iv, 5i64);
            f.store8(pb2, 0, w);
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let asg = assignment_for(&p, 2);
        let blocks: Vec<BlockId> = f.iter_blocks().map(|(bid, _)| bid).collect();
        let plan = plan_replication(f, &blocks[..blocks.len() - 1], &asg, CoreSet::first(2));
        // The induction variable must replicate, and the loop-exit
        // compare's predicate with it.
        let iv = voltron_ir::Reg::gpr(2); // ab, bb, then iv
        assert!(
            plan.regs.contains(&iv),
            "iv not replicated: {:?}",
            plan.regs
        );
        let has_pred = plan
            .regs
            .iter()
            .any(|r| r.class == voltron_ir::RegClass::Pred);
        assert!(has_pred, "exit predicate not replicated");
        // Some instruction positions were marked for cloning.
        assert!(!plan.insts.is_empty());
    }

    #[test]
    fn load_rooted_chains_are_not_replicated() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[1; 64]);
        let mut fb = pb.function("main");
        let ab = fb.ldi(a as i64);
        fb.counted_loop(0i64, 32i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let pa = f.add(ab, off);
            let v = f.load8(pa, 0); // impure root
            let addr2 = f.add(ab, v); // derived from a load
            let w = f.load8(addr2, 0);
            f.store8(pa, 0, w);
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let asg = assignment_for(&p, 2);
        let blocks: Vec<BlockId> = f.iter_blocks().map(|(bid, _)| bid).collect();
        let plan = plan_replication(f, &blocks[..blocks.len() - 1], &asg, CoreSet::first(2));
        // v and addr2 root at a load: never replicable.
        for (bid, blk) in f.iter_blocks() {
            for (i, inst) in blk.insts.iter().enumerate() {
                if inst.op.is_load() {
                    let d = inst.def().unwrap();
                    assert!(!plan.regs.contains(&d), "load dst replicated");
                    let _ = (bid, i);
                }
            }
        }
    }

    #[test]
    fn single_participant_replicates_nothing() {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("a", 64);
        let mut fb = pb.function("main");
        fb.counted_loop(0i64, 8i64, 1, |f, iv| {
            f.add(iv, 1i64);
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let asg = Assignment::default();
        let blocks: Vec<BlockId> = f.iter_blocks().map(|(bid, _)| bid).collect();
        let plan = plan_replication(f, &blocks, &asg, CoreSet::first(1));
        assert!(plan.regs.is_empty());
        assert!(plan.insts.is_empty());
    }

    #[test]
    fn guarded_defs_block_eligibility() {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("a", 64);
        let mut fb = pb.function("main");
        let x = fb.ldi(0);
        let g = fb.cmp(CmpCc::Lt, 1i64, 2i64);
        fb.emit(
            voltron_ir::Inst::with_dst(
                voltron_ir::Opcode::Add,
                x,
                vec![x.into(), voltron_ir::Operand::Imm(1)],
            )
            .guarded(g),
        );
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let asg = Assignment::default();
        let blocks: Vec<BlockId> = f.iter_blocks().map(|(bid, _)| bid).collect();
        let plan = plan_replication(f, &blocks, &asg, CoreSet::first(2));
        assert!(
            !plan.regs.contains(&x),
            "guarded self-step must not replicate"
        );
    }
}
