//! Machine-code emission: stitches planned regions into per-core
//! instruction images.
//!
//! Layout strategy: the master core's image contains, in original layout
//! order, either the serial blocks themselves or, for parallel regions,
//! an *entry glue* block (spawns + entry operand transfers + mode switch)
//! followed by the master's copy of the region blocks and one *exit glue*
//! per external target (mode switch back + live-out receives + join).
//! Worker images get an entry stub, their copies of the region blocks,
//! and a shared exit stub (live-out sends + join token + `SLEEP`).
//!
//! Branches into a region from outside can only target its entry (the
//! planner guarantees it), so the original entry block id maps to the
//! glue; region-internal targets (e.g. loop back edges) map to each
//! core's own copies.

use crate::comm::{plan_replication, CoreSet, FreshRegs, RegionLowerer, TagAlloc};
use crate::doall::{self, DoallInfo};
use crate::error::CompileError;
use crate::plan::{Plan, PlanInputs, Region, RegionKind};
use crate::sched::schedule_coupled;
use std::collections::HashMap;
use voltron_ir::{BlockId, ExecMode, Inst, Opcode, Operand, Reg, RegClass};
use voltron_sim::network::TAG_JOIN;
use voltron_sim::{CoreImage, MBlock, MachineConfig, MachineProgram};

/// A forward-referencable machine-block label within one image.
#[derive(Debug, Clone, Copy)]
struct MLabel(u32);

#[derive(Debug)]
struct ImageBuilder {
    blocks: Vec<MBlock>,
    bound: Vec<Option<u32>>,
    /// The label of each original block, by block index.
    orig_label: Vec<Option<MLabel>>,
    /// What [`Self::push`] added to the last block. It moves into the
    /// block, in one allocation of the final size, when the next block
    /// starts or the image is finished; the buffer serves every block.
    pending: Vec<Inst>,
    /// Whether the last block is filled from `pending`.
    open: bool,
}

impl ImageBuilder {
    fn new(boot_sleep: bool) -> ImageBuilder {
        let mut b = ImageBuilder {
            blocks: Vec::new(),
            bound: Vec::new(),
            orig_label: Vec::new(),
            pending: Vec::new(),
            open: false,
        };
        if boot_sleep {
            let boot = vec![Inst::new(Opcode::Sleep, vec![])];
            b.block("boot".into(), voltron_sim::REGION_OUTSIDE, None, boot);
        }
        b
    }

    fn new_label(&mut self) -> MLabel {
        self.bound.push(None);
        MLabel(self.bound.len() as u32 - 1)
    }

    fn label_for_orig(&mut self, b: BlockId) -> MLabel {
        if self.orig_label.len() <= b.idx() {
            self.orig_label.resize(b.idx() + 1, None);
        }
        if let Some(l) = self.orig_label[b.idx()] {
            return l;
        }
        let l = self.new_label();
        self.orig_label[b.idx()] = Some(l);
        l
    }

    /// Append a block holding `insts`, binding `label` to it.
    fn block(&mut self, name: String, region: u32, label: Option<MLabel>, insts: Vec<Inst>) {
        self.close();
        self.blocks.push(MBlock {
            name,
            insts,
            region,
        });
        if let Some(l) = label {
            assert!(self.bound[l.0 as usize].is_none(), "label bound twice");
            self.bound[l.0 as usize] = Some(self.blocks.len() as u32 - 1);
        }
    }

    /// Append a block for [`Self::push`] to fill.
    fn begin(&mut self, name: String, region: u32, label: Option<MLabel>) {
        self.block(name, region, label, Vec::new());
        self.open = true;
    }

    fn push(&mut self, inst: Inst) {
        // Invariant: every emitter calls begin() before its first push,
        // so an image never receives instructions without an open block.
        assert!(self.open, "begin() opened a block");
        self.pending.push(inst);
    }

    /// Move the pushed instructions into the last block.
    fn close(&mut self) {
        if std::mem::take(&mut self.open) {
            // Invariant: `open` is only set right after a block is added.
            let last = self.blocks.last_mut().expect("begin() added a block");
            last.insts = self.pending.drain(..).collect();
        }
    }
}

/// Emission options (ablation hooks).
#[derive(Debug, Clone, Copy)]
pub struct EmitOptions {
    /// Replicate induction updates and branch-condition compares on every
    /// participant (Fig. 5(c)); false forces the broadcast path for the
    /// branch-mechanism ablation.
    pub condition_replication: bool,
}

impl Default for EmitOptions {
    fn default() -> EmitOptions {
        EmitOptions {
            condition_replication: true,
        }
    }
}

/// Result of compilation.
#[derive(Debug)]
pub struct Compiled {
    /// The runnable machine program.
    pub machine: MachineProgram,
    /// Region kind per region id (for reports).
    pub region_kinds: HashMap<u32, &'static str>,
    /// Estimated serial cycles per region id (for Fig. 3 attribution).
    pub region_weights: HashMap<u32, u64>,
}

/// Emit a plan into a [`MachineProgram`].
///
/// # Errors
/// Returns [`CompileError::Internal`] on an unbound label. The image's
/// shape is proven when the simulator seals it.
pub fn emit(
    inp: &PlanInputs<'_>,
    plan: &Plan,
    cfg: &MachineConfig,
    data: &voltron_ir::DataSegment,
    name: String,
    opts: &EmitOptions,
) -> Result<Compiled, CompileError> {
    let n = cfg.cores;
    let mut fresh = FreshRegs::for_function(inp.f);
    let mut tags = TagAlloc::default();
    let mut imgs: Vec<ImageBuilder> = (0..n).map(|k| ImageBuilder::new(k != 0)).collect();

    for region in &plan.regions {
        match &region.kind {
            RegionKind::Serial => emit_serial(inp, region, &mut imgs),
            RegionKind::Coupled(asg) => emit_parallel(
                inp,
                region,
                asg,
                ExecMode::Coupled,
                cfg,
                &mut imgs,
                &mut fresh,
                &mut tags,
                opts,
            ),
            RegionKind::Strands(asg) | RegionKind::Dswp(asg) => emit_parallel(
                inp,
                region,
                asg,
                ExecMode::Decoupled,
                cfg,
                &mut imgs,
                &mut fresh,
                &mut tags,
                opts,
            ),
            RegionKind::Doall(info) => {
                emit_doall(inp, region, info, cfg, &mut imgs, &mut fresh, &mut tags)
            }
        }
    }

    // Resolve labels to machine block ids. Spawn targets live in the
    // spawned core's label space, so every image's label table outlives
    // the rewrite of every image's blocks.
    let (images, bound): (Vec<Vec<MBlock>>, Vec<Vec<Option<u32>>>) = imgs
        .into_iter()
        .map(|mut ib| {
            ib.close();
            (ib.blocks, ib.bound)
        })
        .unzip();
    let resolve = |img: usize, l: u32| -> Result<BlockId, CompileError> {
        bound[img]
            .get(l as usize)
            .copied()
            .flatten()
            .map(BlockId)
            .ok_or_else(|| CompileError::Internal(format!("unbound label {l} in core {img} image")))
    };
    let mut cores: Vec<CoreImage> = Vec::with_capacity(n);
    for (ci, mut blocks) in images.into_iter().enumerate() {
        for b in &mut blocks {
            for inst in &mut b.insts {
                if inst.op == Opcode::Spawn {
                    // Invariant: spawns are emitted only by this module,
                    // always with a Core operand in slot 0.
                    let target_core =
                        inst.srcs[0].as_core().expect("codegen emits Core spawns") as usize;
                    if let Operand::Block(BlockId(l)) = inst.srcs[1] {
                        inst.srcs[1] = Operand::Block(resolve(target_core, l)?);
                    }
                    continue;
                }
                for s in &mut inst.srcs {
                    if let Operand::Block(BlockId(l)) = s {
                        *s = Operand::Block(resolve(ci, *l)?);
                    }
                }
            }
        }
        cores.push(CoreImage { blocks });
    }
    let machine = MachineProgram {
        name,
        cores,
        data: data.clone(),
    };

    let region_kinds = plan.regions.iter().map(|r| (r.id, r.kind.name())).collect();
    let region_weights = plan
        .regions
        .iter()
        .map(|r| (r.id, r.est_serial_cycles))
        .collect();
    Ok(Compiled {
        machine,
        region_kinds,
        region_weights,
    })
}

/// Rewrite an instruction's block targets through `map`.
fn retarget(inst: &mut Inst, map: &impl Fn(BlockId) -> MLabel) {
    for s in &mut inst.srcs {
        if let Operand::Block(t) = s {
            *s = Operand::Block(BlockId(map(*t).0));
        }
    }
}

fn emit_serial(inp: &PlanInputs<'_>, region: &Region, imgs: &mut [ImageBuilder]) {
    let master = &mut imgs[0];
    for b in region.blocks() {
        let label = master.label_for_orig(b);
        // Serial targets always go to the master's public labels.
        let insts = inp
            .f
            .block(b)
            .insts
            .iter()
            .map(|inst| {
                let mut ni = inst.clone();
                for s in &mut ni.srcs {
                    if let Operand::Block(t) = s {
                        *s = Operand::Block(BlockId(master.label_for_orig(*t).0));
                    }
                }
                ni
            })
            .collect();
        master.block(format!("{b}.serial"), region.id, Some(label), insts);
    }
}

/// The external targets of a region: branch targets outside the range,
/// plus the fallthrough successor when the last block falls through. The
/// fallthrough target (if any) is first.
fn external_targets(inp: &PlanInputs<'_>, region: &Region) -> Vec<BlockId> {
    let mut out: Vec<BlockId> = Vec::new();
    let fall = {
        let last = BlockId(region.last);
        if inp.f.block(last).falls_through() {
            Some(BlockId(region.last + 1))
        } else {
            None
        }
    };
    if let Some(t) = fall {
        out.push(t);
    }
    for b in region.blocks() {
        for inst in &inp.f.block(b).insts {
            if let Some(t) = inst.static_target() {
                if !region.contains(t) && !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        // A non-last block that falls through out of the region cannot
        // happen: ranges are contiguous, so fallthrough stays inside.
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn emit_parallel(
    inp: &PlanInputs<'_>,
    region: &Region,
    asg: &crate::partition::Assignment,
    mode: ExecMode,
    cfg: &MachineConfig,
    imgs: &mut [ImageBuilder],
    fresh: &mut FreshRegs,
    tags: &mut TagAlloc,
    opts: &EmitOptions,
) {
    let n = cfg.cores;
    let entry = BlockId(region.first);
    let rid = region.id;
    let region_blocks: Vec<BlockId> = region.blocks().collect();

    // Participants: in coupled mode the whole group runs in lock-step; in
    // decoupled mode only cores that own work join the region (the
    // paper: branches are replicated only to cores with control-dependent
    // instructions).
    let participants = match mode {
        ExecMode::Coupled => CoreSet::first(n),
        ExecMode::Decoupled => {
            let mut p = CoreSet::default();
            p.insert(0);
            for &c in asg.core_of.values().chain(asg.home.values()) {
                p.insert(c);
            }
            p
        }
    };

    // Scalar rematerialization: induction-variable replication and
    // branch-condition recomputation (Fig. 5(c)), generalized to any
    // locally recomputable chain with multi-core demand.
    let rep = if opts.condition_replication {
        plan_replication(inp.f, &region_blocks, asg, participants)
    } else {
        crate::comm::ReplicationPlan::default()
    };

    // Entry transfers: live-in registers homed on a worker (sent into the
    // same register name there); replicated registers instead fan out to
    // every participant.
    let mut entry_xfers: Vec<(Reg, usize, u32)> = Vec::new();
    {
        let mut live_in: Vec<Reg> = inp
            .liveness
            .live_in_of(entry)
            .iter()
            .copied()
            .filter(|r| r.class != RegClass::Btr)
            .collect();
        live_in.sort_unstable();
        for r in live_in {
            if rep.regs.contains(&r) {
                for k in participants.iter().skip(1) {
                    entry_xfers.push((r, k, 0));
                }
            } else {
                let h = asg.home_of(r);
                if h != 0 {
                    entry_xfers.push((r, h, 0));
                }
            }
        }
    }
    entry_xfers.sort_by_key(|(r, h, _)| (*h, *r));
    for x in &mut entry_xfers {
        x.2 = tags.tag(0, x.1);
    }

    // Invariant hoisting: region-invariant registers (no def in the
    // region, so homed on the master) used by remote ops are shipped once
    // at region entry into fresh local copies, instead of per-block
    // PUT/GET or SEND/RECV pairs inside loops.
    let mut invariant_uses: Vec<(Reg, usize)> = Vec::new();
    for b in region.blocks() {
        for (i, inst) in inp.f.block(b).insts.iter().enumerate() {
            if inst.op.is_terminator() {
                continue;
            }
            let c = asg.core_of(b, i);
            if c == 0 {
                continue;
            }
            for r in inst.uses() {
                if r.class != RegClass::Btr && !asg.home.contains_key(&r) {
                    invariant_uses.push((r, c));
                }
            }
        }
    }
    for &r in &rep.extra_invariants {
        for k in participants.iter().skip(1) {
            invariant_uses.push((r, k));
        }
    }
    invariant_uses.sort_unstable_by_key(|&(r, c)| (c, r));
    invariant_uses.dedup();
    let invariant_xfers: Vec<(Reg, usize, u32, Reg)> = invariant_uses
        .into_iter()
        .map(|(r, c)| (r, c, tags.tag(0, c), fresh.fresh(r.class)))
        .collect();

    // Exit transfers: registers defined in the region on a worker and
    // live at any external target.
    let targets = external_targets(inp, region);
    let mut live_after: Vec<Reg> = Vec::new();
    for &t in &targets {
        for &r in inp.liveness.live_in_of(t) {
            if !live_after.contains(&r) {
                live_after.push(r);
            }
        }
    }
    let mut exit_xfers: Vec<(usize, Reg, u32)> = Vec::new();
    {
        let mut homed: Vec<(usize, Reg)> = live_after
            .iter()
            .copied()
            .filter(|r| r.class != RegClass::Btr)
            .filter_map(|r| {
                if rep.regs.contains(&r) {
                    return None; // the master's replicated copy is current
                }
                let h = asg.home_of(r);
                if h != 0 && asg.home.contains_key(&r) {
                    Some((h, r))
                } else {
                    None
                }
            })
            .collect();
        homed.sort_unstable();
        for (h, r) in homed {
            exit_xfers.push((h, r, tags.tag(h, 0)));
        }
    }

    // Labels. Core k's copy of region block b is
    // internal[(b - first) * n + k]; the master's exit glue towards
    // targets[i] is glue[i].
    let worker_entry: Vec<MLabel> = (0..n).map(|k| imgs[k].new_label()).collect();
    let worker_exit: Vec<MLabel> = (0..n).map(|k| imgs[k].new_label()).collect();
    let mut internal: Vec<MLabel> = Vec::with_capacity(region_blocks.len() * n);
    for _ in &region_blocks {
        internal.extend(imgs.iter_mut().map(ImageBuilder::new_label));
    }
    let internal_of = |b: BlockId, k: usize| internal[(b.0 - region.first) as usize * n + k];
    let glue: Vec<MLabel> = targets.iter().map(|_| imgs[0].new_label()).collect();
    let glue_of = |t: BlockId| {
        glue[targets
            .iter()
            .position(|&x| x == t)
            .expect("an external target")]
    };

    // 1. Master entry glue.
    let entry_label = imgs[0].label_for_orig(entry);
    imgs[0].begin(format!("r{rid}.entry"), rid, Some(entry_label));
    for k in participants.iter().skip(1) {
        imgs[0].push(Inst::new(
            Opcode::Spawn,
            vec![
                Operand::Core(k as u8),
                Operand::Block(BlockId(worker_entry[k].0)),
            ],
        ));
    }
    for &(r, h, tag) in &entry_xfers {
        imgs[0].push(Inst::new(
            Opcode::Send,
            vec![
                r.into(),
                Operand::Core(h as u8),
                Operand::Imm(i64::from(tag)),
            ],
        ));
    }
    for &(r, c, tag, _) in &invariant_xfers {
        imgs[0].push(Inst::new(
            Opcode::Send,
            vec![
                r.into(),
                Operand::Core(c as u8),
                Operand::Imm(i64::from(tag)),
            ],
        ));
    }
    if mode == ExecMode::Coupled {
        imgs[0].push(Inst::new(
            Opcode::ModeSwitch,
            vec![Operand::Mode(ExecMode::Coupled)],
        ));
    }
    // Falls through into the master's copy of the entry block.

    // 2. Worker entry stubs.
    for k in participants.iter().skip(1) {
        imgs[k].begin(format!("r{rid}.stub"), rid, Some(worker_entry[k]));
        for &(r, h, tag) in &entry_xfers {
            if h == k {
                imgs[k].push(Inst::with_dst(
                    Opcode::Recv,
                    r,
                    vec![Operand::Core(0), Operand::Imm(i64::from(tag))],
                ));
            }
        }
        for &(_, c, tag, local) in &invariant_xfers {
            if c == k {
                imgs[k].push(Inst::with_dst(
                    Opcode::Recv,
                    local,
                    vec![Operand::Core(0), Operand::Imm(i64::from(tag))],
                ));
            }
        }
        if mode == ExecMode::Coupled {
            imgs[k].push(Inst::new(
                Opcode::ModeSwitch,
                vec![Operand::Mode(ExecMode::Coupled)],
            ));
        }
        // Falls through into the worker's copy of the entry block.
    }

    // Loop-invariant transfer hoisting: a region-defined value consumed
    // inside a loop that never redefines it ships once in the loop's
    // preheader instead of on every iteration.
    // (preheader, loop range, source reg, home core, consumer core, copy)
    type LoopPreload = (BlockId, (u32, u32), Reg, usize, usize, Reg);
    let mut loop_preloads: Vec<LoopPreload> = Vec::new();
    {
        let mut seen: Vec<(u32, Reg, usize)> = Vec::new();
        for l in &inp.forest.loops {
            // Invariant: the loop forest never records an empty loop —
            // every Loop owns at least its header block.
            let lf = l.blocks.first().expect("loops have a header").0;
            let ll = l.blocks.last().expect("loops have a header").0;
            let contiguous = ll - lf + 1 == l.blocks.len() as u32;
            let inside = lf > region.first && ll <= region.last;
            if !contiguous || !inside {
                continue; // needs an in-region preheader at lf - 1
            }
            let preheader = BlockId(lf - 1);
            let defines_in_loop = |r: Reg| {
                (lf..=ll).any(|bb| {
                    inp.f
                        .block(BlockId(bb))
                        .insts
                        .iter()
                        .any(|i| i.def() == Some(r))
                })
            };
            for bb in lf..=ll {
                let bid = BlockId(bb);
                for (i, inst) in inp.f.block(bid).insts.iter().enumerate() {
                    if inst.op.is_terminator() {
                        continue;
                    }
                    let c = asg.core_of(bid, i);
                    for r in inst.uses() {
                        if r.class == RegClass::Btr
                            || rep.regs.contains(&r)
                            || !asg.home.contains_key(&r)
                        {
                            continue;
                        }
                        let h = asg.home_of(r);
                        if h == c || seen.contains(&(lf, r, c)) || defines_in_loop(r) {
                            continue;
                        }
                        seen.push((lf, r, c));
                        let copy = fresh.fresh(r.class);
                        loop_preloads.push((preheader, (lf, ll), r, h, c, copy));
                    }
                }
            }
        }
    }
    // 3. Region blocks.
    let mut lowerer = RegionLowerer::new(inp.f, asg, cfg, mode, fresh, tags);
    lowerer.set_participants(participants);
    lowerer.set_replication(rep);
    for &(r, c, _, local) in &invariant_xfers {
        lowerer.preload(r, c, local);
    }
    for (preheader, range, r, h, c, copy) in loop_preloads {
        lowerer.add_loop_preload(preheader, range, r, h, c, copy);
    }
    for b in region.blocks() {
        let lowered = lowerer.lower_block(b);
        let per_core_insts: Vec<Vec<Inst>> = match mode {
            ExecMode::Coupled => schedule_coupled(lowered, inp.alias).slots,
            ExecMode::Decoupled => lowered
                .per_core
                .into_iter()
                .map(|ops| ops.into_iter().map(|o| o.inst).collect())
                .collect(),
        };
        for (k, mut insts) in per_core_insts.into_iter().enumerate() {
            if !participants.contains(k) {
                continue;
            }
            let map = |t: BlockId| -> MLabel {
                if region.contains(t) {
                    internal_of(t, k)
                } else if k == 0 {
                    glue_of(t)
                } else {
                    worker_exit[k]
                }
            };
            for inst in &mut insts {
                retarget(inst, &map);
            }
            let label = internal_of(b, k);
            imgs[k].block(format!("r{rid}.{b}.c{k}"), rid, Some(label), insts);
        }
    }

    // 4. Worker exit stubs.
    for k in participants.iter().skip(1) {
        imgs[k].begin(format!("r{rid}.exit"), rid, Some(worker_exit[k]));
        if mode == ExecMode::Coupled {
            imgs[k].push(Inst::new(
                Opcode::ModeSwitch,
                vec![Operand::Mode(ExecMode::Decoupled)],
            ));
        }
        for &(h, r, tag) in &exit_xfers {
            if h == k {
                imgs[k].push(Inst::new(
                    Opcode::Send,
                    vec![r.into(), Operand::Core(0), Operand::Imm(i64::from(tag))],
                ));
            }
        }
        let token = fresh.fresh(RegClass::Gpr);
        imgs[k].push(Inst::with_dst(Opcode::Ldi, token, vec![Operand::Imm(1)]));
        imgs[k].push(Inst::new(
            Opcode::Send,
            vec![
                token.into(),
                Operand::Core(0),
                Operand::Imm(i64::from(TAG_JOIN)),
            ],
        ));
        imgs[k].push(Inst::new(Opcode::Sleep, vec![]));
    }

    // 5. Master exit glue per external target (fallthrough target first,
    // so the master's last region block falls into its glue).
    for (&t, &label) in targets.iter().zip(&glue) {
        imgs[0].begin(format!("r{rid}.exit->{t}"), rid, Some(label));
        if mode == ExecMode::Coupled {
            imgs[0].push(Inst::new(
                Opcode::ModeSwitch,
                vec![Operand::Mode(ExecMode::Decoupled)],
            ));
        }
        for &(h, r, tag) in &exit_xfers {
            imgs[0].push(Inst::with_dst(
                Opcode::Recv,
                r,
                vec![Operand::Core(h as u8), Operand::Imm(i64::from(tag))],
            ));
        }
        for k in participants.iter().skip(1) {
            let junk = fresh.fresh(RegClass::Gpr);
            imgs[0].push(Inst::with_dst(
                Opcode::Recv,
                junk,
                vec![Operand::Core(k as u8), Operand::Imm(i64::from(TAG_JOIN))],
            ));
        }
        let cont = imgs[0].label_for_orig(t);
        imgs[0].push(Inst::new(
            Opcode::Jump,
            vec![Operand::Block(BlockId(cont.0))],
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_doall(
    inp: &PlanInputs<'_>,
    region: &Region,
    info: &DoallInfo,
    cfg: &MachineConfig,
    imgs: &mut [ImageBuilder],
    fresh: &mut FreshRegs,
    tags: &mut TagAlloc,
) {
    let n = cfg.cores;
    let rid = region.id;
    let live_ins = doall::chunk_live_ins(inp.f, info, inp.liveness);
    let step = info.step;

    // Labels. Core k's copy of the i-th loop block is internal[i * n + k].
    let worker_entry: Vec<MLabel> = (0..n).map(|k| imgs[k].new_label()).collect();
    let worker_post: Vec<MLabel> = (0..n).map(|k| imgs[k].new_label()).collect();
    let mut internal: Vec<MLabel> = Vec::with_capacity(info.blocks.len() * n);
    for _ in &info.blocks {
        internal.extend(imgs.iter_mut().map(ImageBuilder::new_label));
    }
    let combine = imgs[0].new_label();

    // Per-worker parameter tags: lo, hi, live-ins (in order).
    let nparams = 2 + live_ins.len();
    let mut param_tags: Vec<u32> = Vec::with_capacity((n - 1) * nparams);
    for k in 1..n {
        for _ in 0..nparams {
            param_tags.push(tags.tag(0, k));
        }
    }
    let params_of = |k: usize| &param_tags[(k - 1) * nparams..k * nparams];
    // Per-worker result tags: one per reduction.
    let nresults = info.reductions.len();
    let mut result_tags: Vec<u32> = Vec::with_capacity((n - 1) * nresults);
    for k in 1..n {
        for _ in 0..nresults {
            result_tags.push(tags.tag(k, 0));
        }
    }
    let results_of = |k: usize| &result_tags[(k - 1) * nresults..k * nresults];

    // ---- master dispatch (binds the public header label) ----
    let header_label = imgs[0].label_for_orig(info.header);
    imgs[0].begin(format!("r{rid}.doall"), rid, Some(header_label));
    let iv = info.iv;
    // bound value in a register.
    let bound_reg = match info.bound {
        Operand::Reg(r) => r,
        Operand::Imm(v) => {
            let b = fresh.fresh(RegClass::Gpr);
            imgs[0].push(Inst::with_dst(Opcode::Ldi, b, vec![Operand::Imm(v)]));
            b
        }
        _ => unreachable!("detector allows only reg/imm bounds"),
    };
    let push0 = |imgs: &mut [ImageBuilder], i: Inst| imgs[0].push(i);
    let range = fresh.fresh(RegClass::Gpr);
    push0(
        imgs,
        Inst::with_dst(Opcode::Sub, range, vec![bound_reg.into(), iv.into()]),
    );
    push0(
        imgs,
        Inst::with_dst(Opcode::Max, range, vec![range.into(), Operand::Imm(0)]),
    );
    let trips = fresh.fresh(RegClass::Gpr);
    push0(
        imgs,
        Inst::with_dst(
            Opcode::Add,
            trips,
            vec![range.into(), Operand::Imm(step - 1)],
        ),
    );
    push0(
        imgs,
        Inst::with_dst(Opcode::Div, trips, vec![trips.into(), Operand::Imm(step)]),
    );
    let span = fresh.fresh(RegClass::Gpr);
    push0(
        imgs,
        Inst::with_dst(
            Opcode::Add,
            span,
            vec![trips.into(), Operand::Imm(n as i64 - 1)],
        ),
    );
    push0(
        imgs,
        Inst::with_dst(Opcode::Div, span, vec![span.into(), Operand::Imm(n as i64)]),
    );
    push0(
        imgs,
        Inst::with_dst(Opcode::Mul, span, vec![span.into(), Operand::Imm(step)]),
    );
    // Final induction value for after the loop.
    let iv_final = fresh.fresh(RegClass::Gpr);
    push0(
        imgs,
        Inst::with_dst(
            Opcode::Mul,
            iv_final,
            vec![trips.into(), Operand::Imm(step)],
        ),
    );
    push0(
        imgs,
        Inst::with_dst(Opcode::Add, iv_final, vec![iv_final.into(), iv.into()]),
    );
    // Master chunk bound.
    let hi0 = fresh.fresh(RegClass::Gpr);
    push0(
        imgs,
        Inst::with_dst(Opcode::Add, hi0, vec![iv.into(), span.into()]),
    );
    push0(
        imgs,
        Inst::with_dst(Opcode::Min, hi0, vec![hi0.into(), bound_reg.into()]),
    );
    // Speculation begins: master is chunk 0 (XBEGIN 0 resets the commit
    // token and precedes all spawns, see TxnManager::begin).
    push0(imgs, Inst::new(Opcode::Xbegin, vec![Operand::Imm(0)]));
    for (k, wentry) in worker_entry.iter().enumerate().skip(1) {
        imgs[0].push(Inst::new(
            Opcode::Spawn,
            vec![Operand::Core(k as u8), Operand::Block(BlockId(wentry.0))],
        ));
        // lo_k = iv + span * k ; hi_k = min(lo_k + span, bound)
        let lo = fresh.fresh(RegClass::Gpr);
        push0(
            imgs,
            Inst::with_dst(Opcode::Mul, lo, vec![span.into(), Operand::Imm(k as i64)]),
        );
        push0(
            imgs,
            Inst::with_dst(Opcode::Add, lo, vec![lo.into(), iv.into()]),
        );
        let hi = fresh.fresh(RegClass::Gpr);
        push0(
            imgs,
            Inst::with_dst(Opcode::Add, hi, vec![lo.into(), span.into()]),
        );
        push0(
            imgs,
            Inst::with_dst(Opcode::Min, hi, vec![hi.into(), bound_reg.into()]),
        );
        let mut t = params_of(k).iter();
        let send = |imgs: &mut [ImageBuilder], r: Reg, tag: u32| {
            imgs[0].push(Inst::new(
                Opcode::Send,
                vec![
                    r.into(),
                    Operand::Core(k as u8),
                    Operand::Imm(i64::from(tag)),
                ],
            ));
        };
        // Invariant: params_of(k) has exactly 2 + live_ins.len()
        // entries (lo, hi, then one per live-in).
        send(imgs, lo, *t.next().expect("lo tag"));
        send(imgs, hi, *t.next().expect("hi tag"));
        for &r in &live_ins {
            send(imgs, r, *t.next().expect("live-in tag"));
        }
    }
    // Master falls through into its chunk-0 loop copy.
    emit_chunk_body(inp, info, rid, 0, hi0, combine, &internal, imgs);

    // ---- master combine ----
    imgs[0].begin(format!("r{rid}.combine"), rid, Some(combine));
    imgs[0].push(Inst::new(Opcode::Xcommit, vec![]));
    imgs[0].push(Inst::with_dst(Opcode::Mov, iv, vec![iv_final.into()]));
    for k in 1..n {
        for (red, &tag) in info.reductions.iter().zip(results_of(k)) {
            let part = fresh.fresh(red.reg.class);
            imgs[0].push(Inst::with_dst(
                Opcode::Recv,
                part,
                vec![Operand::Core(k as u8), Operand::Imm(i64::from(tag))],
            ));
            imgs[0].push(Inst::with_dst(
                red.op,
                red.reg,
                vec![red.reg.into(), part.into()],
            ));
        }
        let junk = fresh.fresh(RegClass::Gpr);
        imgs[0].push(Inst::with_dst(
            Opcode::Recv,
            junk,
            vec![Operand::Core(k as u8), Operand::Imm(i64::from(TAG_JOIN))],
        ));
    }
    let cont = imgs[0].label_for_orig(info.exit_target);
    imgs[0].push(Inst::new(
        Opcode::Jump,
        vec![Operand::Block(BlockId(cont.0))],
    ));

    // ---- workers ----
    for (k, wentry) in worker_entry.iter().enumerate().take(n).skip(1) {
        imgs[k].begin(format!("r{rid}.chunk{k}"), rid, Some(*wentry));
        let mut t = params_of(k).iter();
        let recv = |imgs: &mut [ImageBuilder], dst: Reg, tag: u32| {
            imgs[k].push(Inst::with_dst(
                Opcode::Recv,
                dst,
                vec![Operand::Core(0), Operand::Imm(i64::from(tag))],
            ));
        };
        // Invariant: mirrors the master's sends — params_of(k) holds
        // exactly 2 + live_ins.len() entries in the same order.
        recv(imgs, iv, *t.next().expect("lo tag"));
        let hb = fresh.fresh(RegClass::Gpr);
        recv(imgs, hb, *t.next().expect("hi tag"));
        for &r in &live_ins {
            recv(imgs, r, *t.next().expect("live-in tag"));
        }
        // Accumulator expansion: workers start from the identity.
        for red in &info.reductions {
            let op = match red.identity() {
                Operand::Imm(_) => Opcode::Ldi,
                Operand::FImm(_) => Opcode::Fldi,
                _ => unreachable!("identity is an immediate"),
            };
            imgs[k].push(Inst::with_dst(op, red.reg, vec![red.identity()]));
        }
        imgs[k].push(Inst::new(Opcode::Xbegin, vec![Operand::Imm(k as i64)]));
        // Falls through into the worker's loop copy.
        emit_chunk_body(inp, info, rid, k, hb, worker_post[k], &internal, imgs);
        // Post block: commit, ship partials + join, sleep.
        imgs[k].begin(format!("r{rid}.post{k}"), rid, Some(worker_post[k]));
        imgs[k].push(Inst::new(Opcode::Xcommit, vec![]));
        for (red, &tag) in info.reductions.iter().zip(results_of(k)) {
            imgs[k].push(Inst::new(
                Opcode::Send,
                vec![
                    red.reg.into(),
                    Operand::Core(0),
                    Operand::Imm(i64::from(tag)),
                ],
            ));
        }
        let token = fresh.fresh(RegClass::Gpr);
        imgs[k].push(Inst::with_dst(Opcode::Ldi, token, vec![Operand::Imm(1)]));
        imgs[k].push(Inst::new(
            Opcode::Send,
            vec![
                token.into(),
                Operand::Core(0),
                Operand::Imm(i64::from(TAG_JOIN)),
            ],
        ));
        imgs[k].push(Inst::new(Opcode::Sleep, vec![]));
    }
}

/// Emit core `k`'s copy of the chunk loop: the original loop blocks with
/// the header bound replaced by `hi` and the exit retargeted to `exit_to`.
/// `internal` holds the copies' labels as `emit_doall` lays them out.
#[allow(clippy::too_many_arguments)]
fn emit_chunk_body(
    inp: &PlanInputs<'_>,
    info: &DoallInfo,
    rid: u32,
    k: usize,
    hi: Reg,
    exit_to: MLabel,
    internal: &[MLabel],
    imgs: &mut [ImageBuilder],
) {
    let n = imgs.len();
    let copy_of = |t: BlockId| {
        let i = info.blocks.iter().position(|&b| b == t)?;
        Some(internal[i * n + k])
    };
    let map = |t: BlockId| -> MLabel {
        copy_of(t).unwrap_or_else(|| {
            debug_assert_eq!(t, info.exit_target);
            exit_to
        })
    };
    for (bi, &b) in info.blocks.iter().enumerate() {
        let insts = inp
            .f
            .block(b)
            .insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let mut ni = inst.clone();
                if b == info.header && i == 0 {
                    // The canonical `p = cmp.ge iv, bound`: bound -> chunk hi.
                    ni.srcs[1] = Operand::Reg(hi);
                }
                retarget(&mut ni, &map);
                ni
            })
            .collect();
        let label = internal[bi * n + k];
        imgs[k].block(format!("r{rid}.{b}.k{k}"), rid, Some(label), insts);
    }
}
