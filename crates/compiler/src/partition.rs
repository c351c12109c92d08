//! Operation-to-core partitioning: BUG, eBUG, and DSWP.
//!
//! * **BUG** (Bottom-Up Greedy, Ellis' Bulldog) for coupled/ILP regions:
//!   operations are visited in dependence order, each placed on the core
//!   that minimizes its estimated completion time, accounting for
//!   inter-core move latency (§4.1 of the paper).
//! * **eBUG** for decoupled strands: BUG plus edge weights that keep
//!   likely-missing loads with their consumers and dependent memory
//!   operations together, and a memory-balancing penalty that spreads
//!   independent memory traffic across cores (§4.1).
//! * **DSWP**: SCC condensation of the loop dependence graph, greedily
//!   packed into balanced pipeline stages with only forward cross-stage
//!   dependences (Ottoni et al., used per §4.1).
//!
//! All partitioners share two invariants the code generator relies on:
//! every def of a virtual register within a region lands on one core (its
//! *home*), and in decoupled regions may-aliasing memory operations (with
//! a store involved) land on one core, so no cross-core memory
//! synchronization is ever needed at run time.

use crate::alias::AliasAnalysis;
use crate::dfg::DepKind;
use crate::plan::PlanInputs;
use std::collections::HashMap;
use voltron_ir::loops::LoopId;
use voltron_ir::profile::Profile;
use voltron_ir::{BlockId, FuncId, Function, InstRef, Reg};

/// The result of partitioning a region.
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    /// Core of each non-terminator instruction `(block, index)`.
    pub core_of: HashMap<(BlockId, usize), usize>,
    /// Home core of every register defined in the region. Registers absent
    /// from the map live on the master (core 0).
    pub home: HashMap<Reg, usize>,
}

impl Assignment {
    /// Effective home of a register (master when unrecorded).
    pub fn home_of(&self, r: Reg) -> usize {
        self.home.get(&r).copied().unwrap_or(0)
    }

    /// Core of an instruction (master when unrecorded, e.g. terminators).
    pub fn core_of(&self, b: BlockId, i: usize) -> usize {
        self.core_of.get(&(b, i)).copied().unwrap_or(0)
    }

    /// Number of instructions assigned to each core.
    pub fn per_core_counts(&self, cores: usize) -> Vec<usize> {
        let mut v = vec![0; cores];
        for &c in self.core_of.values() {
            v[c] += 1;
        }
        v
    }
}

/// Tuning knobs shared by BUG and eBUG.
#[derive(Debug, Clone, Copy)]
pub struct PartitionParams {
    /// Cores available.
    pub cores: usize,
    /// Estimated inter-core move cost per hop (cycles): 1 for the direct
    /// network (coupled), 3 for queue mode (decoupled).
    pub move_cost: u32,
    /// eBUG: extra weight on edges out of likely-missing loads.
    pub miss_edge_weight: u32,
    /// eBUG: extra weight on memory-dependence edges.
    pub mem_edge_weight: u32,
    /// eBUG: penalty per excess memory operation on an overloaded core.
    pub mem_balance_penalty: u32,
    /// eBUG: a load is "likely missing" above this profiled miss rate.
    pub miss_threshold: f64,
    /// Penalty for splitting accesses to the same cache line across
    /// cores (spatial locality: a spread line is fetched by every core).
    pub line_affinity: u32,
}

impl PartitionParams {
    /// BUG defaults for coupled/ILP partitioning (no eBUG weights).
    pub fn bug(cores: usize) -> PartitionParams {
        PartitionParams {
            cores,
            // A coupled transfer costs a PUT and a GET slot plus the hop:
            // pretending it is free over-distributes low-ILP chains.
            move_cost: 3,
            miss_edge_weight: 0,
            mem_edge_weight: 0,
            mem_balance_penalty: 0,
            miss_threshold: 2.0, // never triggers
            line_affinity: 40,
        }
    }

    /// eBUG defaults for decoupled strand extraction.
    pub fn ebug(cores: usize) -> PartitionParams {
        PartitionParams {
            cores,
            move_cost: 3,
            // Strong enough to keep a missing load with its consumer when
            // there is one stream, weak enough that the balance penalty
            // can split two competing miss streams (the Fig. 8 case).
            miss_edge_weight: 12,
            mem_edge_weight: 20,
            mem_balance_penalty: 6,
            miss_threshold: 0.05,
            line_affinity: 40,
        }
    }
}

/// Union-find over memory alias classes.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Compute region-wide memory pinning: each dependent-memory class is
/// assigned a core, chosen to balance profiled memory traffic (the
/// paper's eBUG "memory balancing" factor). Returns the forced core per
/// memory instruction.
pub fn pin_memory_classes(
    f: &Function,
    blocks: &[BlockId],
    alias: &AliasAnalysis,
    profile: &Profile,
    func: FuncId,
    cores: usize,
) -> HashMap<(BlockId, usize), usize> {
    // Collect memory ops.
    let mut mems: Vec<(BlockId, usize)> = Vec::new();
    for &b in blocks {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if inst.op.is_mem() {
                mems.push((b, i));
            }
        }
    }
    let mut uf = UnionFind::new(mems.len());
    for (ai, &(ba, ia)) in mems.iter().enumerate() {
        for (bi, &(bb, ib)) in mems.iter().enumerate().skip(ai + 1) {
            let x = &f.block(ba).insts[ia];
            let y = &f.block(bb).insts[ib];
            if (x.op.is_store() || y.op.is_store()) && alias.may_alias(x, y) {
                uf.union(ai, bi);
            }
        }
    }
    // Class weights: dynamic execution counts. Only classes containing a
    // store carry a correctness obligation (ordering); pure-load classes
    // are left to the partitioner's affinity heuristics, which is what
    // lets two read streams of one array split across cores for MLP
    // (the paper's Fig. 8).
    let mut class_weight: HashMap<usize, u64> = HashMap::new();
    let mut class_members: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut class_has_store: HashMap<usize, bool> = HashMap::new();
    for (i, &(b, ii)) in mems.iter().enumerate() {
        let root = uf.find(i);
        let w = profile.block_count(func, b).max(1);
        *class_weight.entry(root).or_insert(0) += w;
        class_members.entry(root).or_default().push(i);
        let is_store = f.block(b).insts[ii].op.is_store();
        *class_has_store.entry(root).or_insert(false) |= is_store;
    }
    class_weight.retain(|root, _| class_has_store.get(root).copied().unwrap_or(false));
    // Heaviest classes first onto the least-loaded core.
    let mut classes: Vec<(usize, u64)> = class_weight.into_iter().collect();
    classes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut load = vec![0u64; cores];
    let mut out: HashMap<(BlockId, usize), usize> = HashMap::new();
    for (root, w) in classes {
        // Invariant: MachineConfig::paper rejects 0-core machines, so
        // the min over 0..cores always exists.
        let core = (0..cores).min_by_key(|&c| (load[c], c)).expect("cores > 0");
        load[core] += w;
        for &m in &class_members[&root] {
            out.insert(mems[m], core);
        }
    }
    out
}

/// Run BUG/eBUG over the region blocks (layout order). `forced` pre-pins
/// instructions (memory classes in decoupled regions); `home` may be
/// pre-seeded. Terminator instructions are skipped — branch replication
/// places them everywhere. The blocks' dependence graphs are the front
/// end's ([`PlanInputs::block_dfg`]); everything weighed here — cores,
/// `params`, the profile — is per call.
pub fn bug_partition(
    inp: &PlanInputs<'_>,
    blocks: &[BlockId],
    params: &PartitionParams,
    forced: &HashMap<(BlockId, usize), usize>,
) -> Assignment {
    let (f, profile, func) = (inp.f, inp.profile, inp.func);
    let n = params.cores;
    let mut asg = Assignment::default();
    // Completion-time bookkeeping persists across blocks so chained
    // blocks bias toward keeping hot chains local.
    let mut core_free = vec![0u64; n];
    let mut mem_count = vec![0u64; n];
    // Which core first touched each (base register, cache line) group.
    let mut line_group: HashMap<(Reg, i64), usize> = HashMap::new();
    let total_mem: u64 = blocks
        .iter()
        .flat_map(|&b| f.block(b).insts.iter())
        .filter(|i| i.op.is_mem())
        .count() as u64;
    let mem_share = total_mem / n as u64 + 1;

    for &b in blocks {
        let block = f.block(b);
        let bdfg = inp.block_dfg(b);
        // `done[i]`: estimated completion cycle of instruction i.
        let mut done = vec![0u64; bdfg.n];
        for (i, inst) in block.insts.iter().enumerate() {
            if inst.op.is_terminator() {
                continue;
            }
            // Hard constraints: forced pin, or the home of a redefined
            // register.
            let mut must: Option<usize> = forced.get(&(b, i)).copied();
            if must.is_none() {
                if let Some(d) = inst.def() {
                    must = asg.home.get(&d).copied();
                }
            }
            let group_of = |inst: &voltron_ir::Inst| -> Option<(Reg, i64)> {
                if !inst.op.is_mem() {
                    return None;
                }
                let base = inst.srcs.first().and_then(voltron_ir::Operand::as_reg)?;
                let off = match inst.srcs.get(1) {
                    Some(voltron_ir::Operand::Imm(v)) => *v,
                    _ => 0,
                };
                Some((base, off >> 5))
            };
            let choose = |c: usize, asg: &Assignment| -> u64 {
                let mut ready = core_free[c];
                if let Some(g) = group_of(inst) {
                    if let Some(&gc) = line_group.get(&g) {
                        if gc != c {
                            ready += u64::from(params.line_affinity);
                        }
                    }
                }
                for &(p, lat) in &bdfg.preds[i] {
                    let pc = asg.core_of.get(&(b, p)).copied().unwrap_or(c);
                    let mut edge_cost = u64::from(lat);
                    if pc != c {
                        edge_cost += u64::from(params.move_cost);
                        // eBUG weights: breaking a miss edge or a memory
                        // dependence across cores is expensive.
                        let pinst = &block.insts[p];
                        if pinst.op.is_load() {
                            let lp = profile.load_profile(InstRef {
                                func,
                                block: b,
                                index: p,
                            });
                            if lp.miss_rate() > params.miss_threshold {
                                edge_cost += u64::from(params.miss_edge_weight);
                            }
                        }
                        let is_mem_edge = bdfg.succs[p]
                            .iter()
                            .any(|e| e.to == i && e.kind == DepKind::Memory);
                        if is_mem_edge {
                            edge_cost += u64::from(params.mem_edge_weight);
                        }
                    }
                    ready = ready.max(done[p] + edge_cost);
                }
                if inst.op.is_mem() && mem_count[c] >= mem_share {
                    ready += u64::from(params.mem_balance_penalty) * (mem_count[c] - mem_share + 1);
                }
                ready
            };
            let core = match must {
                Some(c) => c,
                // Invariant: n comes from a validated MachineConfig and
                // is never 0, so the min always exists.
                None => (0..n)
                    .min_by_key(|&c| (choose(c, &asg), core_free[c], c))
                    .expect("cores > 0"),
            };
            let start = choose(core, &asg);
            done[i] = start + u64::from(inst.op.latency());
            core_free[core] = core_free[core].max(start) + 1;
            if inst.op.is_mem() {
                mem_count[core] += 1;
                if let Some(g) = group_of(inst) {
                    line_group.entry(g).or_insert(core);
                }
            }
            asg.core_of.insert((b, i), core);
            if let Some(d) = inst.def() {
                asg.home.entry(d).or_insert(core);
            }
        }
    }
    asg
}

/// A DSWP partition: the assignment plus the estimated pipeline speedup
/// (total weight over heaviest stage, communication ignored).
#[derive(Debug, Clone)]
pub struct DswpPartition {
    /// Stage assignment (stage k runs on core k).
    pub assignment: Assignment,
    /// Estimated speedup of the pipeline.
    pub est_speedup: f64,
    /// Number of non-empty stages.
    pub stages: usize,
}

/// Partition the body of loop `lp` into pipeline stages (DSWP). Returns
/// `None` when the loop collapses into a single SCC (no pipeline
/// parallelism). The loop's operation graph and condensation are the
/// front end's ([`PlanInputs::loop_deps`]); the stage fill weighs them
/// by the profile and `cores` per call.
pub fn dswp_partition(inp: &PlanInputs<'_>, lp: LoopId, cores: usize) -> Option<DswpPartition> {
    let (f, profile, func) = (inp.f, inp.profile, inp.func);
    let deps = inp.loop_deps(lp);
    let (g, comps) = (&deps.graph, &deps.comps);
    if g.nodes.is_empty() {
        return None;
    }
    if comps.len() < 2 {
        return None;
    }
    // Weight SCCs by profiled execution frequency.
    let freq = |b: BlockId| profile.block_count(func, b).max(1);
    let comp_weight: Vec<u64> = comps
        .iter()
        .map(|comp| {
            comp.iter()
                .map(|&ni| {
                    let (b, _) = g.nodes[ni];
                    g.weight[ni] * freq(b)
                })
                .sum()
        })
        .collect();
    let total: u64 = comp_weight.iter().sum();
    if total == 0 {
        return None;
    }
    let target = total / cores as u64 + 1;
    // Greedy fill in topological order; stage index never decreases, so
    // cross-stage dependences are all forward (the pipeline property).
    let mut stage_of = vec![0usize; comps.len()];
    let mut stage = 0usize;
    let mut acc = 0u64;
    for (ci, w) in comp_weight.iter().enumerate() {
        if acc >= target && stage + 1 < cores {
            stage += 1;
            acc = 0;
        }
        stage_of[ci] = stage;
        acc += w;
    }
    let stages = stage + 1;
    if stages < 2 {
        return None;
    }
    let mut stage_weight = vec![0u64; stages];
    for (ci, &s) in stage_of.iter().enumerate() {
        stage_weight[s] += comp_weight[ci];
    }
    // Communication penalty: every value flowing across a stage boundary
    // costs a SEND on the producer and a RECV on the consumer each
    // iteration (plus the forwarded branch predicate per extra stage).
    let mut node_stage = vec![0usize; g.nodes.len()];
    for (ci, comp) in comps.iter().enumerate() {
        for &ni in comp {
            node_stage[ni] = stage_of[ci];
        }
    }
    for (ni, succs_n) in g.succs.iter().enumerate() {
        let s_from = node_stage[ni];
        let mut crossed: Vec<usize> = Vec::new();
        for &m in succs_n {
            let s_to = node_stage[m];
            if s_to != s_from && !crossed.contains(&s_to) {
                crossed.push(s_to);
                let (b, _) = g.nodes[ni];
                // One SEND slot at the producer, one RECV slot at the
                // consumer, per iteration of the carrying block.
                let w = freq(b);
                stage_weight[s_from] += w;
                stage_weight[s_to] += w;
            }
        }
    }
    let max_stage = stage_weight.iter().copied().max().unwrap_or(total).max(1);
    let est_speedup = total as f64 / max_stage as f64;

    let mut asg = Assignment::default();
    for (ci, comp) in comps.iter().enumerate() {
        for &ni in comp {
            let (b, i) = g.nodes[ni];
            let inst = &f.block(b).insts[i];
            if inst.op.is_terminator() {
                continue; // replicated by the emitter
            }
            asg.core_of.insert((b, i), stage_of[ci]);
            if let Some(d) = inst.def() {
                asg.home.entry(d).or_insert(stage_of[ci]);
            }
        }
    }
    Some(DswpPartition {
        assignment: asg,
        est_speedup,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrontEnd;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::profile;
    use voltron_ir::Program;

    /// Two independent chains storing to two arrays: BUG should use both
    /// cores, and pinning should put the two arrays' accesses on
    /// different cores.
    fn two_chain_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[1; 64]);
        let b = pb.data_mut().array_i64("b", &[2; 64]);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        let x0 = fb.load8(ba, 0);
        let x1 = fb.mul(x0, 3i64);
        let x2 = fb.add(x1, 1i64);
        fb.store8(ba, 8, x2);
        let y0 = fb.load8(bb, 0);
        let y1 = fb.mul(y0, 5i64);
        let y2 = fb.add(y1, 2i64);
        fb.store8(bb, 8, y2);
        fb.halt();
        pb.finish_function(fb);
        pb.finish()
    }

    #[test]
    fn bug_spreads_independent_chains() {
        let fe = FrontEnd::of_flat(&two_chain_program());
        let asg = bug_partition(
            &fe.inputs(),
            &[BlockId(0)],
            &PartitionParams::bug(2),
            &HashMap::new(),
        );
        let counts = asg.per_core_counts(2);
        assert!(
            counts[0] > 0 && counts[1] > 0,
            "both cores used: {counts:?}"
        );
    }

    #[test]
    fn homes_are_consistent_for_redefs() {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("pad", 8);
        let mut fb = pb.function("main");
        let acc = fb.ldi(0);
        let t = fb.add(acc, 1i64);
        fb.mov_to(acc, t); // redef of acc must stay on acc's home core
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let fe = FrontEnd::of_flat(&p);
        let asg = bug_partition(
            &fe.inputs(),
            &[BlockId(0)],
            &PartitionParams::bug(4),
            &HashMap::new(),
        );
        let home = asg.home_of(voltron_ir::Reg::gpr(0));
        // Every def of gpr0 is on the home core.
        for (i, inst) in f.blocks[0].insts.iter().enumerate() {
            if inst.def() == Some(voltron_ir::Reg::gpr(0)) {
                assert_eq!(asg.core_of(BlockId(0), i), home);
            }
        }
    }

    #[test]
    fn pinning_separates_disjoint_arrays() {
        let p = two_chain_program();
        let f = p.main_func();
        let alias = AliasAnalysis::analyze(&p, f);
        let prof = profile::profile(&p, 100_000_000).unwrap();
        let pins = pin_memory_classes(f, &[BlockId(0)], &alias, &prof, p.main, 2);
        // Accesses to `a` and to `b` land on different cores.
        let insts = &f.blocks[0].insts;
        let mut core_a = None;
        let mut core_b = None;
        for (i, inst) in insts.iter().enumerate() {
            if inst.op.is_mem() {
                let pin = pins[&(BlockId(0), i)];
                match alias.mem_origin(inst) {
                    crate::alias::Origin::Symbol(0) => core_a = Some(pin),
                    crate::alias::Origin::Symbol(1) => core_b = Some(pin),
                    _ => {}
                }
            }
        }
        assert_ne!(core_a.unwrap(), core_b.unwrap());
    }

    #[test]
    fn ebug_keeps_missing_load_with_consumer() {
        // One array streamed far beyond L1 -> high miss rate; consumer
        // chain should co-locate with the load.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 64 * 1024);
        let out = pb.data_mut().zeroed("out", 8);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let acc = fb.ldi(0);
        fb.counted_loop(0i64, 8000i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            let w = f.add(v, 3i64);
            let s = f.add(acc, w);
            f.mov_to(acc, s);
        });
        let ob = fb.ldi(out as i64);
        fb.store8(ob, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let fe = FrontEnd::of_flat(&p);
        let inp = fe.inputs();
        let blocks: Vec<BlockId> = inp.forest.loops[0].blocks.iter().copied().collect();
        let asg = bug_partition(&inp, &blocks, &PartitionParams::ebug(2), &HashMap::new());
        // Find the load and its direct consumer.
        for &b in &blocks {
            for (i, inst) in f.block(b).insts.iter().enumerate() {
                if inst.op.is_load() {
                    let lc = asg.core_of(b, i);
                    let dst = inst.def().unwrap();
                    for (j, cons) in f.block(b).insts.iter().enumerate().skip(i + 1) {
                        if cons.uses().contains(&dst) {
                            assert_eq!(asg.core_of(b, j), lc, "miss edge split across cores");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dswp_finds_pipeline_in_producer_consumer_loop() {
        // Loop: v = a[i] (stage A); b[i] = expensive(v) (stage B). The
        // arrays are disjoint so the graph splits into >= 2 SCC groups.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[7; 256]);
        let b = pb.data_mut().zeroed("b", 8 * 256);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        fb.counted_loop(0i64, 256i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let pa = f.add(ba, off);
            let v = f.load8(pa, 0);
            let w1 = f.mul(v, v);
            let w2 = f.mul(w1, v);
            let w3 = f.add(w2, 13i64);
            let pb2 = f.add(bb, off);
            f.store8(pb2, 0, w3);
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let fe = FrontEnd::of_flat(&p);
        let part = dswp_partition(&fe.inputs(), LoopId(0), 2).unwrap();
        assert!(part.stages >= 2);
        assert!(part.est_speedup > 1.0, "speedup {}", part.est_speedup);
        // Pipeline property: every register def/use pair crosses forward.
        for (&(b1, i1), &c1) in &part.assignment.core_of {
            let inst = &f.block(b1).insts[i1];
            if let Some(d) = inst.def() {
                for (&(b2, i2), &c2) in &part.assignment.core_of {
                    let user = &f.block(b2).insts[i2];
                    if user.uses().contains(&d) {
                        assert!(c2 >= c1, "backward dependence {b1:?}:{i1} -> {b2:?}:{i2}");
                    }
                }
            }
        }
    }
}
