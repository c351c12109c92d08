//! Dependence graphs.
//!
//! Two granularities:
//!
//! * [`BlockDfg`] — precise intra-block dependences (data, anti, output,
//!   memory, control) in program order; the input to BUG/eBUG and the
//!   coupled-mode joint scheduler.
//! * `build_loop_graph` — a flow-insensitive whole-loop operation graph
//!   whose cycles capture recurrences; its SCC condensation drives DSWP
//!   stage formation.
//!
//! Both are pure functions of the flat function and its alias facts, so
//! a [`crate::FrontEnd`] owns them ([`DepGraphs`]): each is built at most
//! once, on first use, however many strategy / core-count configurations
//! are planned from that front end.

use crate::alias::{AliasAnalysis, Origin};
use std::collections::HashMap;
use std::mem::discriminant;
use std::sync::OnceLock;
use voltron_ir::hash::IntMap;
use voltron_ir::loops::{LoopForest, LoopId};
use voltron_ir::{Block, BlockId, Function, Inst, Opcode, Reg};

/// Kinds of dependence edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// True (flow) dependence on a register value.
    Data(Reg),
    /// Write-after-read on a register.
    Anti,
    /// Write-after-write on a register.
    Output,
    /// Memory ordering (may-alias).
    Memory,
    /// Ordering against the block terminator.
    Control,
}

/// A dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Consumer instruction index.
    pub to: usize,
    /// Minimum cycles between producer and consumer issue.
    pub latency: u32,
    /// Why the edge exists.
    pub kind: DepKind,
}

/// Intra-block dependence graph. Edges always point forward in program
/// order, so instruction indices are a topological order.
#[derive(Debug, Clone)]
pub struct BlockDfg {
    /// Number of instructions.
    pub n: usize,
    /// Outgoing edges per instruction.
    pub succs: Vec<Vec<DepEdge>>,
    /// Incoming edge sources per instruction (mirror of `succs`).
    pub preds: Vec<Vec<(usize, u32)>>,
    /// Critical-path length from each instruction to the end of the block
    /// (scheduling priority).
    pub priority: Vec<u32>,
}

impl BlockDfg {
    /// Build the graph for `block` using `alias` facts.
    pub fn build(block: &Block, alias: &AliasAnalysis) -> BlockDfg {
        let insts = &block.insts;
        let n = insts.len();
        let mut succs: Vec<Vec<DepEdge>> = vec![Vec::new(); n];
        for_each_dep(
            n,
            |i| &insts[i],
            alias,
            |from, to, latency, kind| {
                debug_assert!(from < to, "dependence edges must go forward");
                // Keep one edge per (target, kind): kinds carry meaning for
                // eBUG weighting even when another kind already subsumes the
                // latency constraint.
                let same_kind = |e: &DepEdge| discriminant(&e.kind) == discriminant(&kind);
                if !succs[from]
                    .iter()
                    .any(|e| e.to == to && same_kind(e) && e.latency >= latency)
                {
                    succs[from].push(DepEdge { to, latency, kind });
                }
            },
        );

        let mut preds: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for (from, es) in succs.iter().enumerate() {
            for e in es {
                preds[e.to].push((from, e.latency));
            }
        }
        // Priority: longest path to a sink, computed in reverse index
        // order (indices are topological).
        let mut priority = vec![0u32; n];
        for i in (0..n).rev() {
            let mut p = insts[i].op.latency();
            for e in &succs[i] {
                p = p.max(e.latency + priority[e.to]);
            }
            priority[i] = p;
        }
        BlockDfg {
            n,
            succs,
            preds,
            priority,
        }
    }
}

/// Report every dependence among the `n` instructions `inst(0..n)`, in
/// program order, as `edge(from, to, latency, kind)` with `from < to`.
/// An edge may repeat (a register read twice, a reader that is also the
/// previous def); [`BlockDfg::build`] keeps one per kind, and the coupled
/// scheduler, which only takes maxima over them, keeps them all.
pub(crate) fn for_each_dep<'a>(
    n: usize,
    inst: impl Fn(usize) -> &'a Inst,
    alias: &AliasAnalysis,
    mut edge: impl FnMut(usize, usize, u32, DepKind),
) {
    const NONE: usize = usize::MAX;
    /// A register's last def, and the newest of its reads since then
    /// (an index into `reads`).
    struct RegState {
        last_def: usize,
        reads: usize,
    }
    fn state(regs: &mut IntMap<Reg, RegState>, r: Reg) -> &mut RegState {
        regs.entry(r).or_insert(RegState {
            last_def: NONE,
            reads: NONE,
        })
    }
    let mut regs: IntMap<Reg, RegState> = IntMap::default();
    // Every read as (reader, the register's previous read): per register,
    // a list from its newest read back to its first since the last def.
    let mut reads: Vec<(usize, usize)> = Vec::new();
    // Memory operations so far: (index, address origin, is a store).
    let mut mem_ops: Vec<(usize, Origin, bool)> = Vec::new();

    for i in 0..n {
        let ins = inst(i);
        // Register flow and anti dependences.
        for r in ins.uses() {
            let st = state(&mut regs, r);
            if st.last_def != NONE {
                edge(
                    st.last_def,
                    i,
                    inst(st.last_def).op.latency(),
                    DepKind::Data(r),
                );
            }
            reads.push((i, st.reads));
            st.reads = reads.len() - 1;
        }
        if let Some(d) = ins.def() {
            let st = state(&mut regs, d);
            if st.last_def != NONE {
                edge(st.last_def, i, 1, DepKind::Output);
            }
            let mut at = st.reads;
            while at != NONE {
                let (u, prev) = reads[at];
                if u != i {
                    edge(u, i, 1, DepKind::Anti);
                }
                at = prev;
            }
            st.last_def = i;
            st.reads = NONE;
        }
        // Memory ordering.
        if ins.op.is_mem() {
            let (origin, store) = (alias.mem_origin(ins), ins.op.is_store());
            for &(j, o, s) in &mem_ops {
                if (s || store) && o.may_alias(origin) {
                    edge(j, i, 1, DepKind::Memory);
                }
            }
            mem_ops.push((i, origin, store));
        }
        // Terminators are ordered after everything before them.
        if ins.op.is_terminator() {
            for j in 0..i {
                edge(j, i, 1, DepKind::Control);
            }
        }
    }
}

/// A node of the whole-loop graph: (block, instruction index).
pub type LoopNode = (BlockId, usize);

/// Flow-insensitive operation graph over a set of blocks (a loop body).
///
/// Edges over-approximate dependences: every def of a register reaches
/// every use in the region, may-aliasing memory operations (with at least
/// one store) are connected both ways, and branch conditions feed
/// branches, which feed every operation. Recurrences therefore show up as
/// cycles, and the SCC condensation is a sound pipeline-stage graph for
/// DSWP.
#[derive(Debug, Clone)]
pub struct LoopGraph {
    /// The nodes in a stable order.
    pub nodes: Vec<LoopNode>,
    /// Index lookup.
    pub index: HashMap<LoopNode, usize>,
    /// Adjacency (unweighted).
    pub succs: Vec<Vec<usize>>,
    /// Latency-weight of each node (for stage balancing).
    pub weight: Vec<u64>,
}

/// Build the loop graph over `blocks` of `f`.
fn build_loop_graph(f: &Function, blocks: &[BlockId], alias: &AliasAnalysis) -> LoopGraph {
    let mut nodes: Vec<LoopNode> = Vec::new();
    for &b in blocks {
        for i in 0..f.block(b).insts.len() {
            nodes.push((b, i));
        }
    }
    let index: HashMap<LoopNode, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let add = |succs: &mut Vec<Vec<usize>>, a: usize, b: usize| {
        if a != b && !succs[a].contains(&b) {
            succs[a].push(b);
        }
    };

    // Defs and uses per register; memory ops; branches.
    let mut defs: HashMap<Reg, Vec<usize>> = HashMap::new();
    let mut uses: HashMap<Reg, Vec<usize>> = HashMap::new();
    let mut mems: Vec<usize> = Vec::new();
    let mut branches: Vec<usize> = Vec::new();
    for (ni, &(b, i)) in nodes.iter().enumerate() {
        let inst = &f.block(b).insts[i];
        if let Some(d) = inst.def() {
            defs.entry(d).or_default().push(ni);
        }
        for u in inst.uses() {
            uses.entry(u).or_default().push(ni);
        }
        if inst.op.is_mem() {
            mems.push(ni);
        }
        if matches!(inst.op, Opcode::Br | Opcode::Jump) {
            branches.push(ni);
        }
    }
    for (r, ds) in &defs {
        if let Some(us) = uses.get(r) {
            for &d in ds {
                for &u in us {
                    add(&mut succs, d, u);
                }
            }
        }
        // Output dependences keep multiple defs of one register together.
        for &d1 in ds {
            for &d2 in ds {
                if d1 != d2 {
                    add(&mut succs, d1, d2);
                }
            }
        }
    }
    for (ai, &a) in mems.iter().enumerate() {
        for &b in &mems[ai + 1..] {
            let (ba, ia) = nodes[a];
            let (bb, ib) = nodes[b];
            let x = &f.block(ba).insts[ia];
            let y = &f.block(bb).insts[ib];
            if (x.op.is_store() || y.op.is_store()) && alias.may_alias(x, y) {
                add(&mut succs, a, b);
                add(&mut succs, b, a);
            }
        }
    }
    // Control: branches gate everything.
    for &br in &branches {
        for ni in 0..nodes.len() {
            if ni != br {
                add(&mut succs, br, ni);
            }
        }
    }

    let weight: Vec<u64> = nodes
        .iter()
        .map(|&(b, i)| u64::from(f.block(b).insts[i].op.latency()))
        .collect();
    LoopGraph {
        nodes,
        index,
        succs,
        weight,
    }
}

/// What DSWP reads of a loop before the profile and the core count come
/// into it: the operation graph and its SCC condensation.
#[derive(Debug, Clone)]
pub struct LoopDeps {
    /// The flow-insensitive operation graph over the loop's blocks.
    pub graph: LoopGraph,
    /// Its strongly connected components in topological order (sources
    /// first), each a list of node indices.
    pub comps: Vec<Vec<usize>>,
}

/// The configuration-independent dependence graphs of one flat function:
/// a [`BlockDfg`] per block and a [`LoopDeps`] per loop of its forest,
/// each built on first use and then kept. Slots are indexed by `BlockId`
/// and `LoopId` — never by a hash of content — and fill through
/// [`OnceLock`], so threads sharing one front end build each graph once
/// between them.
///
/// Ownership rule (DESIGN.md §15): only what reads nothing but the
/// function and its [`AliasAnalysis`] lives here. Anything that reads a
/// core count, `PlanParams`, `PartitionParams`, the profile's weights or
/// an `Assignment` is per call.
#[derive(Debug)]
pub struct DepGraphs {
    blocks: Vec<OnceLock<BlockDfg>>,
    loops: Vec<OnceLock<LoopDeps>>,
}

impl DepGraphs {
    /// Empty slots for the blocks of `f` and the loops of `forest`.
    pub fn new(f: &Function, forest: &LoopForest) -> DepGraphs {
        DepGraphs {
            blocks: f.blocks.iter().map(|_| OnceLock::new()).collect(),
            loops: forest.loops.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The dependence graph of block `b` of `f` — the function (and its
    /// alias facts) these slots were sized for, which is why the way in
    /// is [`crate::plan::PlanInputs::block_dfg`], which holds all three.
    pub(crate) fn block(&self, f: &Function, alias: &AliasAnalysis, b: BlockId) -> &BlockDfg {
        self.blocks[b.idx()].get_or_init(|| BlockDfg::build(f.block(b), alias))
    }

    /// The operation graph and condensation of loop `lp` of `forest`,
    /// over its blocks in layout order
    /// ([`crate::plan::PlanInputs::loop_deps`]).
    pub(crate) fn of_loop(
        &self,
        f: &Function,
        alias: &AliasAnalysis,
        forest: &LoopForest,
        lp: LoopId,
    ) -> &LoopDeps {
        self.loops[lp.idx()].get_or_init(|| {
            let blocks: Vec<BlockId> = forest.get(lp).blocks.iter().copied().collect();
            let graph = build_loop_graph(f, &blocks, alias);
            let mut comps = sccs(&graph.succs);
            comps.reverse();
            LoopDeps { graph, comps }
        })
    }
}

/// Tarjan strongly-connected components; returns components in *reverse*
/// topological order (callees first), each a list of node indices.
fn sccs(succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: i64,
        lowlink: i64,
        on_stack: bool,
    }
    let n = succs.len();
    let mut st = vec![
        NodeState {
            index: -1,
            lowlink: -1,
            on_stack: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut counter: i64 = 0;

    // Iterative Tarjan (explicit call stack) to survive large blocks.
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    for root in 0..n {
        if st[root].index >= 0 {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame::Enter(root)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    st[v].index = counter;
                    st[v].lowlink = counter;
                    counter += 1;
                    stack.push(v);
                    st[v].on_stack = true;
                    call.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut ei) => {
                    let mut descended = false;
                    while ei < succs[v].len() {
                        let w = succs[v][ei];
                        ei += 1;
                        if st[w].index < 0 {
                            call.push(Frame::Resume(v, ei));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if st[w].on_stack {
                            st[v].lowlink = st[v].lowlink.min(st[w].index);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if st[v].lowlink == st[v].index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            st[w].on_stack = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        out.push(comp);
                    }
                    // Propagate lowlink to the parent frame.
                    if let Some(Frame::Resume(p, _)) = call.last() {
                        let p = *p;
                        st[p].lowlink = st[p].lowlink.min(st[v].lowlink);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::Program;

    fn simple_block_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 64);
        let b = pb.data_mut().zeroed("b", 64);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64); // 0
        let bb = fb.ldi(b as i64); // 1
        let x = fb.load8(ba, 0); // 2: depends on 0
        let y = fb.load8(bb, 0); // 3: depends on 1
        let s = fb.add(x, y); // 4: depends on 2, 3
        fb.store8(ba, 8, s); // 5: depends on 4 (and mem: load a may alias)
        fb.halt(); // 6: control, after everything
        pb.finish_function(fb);
        pb.finish()
    }

    #[test]
    fn block_dfg_data_edges_and_priority() {
        let p = simple_block_program();
        let f = p.main_func();
        let alias = AliasAnalysis::analyze(&p, f);
        let dfg = BlockDfg::build(&f.blocks[0], &alias);
        assert_eq!(dfg.n, 7);
        // add (4) depends on both loads.
        let preds4: Vec<usize> = dfg.preds[4].iter().map(|(s, _)| *s).collect();
        assert!(preds4.contains(&2) && preds4.contains(&3));
        // store depends on add.
        assert!(dfg.preds[5].iter().any(|(s, _)| *s == 4));
        // loads to different symbols have no memory edge between them.
        assert!(!dfg.succs[2].iter().any(|e| e.to == 3));
        // store to `a` has a memory edge from the load of `a`.
        assert!(dfg.succs[2]
            .iter()
            .any(|e| e.to == 5 && e.kind == DepKind::Memory));
        // halt is ordered after everything.
        assert_eq!(dfg.preds[6].len(), 6);
        // priority decreases along the chain.
        assert!(dfg.priority[0] > dfg.priority[4]);
    }

    #[test]
    fn war_and_waw_edges() {
        let p = {
            let mut pb = ProgramBuilder::new("t");
            pb.data_mut().zeroed("pad", 8);
            let mut fb = pb.function("main");
            let a = fb.ldi(1); // 0: def r0
            let b = fb.add(a, 2i64); // 1: use r0
            fb.mov_to(a, b); // 2: redef r0 (WAR with 1, WAW with 0)
            let _ = fb.add(a, 0i64); // 3
            fb.halt();
            pb.finish_function(fb);
            pb.finish()
        };
        let f = p.main_func();
        let alias = AliasAnalysis::analyze(&p, f);
        let dfg = BlockDfg::build(&f.blocks[0], &alias);
        assert!(dfg.succs[1]
            .iter()
            .any(|e| e.to == 2 && e.kind == DepKind::Anti));
        assert!(dfg.succs[0]
            .iter()
            .any(|e| e.to == 2 && e.kind == DepKind::Output));
        assert!(dfg.succs[2]
            .iter()
            .any(|e| matches!(e.kind, DepKind::Data(_)) && e.to == 3));
    }

    #[test]
    fn scc_finds_recurrence() {
        // Graph: 0 -> 1 -> 0 (cycle), 1 -> 2.
        let succs = vec![vec![1], vec![0, 2], vec![]];
        let comps = sccs(&succs);
        assert_eq!(comps.len(), 2);
        // Reverse topological: the sink {2} first.
        assert_eq!(comps[0], vec![2]);
        let mut c1 = comps[1].clone();
        c1.sort_unstable();
        assert_eq!(c1, vec![0, 1]);
    }

    #[test]
    fn loop_graph_cycles_capture_reduction() {
        let mut pb = ProgramBuilder::new("t");
        let arr = pb.data_mut().zeroed("arr", 8 * 32);
        let mut fb = pb.function("main");
        let base = fb.ldi(arr as i64);
        let acc = fb.ldi(0);
        fb.counted_loop(0i64, 32i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            let s = f.add(acc, v);
            f.mov_to(acc, s);
        });
        fb.store8(base, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let cfg = voltron_ir::cfg::Cfg::build(f);
        let dom = voltron_ir::cfg::Dominators::compute(&cfg);
        let forest = voltron_ir::loops::LoopForest::build(&cfg, &dom);
        let alias = AliasAnalysis::analyze(&p, f);
        let blocks: Vec<BlockId> = forest.loops[0].blocks.iter().copied().collect();
        let g = build_loop_graph(f, &blocks, &alias);
        let comps = sccs(&g.succs);
        // There must be a multi-node SCC (the accumulator / induction
        // recurrences merged through the branch).
        assert!(comps.iter().any(|c| c.len() > 1));
        // And at least one singleton downstream (e.g. nothing, or the
        // pure loads) — total nodes conserved.
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, g.nodes.len());
    }
}
