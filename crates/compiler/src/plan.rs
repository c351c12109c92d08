//! Region planning and parallelism selection (§4.2 of the paper).
//!
//! The flat function is partitioned into an ordered list of contiguous
//! block ranges ("regions"), each executed with one technique:
//!
//! 1. **Statistical DOALL** loops first (most efficient: no communication
//!    or synchronization in the chunk bodies);
//! 2. **DSWP** for loops whose pipeline estimate clears the paper's
//!    1.25x gate;
//! 3. **strands** (eBUG, decoupled) for regions dominated by cache-miss
//!    stalls;
//! 4. **ILP** (BUG, coupled) for predictable-latency regions;
//! 5. **serial** for everything too cold to amortize spawn overhead.
//!
//! Single-technique strategies (used for Figs. 10/11) force one choice
//! everywhere; `Hybrid` is the full selection (Fig. 13).

use crate::alias::AliasAnalysis;
use crate::dfg::{BlockDfg, DepGraphs, LoopDeps};
use crate::doall::{self, DoallInfo};
use crate::liveness::Liveness;
use crate::partition::{self, Assignment, PartitionParams};
use std::collections::HashMap;
use voltron_ir::cfg::Cfg;
use voltron_ir::hash::IntMap;
use voltron_ir::loops::{LoopForest, LoopId};
use voltron_ir::profile::Profile;
use voltron_ir::{BlockId, FuncId, Function, InstRef, Opcode};

/// Compilation strategy (which parallelism to exploit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Single-core lowering (the baseline).
    Serial,
    /// ILP only: coupled-mode multicluster VLIW everywhere (Fig. 10/11
    /// "ILP" bars).
    Ilp,
    /// Fine-grain TLP only: DSWP where it fits, eBUG strands elsewhere
    /// (Fig. 10/11 "fine-grain TLP" bars).
    FineGrainTlp,
    /// Loop-level parallelism only: speculative DOALL, serial elsewhere
    /// (Fig. 10/11 "LLP" bars).
    Llp,
    /// The full §4.2 selection (Fig. 13 "hybrid").
    Hybrid,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Serial => "serial",
            Strategy::Ilp => "ilp",
            Strategy::FineGrainTlp => "fine-grain-tlp",
            Strategy::Llp => "llp",
            Strategy::Hybrid => "hybrid",
        };
        f.write_str(s)
    }
}

impl Strategy {
    /// Every strategy, in display order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Serial,
        Strategy::Ilp,
        Strategy::FineGrainTlp,
        Strategy::Llp,
        Strategy::Hybrid,
    ];

    /// Parse a strategy as the CLI and the serve wire spell it: any
    /// `Display` label above, or the short `ftlp` for fine-grain TLP.
    pub fn parse(s: &str) -> Option<Strategy> {
        if s == "ftlp" {
            return Some(Strategy::FineGrainTlp);
        }
        Strategy::ALL.into_iter().find(|v| v.to_string() == s)
    }
}

/// How a region executes.
#[derive(Debug, Clone)]
pub enum RegionKind {
    /// Master-only sequential execution.
    Serial,
    /// Coupled-mode ILP (BUG partition attached).
    Coupled(Assignment),
    /// Decoupled fine-grain threads (eBUG strands).
    Strands(Assignment),
    /// Decoupled pipeline (DSWP stages).
    Dswp(Assignment),
    /// Speculative chunked loop.
    Doall(Box<DoallInfo>),
}

impl RegionKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RegionKind::Serial => "serial",
            RegionKind::Coupled(_) => "ilp",
            RegionKind::Strands(_) => "strands",
            RegionKind::Dswp(_) => "dswp",
            RegionKind::Doall(_) => "doall",
        }
    }
}

/// One planned region: the contiguous block range `first..=last`.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region id (also the machine-block region tag for attribution).
    pub id: u32,
    /// First block of the range.
    pub first: u32,
    /// Last block of the range (inclusive).
    pub last: u32,
    /// Execution technique.
    pub kind: RegionKind,
    /// Estimated serial cycles spent in this region (profile-weighted).
    pub est_serial_cycles: u64,
}

impl Region {
    /// The block ids of this region in layout order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        (self.first..=self.last).map(BlockId)
    }

    /// True if `b` is inside the region.
    pub fn contains(&self, b: BlockId) -> bool {
        b.0 >= self.first && b.0 <= self.last
    }
}

/// The whole plan: regions covering every block, in layout order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The ordered regions.
    pub regions: Vec<Region>,
}

impl Plan {
    /// Count of regions by kind name (diagnostics).
    pub fn histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for r in &self.regions {
            *h.entry(r.kind.name()).or_insert(0) += 1;
        }
        h
    }
}

/// Minimum estimated serial cycles for a range to be worth
/// parallelizing (amortizes spawn / mode-switch overhead).
const HOT_THRESHOLD: u64 = 1_500;
/// DSWP acceptance gate (the paper uses 1.25).
const DSWP_GATE: f64 = 1.25;
/// Fraction of estimated time in load misses above which a region
/// prefers decoupled strands over coupled ILP.
const MISS_FRACTION: f64 = 0.18;
/// Minimum estimated ILP (latency-weighted work over critical path) for
/// a coupled region to beat serial execution; below it the lock-step and
/// distributed-branch overheads dominate.
const MIN_ILP: f64 = 1.15;

/// Planner settings.
#[derive(Debug, Clone, Copy)]
pub struct PlanParams {
    /// Use the eBUG weights for strands (false = plain BUG, the paper's
    /// implicit baseline for the eBUG ablation).
    pub ebug_strands: bool,
}

impl Default for PlanParams {
    fn default() -> PlanParams {
        PlanParams { ebug_strands: true }
    }
}

/// All analysis inputs the planner consumes.
pub struct PlanInputs<'a> {
    /// The flat function.
    pub f: &'a Function,
    /// Its id in the flat program.
    pub func: FuncId,
    /// CFG.
    pub cfg: &'a Cfg,
    /// Loop forest.
    pub forest: &'a LoopForest,
    /// Liveness.
    pub liveness: &'a Liveness,
    /// Profile of the flat program.
    pub profile: &'a Profile,
    /// Alias facts.
    pub alias: &'a AliasAnalysis,
    /// The function's dependence graphs, shared by every configuration
    /// planned from these inputs.
    pub graphs: &'a DepGraphs,
}

impl PlanInputs<'_> {
    /// The intra-block dependence graph of `b`.
    pub fn block_dfg(&self, b: BlockId) -> &BlockDfg {
        self.graphs.block(self.f, self.alias, b)
    }

    /// The operation graph and SCC condensation of loop `lp`.
    pub fn loop_deps(&self, lp: LoopId) -> &LoopDeps {
        self.graphs.of_loop(self.f, self.alias, self.forest, lp)
    }
}

/// Estimated serial cycles of a block range (latency-weighted dynamic
/// instruction count plus profiled miss penalties).
fn est_cycles(inp: &PlanInputs<'_>, first: u32, last: u32, mem_latency: u64) -> (u64, u64) {
    let mut cycles = 0u64;
    let mut miss_cycles = 0u64;
    for b in first..=last {
        let count = inp.profile.block_count(inp.func, BlockId(b));
        if count == 0 {
            continue;
        }
        for (i, inst) in inp.f.block(BlockId(b)).insts.iter().enumerate() {
            cycles += count * u64::from(inst.op.latency());
            if inst.op.is_load() {
                let lp = inp.profile.load_profile(InstRef {
                    func: inp.func,
                    block: BlockId(b),
                    index: i,
                });
                miss_cycles += lp.misses * mem_latency;
            }
        }
    }
    (cycles + miss_cycles, miss_cycles)
}

/// Estimated coupled-mode speedup of a range: profile-weighted serial
/// issue time over profile-weighted critical-path length plus the
/// distributed-branch overhead (condition distribution and the aligned
/// `PBR`/`BR` tail add about two cycles to every block).
fn est_ilp(inp: &PlanInputs<'_>, first: u32, last: u32) -> f64 {
    let mut serial = 0f64;
    let mut coupled = 0f64;
    for b in first..=last {
        let bid = BlockId(b);
        let count = inp.profile.block_count(inp.func, bid);
        if count == 0 {
            continue;
        }
        let block = inp.f.block(bid);
        if block.insts.is_empty() {
            continue;
        }
        let dfg = inp.block_dfg(bid);
        let cp = dfg.priority.iter().copied().max().unwrap_or(1).max(1);
        let tot: u32 = block.insts.iter().map(|i| i.op.latency()).sum();
        serial += count as f64 * f64::from(tot);
        coupled += count as f64 * (f64::from(cp) + 2.0);
    }
    if coupled <= 0.0 {
        1.0
    } else {
        serial / coupled
    }
}

/// Whether a block range may run as a replicated (parallel) region: no
/// halts, and external control only enters at the first block.
fn range_parallelizable(inp: &PlanInputs<'_>, first: u32, last: u32) -> bool {
    for b in first..=last {
        let bid = BlockId(b);
        for inst in &inp.f.block(bid).insts {
            if matches!(inst.op, Opcode::Halt | Opcode::Ret | Opcode::Call) {
                return false;
            }
        }
        if b != first
            && inp
                .cfg
                .preds_of(bid)
                .iter()
                .any(|p| p.0 < first || p.0 > last)
        {
            return false;
        }
    }
    true
}

/// Build the plan for a strategy on `cores` cores.
pub fn plan(inp: &PlanInputs<'_>, strategy: Strategy, cores: usize, params: &PlanParams) -> Plan {
    let nblocks = inp.f.blocks.len() as u32;
    let mut regions: Vec<Region> = Vec::new();
    let mut next_id = 0u32;

    if cores <= 1 || strategy == Strategy::Serial {
        let (est, _) = est_cycles(inp, 0, nblocks - 1, 120);
        return Plan {
            regions: vec![Region {
                id: 0,
                first: 0,
                last: nblocks - 1,
                kind: RegionKind::Serial,
                est_serial_cycles: est,
            }],
        };
    }

    // Phase 1: loop selection, in the paper's order — first a pass over
    // all loop nests (outermost to innermost) looking only for
    // statistical DOALL, then a second pass offering DSWP to the loops
    // that remain.
    let mut chosen: Vec<(u32, u32, RegionKind)> = Vec::new();

    let loop_range = |lp: LoopId| -> Option<(u32, u32)> {
        let l = inp.forest.get(lp);
        let mut blocks: Vec<u32> = l.blocks.iter().map(|b| b.0).collect();
        blocks.sort_unstable();
        let first = blocks[0];
        let last = *blocks.last().expect("non-empty loop");
        if last - first + 1 != blocks.len() as u32 {
            return None; // non-contiguous layout
        }
        if !range_parallelizable(inp, first, last) {
            return None;
        }
        let (est, _) = est_cycles(inp, first, last, 120);
        if est < HOT_THRESHOLD {
            return None;
        }
        Some((first, last))
    };

    // Pass 1: DOALL.
    if matches!(strategy, Strategy::Llp | Strategy::Hybrid) {
        let mut stack: Vec<LoopId> = inp.forest.roots().collect();
        while let Some(lp) = stack.pop() {
            let range = loop_range(lp);
            let info = range.and_then(|_| {
                doall::detect(
                    inp.f,
                    inp.func,
                    inp.forest,
                    lp,
                    inp.cfg,
                    inp.liveness,
                    inp.profile,
                )
            });
            match (range, info) {
                (Some((first, last)), Some(info)) => {
                    chosen.push((first, last, RegionKind::Doall(Box::new(info))));
                }
                _ => stack.extend(inp.forest.get(lp).children.iter().copied()),
            }
        }
    }

    // Pass 2: DSWP on loops disjoint from everything chosen so far.
    if matches!(strategy, Strategy::FineGrainTlp | Strategy::Hybrid) {
        let overlaps = |first: u32, last: u32, chosen: &[(u32, u32, RegionKind)]| {
            chosen.iter().any(|&(cf, cl, _)| first <= cl && cf <= last)
        };
        let mut stack: Vec<LoopId> = inp.forest.roots().collect();
        while let Some(lp) = stack.pop() {
            let descend = |stack: &mut Vec<LoopId>| {
                stack.extend(inp.forest.get(lp).children.iter().copied());
            };
            let Some((first, last)) = loop_range(lp) else {
                descend(&mut stack);
                continue;
            };
            if overlaps(first, last, &chosen) {
                // A DOALL lives inside: the outer loop cannot be taken
                // whole, but sibling inner loops may still qualify.
                descend(&mut stack);
                continue;
            }
            // The range is contiguous, so the loop's blocks in layout
            // order are exactly `first..=last`.
            let accepted = partition::dswp_partition(inp, lp, cores)
                .filter(|part| part.est_speedup >= DSWP_GATE)
                .map(|part| chosen.push((first, last, RegionKind::Dswp(part.assignment))))
                .is_some();
            if !accepted {
                descend(&mut stack);
            }
        }
    }
    chosen.sort_by_key(|(f, _, _)| *f);

    // Phase 2: fill the gaps with ILP / strands / serial ranges.
    let emit_gap = |regions: &mut Vec<Region>, next_id: &mut u32, first: u32, last: u32| {
        if first > last {
            return;
        }
        // Split at non-parallelizable boundaries (halt blocks, external
        // entries) into maximal candidate subranges; anything left over
        // becomes serial.
        let mut start = first;
        while start <= last {
            // Grow the largest parallelizable subrange from `start`.
            let mut end = start;
            while end <= last && range_parallelizable(inp, start, end) {
                end += 1;
            }
            let candidate_end = end.saturating_sub(1);
            let parallel_ok =
                candidate_end >= start && range_parallelizable(inp, start, candidate_end);
            let (est, miss) = est_cycles(inp, start, candidate_end.max(start), 120);
            let hot = est >= HOT_THRESHOLD;
            let ilp = est_ilp(inp, start, candidate_end.max(start));
            let coupled_kind = |inp: &PlanInputs<'_>| {
                let blocks: Vec<BlockId> = (start..=candidate_end).map(BlockId).collect();
                let asg = partition::bug_partition(
                    inp,
                    &blocks,
                    &PartitionParams::bug(cores),
                    &IntMap::default(),
                );
                RegionKind::Coupled(asg)
            };
            let kind = if parallel_ok && hot {
                match strategy {
                    Strategy::Ilp => {
                        // "Exploit ILP by itself": still only where the
                        // dataflow offers it (the paper's per-technique
                        // builds leave hopeless regions serial).
                        if ilp >= MIN_ILP {
                            Some(coupled_kind(inp))
                        } else {
                            None
                        }
                    }
                    Strategy::FineGrainTlp => Some(strands_kind(
                        inp,
                        start,
                        candidate_end,
                        cores,
                        params.ebug_strands,
                    )),
                    Strategy::Hybrid => {
                        let miss_frac = miss as f64 / est.max(1) as f64;
                        if miss_frac > MISS_FRACTION {
                            Some(strands_kind(
                                inp,
                                start,
                                candidate_end,
                                cores,
                                params.ebug_strands,
                            ))
                        } else if ilp >= MIN_ILP {
                            Some(coupled_kind(inp))
                        } else {
                            None
                        }
                    }
                    Strategy::Llp | Strategy::Serial => None,
                }
            } else {
                None
            };
            match kind {
                Some(k) => {
                    regions.push(Region {
                        id: *next_id,
                        first: start,
                        last: candidate_end,
                        kind: k,
                        est_serial_cycles: est,
                    });
                    *next_id += 1;
                    start = candidate_end + 1;
                }
                None => {
                    // Serial: the cold-but-well-formed candidate range as
                    // one region, or just the offending block when even a
                    // single-block range is not parallelizable.
                    let end_s = if parallel_ok { candidate_end } else { start };
                    let (est_s, _) = est_cycles(inp, start, end_s, 120);
                    regions.push(Region {
                        id: *next_id,
                        first: start,
                        last: end_s,
                        kind: RegionKind::Serial,
                        est_serial_cycles: est_s,
                    });
                    *next_id += 1;
                    start = end_s + 1;
                }
            }
        }
    };

    let mut cursor = 0u32;
    for (first, last, kind) in chosen {
        if first > cursor {
            emit_gap(&mut regions, &mut next_id, cursor, first - 1);
        }
        let (est, _) = est_cycles(inp, first, last, 120);
        regions.push(Region {
            id: next_id,
            first,
            last,
            kind,
            est_serial_cycles: est,
        });
        next_id += 1;
        cursor = last + 1;
    }
    if cursor < nblocks {
        emit_gap(&mut regions, &mut next_id, cursor, nblocks - 1);
    }
    Plan { regions }
}

fn strands_kind(
    inp: &PlanInputs<'_>,
    first: u32,
    last: u32,
    cores: usize,
    ebug: bool,
) -> RegionKind {
    let blocks: Vec<BlockId> = (first..=last).map(BlockId).collect();
    let pins =
        partition::pin_memory_classes(inp.f, &blocks, inp.alias, inp.profile, inp.func, cores);
    let params = if ebug {
        PartitionParams::ebug(cores)
    } else {
        // Ablation: the naive BUG objective — unit move cost, no miss or
        // memory-dependence weights, no balancing, no line affinity.
        // (Memory-class pinning stays in both variants: it is what makes
        // decoupled code correct without dummy-sync pairs.)
        PartitionParams {
            move_cost: 1,
            miss_edge_weight: 0,
            mem_edge_weight: 0,
            mem_balance_penalty: 0,
            line_affinity: 0,
            ..PartitionParams::ebug(cores)
        }
    };
    let asg = partition::bug_partition(inp, &blocks, &params, &pins);
    RegionKind::Strands(asg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrontEnd;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::Program;

    #[test]
    fn parse_inverts_display_and_knows_the_short_alias() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Strategy::parse("ftlp"), Some(Strategy::FineGrainTlp));
        assert_eq!(Strategy::parse("fine-grain TLP"), None);
    }

    fn doall_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 512);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        fb.counted_loop(0i64, 512i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.mul(iv, iv);
            f.store8(ad, 0, v);
        });
        fb.halt();
        pb.finish_function(fb);
        pb.finish()
    }

    #[test]
    fn hybrid_plan_picks_doall_for_parallel_loop() {
        let p = doall_program();
        let fe = FrontEnd::of_flat(&p);
        let inp = fe.inputs();
        let plan = plan(&inp, Strategy::Hybrid, 4, &PlanParams::default());
        assert!(plan
            .regions
            .iter()
            .any(|r| matches!(r.kind, RegionKind::Doall(_))));
        // Plan covers every block exactly once, in order.
        let mut next = 0u32;
        for r in &plan.regions {
            assert_eq!(r.first, next);
            next = r.last + 1;
        }
        assert_eq!(next, p.main_func().blocks.len() as u32);
    }

    #[test]
    fn llp_strategy_serializes_non_doall_code() {
        let p = doall_program();
        let fe = FrontEnd::of_flat(&p);
        let inp = fe.inputs();
        let plan = plan(&inp, Strategy::Llp, 4, &PlanParams::default());
        for r in &plan.regions {
            assert!(
                matches!(r.kind, RegionKind::Doall(_) | RegionKind::Serial),
                "LLP plan has {:?}",
                r.kind.name()
            );
        }
    }

    #[test]
    fn single_core_is_always_serial() {
        let p = doall_program();
        let fe = FrontEnd::of_flat(&p);
        let inp = fe.inputs();
        let plan = plan(&inp, Strategy::Hybrid, 1, &PlanParams::default());
        assert_eq!(plan.regions.len(), 1);
        assert!(matches!(plan.regions[0].kind, RegionKind::Serial));
    }

    #[test]
    fn halt_block_never_parallelized() {
        let p = doall_program();
        let fe = FrontEnd::of_flat(&p);
        let inp = fe.inputs();
        for strat in [Strategy::Ilp, Strategy::FineGrainTlp, Strategy::Hybrid] {
            let plan = plan(&inp, strat, 4, &PlanParams::default());
            let last_block = BlockId(p.main_func().blocks.len() as u32 - 1);
            // Find the region holding the halt.
            let f = p.main_func();
            let halt_block = f
                .iter_blocks()
                .find(|(_, b)| b.insts.iter().any(|i| i.op == Opcode::Halt))
                .map(|(id, _)| id)
                .unwrap_or(last_block);
            let r = plan
                .regions
                .iter()
                .find(|r| r.contains(halt_block))
                .expect("plan covers all blocks");
            assert!(
                matches!(r.kind, RegionKind::Serial),
                "{strat}: halt region not serial"
            );
        }
    }
}
