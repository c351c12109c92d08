//! Static validation of lowered machine programs.
//!
//! A Voltron program is only correct if its per-core images agree with
//! each other: every coupled-mode `GET` needs a `PUT` filling the same
//! latch, `SEND`/`RECV` tag streams must have both endpoints, `SPAWN`
//! must land on a real block of a real core, broadcasts must be drained
//! by every participating core, and mode switches must be reachable on
//! every core or the switch barrier never forms. A violation of any of
//! these invariants used to surface only at runtime, as a generic
//! deadlock dump deep into the cycle loop; this pass rejects such images
//! when the image is sealed ([`crate::SealedImage::seal`]), with
//! coordinates.
//!
//! The invariant catalogue (see DESIGN.md for the derivations):
//!
//! 1. **Shape** — every instruction satisfies the per-opcode operand
//!    grammar ([`voltron_ir::verify::check_mcode_inst`]), `XBEGIN`
//!    orders are integers, and `SEND`/`RECV`/`SPAWN` core operands name
//!    cores that exist.
//! 2. **Mesh** — `PUT`/`GET` directions have a neighbor; a `PUT` off the
//!    mesh faults and a `GET` off the mesh waits on a latch that can
//!    never fill.
//! 3. **Spawn targets** — the block operand indexes the *target* core's
//!    image (block ids are per-image), and a core never spawns itself.
//! 4. **Stream endpoints** — for every `(sender, receiver, tag)` stream,
//!    a `RECV` site implies at least one `SEND` site and vice versa.
//!    Matching is existence-based, not count-based: guarded sends
//!    legally nullify, and the master's per-exit-target glue blocks
//!    duplicate `RECV` sites for a single `SEND`.
//! 5. **Latch balance** — per region and per directed latch, static
//!    `PUT` and `GET` site counts agree. Coupled lowering emits these in
//!    matched pairs inside the same region, so a count mismatch means a
//!    dropped or duplicated half of a transfer.
//! 6. **Broadcast balance** — per region, each participating core holds
//!    a `GETB` site for every `BCAST` site of the *other* cores; an
//!    undrained broadcast latch wedges the next `BCAST` forever.
//! 7. **Switch alignment** — per region and mode, if any core holds a
//!    `MODE_SWITCH` site then every core present in the region does; the
//!    runtime barrier only resolves when *all* cores arrive.

use crate::config::MachineConfig;
use crate::mcode::{MachineProgram, RegionId};
use std::fmt;
use voltron_ir::verify::check_mcode_inst;
use voltron_ir::{Dir, ExecMode, Inst, Opcode, Operand, RegClass};

/// Location of an offending instruction: core, block (index and name),
/// and issue slot within the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Core whose image holds the instruction.
    pub core: usize,
    /// Block index within that image.
    pub block: usize,
    /// Block debug label.
    pub block_name: String,
    /// Instruction index within the block.
    pub inst: usize,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} bb{} <{}> inst {}",
            self.core, self.block, self.block_name, self.inst
        )
    }
}

/// A static cross-core consistency violation, with coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// An instruction violates the per-opcode operand grammar.
    Shape {
        /// Offending instruction.
        site: Site,
        /// Grammar violation description.
        message: String,
    },
    /// A `SEND`/`RECV`/`SPAWN` names a core the machine does not have.
    CoreOutOfRange {
        /// Offending instruction.
        site: Site,
        /// The named core.
        target: usize,
        /// Cores the program was compiled for.
        cores: usize,
    },
    /// A `PUT` or `GET` points off the mesh.
    OffMesh {
        /// Offending instruction.
        site: Site,
        /// The direction with no neighbor.
        dir: Dir,
    },
    /// A core spawns a thread onto itself.
    SelfSpawn {
        /// Offending instruction.
        site: Site,
    },
    /// A `SPAWN` block operand does not index the target core's image.
    SpawnBadBlock {
        /// Offending instruction.
        site: Site,
        /// The spawn's target core.
        target_core: usize,
        /// The named block index.
        block: usize,
        /// Blocks in the target image.
        blocks: usize,
    },
    /// A `RECV` stream no `SEND` site feeds.
    OrphanRecv {
        /// The receive site.
        site: Site,
        /// Sender the stream names.
        from: usize,
        /// CAM tag of the stream.
        tag: u32,
    },
    /// A `SEND` stream no `RECV` site drains.
    OrphanSend {
        /// The send site.
        site: Site,
        /// Receiver the stream names.
        to: usize,
        /// CAM tag of the stream.
        tag: u32,
    },
    /// Unbalanced `PUT`/`GET` site counts on one direct-mode latch.
    LatchImbalance {
        /// Region the sites belong to.
        region: RegionId,
        /// Core owning the latch (the `GET` side).
        owner: usize,
        /// Latch direction as seen from the owner.
        dir: Dir,
        /// `PUT` sites filling the latch.
        puts: usize,
        /// `GET` sites draining it.
        gets: usize,
        /// One involved instruction.
        site: Site,
    },
    /// A core's `GETB` sites cannot drain its peers' `BCAST` sites.
    BcastImbalance {
        /// Region the sites belong to.
        region: RegionId,
        /// The core with the wrong drain count.
        core: usize,
        /// `GETB` sites required (peers' `BCAST` sites).
        expected: usize,
        /// `GETB` sites present.
        getbs: usize,
        /// One involved broadcast instruction.
        site: Site,
    },
    /// A mode switch some cores can reach and others cannot.
    SwitchMissing {
        /// Region holding the switch sites.
        region: RegionId,
        /// A core present in the region with no switch site.
        core: usize,
        /// The switch target mode.
        mode: ExecMode,
        /// A switch site on another core.
        site: Site,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Shape { site, message } => write!(f, "{site}: {message}"),
            ValidateError::CoreOutOfRange {
                site,
                target,
                cores,
            } => write!(
                f,
                "{site}: names core {target}, but the program has {cores} cores"
            ),
            ValidateError::OffMesh { site, dir } => {
                write!(f, "{site}: no neighbor to the {dir}")
            }
            ValidateError::SelfSpawn { site } => {
                write!(f, "{site}: core spawns a thread onto itself")
            }
            ValidateError::SpawnBadBlock {
                site,
                target_core,
                block,
                blocks,
            } => write!(
                f,
                "{site}: spawn targets bb{block} of core {target_core}, which has {blocks} blocks"
            ),
            ValidateError::OrphanRecv { site, from, tag } => write!(
                f,
                "{site}: RECV from core {from} tag {tag} has no matching SEND site"
            ),
            ValidateError::OrphanSend { site, to, tag } => write!(
                f,
                "{site}: SEND to core {to} tag {tag} has no matching RECV site"
            ),
            ValidateError::LatchImbalance {
                region,
                owner,
                dir,
                puts,
                gets,
                site,
            } => write!(
                f,
                "region {region}: latch at core {owner} ({dir} side) has {puts} PUT site(s) \
                 but {gets} GET site(s) ({site})"
            ),
            ValidateError::BcastImbalance {
                region,
                core,
                expected,
                getbs,
                site,
            } => write!(
                f,
                "region {region}: core {core} has {getbs} GETB site(s) for {expected} \
                 peer BCAST site(s) ({site})"
            ),
            ValidateError::SwitchMissing {
                region,
                core,
                mode,
                site,
            } => write!(
                f,
                "region {region}: core {core} has no mode switch to {mode}, \
                 but {site} does — the switch barrier can never form"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

const DIRS: [Dir; 4] = [Dir::East, Dir::West, Dir::South, Dir::North];

fn dir_idx(d: Dir) -> u8 {
    match d {
        Dir::East => 0,
        Dir::West => 1,
        Dir::South => 2,
        Dir::North => 3,
    }
}

/// Coordinates of one instruction. The walk records these and nothing
/// else; the [`Site`] — block name included — is built from them on the
/// error path only. Ordered as the walk visits instructions, so the
/// least `At` of a set of sites is the one the walk met first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct At {
    core: u32,
    block: u32,
    inst: u32,
}

/// An image index as a coordinate.
fn coord(i: usize) -> u32 {
    // An image with 2^32 cores, blocks or slots does not fit in memory.
    u32::try_from(i).expect("image dimensions fit in 32 bits")
}

/// One endpoint site of the `(from, to, tag)` stream; ordered by stream
/// first, so a sorted list holds each stream's sites together, the
/// first-walked one in front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Endpoint {
    from: u32,
    to: u32,
    tag: u32,
    at: At,
}

impl Endpoint {
    fn stream(&self) -> (u32, u32, u32) {
        (self.from, self.to, self.tag)
    }
}

/// The first site in `xs` (both lists sorted) whose stream has no site
/// in `ys`: the lowest orphan stream, at its first-walked site.
fn first_orphan<'a>(xs: &'a [Endpoint], ys: &[Endpoint]) -> Option<&'a Endpoint> {
    let mut ys = ys.iter().peekable();
    xs.iter().find(|x| {
        while ys.next_if(|y| y.stream() < x.stream()).is_some() {}
        ys.peek().is_none_or(|y| y.stream() != x.stream())
    })
}

/// One `PUT` or `GET` site of a direct-mode latch; ordered by latch
/// `(region, owner, dir)` first, then as walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LatchSite {
    region: RegionId,
    owner: u32,
    dir: u8,
    at: At,
    put: bool,
}

/// The part of `present` (sorted) that lists region `r`'s cores.
fn cores_of(present: &[(RegionId, u32)], r: RegionId) -> impl Iterator<Item = u32> + '_ {
    present[present.partition_point(|p| p.0 < r)..]
        .iter()
        .take_while(move |p| p.0 == r)
        .map(|p| p.1)
}

impl MachineProgram {
    /// Statically validate cross-core consistency of the program's
    /// images under `cfg`'s mesh geometry (see the module docs for the
    /// invariant catalogue). [`crate::SealedImage::seal`] runs this after the
    /// structural [`MachineProgram::check`], so a validated program's
    /// network and thread instructions can rely on these invariants.
    ///
    /// One walk over the instructions, recording coordinates of the
    /// network, latch, broadcast and switch sites only; the cross-core
    /// invariants are then checked by sorting those site lists and
    /// sweeping them. Nothing is allocated per instruction, per block
    /// name or per region *id*: the lists grow with the sites and with
    /// the `(region, core)` pairs present, so validating an image costs
    /// a handful of vector doublings however long its blocks are.
    ///
    /// # Errors
    /// Returns the first violation found, with core/block/instruction
    /// coordinates. *First* is a contract (DESIGN.md, "Static mcode
    /// validation"): per-instruction violations in walk order (core,
    /// block, slot), then orphan `RECV` streams and orphan `SEND`
    /// streams by ascending `(from, to, tag)`, unbalanced latches by
    /// `(region, owner, dir)`, broadcasts by `(region, core)`, and
    /// switches by `(region, coupled first, core)`; a cross-core
    /// violation names the first site the walk met.
    pub fn validate(&self, cfg: &MachineConfig) -> Result<(), ValidateError> {
        let n = self.cores.len();
        // The geometry only depends on the core count; keep it honest if
        // a caller hands a config sized for a different machine.
        let geo;
        let geo = if cfg.cores == n {
            cfg
        } else {
            geo = MachineConfig {
                cores: n,
                ..cfg.clone()
            };
            &geo
        };

        let mut sends: Vec<Endpoint> = Vec::new();
        let mut recvs: Vec<Endpoint> = Vec::new();
        let mut latches: Vec<LatchSite> = Vec::new();
        let mut bcasts: Vec<(RegionId, At)> = Vec::new();
        // (region, core) of every GETB site.
        let mut getbs: Vec<(RegionId, u32)> = Vec::new();
        // (region, decoupled target, site): coupled switches sort first.
        let mut switches: Vec<(RegionId, bool, At)> = Vec::new();
        // (region, core) of every block.
        let mut present: Vec<(RegionId, u32)> = Vec::new();

        for (core, img) in self.cores.iter().enumerate() {
            let c = coord(core);
            for (bi, b) in img.blocks.iter().enumerate() {
                if present.last() != Some(&(b.region, c)) {
                    present.push((b.region, c));
                }
                for (ii, inst) in b.insts.iter().enumerate() {
                    let at = || At {
                        core: c,
                        block: coord(bi),
                        inst: coord(ii),
                    };
                    check_mcode_inst(inst).map_err(|message| ValidateError::Shape {
                        site: self.site(at()),
                        message,
                    })?;
                    let in_range = |target: usize| {
                        if target < n {
                            return Ok(coord(target));
                        }
                        Err(ValidateError::CoreOutOfRange {
                            site: self.site(at()),
                            target,
                            cores: n,
                        })
                    };
                    match inst.op {
                        Opcode::Send => sends.push(Endpoint {
                            from: c,
                            to: in_range(core_operand(inst.srcs[1]))?,
                            tag: send_tag(inst),
                            at: at(),
                        }),
                        Opcode::Recv => recvs.push(Endpoint {
                            from: in_range(core_operand(inst.srcs[0]))?,
                            to: c,
                            tag: recv_tag(inst),
                            at: at(),
                        }),
                        Opcode::Spawn => {
                            let to = core_operand(inst.srcs[0]);
                            in_range(to)?;
                            if to == core {
                                return Err(ValidateError::SelfSpawn {
                                    site: self.site(at()),
                                });
                            }
                            let blk = inst.srcs[1].as_block().expect("shape-checked").idx();
                            let blocks = self.cores[to].blocks.len();
                            if blk >= blocks {
                                return Err(ValidateError::SpawnBadBlock {
                                    site: self.site(at()),
                                    target_core: to,
                                    block: blk,
                                    blocks,
                                });
                            }
                        }
                        Opcode::Put | Opcode::Get => {
                            let put = inst.op == Opcode::Put;
                            let d = dir_operand(inst.srcs[usize::from(put)]);
                            let Some(peer) = geo.neighbor(core, d) else {
                                return Err(ValidateError::OffMesh {
                                    site: self.site(at()),
                                    dir: d,
                                });
                            };
                            // The latch belongs to the GET side.
                            let (owner, side) = if put { (peer, d.opposite()) } else { (core, d) };
                            latches.push(LatchSite {
                                region: b.region,
                                owner: coord(owner),
                                dir: dir_idx(side),
                                at: at(),
                                put,
                            });
                        }
                        Opcode::Bcast => bcasts.push((b.region, at())),
                        Opcode::GetB => getbs.push((b.region, c)),
                        Opcode::ModeSwitch => {
                            let coupled = matches!(inst.srcs[0], Operand::Mode(ExecMode::Coupled));
                            switches.push((b.region, !coupled, at()));
                        }
                        Opcode::Xbegin => {
                            let ok = matches!(
                                inst.srcs[0],
                                Operand::Imm(_)
                                    | Operand::Reg(voltron_ir::Reg {
                                        class: RegClass::Gpr,
                                        ..
                                    })
                            );
                            if !ok {
                                return Err(ValidateError::Shape {
                                    site: self.site(at()),
                                    message: "xbegin order must be an integer (imm or gpr)".into(),
                                });
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        // 4. Stream endpoints.
        sends.sort_unstable();
        recvs.sort_unstable();
        if let Some(r) = first_orphan(&recvs, &sends) {
            return Err(ValidateError::OrphanRecv {
                site: self.site(r.at),
                from: r.from as usize,
                tag: r.tag,
            });
        }
        if let Some(s) = first_orphan(&sends, &recvs) {
            return Err(ValidateError::OrphanSend {
                site: self.site(s.at),
                to: s.to as usize,
                tag: s.tag,
            });
        }

        // 5. Latch balance.
        latches.sort_unstable();
        for latch in
            latches.chunk_by(|a, b| (a.region, a.owner, a.dir) == (b.region, b.owner, b.dir))
        {
            let puts = latch.iter().filter(|s| s.put).count();
            let gets = latch.len() - puts;
            if puts != gets {
                let first = latch[0];
                return Err(ValidateError::LatchImbalance {
                    region: first.region,
                    owner: first.owner as usize,
                    dir: DIRS[usize::from(first.dir)],
                    puts,
                    gets,
                    site: self.site(first.at),
                });
            }
        }

        if bcasts.is_empty() && switches.is_empty() {
            return Ok(());
        }
        present.sort_unstable();
        present.dedup();

        // 6. Broadcast balance, per region with any BCAST.
        bcasts.sort_unstable();
        getbs.sort_unstable();
        for region in bcasts.chunk_by(|a, b| a.0 == b.0) {
            let r = region[0].0;
            for core in cores_of(&present, r) {
                // Sorted as walked, so each core's sites are one run.
                let own = region.partition_point(|s| s.1.core <= core)
                    - region.partition_point(|s| s.1.core < core);
                let drains = getbs.partition_point(|&g| g <= (r, core))
                    - getbs.partition_point(|&g| g < (r, core));
                if drains != region.len() - own {
                    return Err(ValidateError::BcastImbalance {
                        region: r,
                        core: core as usize,
                        expected: region.len() - own,
                        getbs: drains,
                        site: self.site(region[0].1),
                    });
                }
            }
        }

        // 7. Switch alignment.
        switches.sort_unstable();
        for switch in switches.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (r, decoupled, first) = switch[0];
            let mut has = switch.iter().map(|s| s.2.core).peekable();
            for core in cores_of(&present, r) {
                while has.next_if(|&h| h < core).is_some() {}
                if has.peek() != Some(&core) {
                    return Err(ValidateError::SwitchMissing {
                        region: r,
                        core: core as usize,
                        mode: if decoupled {
                            ExecMode::Decoupled
                        } else {
                            ExecMode::Coupled
                        },
                        site: self.site(first),
                    });
                }
            }
        }

        Ok(())
    }

    /// The full coordinates of `at` (error path only: clones the block
    /// name).
    fn site(&self, at: At) -> Site {
        Site {
            core: at.core as usize,
            block: at.block as usize,
            block_name: self.cores[at.core as usize].blocks[at.block as usize]
                .name
                .clone(),
            inst: at.inst as usize,
        }
    }
}

/// A shape-checked core operand.
fn core_operand(op: Operand) -> usize {
    match op {
        Operand::Core(c) => c as usize,
        // check_mcode_inst rejected every other shape already.
        _ => unreachable!("core operand was shape-checked"),
    }
}

/// A shape-checked direction operand.
fn dir_operand(op: Operand) -> Dir {
    match op {
        Operand::Dir(d) => d,
        _ => unreachable!("dir operand was shape-checked"),
    }
}

/// The CAM tag of a SEND site (optional third operand, default 0).
pub(crate) fn send_tag(inst: &Inst) -> u32 {
    match inst.srcs.get(2) {
        Some(Operand::Imm(t)) => *t as u32,
        _ => 0,
    }
}

/// The CAM tag of a RECV site (optional second operand, default 0).
pub(crate) fn recv_tag(inst: &Inst) -> u32 {
    match inst.srcs.get(1) {
        Some(Operand::Imm(t)) => *t as u32,
        _ => 0,
    }
}
