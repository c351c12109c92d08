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
//! at [`crate::Machine::new`] time with coordinates.
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
use std::collections::HashMap;
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

fn dir_idx(d: Dir) -> usize {
    match d {
        Dir::East => 0,
        Dir::West => 1,
        Dir::South => 2,
        Dir::North => 3,
    }
}

/// Per-latch PUT/GET tallies plus a representative site.
#[derive(Debug, Clone)]
struct LatchTally {
    puts: usize,
    gets: usize,
    site: Site,
}

impl MachineProgram {
    /// Statically validate cross-core consistency of the program's
    /// images under `cfg`'s mesh geometry (see the module docs for the
    /// invariant catalogue). [`crate::Machine::new`] runs this after the
    /// structural [`MachineProgram::check`], so a validated program's
    /// network and thread instructions can rely on these invariants.
    ///
    /// # Errors
    /// Returns the first violation found, with core/block/instruction
    /// coordinates.
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

        // (from, to, tag) -> first site, for both stream endpoints.
        let mut sends: HashMap<(usize, usize, u32), Site> = HashMap::new();
        let mut recvs: HashMap<(usize, usize, u32), Site> = HashMap::new();
        // (region, latch owner, latch dir) -> tallies.
        let mut latches: HashMap<(RegionId, usize, usize), LatchTally> = HashMap::new();
        // (region, core) -> site counts; first BCAST site per region.
        let mut bcasts: HashMap<(RegionId, usize), usize> = HashMap::new();
        let mut getbs: HashMap<(RegionId, usize), usize> = HashMap::new();
        let mut bcast_site: HashMap<RegionId, Site> = HashMap::new();
        // (region, is-coupled-target) -> (cores with a switch site, site).
        let mut switches: HashMap<(RegionId, bool), (Vec<bool>, Site)> = HashMap::new();
        // region -> cores with any block in it.
        let mut presence: HashMap<RegionId, Vec<bool>> = HashMap::new();

        for (core, img) in self.cores.iter().enumerate() {
            for (bi, b) in img.blocks.iter().enumerate() {
                presence.entry(b.region).or_insert_with(|| vec![false; n])[core] = true;
                for (ii, inst) in b.insts.iter().enumerate() {
                    let site = || Site {
                        core,
                        block: bi,
                        block_name: b.name.clone(),
                        inst: ii,
                    };
                    check_mcode_inst(inst).map_err(|message| ValidateError::Shape {
                        site: site(),
                        message,
                    })?;
                    self.check_one(inst, core, n, geo, site())?;
                    match inst.op {
                        Opcode::Send => {
                            let to = core_operand(inst.srcs[1]);
                            sends.entry((core, to, send_tag(inst))).or_insert_with(site);
                        }
                        Opcode::Recv => {
                            let from = core_operand(inst.srcs[0]);
                            recvs
                                .entry((from, core, recv_tag(inst)))
                                .or_insert_with(site);
                        }
                        Opcode::Put => {
                            let d = dir_operand(inst.srcs[1]);
                            let owner = geo.neighbor(core, d).expect("checked by check_one");
                            let t = latches
                                .entry((b.region, owner, dir_idx(d.opposite())))
                                .or_insert_with(|| LatchTally {
                                    puts: 0,
                                    gets: 0,
                                    site: site(),
                                });
                            t.puts += 1;
                        }
                        Opcode::Get => {
                            let d = dir_operand(inst.srcs[0]);
                            let t =
                                latches
                                    .entry((b.region, core, dir_idx(d)))
                                    .or_insert_with(|| LatchTally {
                                        puts: 0,
                                        gets: 0,
                                        site: site(),
                                    });
                            t.gets += 1;
                        }
                        Opcode::Bcast => {
                            *bcasts.entry((b.region, core)).or_insert(0) += 1;
                            bcast_site.entry(b.region).or_insert_with(site);
                        }
                        Opcode::GetB => {
                            *getbs.entry((b.region, core)).or_insert(0) += 1;
                        }
                        Opcode::ModeSwitch => {
                            let coupled = matches!(inst.srcs[0], Operand::Mode(ExecMode::Coupled));
                            let e = switches
                                .entry((b.region, coupled))
                                .or_insert_with(|| (vec![false; n], site()));
                            e.0[core] = true;
                        }
                        _ => {}
                    }
                }
            }
        }

        // 4. Stream endpoints (deterministic order: sort the keys).
        let mut keys: Vec<_> = recvs.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            if !sends.contains_key(&k) {
                let (from, _, tag) = k;
                return Err(ValidateError::OrphanRecv {
                    site: recvs[&k].clone(),
                    from,
                    tag,
                });
            }
        }
        let mut keys: Vec<_> = sends.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            if !recvs.contains_key(&k) {
                let (_, to, tag) = k;
                return Err(ValidateError::OrphanSend {
                    site: sends[&k].clone(),
                    to,
                    tag,
                });
            }
        }

        // 5. Latch balance.
        let mut keys: Vec<_> = latches.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let t = &latches[&k];
            if t.puts != t.gets {
                let (region, owner, di) = k;
                return Err(ValidateError::LatchImbalance {
                    region,
                    owner,
                    dir: DIRS[di],
                    puts: t.puts,
                    gets: t.gets,
                    site: t.site.clone(),
                });
            }
        }

        // 6. Broadcast balance, per region with any BCAST.
        let mut regions: Vec<_> = bcast_site.keys().copied().collect();
        regions.sort_unstable();
        for r in regions {
            let total: usize = (0..n)
                .map(|c| bcasts.get(&(r, c)).copied().unwrap_or(0))
                .sum();
            let present = &presence[&r];
            for (c, &here) in present.iter().enumerate() {
                if !here {
                    continue;
                }
                let own = bcasts.get(&(r, c)).copied().unwrap_or(0);
                let drains = getbs.get(&(r, c)).copied().unwrap_or(0);
                if drains != total - own {
                    return Err(ValidateError::BcastImbalance {
                        region: r,
                        core: c,
                        expected: total - own,
                        getbs: drains,
                        site: bcast_site[&r].clone(),
                    });
                }
            }
        }

        // 7. Switch alignment.
        let mut keys: Vec<_> = switches.keys().copied().collect();
        keys.sort_unstable_by_key(|&(r, coupled)| (r, !coupled));
        for k in keys {
            let (has, site) = &switches[&k];
            let present = &presence[&k.0];
            for c in 0..n {
                if present[c] && !has[c] {
                    return Err(ValidateError::SwitchMissing {
                        region: k.0,
                        core: c,
                        mode: if k.1 {
                            ExecMode::Coupled
                        } else {
                            ExecMode::Decoupled
                        },
                        site: site.clone(),
                    });
                }
            }
        }

        Ok(())
    }

    /// Per-instruction checks beyond the shared opcode grammar: core
    /// ranges, mesh directions, spawn targets, XBEGIN order class.
    fn check_one(
        &self,
        inst: &Inst,
        core: usize,
        n: usize,
        geo: &MachineConfig,
        site: Site,
    ) -> Result<(), ValidateError> {
        let in_range = |target: usize| -> Result<(), ValidateError> {
            if target >= n {
                return Err(ValidateError::CoreOutOfRange {
                    site: site.clone(),
                    target,
                    cores: n,
                });
            }
            Ok(())
        };
        match inst.op {
            Opcode::Send => in_range(core_operand(inst.srcs[1]))?,
            Opcode::Recv => in_range(core_operand(inst.srcs[0]))?,
            Opcode::Spawn => {
                let to = core_operand(inst.srcs[0]);
                in_range(to)?;
                if to == core {
                    return Err(ValidateError::SelfSpawn { site });
                }
                let blk = inst.srcs[1].as_block().expect("shape-checked").idx();
                let blocks = self.cores[to].blocks.len();
                if blk >= blocks {
                    return Err(ValidateError::SpawnBadBlock {
                        site,
                        target_core: to,
                        block: blk,
                        blocks,
                    });
                }
            }
            Opcode::Put => {
                let d = dir_operand(inst.srcs[1]);
                if geo.neighbor(core, d).is_none() {
                    return Err(ValidateError::OffMesh { site, dir: d });
                }
            }
            Opcode::Get => {
                let d = dir_operand(inst.srcs[0]);
                if geo.neighbor(core, d).is_none() {
                    return Err(ValidateError::OffMesh { site, dir: d });
                }
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
                        site,
                        message: "xbegin order must be an integer (imm or gpr)".into(),
                    });
                }
            }
            _ => {}
        }
        Ok(())
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
