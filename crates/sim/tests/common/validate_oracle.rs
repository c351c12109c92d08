//! The static validator's oracle: the `HashMap`-per-invariant
//! implementation [`MachineProgram::validate`] used to be, kept word for
//! word (`#[path]`-included by the suites that hold the one-walk
//! validator to it). It builds a [`Site`] — block name cloned — for every
//! instruction and keys every tally by value, which is what made it slow
//! and what makes it obviously right: each invariant of the catalogue in
//! `crates/sim/src/validate.rs` is one map and one sorted sweep.
//! `validate()` must return the *identical* `Result` on every image:
//! variant, coordinates, block name and payload, so also the same
//! *first* error when an image carries several.

use std::collections::HashMap;
use voltron_ir::verify::check_mcode_inst;
use voltron_ir::{Dir, ExecMode, Inst, Opcode, Operand, RegClass};
use voltron_sim::{MachineConfig, MachineProgram, RegionId, Site, ValidateError};

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

/// What [`MachineProgram::validate`] must return for `p` under `cfg`.
pub fn validate_oracle(p: &MachineProgram, cfg: &MachineConfig) -> Result<(), ValidateError> {
    let n = p.cores.len();
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

    for (core, img) in p.cores.iter().enumerate() {
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
                check_one(p, inst, core, n, geo, site())?;
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
                        let t = latches
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
    p: &MachineProgram,
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
            let blocks = p.cores[to].blocks.len();
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
fn send_tag(inst: &Inst) -> u32 {
    match inst.srcs.get(2) {
        Some(Operand::Imm(t)) => *t as u32,
        _ => 0,
    }
}

/// The CAM tag of a RECV site (optional second operand, default 0).
fn recv_tag(inst: &Inst) -> u32 {
    match inst.srcs.get(1) {
        Some(Operand::Imm(t)) => *t as u32,
        _ => 0,
    }
}
