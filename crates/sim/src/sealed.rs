//! The sealed image: a [`MachineProgram`] checked and validated once for
//! its core count, and decoded once for every machine booted on it
//! (DESIGN.md §13.2).

use crate::config::MachineConfig;
use crate::decode::DecodedProgram;
use crate::machine::SimError;
use crate::mcode::{MachineProgram, REGION_OUTSIDE};
use std::sync::{Arc, OnceLock};

/// A [`MachineProgram`] that passed validation for its core count.
/// [`SealedImage::seal`] is the only constructor, so a machine booted on
/// one has nothing left to validate.
#[derive(Debug)]
pub struct SealedImage {
    program: Arc<MachineProgram>,
    /// Region-table slots: one per region id of the master core (region
    /// attribution follows it) plus the [`REGION_OUTSIDE`] sentinel.
    region_slots: usize,
    /// `program` lowered for the cycle loop by the first machine to tick.
    decoded: OnceLock<DecodedProgram>,
}

impl SealedImage {
    /// Check and validate `program` for a machine of `cfg.cores` cores.
    /// Only what comes from the image is checked here; the watchdogs are
    /// the boot config's, checked by [`crate::Machine::boot`].
    ///
    /// # Errors
    /// [`SimError::Malformed`] when the image count mismatches the
    /// configuration or the machine code fails its structural check;
    /// [`SimError::Validate`] when the images fail the static cross-core
    /// consistency pass.
    pub fn seal(
        program: Arc<MachineProgram>,
        cfg: &MachineConfig,
    ) -> Result<Arc<SealedImage>, SimError> {
        check_shape(&program, cfg)?;
        program.check().map_err(SimError::Malformed)?;
        program.validate(cfg)?;
        let region_slots = program.cores[0]
            .blocks
            .iter()
            .map(|b| b.region)
            .filter(|&r| r != REGION_OUTSIDE)
            .max()
            .map_or(0, |r| r as usize + 1)
            + 1;
        Ok(Arc::new(SealedImage {
            program,
            region_slots,
            decoded: OnceLock::new(),
        }))
    }

    /// The machine code.
    pub fn program(&self) -> &Arc<MachineProgram> {
        &self.program
    }

    pub(crate) fn region_slots(&self) -> usize {
        self.region_slots
    }

    /// What boot checks: that `cfg` is a machine of the sealed core
    /// count, with valid watchdogs. Nothing per instruction.
    pub(crate) fn admit(&self, cfg: &MachineConfig) -> Result<(), SimError> {
        check_shape(&self.program, cfg)?;
        cfg.watchdogs.validate().map_err(SimError::Malformed)
    }

    /// The decoded program, lowered by the first caller.
    pub(crate) fn decoded(&self) -> &DecodedProgram {
        self.decoded
            .get_or_init(|| DecodedProgram::new(&self.program))
    }
}

/// The core-count checks of sealing and boot. The cycle loop keeps its
/// core sets in `u64` words, so the count is bounded here.
fn check_shape(program: &MachineProgram, cfg: &MachineConfig) -> Result<(), SimError> {
    if cfg.cores == 0 || cfg.cores > 64 {
        return Err(SimError::Malformed(format!(
            "machine configured with {} cores; 1 to 64 are supported",
            cfg.cores
        )));
    }
    if program.cores.len() != cfg.cores {
        return Err(SimError::Malformed(format!(
            "program compiled for {} cores, machine has {}",
            program.cores.len(),
            cfg.cores
        )));
    }
    Ok(())
}
