//! Byte-addressable data memory shared by the interpreter and simulator.

use crate::program::DataSegment;
use std::fmt;

/// An out-of-range or misaligned memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemError {
    /// The faulting address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores.
    pub is_store: bool,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out-of-range {} of {} bytes at address {:#x}",
            if self.is_store { "store" } else { "load" },
            self.size,
            self.addr
        )
    }
}

impl std::error::Error for MemError {}

/// Data memory: the materialized data segment.
///
/// Bounds-checked so workload bugs surface as errors rather than silent
/// corruption. The functional state is *eager*: stores apply immediately;
/// the timing model (caches, coherence) lives entirely in `voltron-sim` and
/// never holds data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Materialize the data segment into runnable memory.
    pub fn from_data(data: &DataSegment) -> Memory {
        Memory {
            bytes: data.bytes.clone(),
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The raw bytes (for output comparison).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn range(&self, addr: u64, size: u64, is_store: bool) -> Result<usize, MemError> {
        let base = DataSegment::BASE;
        if addr < base || addr + size > base + self.bytes.len() as u64 {
            return Err(MemError {
                addr,
                size,
                is_store,
            });
        }
        Ok((addr - base) as usize)
    }

    /// Load `size` (1/2/4/8) bytes little-endian as an unsigned integer.
    ///
    /// # Errors
    /// Returns [`MemError`] if the access is out of range.
    pub fn load_uint(&self, addr: u64, size: u64) -> Result<u64, MemError> {
        let o = self.range(addr, size, false)?;
        let mut buf = [0u8; 8];
        buf[..size as usize].copy_from_slice(&self.bytes[o..o + size as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Store the low `size` bytes of `value` little-endian.
    ///
    /// # Errors
    /// Returns [`MemError`] if the access is out of range.
    pub fn store_uint(&mut self, addr: u64, size: u64, value: u64) -> Result<(), MemError> {
        let o = self.range(addr, size, true)?;
        self.bytes[o..o + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
        Ok(())
    }

    /// Load an `i64`.
    ///
    /// # Errors
    /// Returns [`MemError`] if the access is out of range.
    pub fn load_i64(&self, addr: u64) -> Result<i64, MemError> {
        Ok(self.load_uint(addr, 8)? as i64)
    }

    /// Load an `f64`.
    ///
    /// # Errors
    /// Returns [`MemError`] if the access is out of range.
    pub fn load_f64(&self, addr: u64) -> Result<f64, MemError> {
        Ok(f64::from_bits(self.load_uint(addr, 8)?))
    }

    /// Store an `f64`.
    ///
    /// # Errors
    /// Returns [`MemError`] if the access is out of range.
    pub fn store_f64(&mut self, addr: u64, v: f64) -> Result<(), MemError> {
        self.store_uint(addr, 8, v.to_bits())
    }

    /// Byte-wise equality with another memory, returning the first
    /// differing address if any (for golden-model comparison diagnostics).
    pub fn first_difference(&self, other: &Memory) -> Option<u64> {
        let n = self.bytes.len().min(other.bytes.len());
        for i in 0..n {
            if self.bytes[i] != other.bytes[i] {
                return Some(DataSegment::BASE + i as u64);
            }
        }
        if self.bytes.len() != other.bytes.len() {
            return Some(DataSegment::BASE + n as u64);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(n: usize) -> Memory {
        let mut d = DataSegment::default();
        d.zeroed("z", n as u64);
        Memory::from_data(&d)
    }

    #[test]
    fn load_store_round_trip() {
        let mut m = mem(64);
        let a = DataSegment::BASE + 8;
        m.store_uint(a, 8, 0xdead_beef_0bad_f00d).unwrap();
        assert_eq!(m.load_uint(a, 8).unwrap(), 0xdead_beef_0bad_f00d);
        assert_eq!(m.load_uint(a, 4).unwrap(), 0x0bad_f00d);
        m.store_f64(a, -2.5).unwrap();
        assert_eq!(m.load_f64(a).unwrap(), -2.5);
    }

    #[test]
    fn out_of_range_errors() {
        let mut m = mem(16);
        assert!(m.load_uint(DataSegment::BASE + 12, 8).is_err());
        assert!(m.store_uint(DataSegment::BASE - 1, 1, 0).is_err());
        assert!(m.load_uint(0, 8).is_err());
    }

    #[test]
    fn first_difference_finds_byte() {
        let mut a = mem(32);
        let b = mem(32);
        assert_eq!(a.first_difference(&b), None);
        a.store_uint(DataSegment::BASE + 5, 1, 9).unwrap();
        assert_eq!(a.first_difference(&b), Some(DataSegment::BASE + 5));
    }
}
