//! Shared operational semantics for ALU-class operations.
//!
//! Both the reference interpreter and the cycle-level simulator evaluate
//! instructions through these functions, so functional behavior cannot
//! diverge between the golden model and the machine.

use crate::opcode::{CmpCc, Opcode, Signedness};

/// Evaluate an integer two-operand ALU operation.
///
/// Division and remainder by zero are defined to produce 0 (the machine
/// has no exceptions).
///
/// # Panics
/// Panics if `op` is not an integer binary ALU opcode.
pub fn int_binop(op: Opcode, a: i64, b: i64) -> i64 {
    match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Div => {
            if b == 0 || (a == i64::MIN && b == -1) {
                0
            } else {
                a / b
            }
        }
        Opcode::Rem => {
            if b == 0 || (a == i64::MIN && b == -1) {
                0
            } else {
                a % b
            }
        }
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl((b & 63) as u32),
        Opcode::Shr => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
        Opcode::Sar => a.wrapping_shr((b & 63) as u32),
        Opcode::Min => a.min(b),
        Opcode::Max => a.max(b),
        other => panic!("not an integer binop: {other:?}"),
    }
}

/// Evaluate a float two-operand ALU operation.
///
/// # Panics
/// Panics if `op` is not a float binary ALU opcode.
pub fn float_binop(op: Opcode, a: f64, b: f64) -> f64 {
    match op {
        Opcode::Fadd => a + b,
        Opcode::Fsub => a - b,
        Opcode::Fmul => a * b,
        Opcode::Fdiv => a / b,
        Opcode::Fmin => a.min(b),
        Opcode::Fmax => a.max(b),
        other => panic!("not a float binop: {other:?}"),
    }
}

/// Evaluate a float unary operation ([`Opcode::Fabs`], [`Opcode::Fneg`],
/// [`Opcode::Fsqrt`]).
///
/// # Panics
/// Panics if `op` is not a float unary opcode.
pub fn float_unop(op: Opcode, a: f64) -> f64 {
    match op {
        Opcode::Fabs => a.abs(),
        Opcode::Fneg => -a,
        Opcode::Fsqrt => a.sqrt(),
        other => panic!("not a float unop: {other:?}"),
    }
}

/// Evaluate an integer comparison.
pub fn int_cmp(cc: CmpCc, a: i64, b: i64) -> bool {
    match cc {
        CmpCc::Eq => a == b,
        CmpCc::Ne => a != b,
        CmpCc::Lt => a < b,
        CmpCc::Le => a <= b,
        CmpCc::Gt => a > b,
        CmpCc::Ge => a >= b,
        CmpCc::Ltu => (a as u64) < (b as u64),
        CmpCc::Geu => (a as u64) >= (b as u64),
    }
}

/// Evaluate a float comparison (unsigned variants compare absolute values;
/// NaN compares false for everything except `Ne`).
pub fn float_cmp(cc: CmpCc, a: f64, b: f64) -> bool {
    match cc {
        CmpCc::Eq => a == b,
        CmpCc::Ne => a != b,
        CmpCc::Lt => a < b,
        CmpCc::Le => a <= b,
        CmpCc::Gt => a > b,
        CmpCc::Ge => a >= b,
        CmpCc::Ltu => a.abs() < b.abs(),
        CmpCc::Geu => a.abs() >= b.abs(),
    }
}

/// Evaluate a two-operand predicate operation ([`Opcode::PAnd`],
/// [`Opcode::POr`]).
///
/// # Panics
/// Panics if `op` is not a binary predicate opcode.
pub fn pred_binop(op: Opcode, a: bool, b: bool) -> bool {
    match op {
        Opcode::PAnd => a && b,
        Opcode::POr => a || b,
        other => panic!("not a predicate binop: {other:?}"),
    }
}

/// [`Opcode::ItoF`]: nearest-representable conversion.
pub fn int_to_float(a: i64) -> f64 {
    a as f64
}

/// [`Opcode::FtoI`]: truncating, saturating conversion (NaN yields 0).
pub fn float_to_int(a: f64) -> i64 {
    a as i64
}

/// [`Opcode::GtoP`]: nonzero is true.
pub fn int_to_pred(a: i64) -> bool {
    a != 0
}

/// Widen the raw bits an [`Opcode::Fload4`] read to the f64 it produces.
pub fn widen_f32(raw: u32) -> f64 {
    f64::from(f32::from_bits(raw))
}

/// Narrow an f64 to the raw f32 bits an [`Opcode::Fstore4`] writes.
pub fn narrow_f32(v: f64) -> u32 {
    (v as f32).to_bits()
}

/// Extend a loaded raw little-endian value per width and signedness.
pub fn extend_load(raw: u64, bytes: u64, sign: Signedness) -> i64 {
    match (bytes, sign) {
        (1, Signedness::Signed) => raw as u8 as i8 as i64,
        (2, Signedness::Signed) => raw as u16 as i16 as i64,
        (4, Signedness::Signed) => raw as u32 as i32 as i64,
        (8, _) => raw as i64,
        (1, Signedness::Unsigned) => raw as u8 as i64,
        (2, Signedness::Unsigned) => raw as u16 as i64,
        (4, Signedness::Unsigned) => raw as u32 as i64,
        _ => unreachable!("invalid load width {bytes}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_by_zero_is_zero() {
        assert_eq!(int_binop(Opcode::Div, 5, 0), 0);
        assert_eq!(int_binop(Opcode::Rem, 5, 0), 0);
        assert_eq!(int_binop(Opcode::Div, i64::MIN, -1), 0);
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(int_binop(Opcode::Shl, 1, 64), 1);
        assert_eq!(int_binop(Opcode::Shr, -1, 60), 0xf);
        assert_eq!(int_binop(Opcode::Sar, -16, 2), -4);
    }

    #[test]
    fn unsigned_compare() {
        assert!(int_cmp(CmpCc::Ltu, 1, -1));
        assert!(!int_cmp(CmpCc::Lt, 1, -1));
        assert!(int_cmp(CmpCc::Geu, -1, 1));
    }

    #[test]
    fn extend_load_signs_correctly() {
        assert_eq!(extend_load(0xff, 1, Signedness::Signed), -1);
        assert_eq!(extend_load(0xff, 1, Signedness::Unsigned), 255);
        assert_eq!(extend_load(0x8000, 2, Signedness::Signed), -32768);
        assert_eq!(
            extend_load(0xffff_ffff, 4, Signedness::Unsigned),
            0xffff_ffff
        );
    }

    #[test]
    fn float_ops() {
        assert_eq!(float_binop(Opcode::Fadd, 1.5, 2.5), 4.0);
        assert_eq!(float_unop(Opcode::Fneg, 3.0), -3.0);
        assert!(float_cmp(CmpCc::Lt, 1.0, 2.0));
        assert!(!float_cmp(CmpCc::Lt, f64::NAN, 2.0));
    }

    #[test]
    fn conversions_and_predicates() {
        assert!(pred_binop(Opcode::POr, false, true));
        assert!(!pred_binop(Opcode::PAnd, false, true));
        assert_eq!(float_to_int(-2.9), -2);
        assert_eq!(float_to_int(f64::NAN), 0);
        assert_eq!(int_to_float(3), 3.0);
        assert!(int_to_pred(-1) && !int_to_pred(0));
        assert_eq!(widen_f32(narrow_f32(2.5)), 2.5);
    }
}
