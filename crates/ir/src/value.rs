//! Runtime values flowing through registers.

use crate::program::BlockId;
use crate::reg::RegClass;
use std::fmt;

/// A dynamic value held in a register or message.
///
/// The scalar operand network carries any of these (the paper's network is
/// 64 bits wide plus a small type/route header).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer (GPR contents).
    Int(i64),
    /// 64-bit float (FPR contents).
    Float(f64),
    /// Predicate bit (PR contents).
    Pred(bool),
    /// Branch target (BTR contents). Block ids are per-core-image after
    /// lowering, function-local in the IR.
    Target(BlockId),
}

impl Value {
    /// The register class this value naturally belongs to.
    pub fn class(&self) -> RegClass {
        match self {
            Value::Int(_) => RegClass::Gpr,
            Value::Float(_) => RegClass::Fpr,
            Value::Pred(_) => RegClass::Pred,
            Value::Target(_) => RegClass::Btr,
        }
    }

    /// Interpret as integer.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Int`]; the verifier guarantees
    /// well-typed programs never hit this.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected int value, found {other:?}"),
        }
    }

    /// Interpret as float.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Float`].
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            other => panic!("expected float value, found {other:?}"),
        }
    }

    /// Interpret as predicate.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Pred`].
    pub fn as_pred(&self) -> bool {
        match self {
            Value::Pred(v) => *v,
            other => panic!("expected predicate value, found {other:?}"),
        }
    }

    /// Interpret as branch target.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Target`].
    pub fn as_target(&self) -> BlockId {
        match self {
            Value::Target(v) => *v,
            other => panic!("expected target value, found {other:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Pred(v) => write!(f, "{}", if *v { 1 } else { 0 }),
            Value::Target(b) => write!(f, "@{}", b.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_round_trip() {
        assert_eq!(Value::Int(1).class(), RegClass::Gpr);
        assert_eq!(Value::Float(1.0).class(), RegClass::Fpr);
        assert_eq!(Value::Pred(true).class(), RegClass::Pred);
        assert_eq!(Value::Target(BlockId(2)).class(), RegClass::Btr);
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn as_int_panics_on_float() {
        Value::Float(1.0).as_int();
    }
}
