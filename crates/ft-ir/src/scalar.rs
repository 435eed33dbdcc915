//! What an operator means, said once.
//!
//! The constant folder, the interpreter, the VM and the extent evaluator all
//! compute a [`UnaryOp`], [`BinaryOp`], [`ReduceOp`] or cast through this
//! module, and the C that `ft-codegen` spells is tested against it
//! (`tests/operator_semantics.rs`). The rules:
//!
//! * A value is an [`Int`](Scalar::Int) (`i32`/`i64` storage), a
//!   [`Float`](Scalar::Float) (`f32`/`f64` storage, computed in `f64`) or a
//!   [`Bool`](Scalar::Bool). Arithmetic with a `Float` operand is float
//!   arithmetic; otherwise it is integer arithmetic, a `Bool` counting as
//!   0/1. The result kind is the one [`Expr::dtype`](crate::Expr::dtype)
//!   infers.
//! * Integer `+ - *`, `Neg` and `Abs` wrap. Integer `/` and `%` are *floor*
//!   division — the quotient rounds toward negative infinity, the remainder
//!   has the divisor's sign — and a zero divisor is [`DivisionByZero`].
//! * Float `%` is the same floor remainder (`fmod`, moved to the divisor's
//!   sign); float `min`/`max` ignore a NaN operand.
//! * `Pow` is always float, as are `Sqrt`, `Exp`, `Ln`, `Sigmoid`, `Tanh`.
//! * Two `Int`s compare exactly; any other pair compares as `f64`. `And`,
//!   `Or`, `Not` and a `Bool` cast read truthiness (non-zero; NaN is true).
//! * Float → integer casts truncate toward zero, saturating at the `i64`
//!   range with NaN → 0 (C leaves those cases undefined, so the compiled
//!   engine may differ there); an `I32` cast then wraps, an `F32` cast rounds.
//!
//! [`unary`], [`binary`], [`reduce`] and [`cast`] are total. The per-type
//! primitives under them (what the VM's typed opcodes call) each take the
//! operators their summary lists and panic on any other: reaching one with
//! an operator of another kind is a bug in the caller's typing.

use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::stmt::ReduceOp;
use crate::types::DataType;

/// One scalar value, as every engine holds it between a load and a store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Integer value (covers I32/I64 storage).
    Int(i64),
    /// Floating value (covers F32/F64 storage).
    Float(f64),
    /// Boolean value.
    Bool(bool),
}

impl Scalar {
    /// Numeric value as f64 (booleans as 0/1).
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::Int(v) => v as f64,
            Scalar::Float(v) => v,
            Scalar::Bool(b) => b as i64 as f64,
        }
    }

    /// Numeric value as i64 (floats truncated toward zero, saturating).
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Float(v) => v as i64,
            Scalar::Bool(b) => b as i64,
        }
    }

    /// Truthiness.
    pub fn as_bool(self) -> bool {
        match self {
            Scalar::Int(v) => v != 0,
            Scalar::Float(v) => v != 0.0,
            Scalar::Bool(b) => b,
        }
    }

    /// The value of a literal expression.
    pub fn of_const(e: &Expr) -> Option<Scalar> {
        match e {
            Expr::IntConst(v) => Some(Scalar::Int(*v)),
            Expr::FloatConst(v) => Some(Scalar::Float(*v)),
            Expr::BoolConst(v) => Some(Scalar::Bool(*v)),
            _ => None,
        }
    }

    /// The literal expression of this value.
    pub fn to_const(self) -> Expr {
        match self {
            Scalar::Int(v) => Expr::IntConst(v),
            Scalar::Float(v) => Expr::FloatConst(v),
            Scalar::Bool(v) => Expr::BoolConst(v),
        }
    }
}

/// An integer `/` or `%` met a zero divisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivisionByZero;

/// Integer `Add`, `Sub`, `Mul`, `Div`, `Mod`, `Min`, `Max`.
#[inline(always)]
pub fn int_binary(op: BinaryOp, x: i64, y: i64) -> Result<i64, DivisionByZero> {
    // Floor division from the truncating one, as `ft_fdiv`/`ft_fmod` in
    // the emitted C: step down when the remainder's sign is not `y`'s.
    let steps_down = |r: i64| r != 0 && ((r < 0) != (y < 0));
    Ok(match op {
        BinaryOp::Add => x.wrapping_add(y),
        BinaryOp::Sub => x.wrapping_sub(y),
        BinaryOp::Mul => x.wrapping_mul(y),
        BinaryOp::Div | BinaryOp::Mod if y == 0 => return Err(DivisionByZero),
        BinaryOp::Div if steps_down(x.wrapping_rem(y)) => x.wrapping_div(y) - 1,
        BinaryOp::Div => x.wrapping_div(y),
        BinaryOp::Mod if steps_down(x.wrapping_rem(y)) => x.wrapping_rem(y) + y,
        BinaryOp::Mod => x.wrapping_rem(y),
        BinaryOp::Min => x.min(y),
        BinaryOp::Max => x.max(y),
        _ => unreachable!("`{}` has no integer form", op.name()),
    })
}

/// [`int_binary`] when the result is the mathematical one: `None` where it
/// would wrap, and on a zero divisor.
pub fn checked_int_binary(op: BinaryOp, x: i64, y: i64) -> Option<i64> {
    match op {
        BinaryOp::Add => x.checked_add(y),
        BinaryOp::Sub => x.checked_sub(y),
        BinaryOp::Mul => x.checked_mul(y),
        BinaryOp::Div | BinaryOp::Mod if x == i64::MIN && y == -1 => None,
        _ => int_binary(op, x, y).ok(),
    }
}

/// Float `Add`, `Sub`, `Mul`, `Div`, `Mod`, `Min`, `Max`, `Pow`.
#[inline(always)]
pub fn float_binary(op: BinaryOp, x: f64, y: f64) -> f64 {
    match op {
        BinaryOp::Add => x + y,
        BinaryOp::Sub => x - y,
        BinaryOp::Mul => x * y,
        BinaryOp::Div => x / y,
        BinaryOp::Mod => match x % y {
            r if r != 0.0 && ((r < 0.0) != (y < 0.0)) => r + y,
            r => r,
        },
        BinaryOp::Min => x.min(y),
        BinaryOp::Max => x.max(y),
        BinaryOp::Pow => x.powf(y),
        _ => unreachable!("`{}` has no float form", op.name()),
    }
}

/// `Eq`, `Ne`, `Lt`, `Le`, `Gt`, `Ge` over one operand type.
#[inline(always)]
pub fn compare<T: PartialOrd>(op: BinaryOp, x: T, y: T) -> bool {
    match op {
        BinaryOp::Eq => x == y,
        BinaryOp::Ne => x != y,
        BinaryOp::Lt => x < y,
        BinaryOp::Le => x <= y,
        BinaryOp::Gt => x > y,
        BinaryOp::Ge => x >= y,
        _ => unreachable!("`{}` is not a comparison", op.name()),
    }
}

/// `And`, `Or` over truth values.
#[inline(always)]
pub fn logic(op: BinaryOp, x: bool, y: bool) -> bool {
    match op {
        BinaryOp::And => x && y,
        BinaryOp::Or => x || y,
        _ => unreachable!("`{}` is not a connective", op.name()),
    }
}

/// Integer `Neg`, `Abs`, `Sign`.
#[inline(always)]
pub fn int_unary(op: UnaryOp, x: i64) -> i64 {
    match op {
        UnaryOp::Neg => x.wrapping_neg(),
        UnaryOp::Abs => x.wrapping_abs(),
        UnaryOp::Sign => x.signum(),
        _ => unreachable!("`{}` has no integer form", op.name()),
    }
}

/// Every [`UnaryOp`] but `Not`, on a float. `Sign` of a NaN or a zero is
/// `0.0`.
#[inline(always)]
pub fn float_unary(op: UnaryOp, x: f64) -> f64 {
    match op {
        UnaryOp::Neg => -x,
        UnaryOp::Abs => x.abs(),
        UnaryOp::Sign => ((x > 0.0) as i8 - (x < 0.0) as i8) as f64,
        UnaryOp::Sqrt => x.sqrt(),
        UnaryOp::Exp => x.exp(),
        UnaryOp::Ln => x.ln(),
        UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        UnaryOp::Tanh => x.tanh(),
        UnaryOp::Not => unreachable!("`not` has no float form"),
    }
}

/// `op x`.
#[inline]
pub fn unary(op: UnaryOp, x: Scalar) -> Scalar {
    match (op, x) {
        (UnaryOp::Not, _) => Scalar::Bool(!x.as_bool()),
        (UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign, Scalar::Int(_) | Scalar::Bool(_)) => {
            Scalar::Int(int_unary(op, x.as_i64()))
        }
        _ => Scalar::Float(float_unary(op, x.as_f64())),
    }
}

/// `x op y`.
///
/// # Errors
///
/// [`DivisionByZero`] for an integer `/` or `%` by zero.
#[inline(always)]
pub fn binary(op: BinaryOp, x: Scalar, y: Scalar) -> Result<Scalar, DivisionByZero> {
    use BinaryOp::*;
    let float = matches!(x, Scalar::Float(_)) || matches!(y, Scalar::Float(_));
    Ok(match op {
        And | Or => Scalar::Bool(logic(op, x.as_bool(), y.as_bool())),
        Eq | Ne | Lt | Le | Gt | Ge => Scalar::Bool(match (x, y) {
            (Scalar::Int(a), Scalar::Int(b)) => compare(op, a, b),
            _ => compare(op, x.as_f64(), y.as_f64()),
        }),
        Add | Sub | Mul | Div | Mod | Min | Max if !float => {
            Scalar::Int(int_binary(op, x.as_i64(), y.as_i64())?)
        }
        _ => Scalar::Float(float_binary(op, x.as_f64(), y.as_f64())),
    })
}

/// `old op= v`: the binary operator of the same name. One call per arm, so
/// each arm is that operator's two lines; and not `#[inline]`, so the
/// VM's dispatch loop calls it (inlined there it cost the loop 15 %).
pub fn reduce(op: ReduceOp, old: Scalar, v: Scalar) -> Scalar {
    let r = match op {
        ReduceOp::Add => binary(BinaryOp::Add, old, v),
        ReduceOp::Mul => binary(BinaryOp::Mul, old, v),
        ReduceOp::Min => binary(BinaryOp::Min, old, v),
        ReduceOp::Max => binary(BinaryOp::Max, old, v),
    };
    match r {
        Ok(v) => v,
        Err(DivisionByZero) => unreachable!("no reduction divides"),
    }
}

/// `x` converted to `dtype`.
#[inline]
pub fn cast(dtype: DataType, x: Scalar) -> Scalar {
    match dtype {
        DataType::F32 => Scalar::Float(x.as_f64() as f32 as f64),
        DataType::F64 => Scalar::Float(x.as_f64()),
        DataType::I32 => Scalar::Int(x.as_i64() as i32 as i64),
        DataType::I64 => Scalar::Int(x.as_i64()),
        DataType::Bool => Scalar::Bool(x.as_bool()),
    }
}
