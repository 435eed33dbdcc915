//! Ergonomic constructors for IR nodes.
//!
//! These free functions are the Rust-embedded face of the DSL: together with
//! the operator overloads on [`Expr`] they let programs be written close to
//! the paper's Python-like surface syntax.
//!
//! ```
//! use ft_ir::prelude::*;
//!
//! // dot[k + w] += Q[j, p] * K[j + k, p]
//! let s = reduce(
//!     "dot",
//!     [var("k") + var("w")],
//!     ReduceOp::Add,
//!     load("Q", [var("j"), var("p")]) * load("K", [var("j") + var("k"), var("p")]),
//! );
//! assert!(matches!(s.kind, StmtKind::ReduceTo { .. }));
//! ```

use crate::expr::Expr;
use crate::stmt::{ForProperty, ReduceOp, Stmt, StmtKind};
use crate::types::{AccessType, DataType, MemType};

/// An integer scalar variable reference (loop iterator or size parameter).
pub fn var(name: impl Into<String>) -> Expr {
    Expr::Var(name.into())
}

/// Read one element of tensor `name` (empty `indices` reads a scalar tensor).
pub fn load<I>(name: impl Into<String>, indices: I) -> Expr
where
    I: IntoIterator,
    I::Item: Into<Expr>,
{
    Expr::Load {
        var: name.into(),
        indices: indices.into_iter().map(Into::into).collect(),
    }
}

/// A sequence of statements.
pub fn block(stmts: impl IntoIterator<Item = Stmt>) -> Stmt {
    Stmt::new(StmtKind::Block(stmts.into_iter().collect()))
}

/// `for iter in begin..end { body }` (serial, unit step).
pub fn for_(
    iter: impl Into<String>,
    begin: impl Into<Expr>,
    end: impl Into<Expr>,
    body: Stmt,
) -> Stmt {
    Stmt::new(StmtKind::For {
        iter: iter.into(),
        begin: begin.into(),
        end: end.into(),
        property: ForProperty::serial(),
        body: Box::new(body),
    })
}

/// A `for` loop with explicit scheduling attributes.
pub fn for_with(
    iter: impl Into<String>,
    begin: impl Into<Expr>,
    end: impl Into<Expr>,
    property: ForProperty,
    body: Stmt,
) -> Stmt {
    Stmt::new(StmtKind::For {
        iter: iter.into(),
        begin: begin.into(),
        end: end.into(),
        property,
        body: Box::new(body),
    })
}

/// One-armed conditional.
pub fn if_(cond: impl Into<Expr>, then: Stmt) -> Stmt {
    Stmt::new(StmtKind::If {
        cond: cond.into(),
        then: Box::new(then),
        otherwise: None,
    })
}

/// Two-armed conditional.
pub fn if_else(cond: impl Into<Expr>, then: Stmt, otherwise: Stmt) -> Stmt {
    Stmt::new(StmtKind::If {
        cond: cond.into(),
        then: Box::new(then),
        otherwise: Some(Box::new(otherwise)),
    })
}

/// `var[indices] = value`.
pub fn store<I>(name: impl Into<String>, indices: I, value: impl Into<Expr>) -> Stmt
where
    I: IntoIterator,
    I::Item: Into<Expr>,
{
    Stmt::new(StmtKind::Store {
        var: name.into(),
        indices: indices.into_iter().map(Into::into).collect(),
        value: value.into(),
    })
}

/// `var[indices] op= value`.
pub fn reduce<I>(name: impl Into<String>, indices: I, op: ReduceOp, value: impl Into<Expr>) -> Stmt
where
    I: IntoIterator,
    I::Item: Into<Expr>,
{
    Stmt::new(StmtKind::ReduceTo {
        var: name.into(),
        indices: indices.into_iter().map(Into::into).collect(),
        op,
        value: value.into(),
        atomic: false,
    })
}

/// Define a local tensor alive in `body` (paper `create_var`).
pub fn var_def<S>(
    name: impl Into<String>,
    shape: S,
    dtype: DataType,
    mtype: MemType,
    body: Stmt,
) -> Stmt
where
    S: IntoIterator,
    S::Item: Into<Expr>,
{
    Stmt::new(StmtKind::VarDef {
        name: name.into(),
        shape: shape.into_iter().map(Into::into).collect(),
        dtype,
        mtype,
        atype: AccessType::Cache,
        body: Box::new(body),
    })
}

/// The no-op statement.
pub fn empty() -> Stmt {
    Stmt::new(StmtKind::Empty)
}

/// An empty index list, for accessing 0-D (scalar) tensors:
/// `store("acc", scalar(), 0.0f32)`.
pub fn scalar() -> [Expr; 0] {
    []
}

/// Build an index list from mixed operands (anything `Into<Expr>`):
/// `idx![var("i") + 1, 0]`.
#[macro_export]
macro_rules! idx {
    ($($e:expr),* $(,)?) => { [$( $crate::Expr::from($e) ),*] };
}

/// Unary helpers mirroring libop's scalar intrinsics.
pub mod intrin {
    use crate::expr::{Expr, UnaryOp};

    /// Absolute value.
    pub fn abs(a: impl Into<Expr>) -> Expr {
        Expr::unary(UnaryOp::Abs, a.into())
    }

    /// Square root.
    pub fn sqrt(a: impl Into<Expr>) -> Expr {
        Expr::unary(UnaryOp::Sqrt, a.into())
    }

    /// Natural exponential.
    pub fn exp(a: impl Into<Expr>) -> Expr {
        Expr::unary(UnaryOp::Exp, a.into())
    }

    /// Natural logarithm.
    pub fn ln(a: impl Into<Expr>) -> Expr {
        Expr::unary(UnaryOp::Ln, a.into())
    }

    /// Logistic sigmoid.
    pub fn sigmoid(a: impl Into<Expr>) -> Expr {
        Expr::unary(UnaryOp::Sigmoid, a.into())
    }

    /// Hyperbolic tangent.
    pub fn tanh(a: impl Into<Expr>) -> Expr {
        Expr::unary(UnaryOp::Tanh, a.into())
    }

    /// Sign.
    pub fn sign(a: impl Into<Expr>) -> Expr {
        Expr::unary(UnaryOp::Sign, a.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ParallelScope;

    #[test]
    fn builders_produce_expected_kinds() {
        assert!(matches!(var("i"), Expr::Var(_)));
        assert!(matches!(load("a", [var("i")]), Expr::Load { .. }));
        assert!(matches!(block([]).kind, StmtKind::Block(_)));
        assert!(matches!(
            for_("i", 0, 4, empty()).kind,
            StmtKind::For { .. }
        ));
        assert!(matches!(if_(true, empty()).kind, StmtKind::If { .. }));
        assert!(matches!(
            store("a", [0], 0.0f32).kind,
            StmtKind::Store { .. }
        ));
        assert!(matches!(
            var_def("t", [4], DataType::F32, MemType::CpuHeap, empty()).kind,
            StmtKind::VarDef { .. }
        ));
    }

    #[test]
    fn for_with_carries_property() {
        let p = ForProperty::parallel(ParallelScope::OpenMp);
        let s = for_with("i", 0, 4, p.clone(), empty());
        match s.kind {
            StmtKind::For { property, .. } => assert_eq!(property, p),
            _ => unreachable!(),
        }
    }

    #[test]
    fn scalar_store_has_no_indices() {
        let s = store("acc", Vec::<Expr>::new(), 1.0f32);
        match s.kind {
            StmtKind::Store { indices, .. } => assert!(indices.is_empty()),
            _ => unreachable!(),
        }
    }
}
