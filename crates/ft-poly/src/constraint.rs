//! Constraints and conjunction systems.

use crate::linexpr::LinExpr;
use std::collections::BTreeSet;
use std::fmt;

/// The sense of a [`Constraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `expr >= 0`.
    Ge0,
    /// `expr == 0`.
    Eq0,
}

/// A single affine constraint: `expr >= 0` or `expr == 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The affine expression.
    pub expr: LinExpr,
    /// Whether this is an inequality or an equality.
    pub op: CmpOp,
}

impl Constraint {
    /// `expr >= 0`.
    pub fn ge0(expr: LinExpr) -> Constraint {
        Constraint {
            expr,
            op: CmpOp::Ge0,
        }
    }

    /// `expr == 0`.
    pub fn eq0(expr: LinExpr) -> Constraint {
        Constraint {
            expr,
            op: CmpOp::Eq0,
        }
    }

    /// `a >= b`.
    pub fn ge(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::ge0(a - b)
    }

    /// `a <= b`.
    pub fn le(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::ge0(b - a)
    }

    /// `a > b` (integer: `a >= b + 1`).
    pub fn gt(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::ge0(a - b - 1)
    }

    /// `a < b` (integer: `a <= b - 1`).
    pub fn lt(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::ge0(b - a - 1)
    }

    /// `a == b`.
    pub fn eq(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::eq0(a - b)
    }

    /// Substitute a variable in the constraint.
    pub fn subst(&self, name: &str, value: &LinExpr) -> Constraint {
        Constraint {
            expr: self.expr.subst(name, value),
            op: self.op,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            CmpOp::Ge0 => write!(f, "{} >= 0", self.expr),
            CmpOp::Eq0 => write!(f, "{} = 0", self.expr),
        }
    }
}

/// A conjunction of affine constraints over integer variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct System {
    /// The conjuncts.
    pub constraints: Vec<Constraint>,
}

impl System {
    /// The empty conjunction (trivially satisfiable).
    pub fn new() -> System {
        System::default()
    }

    /// Add a constraint (builder style).
    pub fn with(mut self, c: Constraint) -> System {
        self.constraints.push(c);
        self
    }

    /// Add a constraint in place.
    pub fn push(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Conjoin all constraints of `other`.
    pub fn extend(&mut self, other: &System) {
        self.constraints.extend(other.constraints.iter().cloned());
    }

    /// All variable names mentioned by the system.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for c in &self.constraints {
            for v in c.expr.vars() {
                out.insert(v.to_string());
            }
        }
        out
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_constructors() {
        let a = LinExpr::var("a");
        let b = LinExpr::var("b");
        // a < b  <=>  b - a - 1 >= 0
        let c = Constraint::lt(a.clone(), b.clone());
        assert_eq!(c.expr.coeff("a"), -1);
        assert_eq!(c.expr.coeff("b"), 1);
        assert_eq!(c.expr.constant_term(), -1);
        assert_eq!(c.op, CmpOp::Ge0);
        let e = Constraint::eq(a, b);
        assert_eq!(e.op, CmpOp::Eq0);
    }

    #[test]
    fn system_vars_are_collected() {
        let sys = System::new()
            .with(Constraint::ge0(LinExpr::var("i")))
            .with(Constraint::eq(LinExpr::var("j"), LinExpr::var("k")));
        let vars = sys.vars();
        assert_eq!(
            vars.into_iter().collect::<Vec<_>>(),
            vec!["i".to_string(), "j".to_string(), "k".to_string()]
        );
    }

    #[test]
    fn display() {
        let sys = System::new().with(Constraint::ge0(LinExpr::var("i") - 1));
        assert_eq!(sys.to_string(), "{ i - 1 >= 0 }");
    }
}
