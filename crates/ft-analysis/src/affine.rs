//! Extraction of affine forms from IR expressions.
//!
//! Subscripts and loop bounds that are affine in the surrounding iterators
//! and size parameters become [`LinExpr`]s, enabling exact polyhedral
//! reasoning. Anything else (indirect loads like `adj[i, j]`, `%`, `/`,
//! products of variables) yields `None` and is treated conservatively by the
//! dependence engine.

use ft_ir::{BinaryOp, Expr, UnaryOp};
use ft_poly::{CmpOp, Constraint, LinExpr, System};

/// An affine form `Σ cᵢ·xᵢ + c` over variables of type `V`. Terms are in
/// no particular order and a variable may repeat (its coefficient is the sum
/// of its terms) until [`Affine::normalized`].
#[derive(Debug, Clone, PartialEq)]
pub struct Affine<V> {
    /// `(variable, coefficient)` terms.
    pub terms: Vec<(V, i64)>,
    /// The constant term.
    pub constant: i64,
}

impl<V: Clone + PartialEq> Affine<V> {
    pub(crate) fn constant(c: i64) -> Affine<V> {
        Affine {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// `k` times the form.
    pub fn scaled(mut self, k: i64) -> Affine<V> {
        self.terms.iter_mut().for_each(|(_, c)| *c *= k);
        self.constant *= k;
        self
    }

    pub(crate) fn plus(mut self, other: Affine<V>) -> Affine<V> {
        self.terms.extend(other.terms);
        self.constant += other.constant;
        self
    }

    pub(crate) fn minus(self, other: Affine<V>) -> Affine<V> {
        self.plus(other.scaled(-1))
    }

    /// Each variable once, zero coefficients dropped (first-occurrence
    /// order).
    pub fn normalized(mut self) -> Affine<V> {
        let mut out: Vec<(V, i64)> = Vec::with_capacity(self.terms.len());
        for (v, c) in self.terms.drain(..) {
            match out.iter_mut().find(|(w, _)| *w == v) {
                Some((_, d)) => *d += c,
                None => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| *c != 0);
        self.terms = out;
        self
    }

    /// The value, when no variable is left once normalized.
    fn into_constant(self) -> Result<i64, Affine<V>> {
        let n = self.normalized();
        if n.terms.is_empty() {
            Ok(n.constant)
        } else {
            Err(n)
        }
    }

    /// The form of a leaf: a literal, or a variable named through `var`.
    pub fn leaf<'e>(e: &'e Expr, var: impl FnOnce(&'e str) -> V) -> Option<Affine<V>> {
        match e {
            Expr::IntConst(v) => Some(Affine::constant(*v)),
            Expr::Var(n) => Some(Affine {
                terms: vec![(var(n), 1)],
                constant: 0,
            }),
            _ => None,
        }
    }

    /// The form of `a op b` from the operands' forms, when affine. (A
    /// negation is [`Affine::scaled`] by −1, a cast to an integer type its
    /// operand's form.)
    pub fn binary(op: BinaryOp, la: Option<Affine<V>>, lb: Option<Affine<V>>) -> Option<Affine<V>> {
        match op {
            BinaryOp::Add => Some(la?.plus(lb?)),
            BinaryOp::Sub => Some(la?.minus(lb?)),
            // Affine only when one side is constant.
            BinaryOp::Mul => match (la?.into_constant(), lb?.into_constant()) {
                (Ok(k), Ok(c)) => Some(Affine::constant(k * c)),
                (Ok(k), Err(l)) | (Err(l), Ok(k)) => Some(l.scaled(k)),
                (Err(_), Err(_)) => None,
            },
            BinaryOp::Div => {
                // Exact constant division only.
                let d = lb?.into_constant().ok()?;
                let la = la?.normalized();
                if d != 0 && la.constant % d == 0 && la.terms.iter().all(|(_, c)| c % d == 0) {
                    Some(Affine {
                        terms: la.terms.into_iter().map(|(v, c)| (v, c / d)).collect(),
                        constant: la.constant / d,
                    })
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl<V: AsRef<str>> Affine<V> {
    /// The node count of [`linexpr_to_expr`] of a normalized form, without
    /// building it.
    pub fn expr_node_count(&self) -> usize {
        let terms: usize = self
            .terms
            .iter()
            .map(|(_, c)| if *c == 1 { 1 } else { 3 })
            .sum();
        match (self.terms.len(), self.constant) {
            (0, _) => 1,
            (n, 0) => terms + n - 1,
            (n, _) => terms + n + 1,
        }
    }

    /// The expression in normal form ([`linexpr_to_expr`]).
    pub fn to_expr(&self) -> Expr {
        let terms = self.terms.iter().map(|(v, c)| (v.as_ref(), *c));
        linexpr_to_expr(&linexpr(Affine {
            terms: terms.collect(),
            constant: self.constant,
        }))
    }
}

/// The affine form of an integer expression, each variable name mapped
/// through `var` (a dependence query names the two instances' iterators
/// apart this way). `None` when the expression is not affine.
pub(crate) fn affine<'e, V: Copy + PartialEq>(
    e: &'e Expr,
    var: &mut impl FnMut(&'e str) -> V,
) -> Option<Affine<V>> {
    match e {
        Expr::Unary {
            op: UnaryOp::Neg,
            a,
        } => Some(affine(a, var)?.scaled(-1)),
        Expr::Binary { op, a, b } => Affine::binary(*op, affine(a, var), affine(b, var)),
        Expr::Cast { dtype, a } if dtype.is_int() => affine(a, var),
        e => Affine::leaf(e, var),
    }
}

/// Convert an expression to an affine form over its variable names.
///
/// Returns `None` when the expression is not affine.
pub fn to_linexpr(e: &Expr) -> Option<LinExpr> {
    affine(e, &mut |n| n).map(linexpr)
}

fn linexpr(a: Affine<&str>) -> LinExpr {
    a.terms
        .into_iter()
        .fold(LinExpr::constant(a.constant), |l, (n, c)| {
            l + LinExpr::term(n, c)
        })
}

/// The constraints a branch condition (`taken`) or its negation (`!taken`)
/// adds, each passed to `push` as `form op 0`.
///
/// Returns `true` when the condition was captured exactly; `false` when it
/// was (partially) dropped, leaving the constraints an over-approximation of
/// the condition's domain — the conservative direction for dependence
/// testing. A conjunction is captured conjunct by conjunct; its negation
/// (a disjunction) is dropped.
pub(crate) fn cond_constraints<'e, V: Copy + PartialEq>(
    cond: &'e Expr,
    taken: bool,
    var: &mut impl FnMut(&'e str) -> V,
    push: &mut impl FnMut(CmpOp, Affine<V>),
) -> bool {
    match cond {
        Expr::Binary {
            op: BinaryOp::And,
            a,
            b,
        } if taken => {
            // Both conjuncts add constraints; exact iff both exact.
            let ea = cond_constraints(a, true, var, push);
            let eb = cond_constraints(b, true, var, push);
            ea && eb
        }
        Expr::Binary { op, a, b } => {
            if !taken
                && !matches!(
                    op,
                    BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
                )
            {
                return false;
            }
            let (Some(la), Some(lb)) = (affine(a, var), affine(b, var)) else {
                return false;
            };
            // `x op y` with the sense flipped when not taken.
            let (op, ge) = match (op, taken) {
                (BinaryOp::Lt, true) | (BinaryOp::Ge, false) => {
                    (CmpOp::Ge0, lb.minus(la).plus(Affine::constant(-1)))
                }
                (BinaryOp::Le, true) | (BinaryOp::Gt, false) => (CmpOp::Ge0, lb.minus(la)),
                (BinaryOp::Gt, true) | (BinaryOp::Le, false) => {
                    (CmpOp::Ge0, la.minus(lb).plus(Affine::constant(-1)))
                }
                (BinaryOp::Ge, true) | (BinaryOp::Lt, false) => (CmpOp::Ge0, la.minus(lb)),
                (BinaryOp::Eq, true) => (CmpOp::Eq0, la.minus(lb)),
                _ => return false,
            };
            push(op, ge);
            true
        }
        Expr::BoolConst(true) => taken,
        _ => false,
    }
}

/// Translate a branch condition into constraints conjoined onto `sys`.
///
/// Returns `true` when the condition was captured exactly; `false` when it
/// was (partially) dropped, leaving `sys` an over-approximation of the
/// condition's domain.
pub fn cond_to_constraints(cond: &Expr, sys: &mut System) -> bool {
    cond_constraints(cond, true, &mut |n| n, &mut |op, a| {
        sys.push(Constraint {
            expr: linexpr(a),
            op,
        });
    })
}

/// Convert an affine form back into an IR expression (normal form: terms in
/// name order, constant last).
pub fn linexpr_to_expr(l: &LinExpr) -> Expr {
    let mut e: Option<Expr> = None;
    for (name, coeff) in l.iter_terms() {
        let term = if coeff == 1 {
            Expr::Var(name.to_string())
        } else {
            Expr::Var(name.to_string()) * coeff
        };
        e = Some(match e {
            None => term,
            Some(acc) => acc + term,
        });
    }
    let c = l.constant_term();
    match e {
        None => Expr::IntConst(c),
        Some(acc) if c == 0 => acc,
        Some(acc) => acc + c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_poly::Sat;

    #[test]
    fn affine_extraction() {
        let e = var("i") * 2 + var("j") - 3;
        let l = to_linexpr(&e).unwrap();
        assert_eq!(l.coeff("i"), 2);
        assert_eq!(l.coeff("j"), 1);
        assert_eq!(l.constant_term(), -3);
    }

    #[test]
    fn non_affine_yields_none() {
        assert!(to_linexpr(&(var("i") * var("j"))).is_none());
        assert!(to_linexpr(&load("adj", [var("i")])).is_none());
        assert!(to_linexpr(&var("i").rem(4)).is_none());
        // Division only when exact.
        assert!(to_linexpr(&(var("i") * 4 / 2)).is_some());
        assert!(to_linexpr(&(var("i") / 2)).is_none());
    }

    #[test]
    fn variables_map_through_the_closure() {
        let e = var("i") * 2 + var("j") - var("i");
        let a = affine(&e, &mut |n| if n == "i" { 0 } else { 1 }).unwrap();
        assert_eq!(a.normalized().terms, vec![(0, 1), (1, 1)]);
        // Cancelled products stay affine: (i - i) * j is 0.
        let cancelled = (var("i") - var("i")) * var("j");
        let z = affine(&cancelled, &mut |n| n).unwrap();
        assert!(z.normalized().terms.is_empty());
        assert!(to_linexpr(&((var("i") + var("i")) / 2)).is_some());
    }

    #[test]
    fn conditions_become_constraints() {
        // i + k >= 0 and i + k < n
        let cond = (var("i") + var("k"))
            .ge(0)
            .and((var("i") + var("k")).lt(var("n")));
        let mut sys = System::new();
        assert!(cond_to_constraints(&cond, &mut sys));
        assert_eq!(sys.constraints.len(), 2);
        // Adding i + k = n makes it empty.
        sys.push(ft_poly::Constraint::eq(
            ft_poly::LinExpr::var("i") + ft_poly::LinExpr::var("k"),
            ft_poly::LinExpr::var("n"),
        ));
        assert_eq!(sys.satisfiable(), Sat::Empty);
    }

    #[test]
    fn negated_conditions() {
        let negated = |cond: &Expr, sys: &mut System| {
            cond_constraints(cond, false, &mut |n| n, &mut |op, a| {
                sys.push(Constraint {
                    expr: linexpr(a),
                    op,
                });
            })
        };
        let mut sys = System::new();
        assert!(negated(&var("i").lt(var("n")), &mut sys));
        // not(i < n)  =>  i >= n; with i < n it must be empty.
        assert!(cond_to_constraints(&var("i").lt(var("n")), &mut sys));
        assert_eq!(sys.satisfiable(), Sat::Empty);
        // Negating a conjunction is a disjunction: dropped, reported inexact.
        let mut sys2 = System::new();
        assert!(!negated(&var("i").lt(5).and(var("j").lt(5)), &mut sys2));
        assert!(sys2.constraints.is_empty());
    }
}
