//! Pullback (vector–Jacobian) computation for scalar expressions.

use ft_ir::{BinaryOp, Expr, UnaryOp};

/// One gradient contribution produced by a pullback: `target[indices] +=
/// value`.
#[derive(Debug, Clone)]
pub struct Contribution {
    /// Tensor receiving the contribution (the *primal* name; the caller maps
    /// it to `name.grad`).
    pub target: String,
    /// Element indices (primal subscripts, unchanged).
    pub indices: Vec<Expr>,
    /// The contribution value.
    pub value: Expr,
}

/// Failure modes of differentiation.
#[derive(Debug, Clone, PartialEq)]
pub enum DerivError {
    /// An expression form with no derivative rule.
    Unsupported(String),
}

impl std::fmt::Display for DerivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerivError::Unsupported(m) => write!(f, "cannot differentiate: {m}"),
        }
    }
}

impl std::error::Error for DerivError {}

/// Compute the pullback of `expr` with adjoint `adj`: the list of
/// `target[indices] += value` contributions for every differentiable
/// [`Expr::Load`] leaf whose tensor is in `active` (tensors requiring
/// gradients). Loads inside *subscripts* are integer plumbing and receive no
/// gradient.
///
/// # Errors
///
/// [`DerivError::Unsupported`] for non-differentiable forms (e.g. `%` on the
/// value path or a non-constant exponent).
pub fn pullback(
    expr: &Expr,
    adj: &Expr,
    active: &dyn Fn(&str) -> bool,
) -> Result<Vec<Contribution>, DerivError> {
    let mut out = Vec::new();
    rec(expr, adj.clone(), active, &mut out)?;
    Ok(out)
}

fn rec(
    e: &Expr,
    adj: Expr,
    active: &dyn Fn(&str) -> bool,
    out: &mut Vec<Contribution>,
) -> Result<(), DerivError> {
    match e {
        Expr::IntConst(_) | Expr::FloatConst(_) | Expr::BoolConst(_) | Expr::Var(_) => Ok(()),
        Expr::Load { var, indices } => {
            if active(var) {
                out.push(Contribution {
                    target: var.clone(),
                    indices: indices.clone(),
                    value: adj,
                });
            }
            Ok(())
        }
        Expr::Unary { op, a } => {
            let da = match op {
                UnaryOp::Neg => -adj,
                UnaryOp::Abs => adj * Expr::unary(UnaryOp::Sign, (**a).clone()),
                UnaryOp::Sqrt => adj / (Expr::unary(UnaryOp::Sqrt, (**a).clone()) * 2.0f64),
                UnaryOp::Exp => adj * Expr::unary(UnaryOp::Exp, (**a).clone()),
                UnaryOp::Ln => adj / (**a).clone(),
                UnaryOp::Sigmoid => {
                    let s = Expr::unary(UnaryOp::Sigmoid, (**a).clone());
                    adj * s.clone() * (Expr::FloatConst(1.0) - s)
                }
                UnaryOp::Tanh => {
                    let t = Expr::unary(UnaryOp::Tanh, (**a).clone());
                    adj * (Expr::FloatConst(1.0) - t.clone() * t)
                }
                UnaryOp::Sign => return Ok(()), // derivative zero a.e.
                UnaryOp::Not => {
                    return Err(DerivError::Unsupported(
                        "logical not on the value path".to_string(),
                    ))
                }
            };
            rec(a, da, active, out)
        }
        Expr::Binary { op, a, b } => match op {
            BinaryOp::Add => {
                rec(a, adj.clone(), active, out)?;
                rec(b, adj, active, out)
            }
            BinaryOp::Sub => {
                rec(a, adj.clone(), active, out)?;
                rec(b, -adj, active, out)
            }
            BinaryOp::Mul => {
                rec(a, adj.clone() * (**b).clone(), active, out)?;
                rec(b, adj * (**a).clone(), active, out)
            }
            BinaryOp::Div => {
                rec(a, adj.clone() / (**b).clone(), active, out)?;
                let db = -(adj * (**a).clone()) / ((**b).clone() * (**b).clone());
                rec(b, db, active, out)
            }
            BinaryOp::Min | BinaryOp::Max => {
                // d/da min(a,b) = [a <= b]; ties route to the first operand.
                let take_a = if *op == BinaryOp::Min {
                    (**a).clone().le((**b).clone())
                } else {
                    (**a).clone().ge((**b).clone())
                };
                let da = Expr::select(take_a.clone(), adj.clone(), Expr::FloatConst(0.0));
                let db = Expr::select(take_a, Expr::FloatConst(0.0), adj);
                rec(a, da, active, out)?;
                rec(b, db, active, out)
            }
            BinaryOp::Pow => {
                let Some(k) = b.as_int() else {
                    if let Expr::FloatConst(c) = **b {
                        let da = adj
                            * Expr::FloatConst(c)
                            * Expr::binary(BinaryOp::Pow, (**a).clone(), Expr::FloatConst(c - 1.0));
                        return rec(a, da, active, out);
                    }
                    return Err(DerivError::Unsupported(
                        "pow with a non-constant exponent".to_string(),
                    ));
                };
                // `k - 1` overflows for k == i64::MIN — a degenerate exponent
                // a user program can still write; fail structurally instead
                // of panicking in debug builds.
                let Some(km1) = k.checked_sub(1) else {
                    return Err(DerivError::Unsupported(format!(
                        "pow exponent {k} underflows when reduced for the power rule"
                    )));
                };
                let da = adj
                    * Expr::IntConst(k)
                    * Expr::binary(BinaryOp::Pow, (**a).clone(), Expr::IntConst(km1));
                rec(a, da, active, out)
            }
            BinaryOp::Mod => Err(DerivError::Unsupported(
                "remainder on the value path".to_string(),
            )),
            // Comparisons / logic yield booleans: piecewise-constant, zero
            // derivative.
            _ => Ok(()),
        },
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            let dthen = Expr::select((**cond).clone(), adj.clone(), Expr::FloatConst(0.0));
            let delse = Expr::select((**cond).clone(), Expr::FloatConst(0.0), adj);
            rec(then, dthen, active, out)?;
            rec(otherwise, delse, active, out)
        }
        Expr::Cast { dtype, a } => {
            if dtype.is_float() {
                rec(a, adj, active, out)
            } else {
                Ok(()) // integer/bool casts truncate: zero derivative a.e.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    fn all_active(_: &str) -> bool {
        true
    }

    #[test]
    fn product_rule_fig15() {
        // t * c[i] with adjoint g: dt += g*c[i], dc[i] += g*t.
        let e = load("t", scalar()) * load("c", [var("i")]);
        let cs = pullback(&e, &var("g"), &all_active).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].target, "t");
        assert_eq!(cs[1].target, "c");
        assert_eq!(cs[0].value, var("g") * load("c", [var("i")]));
        assert_eq!(cs[1].value, var("g") * load("t", scalar()));
    }

    #[test]
    fn chain_through_unary() {
        let e = intrin::exp(load("x", [var("i")]));
        let cs = pullback(&e, &var("g"), &all_active).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].value, var("g") * intrin::exp(load("x", [var("i")])));
    }

    #[test]
    fn quotient_and_sub() {
        let e = load("a", scalar()) / load("b", scalar()) - load("c", scalar());
        let cs = pullback(&e, &Expr::FloatConst(1.0), &all_active).unwrap();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[2].target, "c");
        // dc gets -1.
        assert_eq!(cs[2].value, -Expr::FloatConst(1.0));
    }

    #[test]
    fn subscript_loads_get_no_gradient() {
        // a[idx[i]]: idx is integer plumbing.
        let e = Expr::Load {
            var: "a".to_string(),
            indices: vec![Expr::cast(DataType::I64, load("idx", [var("i")]))],
        };
        let cs = pullback(&e, &var("g"), &all_active).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].target, "a");
    }

    #[test]
    fn inactive_tensors_are_skipped() {
        let e = load("a", scalar()) * load("b", scalar());
        let cs = pullback(&e, &var("g"), &|n| n == "a").unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].target, "a");
    }

    #[test]
    fn select_routes_gradient() {
        let e = Expr::select(var("c").gt(0), load("a", scalar()), load("b", scalar()));
        let cs = pullback(&e, &var("g"), &all_active).unwrap();
        assert_eq!(cs.len(), 2);
        assert!(matches!(cs[0].value, Expr::Select { .. }));
    }

    #[test]
    fn unsupported_forms_error() {
        let e = load("a", scalar()).rem(2);
        assert!(pullback(&e, &var("g"), &all_active).is_err());
        let e = Expr::binary(BinaryOp::Pow, load("a", scalar()), load("b", scalar()));
        assert!(pullback(&e, &var("g"), &all_active).is_err());
    }

    #[test]
    fn pow_min_int_exponent_errors_instead_of_overflowing() {
        // `i64::MIN - 1` overflows; the power rule must reject the exponent
        // structurally rather than panic in debug builds.
        let e = Expr::binary(BinaryOp::Pow, load("a", scalar()), Expr::IntConst(i64::MIN));
        let err = pullback(&e, &var("g"), &all_active).unwrap_err();
        assert!(
            matches!(&err, DerivError::Unsupported(m) if m.contains("underflow")),
            "{err}"
        );
    }

    #[test]
    fn min_max_subgradients() {
        let e = load("a", scalar()).max(load("b", scalar()));
        let cs = pullback(&e, &var("g"), &all_active).unwrap();
        assert_eq!(cs.len(), 2);
    }
}
