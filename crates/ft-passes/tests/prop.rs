//! Property tests: simplification passes preserve evaluation.

use ft_ir::{BinaryOp, Expr, UnaryOp};
use ft_passes::{const_fold_expr, normalize_affine};
use proptest::prelude::*;

/// Floor division and its remainder from their definition, in `i128`:
/// the quotient is the largest integer `q` with `x - q * y` of `y`'s sign
/// (or zero) — Python's `//` and `%`. A reference of its own: neither
/// `ft_ir::scalar` nor the standard library's Euclidean pair.
fn floor_div_mod(x: i64, y: i64) -> Option<(i64, i64)> {
    let (x, y) = (i128::from(x), i128::from(y));
    if y == 0 {
        return None;
    }
    // Truncation is never below the floor, and at most one above it.
    let mut q = x / y;
    if (x - q * y).signum() == -y.signum() {
        q -= 1;
    }
    let r = x - q * y;
    assert!(r == 0 || (r.signum() == y.signum() && r.abs() < y.abs()));
    Some((i64::try_from(q).ok()?, i64::try_from(r).ok()?))
}

/// Evaluate an integer expression under an environment. `None` on division
/// by zero and on overflow.
fn eval(e: &Expr, env: &dyn Fn(&str) -> i64) -> Option<i64> {
    Some(match e {
        Expr::IntConst(v) => *v,
        Expr::Var(n) => env(n),
        Expr::Unary {
            op: UnaryOp::Neg,
            a,
        } => eval(a, env)?.checked_neg()?,
        Expr::Unary {
            op: UnaryOp::Abs,
            a,
        } => eval(a, env)?.checked_abs()?,
        Expr::Binary { op, a, b } => {
            let (x, y) = (eval(a, env)?, eval(b, env)?);
            match op {
                BinaryOp::Add => x.checked_add(y)?,
                BinaryOp::Sub => x.checked_sub(y)?,
                BinaryOp::Mul => x.checked_mul(y)?,
                BinaryOp::Div => floor_div_mod(x, y)?.0,
                BinaryOp::Mod => floor_div_mod(x, y)?.1,
                BinaryOp::Min => x.min(y),
                BinaryOp::Max => x.max(y),
                _ => return None,
            }
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            if eval_bool(cond, env)? {
                eval(then, env)?
            } else {
                eval(otherwise, env)?
            }
        }
        _ => return None,
    })
}

fn eval_bool(e: &Expr, env: &dyn Fn(&str) -> i64) -> Option<bool> {
    match e {
        Expr::BoolConst(b) => Some(*b),
        Expr::Binary { op, a, b } => {
            let (x, y) = (eval(a, env)?, eval(b, env)?);
            Some(match op {
                BinaryOp::Eq => x == y,
                BinaryOp::Ne => x != y,
                BinaryOp::Lt => x < y,
                BinaryOp::Le => x <= y,
                BinaryOp::Gt => x > y,
                BinaryOp::Ge => x >= y,
                _ => return None,
            })
        }
        _ => None,
    }
}

/// Random integer expressions over variables a, b, c with bounded constants.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(Expr::IntConst),
        prop_oneof![Just("a"), Just("b"), Just("c")]
            .prop_map(|n| Expr::Var(n.to_string())),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a / b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.rem(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            inner.clone().prop_map(|a| -a),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| {
                Expr::select(c.clone().lt(a.clone()), a, b)
            }),
        ]
    })
}

/// A float variable: a 0-d tensor read, which no fold touches.
fn fvar(name: &str) -> Expr {
    Expr::Load {
        var: name.to_string(),
        indices: vec![],
    }
}

/// Evaluate a float expression. `%` is the floor remainder (`fmod`, moved
/// to the divisor's sign), written out here rather than borrowed.
fn evalf(e: &Expr, env: &dyn Fn(&str) -> f64) -> Option<f64> {
    Some(match e {
        Expr::FloatConst(v) => *v,
        Expr::Load { var, .. } => env(var),
        Expr::Unary { op, a } => {
            let x = evalf(a, env)?;
            match op {
                UnaryOp::Neg => -x,
                UnaryOp::Abs => x.abs(),
                _ => return None,
            }
        }
        Expr::Binary { op, a, b } => {
            let (x, y) = (evalf(a, env)?, evalf(b, env)?);
            match op {
                BinaryOp::Add => x + y,
                BinaryOp::Sub => x - y,
                BinaryOp::Mul => x * y,
                BinaryOp::Div => x / y,
                BinaryOp::Mod => {
                    let r = x % y;
                    if r == 0.0 || (r < 0.0) == (y < 0.0) {
                        r
                    } else {
                        r + y
                    }
                }
                BinaryOp::Min => x.min(y),
                BinaryOp::Max => x.max(y),
                BinaryOp::Pow => x.powf(y),
                _ => return None,
            }
        }
        _ => return None,
    })
}

/// Random float expressions over quarter-valued constants (both signs, so
/// `%` meets negative operands and `pow` negative exponents) and the
/// variables x, y, z.
fn arb_fexpr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(|k| Expr::FloatConst(k as f64 * 0.25)),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(fvar),
    ];
    leaf.prop_recursive(4, 48, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a / b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.rem(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::binary(BinaryOp::Pow, a, b)),
            inner.prop_map(|a| -a),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The same for float expressions, `%` and `pow` included. A zero's
    /// sign is not compared (`x + 0.0 -> x` keeps a `-0.0`), so neither is
    /// a result only a zero's sign can tell apart: two non-finite ones.
    #[test]
    fn const_fold_preserves_float_evaluation(e in arb_fexpr(), x in -9i64..=9, y in -9i64..=9, z in -9i64..=9) {
        let folded = const_fold_expr(e.clone());
        let env = move |n: &str| 0.5 * match n { "x" => x, "y" => y, _ => z } as f64;
        let (want, got) = (evalf(&e, &env).unwrap(), evalf(&folded, &env).unwrap());
        if want.is_finite() || got.is_finite() {
            prop_assert_eq!(want, got, "folding changed value: {:?} -> {:?}", e, folded);
        }
    }

    /// Constant folding preserves the value of every expression, at every
    /// environment probed.
    #[test]
    fn const_fold_preserves_evaluation(e in arb_expr(), a in -9i64..=9, b in -9i64..=9, c in -9i64..=9) {
        let folded = const_fold_expr(e.clone());
        let env = move |n: &str| match n { "a" => a, "b" => b, _ => c };
        // Only compare when both sides evaluate (division by zero and
        // overflow stay unfolded by design). Constants and variables take
        // both signs, so every quadrant of `/` and `%` is met.
        if let (Some(x), Some(y)) = (eval(&e, &env), eval(&folded, &env)) {
            prop_assert_eq!(x, y, "folding changed value: {:?} -> {:?}", e, folded);
        }
    }

    /// Affine normalization preserves the value of every expression.
    #[test]
    fn normalize_preserves_evaluation(e in arb_expr(), a in -9i64..=9, b in -9i64..=9, c in -9i64..=9) {
        let s = ft_ir::builder::store("out", [e.clone()], 0.0f32);
        let n = normalize_affine(s);
        let ft_ir::StmtKind::Store { indices, .. } = &n.kind else { unreachable!() };
        let env = move |n: &str| match n { "a" => a, "b" => b, _ => c };
        if let (Some(x), Some(y)) = (eval(&e, &env), eval(&indices[0], &env)) {
            prop_assert_eq!(x, y, "normalization changed value: {:?} -> {:?}", e, &indices[0]);
        }
    }

    /// Folding is idempotent.
    #[test]
    fn const_fold_idempotent(e in arb_expr()) {
        let once = const_fold_expr(e);
        let twice = const_fold_expr(once.clone());
        prop_assert_eq!(once, twice);
    }
}
