//! Constant folding and algebraic simplification of expressions.

use ft_ir::mutate::{mutate_expr_walk, mutate_stmt_walk};
use ft_ir::scalar::{self, Scalar};
use ft_ir::{BinaryOp, DataType, Expr, Func, Mutator, Stmt, UnaryOp};

struct Folder;

fn is_int_zero(e: &Expr) -> bool {
    matches!(e, Expr::IntConst(0))
}

fn is_zero(e: &Expr) -> bool {
    is_int_zero(e) || matches!(e, Expr::FloatConst(v) if *v == 0.0)
}

fn is_one(e: &Expr) -> bool {
    matches!(e, Expr::IntConst(1)) || matches!(e, Expr::FloatConst(v) if *v == 1.0)
}

impl Mutator for Folder {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        let e = mutate_expr_walk(self, e);
        match e {
            Expr::Binary { op, a, b } => fold_binary(op, *a, *b),
            Expr::Unary { op, a } => fold_unary(op, *a),
            Expr::Select {
                cond,
                then,
                otherwise,
            } => match cond.as_bool() {
                // The arm taken has the node's type (`Expr::dtype`, C's
                // `?:`), which needs no tensor's type when nothing loads.
                // When an arm loads, the folder cannot tell that type, so
                // the `select` stays for the engines to convert.
                Some(c) if then.loaded_vars().is_empty() && otherwise.loaded_vars().is_empty() => {
                    let node = Expr::Select {
                        cond,
                        then,
                        otherwise,
                    };
                    let to = node.dtype(&|_: &str| unreachable!("nothing loads")).dtype;
                    let Expr::Select { then, otherwise, .. } = node else {
                        unreachable!("built above")
                    };
                    let taken = if c { *then } else { *otherwise };
                    let from = taken.dtype(&|_: &str| unreachable!("nothing loads")).dtype;
                    if from == to {
                        taken
                    } else {
                        fold_cast(to, taken)
                    }
                }
                _ => Expr::Select {
                    cond,
                    then,
                    otherwise,
                },
            },
            Expr::Cast { dtype, a } => fold_cast(dtype, *a),
            other => other,
        }
    }
}

fn fold_binary(op: BinaryOp, a: Expr, b: Expr) -> Expr {
    use BinaryOp::*;
    // Pure constant folding first: the operator's value by the one table.
    // A zero divisor stays for the run to report, and so does an integer
    // result that wrapped.
    if let (Some(x), Some(y)) = (Scalar::of_const(&a), Scalar::of_const(&b)) {
        match scalar::binary(op, x, y) {
            Ok(Scalar::Int(v))
                if scalar::checked_int_binary(op, x.as_i64(), y.as_i64()) != Some(v) => {}
            Ok(v) => return v.to_const(),
            Err(scalar::DivisionByZero) => {}
        }
    }
    // Boolean identities.
    match (op, a.as_bool(), b.as_bool()) {
        (And, Some(false), _) | (And, _, Some(false)) => return Expr::BoolConst(false),
        (And, Some(true), _) => return b,
        (And, _, Some(true)) => return a,
        (Or, Some(true), _) | (Or, _, Some(true)) => return Expr::BoolConst(true),
        (Or, Some(false), _) => return b,
        (Or, _, Some(false)) => return a,
        _ => {}
    }
    // Algebraic identities. (`x * 0 -> 0` is applied for integers only, to
    // respect NaN/Inf semantics for floats.)
    match op {
        Add if is_zero(&a) => return b,
        Add | Sub if is_zero(&b) => return a,
        Mul if is_one(&a) => return b,
        Mul | Div if is_one(&b) => return a,
        Mul if is_int_zero(&a) || is_int_zero(&b) => return Expr::IntConst(0),
        Sub if a == b && matches!(a, Expr::Var(_)) => return Expr::IntConst(0),
        _ => {}
    }
    Expr::binary(op, a, b)
}

fn fold_unary(op: UnaryOp, a: Expr) -> Expr {
    if let Some(x) = Scalar::of_const(&a) {
        return scalar::unary(op, x).to_const();
    }
    // --x -> x
    if op == UnaryOp::Neg {
        if let Expr::Unary {
            op: UnaryOp::Neg,
            a: inner,
        } = &a
        {
            return (**inner).clone();
        }
    }
    Expr::unary(op, a)
}

fn fold_cast(dtype: DataType, a: Expr) -> Expr {
    match Scalar::of_const(&a) {
        Some(x) => scalar::cast(dtype, x).to_const(),
        None => Expr::cast(dtype, a),
    }
}

/// Constant-fold an expression to a fixpoint.
pub fn const_fold_expr(e: Expr) -> Expr {
    Folder.mutate_expr(e)
}

/// Constant-fold every expression in a statement tree.
pub fn const_fold_stmt(s: Stmt) -> Stmt {
    mutate_stmt_walk(&mut Folder, s)
}

/// Constant-fold a whole function body.
pub fn const_fold_func(f: Func) -> Func {
    let body = const_fold_stmt(f.body.clone());
    f.with_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    #[test]
    fn folds_arithmetic() {
        assert_eq!(
            const_fold_expr(Expr::IntConst(2) + Expr::IntConst(3) * Expr::IntConst(4)),
            Expr::IntConst(14)
        );
        assert_eq!(
            const_fold_expr(Expr::FloatConst(1.5) * Expr::IntConst(2)),
            Expr::FloatConst(3.0)
        );
        // Floor semantics for negative operands.
        assert_eq!(
            const_fold_expr(Expr::IntConst(-7) / Expr::IntConst(2)),
            Expr::IntConst(-4)
        );
        assert_eq!(
            const_fold_expr(Expr::IntConst(-7).rem(2)),
            Expr::IntConst(1)
        );
    }

    #[test]
    #[allow(clippy::erasing_op)] // `x * 0 -> 0` is exactly the rule under test
    fn algebraic_identities() {
        assert_eq!(const_fold_expr(var("x") + 0), var("x"));
        assert_eq!(const_fold_expr(var("x") * 1), var("x"));
        assert_eq!(const_fold_expr(var("x") * 0), Expr::IntConst(0));
        assert_eq!(const_fold_expr(var("x") - 0), var("x"));
        assert_eq!(const_fold_expr(var("x") - var("x")), Expr::IntConst(0));
        // Division by zero is never folded (runtime error surface).
        let div = var("x") / 0;
        assert_eq!(const_fold_expr(div.clone()), div);
    }

    #[test]
    fn comparisons_and_booleans() {
        assert_eq!(
            const_fold_expr(Expr::IntConst(3).lt(5)),
            Expr::BoolConst(true)
        );
        assert_eq!(
            const_fold_expr(var("c").lt(5).and(false)),
            Expr::BoolConst(false)
        );
        assert_eq!(const_fold_expr(var("c").gt(0).or(true)), Expr::BoolConst(true));
        assert_eq!(
            const_fold_expr(Expr::BoolConst(true).not()),
            Expr::BoolConst(false)
        );
    }

    #[test]
    fn select_and_cast() {
        assert_eq!(
            const_fold_expr(Expr::select(Expr::IntConst(1).lt(2), var("a"), var("b"))),
            var("a")
        );
        assert_eq!(
            const_fold_expr(Expr::cast(DataType::F32, Expr::IntConst(3))),
            Expr::FloatConst(3.0)
        );
        assert_eq!(
            const_fold_expr(Expr::cast(DataType::I64, Expr::FloatConst(3.7))),
            Expr::IntConst(3)
        );
    }

    #[test]
    fn unary_functions() {
        assert_eq!(
            const_fold_expr(intrin::abs(Expr::IntConst(-4))),
            Expr::IntConst(4)
        );
        assert_eq!(
            const_fold_expr(intrin::sqrt(Expr::FloatConst(9.0))),
            Expr::FloatConst(3.0)
        );
        assert_eq!(const_fold_expr(-(-var("x"))), var("x"));
    }

    #[test]
    fn folds_inside_statements() {
        let s = for_(
            "i",
            0,
            Expr::IntConst(2) * 4,
            store("y", [var("i") + 0], load("x", [var("i")]) * 1.0f32),
        );
        let out = const_fold_stmt(s);
        match &out.kind {
            StmtKind::For { end, body, .. } => {
                assert_eq!(*end, Expr::IntConst(8));
                match &body.kind {
                    StmtKind::Store { indices, value, .. } => {
                        assert_eq!(indices[0], var("i"));
                        // x[i] * 1.0 stays (float one is not removed unless
                        // exactly 1.0 — it is, so it folds).
                        assert_eq!(*value, load("x", [var("i")]));
                    }
                    _ => unreachable!(),
                }
            }
            _ => unreachable!(),
        }
    }
}
