//! Expression simplification in one bottom-up pass: constant folding and
//! algebraic identities, and for [`simplify_expr`] also affine
//! normalization (the "simplification on mathematical expressions" of paper
//! §4.3), each node after its operands.

use ft_analysis::Affine;
use ft_ir::mutate::mutate_stmt_walk;
use ft_ir::scalar::{self, Scalar};
use ft_ir::{BinaryOp, DataType, Expr, Func, Mutator, Stmt, UnaryOp};

fn is_int_zero(e: &Expr) -> bool {
    matches!(e, Expr::IntConst(0))
}

fn is_zero(e: &Expr) -> bool {
    is_int_zero(e) || matches!(e, Expr::FloatConst(v) if *v == 0.0)
}

fn is_one(e: &Expr) -> bool {
    matches!(e, Expr::IntConst(1)) || matches!(e, Expr::FloatConst(v) if *v == 1.0)
}

/// A simplified expression and — when normalizing, of an interior node —
/// its affine form (a leaf's is built on demand).
pub(crate) struct Node {
    pub(crate) e: Expr,
    form: Option<Affine<String>>,
}

/// A node with no affine form of its own.
fn plain(e: Expr) -> Node {
    Node { e, form: None }
}

impl Node {
    fn form(&mut self) -> Option<Affine<String>> {
        Affine::leaf(&self.e, str::to_string).or_else(|| self.form.take())
    }
}

/// The expression rewriter. Every node is folded (and normalized) after its
/// operands, and what a rule yields is made of simplified operands, so the
/// output is its own fixpoint.
pub(crate) struct Exprs {
    /// Also replace an affine node by its normal form when that is smaller.
    pub(crate) affine: bool,
}

impl Exprs {
    pub(crate) fn expr(&self, e: Expr) -> Node {
        match e {
            Expr::Binary { op, a, b } => self.binary(op, self.expr(*a), self.expr(*b)),
            Expr::Unary { op, a } => self.unary(op, self.expr(*a)),
            Expr::Cast { dtype, a } => self.cast(dtype, self.expr(*a)),
            Expr::Select {
                cond,
                then,
                otherwise,
            } => self.select(self.expr(*cond), self.expr(*then), self.expr(*otherwise)),
            Expr::Load { var, indices } => {
                let indices = indices.into_iter().map(|i| self.expr(i).e).collect();
                plain(Expr::Load { var, indices })
            }
            e => plain(e),
        }
    }

    /// A node no rule folds: its normal form instead when that is smaller,
    /// so already-canonical expressions keep their shape.
    fn kept(&self, e: Expr, form: Option<Affine<String>>) -> Node {
        match form.map(Affine::normalized) {
            Some(f) if f.expr_node_count() < e.node_count() => Node {
                e: f.to_expr(),
                form: Some(f),
            },
            form => Node { e, form },
        }
    }

    fn binary(&self, op: BinaryOp, mut a: Node, mut b: Node) -> Node {
        use BinaryOp::*;
        // Pure constant folding first: the operator's value by the one table.
        // A zero divisor stays for the run to report, and so does an integer
        // result that wrapped.
        if let (Some(x), Some(y)) = (Scalar::of_const(&a.e), Scalar::of_const(&b.e)) {
            match scalar::binary(op, x, y) {
                Ok(Scalar::Int(v))
                    if scalar::checked_int_binary(op, x.as_i64(), y.as_i64()) != Some(v) => {}
                Ok(v) => return plain(v.to_const()),
                Err(scalar::DivisionByZero) => {}
            }
        }
        // Boolean identities.
        match (op, a.e.as_bool(), b.e.as_bool()) {
            (And, Some(false), _) | (And, _, Some(false)) => return plain(false.into()),
            (And, Some(true), _) => return b,
            (And, _, Some(true)) => return a,
            (Or, Some(true), _) | (Or, _, Some(true)) => return plain(true.into()),
            (Or, Some(false), _) => return b,
            (Or, _, Some(false)) => return a,
            _ => {}
        }
        // Algebraic identities. (`x * 0 -> 0` is applied for integers only, to
        // respect NaN/Inf semantics for floats.)
        match op {
            Add if is_zero(&a.e) => return b,
            Add | Sub if is_zero(&b.e) => return a,
            Mul if is_one(&a.e) => return b,
            Mul | Div if is_one(&b.e) => return a,
            Mul if is_int_zero(&a.e) || is_int_zero(&b.e) => return plain(Expr::IntConst(0)),
            Sub if a.e == b.e && matches!(a.e, Expr::Var(_)) => return plain(Expr::IntConst(0)),
            _ => {}
        }
        let form = (self.affine && matches!(op, Add | Sub | Mul | Div))
            .then(|| Affine::binary(op, a.form(), b.form()))
            .flatten();
        self.kept(Expr::binary(op, a.e, b.e), form)
    }

    fn unary(&self, op: UnaryOp, mut a: Node) -> Node {
        if let Some(x) = Scalar::of_const(&a.e) {
            return plain(scalar::unary(op, x).to_const());
        }
        match (op, a.e) {
            // --x -> x
            (
                UnaryOp::Neg,
                Expr::Unary {
                    op: UnaryOp::Neg,
                    a: x,
                },
            ) => self.expr(*x),
            (op, e) => {
                a.e = e;
                let form = (self.affine && op == UnaryOp::Neg)
                    .then(|| a.form())
                    .flatten();
                self.kept(Expr::unary(op, a.e), form.map(|f| f.scaled(-1)))
            }
        }
    }

    fn cast(&self, dtype: DataType, mut a: Node) -> Node {
        if let Some(x) = Scalar::of_const(&a.e) {
            return plain(scalar::cast(dtype, x).to_const());
        }
        // Only an integer value converted to an integer type keeps its form:
        // `float(i) / float(n)` is no integer division.
        let form = (self.affine && dtype.is_int()).then(|| a.form()).flatten();
        self.kept(Expr::cast(dtype, a.e), form)
    }

    fn select(&self, cond: Node, then: Node, otherwise: Node) -> Node {
        match cond.e.as_bool() {
            // The arm taken has the node's type (`Expr::dtype`, C's `?:`),
            // which needs no tensor's type when nothing loads. When an arm
            // loads, the folder cannot tell that type, so the `select` stays
            // for the engines to convert.
            Some(c) if then.e.loaded_vars().is_empty() && otherwise.e.loaded_vars().is_empty() => {
                let ty = |e: &Expr| e.dtype(&|_: &str| unreachable!("nothing loads")).dtype;
                let to = ty(&Expr::select(cond.e, then.e.clone(), otherwise.e.clone()));
                let taken = if c { then } else { otherwise };
                if ty(&taken.e) == to {
                    taken
                } else {
                    self.cast(to, taken)
                }
            }
            _ => plain(Expr::select(cond.e, then.e, otherwise.e)),
        }
    }
}

/// Constant-fold an expression to a fixpoint.
pub fn const_fold_expr(e: Expr) -> Expr {
    Exprs { affine: false }.expr(e).e
}

/// Constant-fold and affine-normalize an expression to a fixpoint: the
/// expression half of [`crate::simplify()`]. Normalization writes an affine
/// integer expression as a canonical sum of terms when that is smaller,
/// cancelling symbolic terms that folding cannot see (e.g.
/// `i.0 * 256 + i.1 - i.0 * 256` → `i.1`).
pub fn simplify_expr(e: Expr) -> Expr {
    Exprs { affine: true }.expr(e).e
}

struct Folder;

impl Mutator for Folder {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        const_fold_expr(e)
    }
}

/// Constant-fold every expression in a statement tree.
pub fn const_fold_stmt(s: Stmt) -> Stmt {
    mutate_stmt_walk(&mut Folder, s)
}

/// Constant-fold a whole function body.
pub fn const_fold_func(f: Func) -> Func {
    Func {
        body: const_fold_stmt(f.body),
        ..f
    }
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
        assert_eq!(
            const_fold_expr(var("c").gt(0).or(true)),
            Expr::BoolConst(true)
        );
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
