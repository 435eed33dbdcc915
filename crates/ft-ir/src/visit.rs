//! Read-only traversal framework.

use crate::expr::Expr;
use crate::stmt::{Stmt, StmtKind};

/// A read-only visitor over statements and expressions.
///
/// Override the hooks you care about and call the corresponding `walk_*`
/// function to continue into children (or don't, to prune the traversal).
pub trait Visitor {
    /// Called for every statement (pre-order). Default: recurse.
    fn visit_stmt(&mut self, s: &Stmt) {
        walk_stmt(self, s);
    }

    /// Called for every expression (pre-order). Default: recurse.
    fn visit_expr(&mut self, e: &Expr) {
        walk_expr(self, e);
    }
}

/// Recurse into the children of a statement (both sub-statements and the
/// expressions it contains).
pub fn walk_stmt<V: Visitor + ?Sized>(v: &mut V, s: &Stmt) {
    match &s.kind {
        StmtKind::Block(stmts) => {
            for st in stmts {
                v.visit_stmt(st);
            }
        }
        StmtKind::VarDef { shape, body, .. } => {
            for e in shape {
                v.visit_expr(e);
            }
            v.visit_stmt(body);
        }
        StmtKind::For {
            begin, end, body, ..
        } => {
            v.visit_expr(begin);
            v.visit_expr(end);
            v.visit_stmt(body);
        }
        StmtKind::If {
            cond,
            then,
            otherwise,
        } => {
            v.visit_expr(cond);
            v.visit_stmt(then);
            if let Some(o) = otherwise {
                v.visit_stmt(o);
            }
        }
        StmtKind::Store { indices, value, .. } => {
            for i in indices {
                v.visit_expr(i);
            }
            v.visit_expr(value);
        }
        StmtKind::ReduceTo { indices, value, .. } => {
            for i in indices {
                v.visit_expr(i);
            }
            v.visit_expr(value);
        }
        StmtKind::LibCall { .. } | StmtKind::Empty => {}
    }
}

/// Recurse into the children of an expression.
pub fn walk_expr<V: Visitor + ?Sized>(v: &mut V, e: &Expr) {
    match e {
        Expr::Load { indices, .. } => {
            for i in indices {
                v.visit_expr(i);
            }
        }
        Expr::Unary { a, .. } | Expr::Cast { a, .. } => v.visit_expr(a),
        Expr::Binary { a, b, .. } => {
            v.visit_expr(a);
            v.visit_expr(b);
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            v.visit_expr(cond);
            v.visit_expr(then);
            v.visit_expr(otherwise);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::stmt::ReduceOp;

    struct CountLoads(usize);
    impl Visitor for CountLoads {
        fn visit_expr(&mut self, e: &Expr) {
            if matches!(e, Expr::Load { .. }) {
                self.0 += 1;
            }
            walk_expr(self, e);
        }
    }

    #[test]
    fn visitor_reaches_nested_expressions() {
        let s = for_(
            "i",
            0,
            var("n"),
            if_(
                var("i").lt(var("n")),
                block([
                    store(
                        "y",
                        [var("i")],
                        load("x", [var("i")]) + load("x", [var("i") + 1]),
                    ),
                    reduce("acc", scalar(), ReduceOp::Add, load("y", [var("i")])),
                ]),
            ),
        );
        let mut c = CountLoads(0);
        c.visit_stmt(&s);
        assert_eq!(c.0, 3);
    }

    struct CountFors(usize);
    impl Visitor for CountFors {
        fn visit_stmt(&mut self, s: &Stmt) {
            if matches!(s.kind, StmtKind::For { .. }) {
                self.0 += 1;
            }
            walk_stmt(self, s);
        }
    }

    #[test]
    fn visitor_reaches_nested_statements() {
        let s = for_(
            "i",
            0,
            4,
            for_("j", 0, 4, store("a", [var("i"), var("j")], 0.0f32)),
        );
        let mut c = CountFors(0);
        c.visit_stmt(&s);
        assert_eq!(c.0, 2);
    }
}
