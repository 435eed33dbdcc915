//! The simplification pipeline: expressions folded and normalized, constant
//! branches and degenerate loops removed, blocks flattened, dead
//! definitions and redundant guards removed — each in one pass.

use ft_ir::mutate::{mutate_stmt_walk, subst_var_stmt};
use ft_ir::{Expr, Func, Mutator, Stmt, StmtKind};

/// One bottom-up pass over statements: each node's expressions and
/// children, then its own control-flow rule. Its output is its own
/// fixpoint: a rule's result is made of simplified parts, except the body
/// of a single-trip loop, which is simplified again once its iterator is
/// substituted.
struct Control {
    /// Simplify each node's expressions too ([`crate::simplify_expr`]).
    exprs: bool,
}

impl Mutator for Control {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        if self.exprs {
            crate::simplify_expr(e)
        } else {
            e
        }
    }

    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        let Stmt { id, label, kind } = mutate_stmt_walk(self, s);
        let kind = match kind {
            StmtKind::Block(stmts) => {
                // Flatten nested blocks and drop no-ops.
                let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
                for st in stmts {
                    match st.kind {
                        StmtKind::Empty => {}
                        StmtKind::Block(inner) => out.extend(inner),
                        _ => out.push(st),
                    }
                }
                match out.len() {
                    0 => StmtKind::Empty,
                    1 => return out.pop().expect("len checked"),
                    _ => StmtKind::Block(out),
                }
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => match cond.as_bool() {
                Some(true) => return *then,
                Some(false) => match otherwise {
                    Some(o) => return *o,
                    None => StmtKind::Empty,
                },
                None => match otherwise.filter(|o| !o.is_empty()) {
                    None if then.is_empty() => StmtKind::Empty,
                    otherwise => StmtKind::If {
                        cond,
                        then,
                        otherwise,
                    },
                },
            },
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => match (begin.as_int(), end.as_int()) {
                _ if body.is_empty() => StmtKind::Empty,
                (Some(b), Some(e)) if e <= b => StmtKind::Empty,
                // Single-trip loop: substitute the iterator.
                (Some(b), Some(e)) if e == b + 1 => {
                    return self.mutate_stmt(subst_var_stmt(*body, &iter, &Expr::IntConst(b)))
                }
                _ => StmtKind::For {
                    iter,
                    begin,
                    end,
                    property,
                    body,
                },
            },
            StmtKind::VarDef { body, .. } if body.is_empty() => StmtKind::Empty,
            k => k,
        };
        Stmt { id, label, kind }
    }
}

/// Fold, normalize and simplify the control flow of a statement tree, to
/// a fixpoint in one pass.
pub fn simplify_stmt(s: Stmt) -> Stmt {
    Control { exprs: true }.mutate_stmt(s)
}

/// Simplify a whole function: fold, normalize, simplify control flow, and
/// remove local definitions that are never read (dead-code elimination) and
/// guards the enclosing loops imply. The result is a fixpoint of every one
/// of these.
///
/// With a `sink`, each sub-pass becomes a span on its compile track, so a
/// trace shows where simplification time went. The `simplify` span's
/// `rounds` is 1: nothing is repeated to reach the fixpoint.
pub fn simplify(mut f: Func, sink: Option<&ft_trace::TraceSink>) -> Func {
    let span = |name: &str| sink.map(|s| s.span("pass", name));
    let run = |name: &str, f: &mut Func, pass: &dyn Fn(&mut Func) -> bool| {
        let _span = span(name);
        pass(f)
    };
    let control = |exprs| {
        move |f: &mut Func| {
            f.body = Control { exprs }.mutate_stmt(f.body.take());
            true
        }
    };
    let mut outer = span("simplify");
    run("simplify:control", &mut f, &control(true));
    let dce = run("simplify:dce", &mut f, &crate::remove_dead_defs);
    let guards = run("simplify:guards", &mut f, &crate::remove_redundant_guards);
    // What the two removed leaves empty statements and nested blocks
    // behind; every expression is already simplified.
    if dce || guards {
        run("simplify:control", &mut f, &control(false));
    }
    if let Some(sp) = outer.as_mut() {
        sp.arg("rounds", 1);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::DataType;

    #[test]
    fn constant_branches_fold_away() {
        let s = if_else(
            Expr::IntConst(3).lt(5),
            store("a", [0], 1.0f32),
            store("a", [0], 2.0f32),
        );
        let out = simplify_stmt(s);
        match out.kind {
            StmtKind::Store { value, .. } => assert_eq!(value, Expr::FloatConst(1.0)),
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_single_trip_loops() {
        let s = for_("i", 0, 0, store("a", [var("i")], 1.0f32));
        assert!(simplify_stmt(s).is_empty());
        let s = for_("i", 3, 4, store("a", [var("i")], 1.0f32));
        let out = simplify_stmt(s);
        match out.kind {
            StmtKind::Store { indices, .. } => assert_eq!(indices[0], Expr::IntConst(3)),
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn blocks_flatten() {
        let s = block([
            block([store("a", [0], 1.0f32), empty()]),
            empty(),
            block([store("a", [1], 2.0f32)]),
        ]);
        let out = simplify_stmt(s);
        match &out.kind {
            StmtKind::Block(v) => {
                assert_eq!(v.len(), 2);
                assert!(v.iter().all(|st| matches!(st.kind, StmtKind::Store { .. })));
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn if_without_effect_vanishes() {
        let s = if_(var("c").gt(0), block([empty()]));
        assert!(simplify_stmt(s).is_empty());
    }

    #[test]
    fn simplify_func_removes_dead_locals() {
        // t is written but never read: the whole def disappears.
        let f = Func::new("f")
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(block([
                var_def(
                    "t",
                    [4],
                    DataType::F32,
                    MemType::CpuHeap,
                    for_("i", 0, 4, store("t", [var("i")], 1.0f32)),
                ),
                for_("i2", 0, 4, store("y", [var("i2")], 2.0f32)),
            ]));
        let out = simplify(f, None);
        let mut has_t = false;
        out.body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                if name == "t" {
                    has_t = true;
                }
            }
        });
        assert!(!has_t, "dead definition should be removed:\n{}", out);
    }
}
