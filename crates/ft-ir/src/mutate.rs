//! Functional rewriting framework.
//!
//! A [`Mutator`] consumes a statement tree and produces a new one. Node
//! identities ([`crate::StmtId`]) are preserved by the default walkers, so a
//! schedule can keep addressing statements across a pipeline of rewrites.

use crate::expr::Expr;
use crate::stmt::{Stmt, StmtKind};
use std::borrow::Cow;
use std::collections::HashSet;

/// A consuming rewriter over statements and expressions.
///
/// Override the hooks you care about; call `mutate_stmt_walk` /
/// `mutate_expr_walk` to rebuild children with this mutator applied.
pub trait Mutator {
    /// Rewrite a statement. Default: rebuild children.
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        mutate_stmt_walk(self, s)
    }

    /// Rewrite an expression. Default: rebuild children.
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        mutate_expr_walk(self, e)
    }
}

/// Rebuild a statement's children through the mutator, keeping id and label.
pub fn mutate_stmt_walk<M: Mutator + ?Sized>(m: &mut M, s: Stmt) -> Stmt {
    let Stmt { id, label, kind } = s;
    let kind = match kind {
        StmtKind::Block(stmts) => {
            StmtKind::Block(stmts.into_iter().map(|st| m.mutate_stmt(st)).collect())
        }
        StmtKind::VarDef {
            name,
            shape,
            dtype,
            mtype,
            atype,
            body,
        } => StmtKind::VarDef {
            name,
            shape: shape.into_iter().map(|e| m.mutate_expr(e)).collect(),
            dtype,
            mtype,
            atype,
            body: Box::new(m.mutate_stmt(*body)),
        },
        StmtKind::For {
            iter,
            begin,
            end,
            property,
            body,
        } => StmtKind::For {
            iter,
            begin: m.mutate_expr(begin),
            end: m.mutate_expr(end),
            property,
            body: Box::new(m.mutate_stmt(*body)),
        },
        StmtKind::If {
            cond,
            then,
            otherwise,
        } => StmtKind::If {
            cond: m.mutate_expr(cond),
            then: Box::new(m.mutate_stmt(*then)),
            otherwise: otherwise.map(|o| Box::new(m.mutate_stmt(*o))),
        },
        StmtKind::Store {
            var,
            indices,
            value,
        } => StmtKind::Store {
            var,
            indices: indices.into_iter().map(|e| m.mutate_expr(e)).collect(),
            value: m.mutate_expr(value),
        },
        StmtKind::ReduceTo {
            var,
            indices,
            op,
            value,
            atomic,
        } => StmtKind::ReduceTo {
            var,
            indices: indices.into_iter().map(|e| m.mutate_expr(e)).collect(),
            op,
            value: m.mutate_expr(value),
            atomic,
        },
        k @ (StmtKind::LibCall { .. } | StmtKind::Empty) => k,
    };
    Stmt { id, label, kind }
}

/// Rebuild an expression's children through the mutator.
pub fn mutate_expr_walk<M: Mutator + ?Sized>(m: &mut M, e: Expr) -> Expr {
    match e {
        Expr::Load { var, indices } => Expr::Load {
            var,
            indices: indices.into_iter().map(|i| m.mutate_expr(i)).collect(),
        },
        Expr::Unary { op, a } => Expr::Unary {
            op,
            a: Box::new(m.mutate_expr(*a)),
        },
        Expr::Binary { op, a, b } => Expr::Binary {
            op,
            a: Box::new(m.mutate_expr(*a)),
            b: Box::new(m.mutate_expr(*b)),
        },
        Expr::Select {
            cond,
            then,
            otherwise,
        } => Expr::Select {
            cond: Box::new(m.mutate_expr(*cond)),
            then: Box::new(m.mutate_expr(*then)),
            otherwise: Box::new(m.mutate_expr(*otherwise)),
        },
        Expr::Cast { dtype, a } => Expr::Cast {
            dtype,
            a: Box::new(m.mutate_expr(*a)),
        },
        other => other,
    }
}

/// Convenience mutator: substitute a scalar variable throughout a sub-tree.
pub struct SubstVar<'a> {
    /// Variable name to replace.
    pub name: &'a str,
    /// Replacement expression.
    pub value: &'a Expr,
}

impl Mutator for SubstVar<'_> {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Var(ref n) if n == self.name => self.value.clone(),
            other => mutate_expr_walk(self, other),
        }
    }
}

/// Substitute scalar variable `name` with `value` in a whole statement tree.
pub fn subst_var_stmt(s: Stmt, name: &str, value: &Expr) -> Stmt {
    SubstVar { name, value }.mutate_stmt(s)
}

/// Convenience mutator: rename a tensor (both loads and stores/reductions).
pub struct RenameVar<'a> {
    /// Old tensor name.
    pub from: &'a str,
    /// New tensor name.
    pub to: &'a str,
}

impl Mutator for RenameVar<'_> {
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        let s = mutate_stmt_walk(self, s);
        let Stmt { id, label, kind } = s;
        let kind = match kind {
            StmtKind::Store {
                var,
                indices,
                value,
            } => StmtKind::Store {
                var: self.rename(var),
                indices,
                value,
            },
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                atomic,
            } => StmtKind::ReduceTo {
                var: self.rename(var),
                indices,
                op,
                value,
                atomic,
            },
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                atype,
                body,
            } => StmtKind::VarDef {
                name: self.rename(name),
                shape,
                dtype,
                mtype,
                atype,
                body,
            },
            StmtKind::LibCall {
                kernel,
                inputs,
                outputs,
                attrs,
            } => StmtKind::LibCall {
                kernel,
                inputs: inputs.into_iter().map(|n| self.rename(n)).collect(),
                outputs: outputs.into_iter().map(|n| self.rename(n)).collect(),
                attrs,
            },
            k => k,
        };
        Stmt { id, label, kind }
    }

    fn mutate_expr(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Load { var, indices } => Expr::Load {
                var: self.rename(var),
                indices: indices.into_iter().map(|i| self.mutate_expr(i)).collect(),
            },
            other => mutate_expr_walk(self, other),
        }
    }
}

impl RenameVar<'_> {
    fn rename(&self, name: String) -> String {
        if name == self.from {
            self.to.to_string()
        } else {
            name
        }
    }
}

/// Rename tensor `from` to `to` in a whole statement tree.
pub fn rename_var_stmt(s: Stmt, from: &str, to: &str) -> Stmt {
    RenameVar { from, to }.mutate_stmt(s)
}

/// Every name bound anywhere in `func`: parameters, size parameters, local
/// tensor definitions, and loop iterators. A pass that introduces a binding
/// picks its name outside this set with [`fresh_name`]: re-applying a
/// primitive to the same tensor would otherwise emit a second def or
/// iterator with the first one's name, which the first can shadow or
/// capture.
pub fn bound_names(func: &crate::Func) -> HashSet<Cow<'_, str>> {
    let params = func.params.iter().map(|p| p.name.as_str());
    let mut taken: HashSet<Cow<str>> = params
        .chain(func.size_params.iter().map(String::as_str))
        .map(Cow::Borrowed)
        .collect();
    func.body.walk(&mut |s| match &s.kind {
        StmtKind::VarDef { name, .. } | StmtKind::For { iter: name, .. } => {
            taken.insert(Cow::Borrowed(name));
        }
        _ => {}
    });
    taken
}

/// Pick `base` if it is not taken, else the first of `base.1`, `base.2`, …
/// that is not; the result is taken from then on.
pub fn fresh_name(base: &str, taken: &mut HashSet<Cow<'_, str>>) -> String {
    let name = if taken.contains(base) {
        (1..)
            .map(|k| format!("{base}.{k}"))
            .find(|c| !taken.contains(c.as_str()))
            .expect("unbounded candidate space")
    } else {
        base.to_string()
    };
    taken.insert(Cow::Owned(name.clone()));
    name
}

/// Rebuilds every statement post-order with a fresh id and no label.
struct RefreshIds;

impl Mutator for RefreshIds {
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        Stmt::new(mutate_stmt_walk(self, s).kind)
    }
}

/// `s` with fresh statement ids: a duplicated subtree must not share
/// identities with its original, or a later schedule would resolve and
/// rewrite it ambiguously.
pub fn refresh_ids(s: Stmt) -> Stmt {
    RefreshIds.mutate_stmt(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::stmt::ReduceOp;

    #[test]
    fn default_mutator_preserves_ids() {
        struct Id;
        impl Mutator for Id {}
        let s = for_("i", 0, 4, store("a", [var("i")], 0.0f32));
        let orig = s.id;
        let out = Id.mutate_stmt(s);
        assert_eq!(out.id, orig);
    }

    #[test]
    fn subst_var_replaces_in_bounds_and_body() {
        let s = for_("j", 0, var("n"), store("a", [var("j") + var("n")], 0.0f32));
        let out = subst_var_stmt(s, "n", &Expr::IntConst(8));
        match &out.kind {
            StmtKind::For { end, body, .. } => {
                assert_eq!(*end, Expr::IntConst(8));
                match &body.kind {
                    StmtKind::Store { indices, .. } => {
                        assert!(!indices[0].free_vars().contains("n"));
                    }
                    _ => unreachable!(),
                }
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn rename_var_touches_defs_loads_and_writes() {
        let s = var_def(
            "t",
            [4],
            crate::types::DataType::F32,
            crate::types::MemType::CpuHeap,
            block([
                store("t", [0], load("t", [1])),
                reduce("t", [2], ReduceOp::Add, 1.0f32),
            ]),
        );
        let out = rename_var_stmt(s, "t", "u");
        let mut names = Vec::new();
        out.walk(&mut |st| match &st.kind {
            StmtKind::VarDef { name, .. } => names.push(name.clone()),
            StmtKind::Store { var, .. } | StmtKind::ReduceTo { var, .. } => names.push(var.clone()),
            _ => {}
        });
        assert!(names.iter().all(|n| n == "u"));
    }
}
