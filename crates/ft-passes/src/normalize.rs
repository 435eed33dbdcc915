//! Affine normalization and redundant-branch removal — the "simplification
//! on mathematical expressions" and "removing redundant branches" steps of
//! paper §4.3.

use ft_analysis::{cond_to_constraints, linexpr_to_expr, to_linexpr};
use ft_ir::mutate::{mutate_expr_walk, mutate_stmt_walk};
use ft_ir::{Expr, Func, Mutator, Stmt, StmtKind};
use ft_poly::{Constraint, LinExpr, Sat, System};

struct AffineNorm;

impl Mutator for AffineNorm {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        // Normalize bottom-up so nested affine fragments inside non-affine
        // expressions (e.g. subscripts of a product) also cancel.
        let e = mutate_expr_walk(self, e);
        match to_linexpr(&e) {
            // Rebuild only when normalization actually shrinks the tree, so
            // already-canonical expressions keep their shape.
            Some(l) => {
                let n = linexpr_to_expr(&l);
                if n.node_count() < e.node_count() {
                    n
                } else {
                    e
                }
            }
            None => e,
        }
    }
}

/// Normalize every affine integer expression to a canonical sum-of-terms
/// form, cancelling symbolic terms that constant folding cannot see
/// (e.g. `i.0 * 256 + i.1 - i.0 * 256` → `i.1`).
pub fn normalize_affine(s: Stmt) -> Stmt {
    AffineNorm.mutate_stmt(s)
}

struct GuardRemover {
    /// Affine domain of the enclosing loops and guards.
    domain: Vec<System>,
}

impl GuardRemover {
    fn domain_system(&self) -> System {
        let mut sys = System::new();
        for d in &self.domain {
            sys.extend(d);
        }
        sys
    }

    /// Does the current domain imply `cond`? (i.e. `domain ∧ ¬cond` empty —
    /// only decided for single affine comparisons.)
    fn implied(&self, cond: &Expr) -> bool {
        use ft_ir::BinaryOp::*;
        match cond {
            Expr::Binary { op, a, b } if matches!(op, Lt | Le | Gt | Ge) => {
                let (Some(la), Some(lb)) = (to_linexpr(a), to_linexpr(b)) else {
                    return false;
                };
                let mut sys = self.domain_system();
                // Negation of the comparison.
                match op {
                    Lt => sys.push(Constraint::ge(la, lb)),
                    Le => sys.push(Constraint::gt(la, lb)),
                    Gt => sys.push(Constraint::le(la, lb)),
                    Ge => sys.push(Constraint::lt(la, lb)),
                    _ => unreachable!(),
                }
                sys.satisfiable() == Sat::Empty
            }
            Expr::Binary { op: And, a, b } => self.implied(a) && self.implied(b),
            _ => false,
        }
    }
}

impl Mutator for GuardRemover {
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        match s.kind {
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => {
                let mut dom = System::new();
                if let (Some(lo), Some(hi)) = (to_linexpr(&begin), to_linexpr(&end)) {
                    dom.push(Constraint::ge(LinExpr::var(iter.clone()), lo));
                    dom.push(Constraint::lt(LinExpr::var(iter.clone()), hi));
                }
                self.domain.push(dom);
                let body = self.mutate_stmt(*body);
                self.domain.pop();
                Stmt {
                    id: s.id,
                    label: s.label,
                    kind: StmtKind::For {
                        iter,
                        begin,
                        end,
                        property,
                        body: Box::new(body),
                    },
                }
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                if otherwise.is_none() && self.implied(&cond) {
                    // The guard always holds here: drop it.
                    return self.mutate_stmt(Stmt {
                        id: s.id,
                        label: s.label,
                        kind: then.kind,
                    });
                }
                // Branch arms see the condition's constraints too.
                let mut dom = System::new();
                cond_to_constraints(&cond, &mut dom);
                self.domain.push(dom);
                let then = self.mutate_stmt(*then);
                self.domain.pop();
                self.domain.push(System::new());
                let otherwise = otherwise.map(|o| Box::new(self.mutate_stmt(*o)));
                self.domain.pop();
                Stmt {
                    id: s.id,
                    label: s.label,
                    kind: StmtKind::If {
                        cond,
                        then: Box::new(then),
                        otherwise,
                    },
                }
            }
            _ => mutate_stmt_walk(self, s),
        }
    }
}

/// Remove guards provably implied by their surrounding loop bounds and outer
/// guards (e.g. the boundary checks `split` leaves in the main region).
pub fn remove_redundant_guards(func: &Func) -> Func {
    let body = GuardRemover { domain: Vec::new() }.mutate_stmt(func.body.clone());
    func.with_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    #[test]
    fn affine_terms_cancel() {
        // i0*256 + i1 - i0*256 -> i1 (the cache-remap residue).
        let e = var("i0") * 256 + var("i1") - var("i0") * 256;
        let n = normalize_affine(store("a", [e], 0.0f32));
        match &n.kind {
            StmtKind::Store { indices, .. } => assert_eq!(indices[0], var("i1")),
            _ => unreachable!(),
        }
    }

    #[test]
    fn normalization_is_conservative_for_non_affine() {
        let e = load("x", [var("i")]) * load("y", [var("j") + 1 - 1]);
        let n = normalize_affine(store("a", [var("i")], e));
        // The float product is untouched; the subscript inside folds.
        match &n.kind {
            StmtKind::Store { value, .. } => {
                let text = format!("{value:?}");
                assert!(!text.contains("IntConst(1)"), "{text}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn implied_guard_is_removed() {
        // for i in 0..8: if i < 10: S   — guard always true.
        let f = Func::new("f")
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                if_(var("i").lt(10), store("y", [var("i")], 1.0f32)),
            ));
        let out = remove_redundant_guards(&f);
        assert!(
            ft_ir::find::find_stmts(&out.body, &|s| matches!(s.kind, StmtKind::If { .. }))
                .is_empty(),
            "{out}"
        );
    }

    #[test]
    fn live_guard_is_kept() {
        // for i in 0..8: if i < 5: S — guard matters.
        let f = Func::new("f")
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                if_(var("i").lt(5), store("y", [var("i")], 1.0f32)),
            ));
        let out = remove_redundant_guards(&f);
        assert_eq!(
            ft_ir::find::find_stmts(&out.body, &|s| matches!(s.kind, StmtKind::If { .. }))
                .len(),
            1
        );
    }

    #[test]
    fn nested_guards_compose() {
        // Outer guard i < 6 makes the inner i < 10 redundant; conjunctions
        // also discharge per conjunct.
        let f = Func::new("f")
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                if_(
                    var("i").lt(6),
                    if_(
                        var("i").lt(10).and(var("i").ge(0)),
                        store("y", [var("i")], 1.0f32),
                    ),
                ),
            ));
        let out = remove_redundant_guards(&f);
        assert_eq!(
            ft_ir::find::find_stmts(&out.body, &|s| matches!(s.kind, StmtKind::If { .. }))
                .len(),
            1,
            "{out}"
        );
    }

    #[test]
    fn split_style_guard_respects_divisibility() {
        // A split-produced guard `i0*8 + i1 < n`: redundant when n is a
        // multiple of the factor, live otherwise.
        let guarded = |n: i64| {
            Func::new("f")
                .param("y", [n], DataType::F32, AccessType::Output)
                .body(for_(
                    "i0",
                    0,
                    (n + 7) / 8,
                    for_(
                        "i1",
                        0,
                        8,
                        if_(
                            (var("i0") * 8 + var("i1")).lt(n),
                            store("y", [var("i0") * 8 + var("i1")], 1.0f32),
                        ),
                    ),
                ))
        };
        let clean = remove_redundant_guards(&guarded(64));
        assert!(
            ft_ir::find::find_stmts(&clean.body, &|s| matches!(s.kind, StmtKind::If { .. }))
                .is_empty(),
            "{clean}"
        );
        let kept = remove_redundant_guards(&guarded(60));
        assert_eq!(
            ft_ir::find::find_stmts(&kept.body, &|s| matches!(s.kind, StmtKind::If { .. }))
                .len(),
            1
        );
    }
}
