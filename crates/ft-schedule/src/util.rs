//! Tree-surgery helpers shared by the schedule primitives.

use crate::ScheduleError;
use ft_ir::{Expr, Stmt, StmtId, StmtKind};

/// Rewrite the statement with id `target` through `f`, in place, leaving
/// the rest of the tree untouched (no copy of it is made). Returns `false`,
/// with `f` not called, if the id is absent.
pub fn replace_by_id(root: &mut Stmt, target: StmtId, f: impl FnOnce(Stmt) -> Stmt) -> bool {
    fn find(s: &mut Stmt, target: StmtId) -> Option<&mut Stmt> {
        if s.id == target {
            return Some(s);
        }
        match &mut s.kind {
            StmtKind::Block(v) => v.iter_mut().find_map(|st| find(st, target)),
            StmtKind::VarDef { body, .. } | StmtKind::For { body, .. } => find(body, target),
            StmtKind::If {
                then, otherwise, ..
            } => find(then, target).or_else(|| find(otherwise.as_deref_mut()?, target)),
            _ => None,
        }
    }
    let Some(node) = find(root, target) else {
        return false;
    };
    let hole = Stmt {
        id: target,
        label: None,
        kind: StmtKind::Empty,
    };
    let old = std::mem::replace(node, hole);
    *node = f(old);
    true
}

/// Unwrap single-statement blocks: the "real" statement a body consists of.
pub fn peel(s: &Stmt) -> &Stmt {
    match &s.kind {
        StmtKind::Block(v) => {
            let non_empty: Vec<&Stmt> = v.iter().filter(|st| !st.is_empty()).collect();
            if non_empty.len() == 1 {
                peel(non_empty[0])
            } else {
                s
            }
        }
        _ => s,
    }
}

/// Destructure a `For` statement or fail.
pub struct ForParts {
    /// The loop's own id.
    pub id: StmtId,
    /// Iterator name.
    pub iter: String,
    /// Inclusive lower bound.
    pub begin: Expr,
    /// Exclusive upper bound.
    pub end: Expr,
    /// Scheduling attributes.
    pub property: ft_ir::ForProperty,
    /// Loop body (cloned).
    pub body: Stmt,
}

/// View a statement as a loop.
pub fn as_for(s: &Stmt) -> Result<ForParts, ScheduleError> {
    match &s.kind {
        StmtKind::For {
            iter,
            begin,
            end,
            property,
            body,
        } => Ok(ForParts {
            id: s.id,
            iter: iter.clone(),
            begin: begin.clone(),
            end: end.clone(),
            property: property.clone(),
            body: (**body).clone(),
        }),
        other => Err(ScheduleError::Unsupported(format!(
            "expected a for-loop, found {other:?}"
        ))),
    }
}

/// The extent (`end - begin`) of a loop, constant-folded.
pub fn extent(parts: &ForParts) -> Expr {
    ft_passes::const_fold_expr(parts.end.clone() - parts.begin.clone())
}

/// Every name bound anywhere in `func`: parameters, size parameters, local
/// tensor definitions, and loop iterators. Primitives that introduce new
/// bindings (e.g. `cache`) must pick names outside this set — re-applying a
/// primitive to the same tensor would otherwise emit a second def/iterator
/// with the first one's name, and the copy emitted by the second application
/// can end up shadowed by (or capturing) the first.
pub fn bound_names(func: &ft_ir::Func) -> std::collections::HashSet<String> {
    let mut used: std::collections::HashSet<String> =
        func.params.iter().map(|p| p.name.clone()).collect();
    used.extend(func.size_params.iter().cloned());
    func.body.walk(&mut |s| match &s.kind {
        StmtKind::VarDef { name, .. } => {
            used.insert(name.clone());
        }
        StmtKind::For { iter, .. } => {
            used.insert(iter.clone());
        }
        _ => {}
    });
    used
}

/// Pick `base` if unused, else `base.1`, `base.2`, …; reserves the result.
pub fn fresh_name(base: &str, used: &mut std::collections::HashSet<String>) -> String {
    let name = if used.contains(base) {
        (1..)
            .map(|k| format!("{base}.{k}"))
            .find(|c| !used.contains(c))
            .expect("unbounded candidate space")
    } else {
        base.to_string()
    };
    used.insert(name.clone());
    name
}

/// Deep-copy a statement with fresh ids (duplicated sub-trees must not share
/// identities, or later schedules would resolve and rewrite ambiguously).
pub fn refresh_ids(s: &Stmt) -> Stmt {
    let kind = match &s.kind {
        StmtKind::Block(v) => StmtKind::Block(v.iter().map(refresh_ids).collect()),
        StmtKind::VarDef {
            name,
            shape,
            dtype,
            mtype,
            atype,
            body,
        } => StmtKind::VarDef {
            name: name.clone(),
            shape: shape.clone(),
            dtype: *dtype,
            mtype: *mtype,
            atype: *atype,
            body: Box::new(refresh_ids(body)),
        },
        StmtKind::For {
            iter,
            begin,
            end,
            property,
            body,
        } => StmtKind::For {
            iter: iter.clone(),
            begin: begin.clone(),
            end: end.clone(),
            property: property.clone(),
            body: Box::new(refresh_ids(body)),
        },
        StmtKind::If {
            cond,
            then,
            otherwise,
        } => StmtKind::If {
            cond: cond.clone(),
            then: Box::new(refresh_ids(then)),
            otherwise: otherwise.as_ref().map(|o| Box::new(refresh_ids(o))),
        },
        k => k.clone(),
    };
    Stmt::new(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    #[test]
    fn replace_by_id_hits_nested() {
        let target = store("a", [0], 1.0f32);
        let tid = target.id;
        let mut tree = for_("i", 0, 4, block([target, store("b", [0], 2.0f32)]));
        assert!(replace_by_id(&mut tree, tid, |s| s.same_id(StmtKind::Empty)));
        let mut stores = 0;
        tree.walk(&mut |s| {
            if matches!(s.kind, StmtKind::Store { .. }) {
                stores += 1;
            }
        });
        assert_eq!(stores, 1);
        let before = tree.clone();
        assert!(!replace_by_id(&mut tree, StmtId(u64::MAX), |_| unreachable!("absent")));
        assert_eq!(tree, before);
    }

    #[test]
    fn peel_unwraps_singleton_blocks() {
        let inner = store("a", [0], 1.0f32);
        let iid = inner.id;
        let wrapped = block([block([inner, empty()])]);
        assert_eq!(peel(&wrapped).id, iid);
        let two = block([store("a", [0], 1.0f32), store("a", [1], 2.0f32)]);
        assert_eq!(peel(&two).id, two.id);
    }

    #[test]
    fn as_for_and_extent() {
        let l = for_("i", 2, var("n"), empty());
        let p = as_for(&l).unwrap();
        assert_eq!(p.iter, "i");
        assert_eq!(extent(&p), var("n") - 2);
        assert!(as_for(&empty()).is_err());
    }
}
