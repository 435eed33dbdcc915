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
    let old = node.take();
    *node = f(old);
    true
}

/// Unwrap single-statement blocks: the "real" statement a body consists of.
pub fn peel(s: &Stmt) -> &Stmt {
    match &s.kind {
        StmtKind::Block(v) => {
            let mut non_empty = v.iter().filter(|st| !st.is_empty());
            match (non_empty.next(), non_empty.next()) {
                (Some(only), None) => peel(only),
                _ => s,
            }
        }
        _ => s,
    }
}

/// [`peel`] by value: the statement a body consists of, moved out.
pub fn peel_into(s: Stmt) -> Stmt {
    match s.kind {
        StmtKind::Block(v) if v.iter().filter(|st| !st.is_empty()).count() == 1 => peel_into(
            v.into_iter()
                .find(|st| !st.is_empty())
                .expect("one non-empty"),
        ),
        kind => Stmt { kind, ..s },
    }
}

/// A loop seen in place.
pub struct ForRef<'a> {
    /// Iterator name.
    pub iter: &'a str,
    /// Inclusive lower bound.
    pub begin: &'a Expr,
    /// Exclusive upper bound.
    pub end: &'a Expr,
    /// Scheduling attributes.
    pub property: &'a ft_ir::ForProperty,
    /// Loop body.
    pub body: &'a Stmt,
}

/// View a statement as a loop without copying it.
pub fn as_for_ref(s: &Stmt) -> Result<ForRef<'_>, ScheduleError> {
    match &s.kind {
        StmtKind::For {
            iter,
            begin,
            end,
            property,
            body,
        } => Ok(ForRef {
            iter,
            begin,
            end,
            property,
            body,
        }),
        _ => Err(not_a_loop(s)),
    }
}

/// The error of a primitive that needs a loop at `s`. It names the
/// statement's kind and id, not its subtree: `auto_use_lib` probes every
/// loop nest and drops most of these.
fn not_a_loop(s: &Stmt) -> ScheduleError {
    let kind = match &s.kind {
        StmtKind::Block(_) => "a block",
        StmtKind::VarDef { .. } => "a definition",
        StmtKind::For { .. } => "a loop",
        StmtKind::If { .. } => "a branch",
        StmtKind::Store { .. } => "a store",
        StmtKind::ReduceTo { .. } => "a reduction",
        StmtKind::LibCall { .. } => "a library call",
        StmtKind::Empty => "an empty statement",
    };
    ScheduleError::Unsupported(format!("expected a for-loop, found {kind} ({:?})", s.id))
}

/// The extent (`end - begin`) of a loop, constant-folded.
pub fn extent(l: &ForRef<'_>) -> Expr {
    ft_passes::const_fold_expr(l.end.clone() - l.begin.clone())
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
        assert!(!replace_by_id(
            &mut tree,
            StmtId(u64::MAX),
            |_| unreachable!("absent")
        ));
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
    fn peel_into_moves_what_peel_sees() {
        let inner = store("a", [0], 1.0f32);
        let iid = inner.id;
        assert_eq!(peel_into(block([block([inner, empty()])])).id, iid);
        let two = block([store("a", [0], 1.0f32), store("a", [1], 2.0f32)]);
        let tid = two.id;
        assert_eq!(peel_into(two).id, tid);
    }

    #[test]
    fn as_for_ref_and_extent() {
        let l = for_("i", 2, var("n"), empty());
        let p = as_for_ref(&l).unwrap();
        assert_eq!(p.iter, "i");
        assert_eq!(extent(&p), var("n") - 2);
        assert!(as_for_ref(&empty()).is_err());
    }
}
