//! Locating statements in a tree: by id, label, predicate; computing parent
//! maps and surrounding loop nests (used by the scheduler and analyses).

use crate::expr::Expr;
use crate::func::Func;
use crate::stmt::{Stmt, StmtId, StmtKind};
use std::collections::HashMap;

/// Find the first statement (pre-order) satisfying `pred`.
pub fn find_stmt<'a>(root: &'a Stmt, pred: &dyn Fn(&Stmt) -> bool) -> Option<&'a Stmt> {
    if pred(root) {
        return Some(root);
    }
    for c in root.children() {
        if let Some(found) = find_stmt(c, pred) {
            return Some(found);
        }
    }
    None
}

/// Find all statements (pre-order) satisfying `pred`.
pub fn find_stmts<'a>(root: &'a Stmt, pred: &dyn Fn(&Stmt) -> bool) -> Vec<&'a Stmt> {
    let mut out = Vec::new();
    fn rec<'a>(s: &'a Stmt, pred: &dyn Fn(&Stmt) -> bool, out: &mut Vec<&'a Stmt>) {
        if pred(s) {
            out.push(s);
        }
        for c in s.children() {
            rec(c, pred, out);
        }
    }
    rec(root, pred, &mut out);
    out
}

/// Find a statement by id.
pub fn find_by_id(root: &Stmt, id: StmtId) -> Option<&Stmt> {
    find_stmt(root, &|s| s.id == id)
}

/// Find a statement by label.
pub fn find_by_label<'a>(root: &'a Stmt, label: &str) -> Option<&'a Stmt> {
    find_stmt(root, &|s| s.label.as_deref() == Some(label))
}

/// Find the loop with the given iterator name (first match, pre-order).
pub fn find_loop<'a>(root: &'a Stmt, iter_name: &str) -> Option<&'a Stmt> {
    find_stmt(
        root,
        &|s| matches!(&s.kind, StmtKind::For { iter, .. } if iter == iter_name),
    )
}

/// Map from each statement id to its parent's id.
pub fn parent_map(root: &Stmt) -> HashMap<StmtId, StmtId> {
    let mut map = HashMap::new();
    fn rec(s: &Stmt, map: &mut HashMap<StmtId, StmtId>) {
        for c in s.children() {
            map.insert(c.id, s.id);
            rec(c, map);
        }
    }
    rec(root, &mut map);
    map
}

/// One level of a loop nest surrounding a statement, borrowed from the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopLevel<'a> {
    /// Id of the `For` statement.
    pub id: StmtId,
    /// Iterator variable name.
    pub iter: &'a str,
    /// Lower bound (inclusive).
    pub begin: &'a Expr,
    /// Upper bound (exclusive).
    pub end: &'a Expr,
}

/// The loop nest (outermost first) surrounding a statement, plus the
/// `VarDef`s in scope.
#[derive(Debug, Clone, Default)]
pub struct LoopNest<'a> {
    /// Surrounding loops, outermost first.
    pub loops: Vec<LoopLevel<'a>>,
    /// Names of tensors defined by surrounding `VarDef`s (innermost last).
    pub defs: Vec<&'a str>,
}

/// Compute the surrounding loop nest of the statement with id `target`.
///
/// Returns `None` when `target` is not in the tree.
pub fn loop_nest_of(root: &Stmt, target: StmtId) -> Option<LoopNest<'_>> {
    fn rec<'a>(s: &'a Stmt, target: StmtId, cur: &mut LoopNest<'a>) -> bool {
        if s.id == target {
            return true;
        }
        let depth = (cur.loops.len(), cur.defs.len());
        match &s.kind {
            StmtKind::For {
                iter, begin, end, ..
            } => cur.loops.push(LoopLevel {
                id: s.id,
                iter,
                begin,
                end,
            }),
            StmtKind::VarDef { name, .. } => cur.defs.push(name),
            _ => {}
        }
        if s.children().any(|c| rec(c, target, cur)) {
            return true;
        }
        cur.loops.truncate(depth.0);
        cur.defs.truncate(depth.1);
        false
    }
    let mut nest = LoopNest::default();
    rec(root, target, &mut nest).then_some(nest)
}

/// Find a statement in a function by any selector the schedule API accepts.
#[derive(Debug, Clone)]
pub enum Selector {
    /// By stable id.
    Id(StmtId),
    /// By user label.
    Label(String),
    /// By loop iterator name (selects the `For` statement).
    Loop(String),
}

impl From<StmtId> for Selector {
    fn from(id: StmtId) -> Self {
        Selector::Id(id)
    }
}

impl From<&str> for Selector {
    fn from(s: &str) -> Self {
        Selector::Loop(s.to_string())
    }
}

impl Selector {
    /// Resolve this selector in a function body.
    pub fn resolve<'a>(&self, func: &'a Func) -> Option<&'a Stmt> {
        match self {
            Selector::Id(id) => find_by_id(&func.body, *id),
            Selector::Label(l) => find_by_label(&func.body, l),
            Selector::Loop(name) => find_loop(&func.body, name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn nest() -> Stmt {
        for_(
            "i",
            0,
            8,
            var_def(
                "t",
                [4],
                crate::types::DataType::F32,
                crate::types::MemType::CpuHeap,
                for_("j", 0, 4, store("t", [var("j")], 0.0f32).with_label("S")),
            ),
        )
    }

    #[test]
    fn find_by_label_and_loop() {
        let s = nest();
        assert!(find_by_label(&s, "S").is_some());
        assert!(find_by_label(&s, "T").is_none());
        assert!(find_loop(&s, "j").is_some());
        assert!(find_loop(&s, "k").is_none());
    }

    #[test]
    fn parent_map_links_children() {
        let s = nest();
        let pm = parent_map(&s);
        let store_stmt = find_by_label(&s, "S").unwrap();
        let j_loop = find_loop(&s, "j").unwrap();
        assert_eq!(pm[&store_stmt.id], j_loop.id);
        assert!(!pm.contains_key(&s.id)); // root has no parent
    }

    #[test]
    fn loop_nest_collects_loops_and_defs() {
        let s = nest();
        let store_stmt = find_by_label(&s, "S").unwrap();
        let n = loop_nest_of(&s, store_stmt.id).unwrap();
        assert_eq!(
            n.loops.iter().map(|l| l.iter).collect::<Vec<_>>(),
            ["i", "j"]
        );
        assert_eq!(n.defs, ["t"]);
        assert!(loop_nest_of(&s, StmtId(u64::MAX)).is_none());
    }
}
