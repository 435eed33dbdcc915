//! Dead-code elimination for locally defined tensors.

use ft_ir::mutate::mutate_stmt_walk;
use ft_ir::{AccessType, Expr, Func, Mutator, Stmt, StmtKind};
use std::collections::HashSet;

/// Collect into `out` the tensors read (loaded, or passed to a `LibCall`)
/// by what is left of `s` once the writes into `dead` tensors go, with
/// every loop, branch and definition they leave without effect. Returns
/// whether anything of `s` is left.
fn live_reads<'s>(s: &'s Stmt, dead: &dyn Fn(&str) -> bool, out: &mut HashSet<&'s str>) -> bool {
    let left = match &s.kind {
        StmtKind::Store { var, .. } | StmtKind::ReduceTo { var, .. } => !dead(var),
        // A call's outputs stay defined, read or not.
        StmtKind::LibCall {
            inputs, outputs, ..
        } => {
            out.extend(inputs.iter().chain(outputs).map(String::as_str));
            true
        }
        StmtKind::Block(v) => v
            .iter()
            .fold(false, |left, st| live_reads(st, dead, out) | left),
        StmtKind::VarDef { body, .. } | StmtKind::For { body, .. } => live_reads(body, dead, out),
        StmtKind::If {
            then, otherwise, ..
        } => {
            live_reads(then, dead, out)
                | otherwise.as_ref().is_some_and(|o| live_reads(o, dead, out))
        }
        StmtKind::Empty => false,
    };
    // A dead definition goes, and its shape with it.
    if left && !matches!(&s.kind, StmtKind::VarDef { name, .. } if dead(name)) {
        for e in s.exprs() {
            e.for_each_load(&mut |v| {
                out.insert(v);
            });
        }
    }
    left
}

struct KillWrites<'a> {
    dead: &'a HashSet<String>,
}

impl Mutator for KillWrites<'_> {
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        let Stmt { id, label, kind } = mutate_stmt_walk(self, s);
        let kind = match kind {
            StmtKind::Store { var, .. } | StmtKind::ReduceTo { var, .. }
                if self.dead.contains(&var) =>
            {
                StmtKind::Empty
            }
            // Keep the body (already stripped of writes to `name`).
            StmtKind::VarDef { name, body, .. } if self.dead.contains(&name) => body.kind,
            kind => kind,
        };
        Stmt { id, label, kind }
    }

    fn mutate_expr(&mut self, e: Expr) -> Expr {
        e
    }
}

/// Remove local (`Cache`) definitions that are not live, together with all
/// stores/reductions into them. A tensor is live when it is an output or
/// in-out parameter, or read by what is left of a statement that writes a
/// live tensor (or calls a library kernel), so a chain or cycle of dead
/// tensors goes at once. Loops, branches and blocks left empty are for
/// [`crate::simplify()`]'s control pass to remove. Returns whether anything
/// was removed.
pub fn remove_dead_defs(func: &mut Func) -> bool {
    let mut locals: HashSet<String> = HashSet::new();
    func.body.walk(&mut |s| {
        if let StmtKind::VarDef {
            name,
            atype: AccessType::Cache,
            ..
        } = &s.kind
        {
            locals.insert(name.clone());
        }
    });
    let outputs = func.params.iter();
    let outputs = outputs.filter(|p| matches!(p.atype, AccessType::Output | AccessType::InOut));
    let mut live: HashSet<&str> = outputs.map(|p| p.name.as_str()).collect();
    // Liveness to a fixpoint: each round adds what the writes into the
    // tensors found live so far read.
    while !locals.iter().all(|n| live.contains(n.as_str())) {
        let mut next = live.clone();
        live_reads(
            &func.body,
            &|n| locals.contains(n) && !live.contains(n),
            &mut next,
        );
        if next.len() == live.len() {
            break;
        }
        live = next;
    }
    let dead: HashSet<String> = locals
        .into_iter()
        .filter(|n| !live.contains(n.as_str()))
        .collect();
    if dead.is_empty() {
        return false;
    }
    func.body = KillWrites { dead: &dead }.mutate_stmt(func.body.take());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::DataType;

    #[test]
    fn removes_unread_local() {
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [1],
                DataType::F32,
                MemType::CpuHeap,
                block([store("t", [0], 1.0f32), store("y", [0], 2.0f32)]),
            ));
        let mut out = f;
        assert!(remove_dead_defs(&mut out));
        let mut defs = 0;
        let mut stores = 0;
        out.body.walk(&mut |s| match &s.kind {
            StmtKind::VarDef { .. } => defs += 1,
            StmtKind::Store { .. } => stores += 1,
            _ => {}
        });
        assert_eq!(defs, 0);
        assert_eq!(stores, 1); // only the store to y survives (t's is Empty'd)
    }

    #[test]
    fn keeps_read_locals_and_outputs() {
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [1],
                DataType::F32,
                MemType::CpuHeap,
                block([store("t", [0], 1.0f32), store("y", [0], load("t", [0]))]),
            ));
        let mut out = f.clone();
        assert!(!remove_dead_defs(&mut out));
        assert_eq!(out, f);
    }

    fn count_defs(f: &Func) -> usize {
        let mut defs = 0;
        f.body
            .walk(&mut |s| defs += usize::from(matches!(s.kind, StmtKind::VarDef { .. })));
        defs
    }

    /// `u` reads `t` and nothing reads `u`: both go in one call, whichever
    /// of the two is defined outside the other.
    #[test]
    fn a_dead_cascade_goes_in_one_call_in_both_nesting_orders() {
        for (outer, inner) in [("t", "u"), ("u", "t")] {
            let mut f = Func::new("f")
                .param("y", [1], DataType::F32, AccessType::Output)
                .body(var_def(
                    outer,
                    [1],
                    DataType::F32,
                    MemType::CpuHeap,
                    var_def(
                        inner,
                        [1],
                        DataType::F32,
                        MemType::CpuHeap,
                        block([
                            store("t", [0], 1.0f32),
                            store("u", [0], load("t", [0])),
                            store("y", [0], 3.0f32),
                        ]),
                    ),
                ));
            assert!(remove_dead_defs(&mut f));
            assert_eq!(count_defs(&f), 0, "{f}");
            assert!(!remove_dead_defs(&mut f), "{f}");
        }
    }

    /// A tensor read only by writes into itself, or by a tensor that reads
    /// it back, is dead; one that an output reads keeps what it reads.
    #[test]
    fn liveness_follows_reads_from_the_outputs() {
        let def =
            |name: &str, body: Stmt| var_def(name, [1], DataType::F32, MemType::CpuHeap, body);
        let mut f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(def(
                "a",
                def(
                    "b",
                    def(
                        "c",
                        block([
                            store("a", [0], load("a", [0]) + 1.0f32),
                            store("b", [0], load("c", [0])),
                            store("c", [0], load("b", [0])),
                            store("y", [0], load("c", [0]) * 0.0f32),
                        ]),
                    ),
                ),
            ));
        assert!(remove_dead_defs(&mut f));
        let mut names = Vec::new();
        f.body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                names.push(name.clone());
            }
        });
        assert_eq!(names, ["b", "c"], "{f}");
    }
}
