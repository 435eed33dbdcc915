//! Parallelizing transformations: `parallelize`, `unroll`, `blend`,
//! `vectorize` (paper Table 1, "Parallelizing Trans.").

use crate::util::{as_for_ref, peel, peel_into, replace_by_id, ForRef};
use crate::{Schedule, ScheduleError};
use ft_analysis::collect_accesses;
use ft_analysis::deps::{
    carried_reductions_in, fission_illegal, loop_carried_deps, loop_carried_deps_in, subtree_ids,
};
use ft_ir::find::Selector;
use ft_ir::mutate::{refresh_ids, subst_var_stmt};
use ft_ir::{Expr, MemType, ParallelScope, Stmt, StmtId, StmtKind};
use std::collections::HashSet;

impl Schedule {
    /// Run a loop's iterations in parallel under the given hardware scope.
    ///
    /// Carried dependences block parallelization (paper Fig. 13(b)) —
    /// except same-operator reductions, which are lowered to atomic updates
    /// (random-access reductions, Fig. 13(e)) or parallel reductions
    /// (same-index reductions, Fig. 13(d)). Tensors living in thread-local
    /// memory but written across the loop (Fig. 13(c)) are also rejected.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Illegal`] on a blocking dependence.
    pub fn parallelize(
        &mut self,
        loop_sel: impl Into<Selector>,
        scope: ParallelScope,
    ) -> Result<(), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?}, {scope:?})"));
        let r = self.parallelize_impl(sel, scope);
        self.record("parallelize", args, &r);
        r
    }

    fn parallelize_impl(
        &mut self,
        loop_sel: Selector,
        scope: ParallelScope,
    ) -> Result<(), ScheduleError> {
        let target = self.resolve_ref(loop_sel)?;
        let (id, iter) = (target.id, as_for_ref(target)?.iter);
        let info = collect_accesses(self.func());
        let blockers = loop_carried_deps_in(&info, id);
        if let Some(dep) = blockers.first() {
            let msg = format!(
                "loop `{iter}` carries a {:?} dependence on `{}` ({} -> {})",
                dep.kind, dep.var, dep.source, dep.sink
            );
            self.note_deps(&blockers);
            return Err(ScheduleError::Illegal(msg));
        }
        // Fig. 13(c): a tensor in thread-local storage defined outside the
        // parallel loop is not visible to the other threads.
        let mut thread_local = HashSet::new();
        self.func().body.walk(&mut |s| {
            if let StmtKind::VarDef {
                mtype: MemType::GpuLocal | MemType::CpuStack,
                ..
            } = s.kind
            {
                thread_local.insert(s.id);
            }
        });
        let written_outside = info.accesses.iter().find(|a| {
            a.kind.writes()
                && a.loops.iter().any(|l| l.id == id)
                && a.def.is_some_and(|d| thread_local.contains(&d))
                && info
                    .def_loops(a)
                    .is_some_and(|containing| !containing.contains(&id))
        });
        if let Some(acc) = written_outside {
            return Err(ScheduleError::Illegal(format!(
                "tensor `{}` is thread-local but defined outside the parallel loop (Fig. 13(c))",
                acc.var
            )));
        }
        // Reductions updated by multiple iterations become atomic.
        let atomics = carried_reductions_in(&info, id);
        for rid in atomics {
            let found = replace_by_id(&mut self.func_mut().body, rid, |mut s| {
                if let StmtKind::ReduceTo { atomic, .. } = &mut s.kind {
                    *atomic = true;
                }
                s
            });
            assert!(found, "reduction id came from this tree");
        }
        self.rewrite(id, |mut s| {
            if let StmtKind::For { property, .. } = &mut s.kind {
                property.parallel = scope;
            }
            s
        })
    }

    /// Fully unroll a constant-extent loop into a sequence of bodies.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when the trip count is not a constant
    /// or exceeds the unroll limit (64).
    pub fn unroll(&mut self, loop_sel: impl Into<Selector>) -> Result<(), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?})"));
        let r = self.unroll_impl(sel);
        self.record("unroll", args, &r);
        r
    }

    fn unroll_impl(&mut self, loop_sel: Selector) -> Result<(), ScheduleError> {
        let (id, p, b, e) = self.constant_trip(loop_sel, "unroll")?;
        let iter = p.iter.to_string();
        self.rewrite(id, |s| {
            let StmtKind::For { body, .. } = s.kind else {
                unreachable!("checked above")
            };
            let copies = (b..e)
                .map(|i| subst_var_stmt(refresh_ids((*body).clone()), &iter, &Expr::IntConst(i)))
                .collect();
            Stmt {
                kind: StmtKind::Block(copies),
                ..s
            }
        })
    }

    /// The loop `unroll` or `blend` (`what`) is asked to expand, in place,
    /// with its constant bounds: at most 64 iterations.
    fn constant_trip(
        &self,
        loop_sel: Selector,
        what: &str,
    ) -> Result<(StmtId, ForRef<'_>, i64, i64), ScheduleError> {
        let target = self.resolve_ref(loop_sel)?;
        let p = as_for_ref(target)?;
        let (Some(b), Some(e)) = (
            ft_passes::const_fold_expr(p.begin.clone()).as_int(),
            ft_passes::const_fold_expr(p.end.clone()).as_int(),
        ) else {
            return Err(ScheduleError::Unsupported(format!(
                "{what} requires constant loop bounds"
            )));
        };
        if e - b > 64 {
            return Err(ScheduleError::Unsupported(format!(
                "{what} limit exceeded: {} iterations",
                e - b
            )));
        }
        Ok((target.id, p, b, e))
    }

    /// Unroll a loop and interleave the statements of its iterations:
    /// statement `s_j` of all iterations becomes adjacent (paper `blend`).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Illegal`] when regrouping would reverse a dependence
    /// (checked like a fission at every statement boundary), or
    /// [`ScheduleError::Unsupported`] for non-constant bounds.
    pub fn blend(&mut self, loop_sel: impl Into<Selector>) -> Result<(), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?})"));
        let r = self.blend_impl(sel);
        self.record("blend", args, &r);
        r
    }

    fn blend_impl(&mut self, loop_sel: Selector) -> Result<(), ScheduleError> {
        let (id, p, b, e) = self.constant_trip(loop_sel, "blend")?;
        let iter = p.iter.to_string();
        let body = peel(p.body);
        let items = match &body.kind {
            StmtKind::Block(v) => v.as_slice(),
            _ => std::slice::from_ref(body),
        };
        // Blending hoists statement j of iteration i+1 above statement j+1
        // of iteration i — the same reversal a fission at each boundary
        // would cause; verify each boundary.
        for cut in 1..items.len() {
            let first_ids: HashSet<StmtId> = items[..cut].iter().flat_map(subtree_ids).collect();
            if let Some(v) = fission_illegal(self.func(), id, &|id| first_ids.contains(&id)) {
                self.note_deps(&v.deps);
                return Err(ScheduleError::Illegal(v.to_string()));
            }
        }
        self.rewrite(id, |s| {
            let StmtKind::For { body, .. } = s.kind else {
                unreachable!("checked above")
            };
            let body = peel_into(*body);
            let items = match body.kind {
                StmtKind::Block(v) => v,
                _ => vec![body],
            };
            let mut out: Vec<Stmt> = Vec::new();
            for stmt in &items {
                for i in b..e {
                    let copy = refresh_ids(stmt.clone());
                    out.push(subst_var_stmt(copy, &iter, &Expr::IntConst(i)));
                }
            }
            Stmt {
                kind: StmtKind::Block(out),
                ..s
            }
        })
    }

    /// Implement a loop with vector instructions.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Illegal`] when the loop carries a dependence (vector
    /// lanes execute concurrently).
    pub fn vectorize(&mut self, loop_sel: impl Into<Selector>) -> Result<(), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?})"));
        let r = self.vectorize_impl(sel);
        self.record("vectorize", args, &r);
        r
    }

    fn vectorize_impl(&mut self, loop_sel: Selector) -> Result<(), ScheduleError> {
        let target = self.resolve_ref(loop_sel)?;
        let (id, iter) = (target.id, as_for_ref(target)?.iter);
        let blockers = loop_carried_deps(self.func(), id);
        if let Some(dep) = blockers.first() {
            let msg = format!(
                "loop `{iter}` carries a {:?} dependence on `{}`",
                dep.kind, dep.var
            );
            self.note_deps(&blockers);
            return Err(ScheduleError::Illegal(msg));
        }
        self.rewrite(id, |mut s| {
            if let StmtKind::For { property, .. } = &mut s.kind {
                property.vectorize = true;
            }
            s
        })
    }
}
