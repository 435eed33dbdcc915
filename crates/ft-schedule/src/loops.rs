//! Loop transformations: `split`, `merge`, `reorder`, `fission`, `fuse`,
//! `swap` (paper Table 1, "Loop").

use crate::trace::ScheduleOp;
use crate::util::{as_for_ref, extent, peel, peel_into};
use crate::{Schedule, ScheduleError};
use ft_analysis::deps::{
    fission_illegal, fuse_illegal, reorder_illegal, subtree_ids, swap_illegal,
};
use ft_ir::find::Selector;
use ft_ir::mutate::subst_var_stmt;
use ft_ir::{Expr, Stmt, StmtId, StmtKind};
use ft_passes::const_fold_expr;

impl Schedule {
    /// Split a loop into two nested loops: `i -> (i.0, i.1)` with
    /// `i = begin + i.0 * factor + i.1`. Returns `(outer_id, inner_id)`.
    ///
    /// Always legal (pure re-indexing). A guard is inserted unless the
    /// extent is a constant multiple of `factor`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotFound`] when the selector does not resolve, or
    /// [`ScheduleError::Unsupported`] for a non-positive factor.
    pub fn split(
        &mut self,
        loop_sel: impl Into<Selector>,
        factor: i64,
    ) -> Result<(StmtId, StmtId), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?}, {factor})"));
        let r = self.split_impl(sel, factor);
        self.record("split", args, &r);
        r
    }

    fn split_impl(
        &mut self,
        loop_sel: Selector,
        factor: i64,
    ) -> Result<(StmtId, StmtId), ScheduleError> {
        if factor <= 0 {
            return Err(ScheduleError::Unsupported(
                "split factor must be positive".to_string(),
            ));
        }
        let target = self.resolve_ref(loop_sel)?;
        let (id, p) = (target.id, as_for_ref(target)?);
        let ext = extent(&p);
        let n_outer = const_fold_expr((ext.clone() + (factor - 1)) / factor);
        let exact = matches!(&ext, Expr::IntConst(n) if n % factor == 0);
        let iter = p.iter.to_string();
        let outer_name = format!("{iter}.0");
        let inner_name = format!("{iter}.1");
        // i := begin + i.0 * factor + i.1
        let recon = const_fold_expr(
            p.begin.clone()
                + ft_ir::builder::var(&outer_name) * factor
                + ft_ir::builder::var(&inner_name),
        );
        let guard = (!exact).then(|| recon.clone().lt(p.end.clone()));
        let mut inner_id = id;
        self.rewrite(id, |mut s| {
            let StmtKind::For {
                iter: it,
                begin,
                end,
                body,
                ..
            } = &mut s.kind
            else {
                unreachable!("checked above")
            };
            let new_body = subst_var_stmt(body.take(), &iter, &recon);
            let guarded = match guard {
                None => new_body,
                Some(cond) => ft_ir::builder::if_(cond, new_body),
            };
            let inner = ft_ir::builder::for_(&inner_name, 0, factor, guarded);
            inner_id = inner.id;
            (*it, *begin, *end, **body) = (outer_name, Expr::IntConst(0), n_outer, inner);
            s
        })?;
        Ok((id, inner_id))
    }

    /// Merge two perfectly nested loops into one: `(i, j) -> i.j` with
    /// `i = begin_i + m / ext_j`, `j = begin_j + m % ext_j`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] unless `inner` is the only statement of
    /// `outer`'s body and its bounds do not depend on `outer`'s iterator.
    pub fn merge(
        &mut self,
        outer_sel: impl Into<Selector>,
        inner_sel: impl Into<Selector>,
    ) -> Result<StmtId, ScheduleError> {
        let (outer_sel, inner_sel) = (outer_sel.into(), inner_sel.into());
        let args = self
            .tracing()
            .then(|| format!("({outer_sel:?}, {inner_sel:?})"));
        let r = self.merge_impl(outer_sel, inner_sel);
        self.record("merge", args, &r);
        r
    }

    fn merge_impl(
        &mut self,
        outer_sel: Selector,
        inner_sel: Selector,
    ) -> Result<StmtId, ScheduleError> {
        let outer = self.resolve_ref(outer_sel)?;
        let (outer_id, po) = (outer.id, as_for_ref(outer)?);
        let inner = peel(po.body);
        let pi = as_for_ref(inner)?;
        if inner.id != self.resolve(inner_sel)? {
            return Err(ScheduleError::Unsupported(
                "merge requires the inner loop to be the outer loop's only statement".to_string(),
            ));
        }
        for e in [pi.begin, pi.end] {
            if e.free_vars().contains(po.iter) {
                return Err(ScheduleError::Unsupported(
                    "inner loop bounds depend on the outer iterator".to_string(),
                ));
            }
        }
        let ext_o = extent(&po);
        let ext_i = extent(&pi);
        let (iter_o, iter_i) = (po.iter.to_string(), pi.iter.to_string());
        let merged_name = format!("{iter_o}.{iter_i}");
        let m = ft_ir::builder::var(&merged_name);
        let i_val = const_fold_expr(po.begin.clone() + m.clone() / ext_i.clone());
        let j_val = const_fold_expr(pi.begin.clone() + m.rem(ext_i.clone()));
        self.rewrite(outer_id, |mut s| {
            let StmtKind::For {
                iter,
                begin,
                end,
                body,
                ..
            } = &mut s.kind
            else {
                unreachable!("checked above")
            };
            let StmtKind::For { body: inner, .. } = peel_into(body.take()).kind else {
                unreachable!("checked above")
            };
            let inner = subst_var_stmt(*inner, &iter_i, &j_val);
            **body = subst_var_stmt(inner, &iter_o, &i_val);
            let merged_end = const_fold_expr(ext_o * ext_i);
            (*iter, *begin, *end) = (merged_name, Expr::IntConst(0), merged_end);
            s
        })?;
        Ok(outer_id)
    }

    /// Permute a perfect loop nest into the given order (outermost first).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Illegal`] when a dependence would be reversed
    /// (paper Fig. 12); [`ScheduleError::Unsupported`] when the loops do not
    /// form a perfect nest.
    pub fn reorder(&mut self, order: &[&str]) -> Result<(), ScheduleError> {
        let args = self.tracing().then(|| format!("({order:?})"));
        let r = self.reorder_impl(order);
        self.record("reorder", args, &r);
        r
    }

    fn reorder_impl(&mut self, order: &[&str]) -> Result<(), ScheduleError> {
        if order.len() < 2 {
            return Ok(());
        }
        // Resolve each named loop.
        let ids: Vec<StmtId> = order
            .iter()
            .map(|n| self.resolve(*n))
            .collect::<Result<_, _>>()?;
        // Find the nest as written: the outermost of the requested loops must
        // contain the others as a perfect chain.
        let body = &self.func().body;
        let top_id = *ids
            .iter()
            .find(|id| {
                let sub = ft_ir::find::find_by_id(body, **id).expect("resolved above");
                let inside = subtree_ids(sub);
                ids.iter().all(|other| inside.contains(other))
            })
            .ok_or_else(|| {
                ScheduleError::Unsupported("loops do not form a single nest".to_string())
            })?;
        let mut nest_ids: Vec<StmtId> = Vec::new();
        let mut cur = ft_ir::find::find_by_id(body, top_id).expect("resolved above");
        loop {
            let p = as_for_ref(cur)?;
            nest_ids.push(cur.id);
            let peeled = peel(p.body);
            if nest_ids.len() == order.len() {
                break;
            }
            if !matches!(peeled.kind, StmtKind::For { .. }) {
                return Err(ScheduleError::Unsupported(
                    "loops do not form a perfect nest".to_string(),
                ));
            }
            cur = peeled;
        }
        if ids.iter().any(|id| !nest_ids.contains(id)) {
            return Err(ScheduleError::Unsupported(
                "requested loops are not a perfect nest chain".to_string(),
            ));
        }
        // Legality.
        if let Some(v) = reorder_illegal(self.func(), &nest_ids, &ids) {
            self.note_deps(&v.deps);
            return Err(ScheduleError::Illegal(v.to_string()));
        }
        // Rebuild the nest in the new order, moving each level's parts.
        self.rewrite(top_id, |top| {
            let mut levels = Vec::with_capacity(nest_ids.len());
            let mut cur = top;
            let mut body = loop {
                let StmtKind::For { body, .. } = &mut cur.kind else {
                    unreachable!("checked above")
                };
                let inner = peel_into(body.take());
                levels.push(cur);
                if levels.len() == nest_ids.len() {
                    break inner;
                }
                cur = inner;
            };
            for id in ids.iter().rev() {
                let at = levels
                    .iter()
                    .position(|l| l.id == *id)
                    .expect("checked membership");
                let mut level = levels.swap_remove(at);
                let StmtKind::For { body: slot, .. } = &mut level.kind else {
                    unreachable!("checked above")
                };
                **slot = body;
                body = level;
            }
            body
        })
    }

    /// Fission a loop into two consecutive loops at the boundary *after* the
    /// statement `after_sel` (which must be a direct child of the loop body).
    /// Returns the two loop ids.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Illegal`] when separating the parts would reverse a
    /// dependence.
    pub fn fission(
        &mut self,
        loop_sel: impl Into<Selector>,
        after_sel: impl Into<Selector>,
    ) -> Result<(StmtId, StmtId), ScheduleError> {
        let (loop_sel, after_sel) = (loop_sel.into(), after_sel.into());
        let args = self
            .tracing()
            .then(|| format!("({loop_sel:?}, {after_sel:?})"));
        let r = self.fission_impl(loop_sel, after_sel);
        self.record("fission", args, &r);
        r
    }

    fn fission_impl(
        &mut self,
        loop_sel: Selector,
        after_sel: Selector,
    ) -> Result<(StmtId, StmtId), ScheduleError> {
        let target = self.resolve_ref(loop_sel)?;
        let (id, p) = (target.id, as_for_ref(target)?);
        let after_id = self.resolve(after_sel)?;
        let StmtKind::Block(items) = &peel(p.body).kind else {
            return Err(ScheduleError::Unsupported(
                "fission needs a multi-statement loop body".to_string(),
            ));
        };
        let cut = items.iter().position(|s| s.id == after_id).ok_or_else(|| {
            ScheduleError::Unsupported(
                "fission boundary must be a direct child of the loop body".to_string(),
            )
        })? + 1;
        if cut == items.len() {
            return Err(ScheduleError::Unsupported(
                "fission boundary is already the end of the body".to_string(),
            ));
        }
        let first_ids: std::collections::HashSet<StmtId> =
            items[..cut].iter().flat_map(subtree_ids).collect();
        let iter = p.iter.to_string();
        if let Some(v) = fission_illegal(self.func(), id, &|id| first_ids.contains(&id)) {
            self.note_deps(&v.deps);
            return Err(ScheduleError::Illegal(v.to_string()));
        }
        // Tensors defined before the cut but used after it would be severed;
        // reject (hoisting them is a separate concern).
        let second_iter = format!("{iter}.b");
        let mut id2 = id;
        self.rewrite(id, |mut loop1| {
            let StmtKind::For {
                begin, end, body, ..
            } = &mut loop1.kind
            else {
                unreachable!("checked above")
            };
            let StmtKind::Block(mut first) = peel_into(body.take()).kind else {
                unreachable!("checked above")
            };
            let second = first.split_off(cut);
            **body = Stmt::new(StmtKind::Block(first));
            let second_body = subst_var_stmt(
                Stmt::new(StmtKind::Block(second)),
                &iter,
                &ft_ir::builder::var(&second_iter),
            );
            let loop2 = ft_ir::builder::for_(&second_iter, begin.clone(), end.clone(), second_body);
            id2 = loop2.id;
            Stmt::new(StmtKind::Block(vec![loop1, loop2]))
        })?;
        Ok((id, id2))
    }

    /// Fuse two consecutive loops with equal extents into one.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Illegal`] when fusing would reverse a dependence
    /// (the paper's `dot_max` example); [`ScheduleError::Unsupported`] when
    /// the loops are not adjacent siblings with equal extents.
    pub fn fuse(
        &mut self,
        first_sel: impl Into<Selector>,
        second_sel: impl Into<Selector>,
    ) -> Result<StmtId, ScheduleError> {
        let (first_sel, second_sel) = (first_sel.into(), second_sel.into());
        let args = self
            .tracing()
            .then(|| format!("({first_sel:?}, {second_sel:?})"));
        let op = self.loop_pos(&first_sel).zip(self.loop_pos(&second_sel));
        let op = op.map(|(first_idx, second_idx)| ScheduleOp::Fuse {
            first_idx,
            second_idx,
        });
        let r = self.fuse_impl(first_sel, second_sel);
        self.note_op(op, &r);
        self.record("fuse", args, &r);
        r
    }

    fn fuse_impl(
        &mut self,
        first_sel: Selector,
        second_sel: Selector,
    ) -> Result<StmtId, ScheduleError> {
        let l1 = self.resolve_ref(first_sel)?;
        let l2 = self.resolve_ref(second_sel)?;
        let (id1, id2) = (l1.id, l2.id);
        let p1 = as_for_ref(l1)?;
        let p2 = as_for_ref(l2)?;
        // Must be adjacent siblings of some block.
        let parent = ft_ir::find::find_stmt(&self.func().body, &|s| {
            matches!(&s.kind, StmtKind::Block(v)
                if v.iter().any(|x| x.id == id1) && v.iter().any(|x| x.id == id2))
        })
        .ok_or_else(|| ScheduleError::Unsupported("loops to fuse must be siblings".to_string()))?;
        let StmtKind::Block(items) = &parent.kind else {
            unreachable!()
        };
        let pos1 = items.iter().position(|s| s.id == id1).unwrap();
        let pos2 = items.iter().position(|s| s.id == id2).unwrap();
        if pos2 != pos1 + 1 {
            return Err(ScheduleError::Unsupported(
                "loops to fuse must be adjacent".to_string(),
            ));
        }
        let e1 = extent(&p1);
        let e2 = extent(&p2);
        if const_fold_expr(e1.clone() - e2.clone()) != Expr::IntConst(0) {
            return Err(ScheduleError::Unsupported(format!(
                "loop extents differ: {e1:?} vs {e2:?}"
            )));
        }
        // Second body re-indexed onto the first iterator (paper's "+w" shift).
        let shifted =
            const_fold_expr(ft_ir::builder::var(p1.iter) - p1.begin.clone() + p2.begin.clone());
        let iter2 = p2.iter.to_string();
        let parent_id = parent.id;
        if let Some(v) = fuse_illegal(self.func(), id1, id2) {
            self.note_deps(&v.deps);
            return Err(ScheduleError::Illegal(v.to_string()));
        }
        self.rewrite(parent_id, |mut s| {
            let StmtKind::Block(items) = &mut s.kind else {
                unreachable!()
            };
            let StmtKind::For { body: body2, .. } = items.remove(pos2).kind else {
                unreachable!("checked above")
            };
            let StmtKind::For { body, .. } = &mut items[pos1].kind else {
                unreachable!("checked above")
            };
            let body2 = subst_var_stmt(*body2, &iter2, &shifted);
            **body = Stmt::new(StmtKind::Block(vec![body.take(), body2]));
            s
        })?;
        Ok(id1)
    }

    /// Swap two consecutive statements (including whole loops).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Illegal`] when the statements conflict within one
    /// iteration of their common loops.
    pub fn swap(
        &mut self,
        first_sel: impl Into<Selector>,
        second_sel: impl Into<Selector>,
    ) -> Result<(), ScheduleError> {
        let (first_sel, second_sel) = (first_sel.into(), second_sel.into());
        let args = self
            .tracing()
            .then(|| format!("({first_sel:?}, {second_sel:?})"));
        let r = self.swap_impl(first_sel, second_sel);
        self.record("swap", args, &r);
        r
    }

    fn swap_impl(
        &mut self,
        first_sel: Selector,
        second_sel: Selector,
    ) -> Result<(), ScheduleError> {
        let id1 = self.resolve(first_sel)?;
        let id2 = self.resolve(second_sel)?;
        let parent = ft_ir::find::find_stmt(&self.func().body, &|s| {
            matches!(&s.kind, StmtKind::Block(v)
                if v.iter().any(|x| x.id == id1) && v.iter().any(|x| x.id == id2))
        })
        .ok_or_else(|| ScheduleError::Unsupported("statements must be siblings".to_string()))?;
        let StmtKind::Block(items) = &parent.kind else {
            unreachable!()
        };
        let pos1 = items.iter().position(|s| s.id == id1).unwrap();
        let pos2 = items.iter().position(|s| s.id == id2).unwrap();
        if pos1.abs_diff(pos2) != 1 {
            return Err(ScheduleError::Unsupported(
                "statements to swap must be adjacent".to_string(),
            ));
        }
        if let Some(v) = swap_illegal(self.func(), id1.min(id2), id1.max(id2)) {
            self.note_deps(&v.deps);
            return Err(ScheduleError::Illegal(v.to_string()));
        }
        let parent_id = parent.id;
        self.rewrite(parent_id, |s| {
            let StmtKind::Block(mut items) = s.kind else {
                unreachable!()
            };
            items.swap(pos1, pos2);
            Stmt {
                id: s.id,
                label: s.label,
                kind: StmtKind::Block(items),
            }
        })
    }
}
