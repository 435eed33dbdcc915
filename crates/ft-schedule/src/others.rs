//! Remaining transformations: `as_lib` and `separate_tail`
//! (paper Table 1, "Others").

use crate::util::{as_for, peel, refresh_ids, replace_by_id};
use crate::trace::ScheduleOp;
use crate::{Schedule, ScheduleError};
use ft_analysis::to_linexpr;
use ft_ir::find::Selector;
use ft_ir::{BinaryOp, Expr, ReduceOp, Stmt, StmtId, StmtKind};
use ft_passes::const_fold_expr;

impl Schedule {
    /// Replace a matrix-multiplication loop nest with a call to the vendor
    /// library kernel (`as_lib`). The nest must have the canonical shape
    ///
    /// ```text
    /// for i in 0..M:
    ///   for j in 0..N:
    ///     [C[i, j] = 0]            # optional zero-init
    ///     for k in 0..K:
    ///       C[i, j] += A[i, k] * B[k, j]
    /// ```
    ///
    /// with constant `M`, `K`, `N`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when the nest does not match.
    pub fn as_lib(&mut self, loop_sel: impl Into<Selector>) -> Result<(), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?})"));
        let op = self.loop_pos(&sel).map(|loop_idx| ScheduleOp::AsLib { loop_idx });
        let r = self.as_lib_impl(sel);
        self.note_op(op, &r);
        self.record("as_lib", args, &r);
        r
    }

    fn as_lib_impl(&mut self, loop_sel: Selector) -> Result<(), ScheduleError> {
        let target = self.resolve_stmt(loop_sel)?;
        let pi = as_for(&target)?;
        let pj = as_for(peel(&pi.body))?;
        let unsup = |m: &str| ScheduleError::Unsupported(format!("as_lib: {m}"));
        // The j-body: optional init store, then the k loop.
        let jbody = peel(&pj.body).clone();
        let (init, kloop) = match &jbody.kind {
            StmtKind::Block(v) => {
                let items: Vec<&Stmt> = v.iter().filter(|s| !s.is_empty()).collect();
                match items.as_slice() {
                    [a, b] => (Some((*a).clone()), (*b).clone()),
                    [a] => (None, (*a).clone()),
                    _ => return Err(unsup("j-loop body is not (init?, k-loop)")),
                }
            }
            StmtKind::For { .. } => (None, jbody.clone()),
            _ => return Err(unsup("j-loop body is not a loop")),
        };
        let pk = as_for(&kloop)?;
        // Check constant extents, zero-based.
        let dims: Vec<i64> = [&pi, &pj, &pk]
            .iter()
            .map(|p| {
                if p.begin.as_int() != Some(0) {
                    return Err(unsup("loops must start at 0"));
                }
                const_fold_expr(p.end.clone())
                    .as_int()
                    .ok_or_else(|| unsup("loop extents must be constants"))
            })
            .collect::<Result<_, _>>()?;
        let (m, n, k) = (dims[0], dims[1], dims[2]);
        // Innermost statement: C[i, j] += A[i, k] * B[k, j].
        let StmtKind::ReduceTo {
            var: c,
            indices,
            op: ReduceOp::Add,
            value,
            ..
        } = &peel(&pk.body).kind
        else {
            return Err(unsup("innermost statement is not `+=`"));
        };
        let is = |e: &Expr, n: &str| matches!(e, Expr::Var(v) if v == n);
        if indices.len() != 2 || !is(&indices[0], &pi.iter) || !is(&indices[1], &pj.iter) {
            return Err(unsup("accumulator must be C[i, j]"));
        }
        let Expr::Binary {
            op: BinaryOp::Mul,
            a,
            b,
        } = value
        else {
            return Err(unsup("innermost value is not a product"));
        };
        let (Expr::Load { var: av, indices: ai }, Expr::Load { var: bv, indices: bi }) =
            (a.as_ref(), b.as_ref())
        else {
            return Err(unsup("product operands must be loads"));
        };
        if ai.len() != 2
            || bi.len() != 2
            || !is(&ai[0], &pi.iter)
            || !is(&ai[1], &pk.iter)
            || !is(&bi[0], &pk.iter)
            || !is(&bi[1], &pj.iter)
        {
            return Err(unsup("operands must be A[i, k] and B[k, j]"));
        }
        // Validate the optional init: C[i, j] = 0.
        if let Some(init) = &init {
            let ok = matches!(&init.kind, StmtKind::Store { var, indices, value }
                if var == c && indices.len() == 2
                    && is(&indices[0], &pi.iter) && is(&indices[1], &pj.iter)
                    && matches!(const_fold_expr(value.clone()),
                        Expr::IntConst(0) | Expr::FloatConst(_)));
            if !ok {
                return Err(unsup("init statement is not `C[i, j] = 0`"));
            }
        }
        // Build the replacement: (init nest if present) + LibCall.
        let mut seq: Vec<Stmt> = Vec::new();
        if init.is_some() {
            seq.push(ft_ir::builder::for_(
                format!("{}.z0", pi.iter),
                0,
                m,
                ft_ir::builder::for_(
                    format!("{}.z1", pj.iter),
                    0,
                    n,
                    ft_ir::builder::store(
                        c.clone(),
                        [
                            ft_ir::builder::var(format!("{}.z0", pi.iter)),
                            ft_ir::builder::var(format!("{}.z1", pj.iter)),
                        ],
                        Expr::FloatConst(0.0),
                    ),
                ),
            ));
        }
        seq.push(Stmt::new(StmtKind::LibCall {
            kernel: "matmul".to_string(),
            inputs: vec![av.clone(), bv.clone()],
            outputs: vec![c.clone()],
            attrs: vec![m, k, n],
        }));
        let replacement = Stmt {
            id: target.id,
            label: target.label.clone(),
            kind: StmtKind::Block(seq),
        };
        let body = replace_by_id(self.func().body.clone(), target.id, &mut |_| {
            replacement.clone()
        })
        .ok_or_else(|| ScheduleError::NotFound(format!("{:?}", target.id)))?;
        self.func_mut().body = body;
        Ok(())
    }

    /// Separate a guarded loop into a guard-free main region and a guarded
    /// tail, removing per-iteration branching (paper `separate_tail`).
    ///
    /// Supports the pattern produced by [`Schedule::split`]: a body of the
    /// form `if g < E: S` where `g` is affine with a positive coefficient on
    /// the loop iterator. Returns the ids of the (main, tail) loops.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when the guard does not match the
    /// pattern.
    pub fn separate_tail(
        &mut self,
        loop_sel: impl Into<Selector>,
    ) -> Result<(StmtId, StmtId), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?})"));
        let r = self.separate_tail_impl(sel);
        self.record("separate_tail", args, &r);
        r
    }

    fn separate_tail_impl(
        &mut self,
        loop_sel: Selector,
    ) -> Result<(StmtId, StmtId), ScheduleError> {
        let target = self.resolve_stmt(loop_sel)?;
        let p = as_for(&target)?;
        let unsup = |m: &str| ScheduleError::Unsupported(format!("separate_tail: {m}"));
        // Descend through inner loops to locate the guard, collecting the
        // inner iterator maxima on the way.
        let mut inner: Vec<(String, Expr)> = Vec::new(); // (iter, max_value)
        let mut cur = peel(&p.body).clone();
        let guard = loop {
            match cur.kind.clone() {
                StmtKind::For {
                    iter, begin, end, body, ..
                } => {
                    inner.push((iter, const_fold_expr(end - 1)));
                    let _ = begin;
                    cur = peel(&body).clone();
                }
                StmtKind::If {
                    cond,
                    then,
                    otherwise: None,
                } => break (cond, then),
                _ => return Err(unsup("no guard of the form `if g < E` found")),
            }
        };
        let (cond, _) = &guard;
        let Expr::Binary {
            op: BinaryOp::Lt,
            a: g,
            b: e_bound,
        } = cond
        else {
            return Err(unsup("guard is not `g < E`"));
        };
        let Some(gl) = to_linexpr(g) else {
            return Err(unsup("guard expression is not affine"));
        };
        let a = gl.coeff(&p.iter);
        if a <= 0 {
            return Err(unsup("guard must increase with the loop iterator"));
        }
        // g at the maximal inner iterators, with the iterator's own term
        // removed — all in affine arithmetic so terms cancel symbolically.
        let mut g_hi = gl.clone();
        for (it, max) in &inner {
            let maxl = to_linexpr(max)
                .ok_or_else(|| unsup("inner loop bounds are not affine"))?;
            g_hi = g_hi.subst(it, &maxl);
        }
        let g_hi_wo_i = g_hi - ft_poly::LinExpr::term(p.iter.clone(), a);
        let e_lin =
            to_linexpr(e_bound).ok_or_else(|| unsup("guard bound is not affine"))?;
        // main_end = floor((E - 1 - g_hi_wo_i) / a) + 1: the first iteration
        // where even the largest inner index violates the guard.
        let main_end = const_fold_expr(
            crate::mem::linexpr_to_expr(&(e_lin - 1 - g_hi_wo_i)) / a + 1,
        );
        let main_end_clamped = const_fold_expr(main_end.clone().min(p.end.clone()));
        // Main loop: original body with the guard dropped.
        use ft_ir::Mutator as _;
        let mut stripper = StripGuard { cond: cond.clone() };
        let main_body = stripper.mutate_stmt(p.body.clone());
        let main = Stmt {
            id: p.id,
            label: target.label.clone(),
            kind: StmtKind::For {
                iter: p.iter.clone(),
                begin: p.begin.clone(),
                end: main_end_clamped.clone(),
                property: p.property.clone(),
                body: Box::new(main_body),
            },
        };
        let tail_iter = format!("{}.t", p.iter);
        // The tail re-uses the original (guarded) body: clone with FRESH ids,
        // or the tree would contain duplicate statement identities.
        let tail_body = ft_ir::mutate::subst_var_stmt(
            refresh_ids(&p.body),
            &p.iter,
            &ft_ir::builder::var(&tail_iter),
        );
        let tail = ft_ir::builder::for_(
            &tail_iter,
            const_fold_expr(main_end_clamped.max(p.begin.clone())),
            p.end.clone(),
            tail_body,
        );
        let tail_id = tail.id;
        let replacement = Stmt::new(StmtKind::Block(vec![main, tail]));
        let body = replace_by_id(self.func().body.clone(), p.id, &mut |_| replacement.clone())
            .ok_or_else(|| ScheduleError::NotFound(format!("{:?}", p.id)))?;
        self.func_mut().body = body;
        Ok((p.id, tail_id))
    }
}

/// Removes `if cond: S` nodes matching the separated guard, keeping `S`.
struct StripGuard {
    cond: Expr,
}

impl ft_ir::Mutator for StripGuard {
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        let s = ft_ir::mutate::mutate_stmt_walk(self, s);
        match &s.kind {
            StmtKind::If {
                cond,
                then,
                otherwise: None,
            } if *cond == self.cond => (**then).clone(),
            _ => s,
        }
    }
}
