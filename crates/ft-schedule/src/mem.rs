//! Memory-hierarchy transformations: `cache`, `cache_reduce`, `set_mtype`
//! (paper Table 1, "Memory Hierarchy Trans."; bound inference per Fig. 14).

use crate::trace::ScheduleOp;
use crate::{Schedule, ScheduleError};
use ft_analysis::bounds::{symbolic_bounds, BoundsCtx, SymBounds};
use ft_analysis::to_linexpr;
use ft_ir::find::Selector;
use ft_ir::mutate::{bound_names, fresh_name, mutate_expr_walk, mutate_stmt_walk};
use ft_ir::{DataType, Expr, MemType, Mutator, ReduceOp, Stmt, StmtId, StmtKind};
use ft_passes::const_fold_expr;
use ft_poly::LinExpr;

pub use ft_analysis::linexpr_to_expr;

/// All indexings of tensor `var` inside a sub-tree, with whether any access
/// reads / writes / reduces.
struct TensorUse {
    index_sets: Vec<Vec<Expr>>,
    reads: bool,
    writes: bool,
    reduce_ops: Vec<ReduceOp>,
}

fn collect_use(scope: &Stmt, var: &str) -> TensorUse {
    let mut u = TensorUse {
        index_sets: Vec::new(),
        reads: false,
        writes: false,
        reduce_ops: Vec::new(),
    };
    fn expr_scan(e: &Expr, var: &str, u: &mut TensorUse) {
        match e {
            Expr::Load { var: v, indices } => {
                if v == var {
                    u.reads = true;
                    u.index_sets.push(indices.clone());
                }
                for i in indices {
                    expr_scan(i, var, u);
                }
            }
            Expr::Unary { a, .. } | Expr::Cast { a, .. } => expr_scan(a, var, u),
            Expr::Binary { a, b, .. } => {
                expr_scan(a, var, u);
                expr_scan(b, var, u);
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                expr_scan(cond, var, u);
                expr_scan(then, var, u);
                expr_scan(otherwise, var, u);
            }
            _ => {}
        }
    }
    scope.walk(&mut |s| match &s.kind {
        StmtKind::Store {
            var: v,
            indices,
            value,
        } => {
            if v == var {
                u.writes = true;
                u.index_sets.push(indices.clone());
            }
            for i in indices {
                expr_scan(i, var, &mut u);
            }
            expr_scan(value, var, &mut u);
        }
        StmtKind::ReduceTo {
            var: v,
            indices,
            op,
            value,
            ..
        } => {
            if v == var {
                u.writes = true;
                u.reduce_ops.push(*op);
                u.index_sets.push(indices.clone());
            }
            for i in indices {
                expr_scan(i, var, &mut u);
            }
            expr_scan(value, var, &mut u);
        }
        StmtKind::For { begin, end, .. } => {
            expr_scan(begin, var, &mut u);
            expr_scan(end, var, &mut u);
        }
        StmtKind::If { cond, .. } => expr_scan(cond, var, &mut u),
        _ => {}
    });
    u
}

/// Rewrites accesses to `from[idx]` into `to[map(idx)]`.
struct RemapAccess<'a> {
    from: &'a str,
    to: &'a str,
    offsets: &'a [Expr], // subtracted per dimension
}

impl RemapAccess<'_> {
    fn remap(&self, indices: Vec<Expr>) -> Vec<Expr> {
        indices
            .into_iter()
            .zip(self.offsets)
            .map(|(i, off)| const_fold_expr(i - off.clone()))
            .collect()
    }
}

impl Mutator for RemapAccess<'_> {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Load { var, indices } if var == self.from => {
                let mapped: Vec<Expr> = indices.into_iter().map(|i| self.mutate_expr(i)).collect();
                Expr::Load {
                    var: self.to.to_string(),
                    indices: self.remap(mapped),
                }
            }
            other => mutate_expr_walk(self, other),
        }
    }

    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        let s = mutate_stmt_walk(self, s);
        let Stmt { id, label, kind } = s;
        let kind = match kind {
            StmtKind::Store {
                var,
                indices,
                value,
            } if var == self.from => StmtKind::Store {
                var: self.to.to_string(),
                indices: self.remap(indices),
                value,
            },
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                atomic,
            } if var == self.from => StmtKind::ReduceTo {
                var: self.to.to_string(),
                indices: self.remap(indices),
                op,
                value,
                atomic,
            },
            k => k,
        };
        Stmt { id, label, kind }
    }
}

impl Schedule {
    /// Find the element type of a tensor (parameter or local definition).
    pub(crate) fn tensor_dtype(&self, var: &str) -> Option<DataType> {
        if let Some(p) = self.func().find_param(var) {
            return Some(p.dtype);
        }
        let mut found = None;
        self.func().body.walk(&mut |s| {
            if let StmtKind::VarDef { name, dtype, .. } = &s.kind {
                if name == var {
                    found = Some(*dtype);
                }
            }
        });
        found
    }

    /// Find the declared shape of a tensor (parameter or local definition).
    pub(crate) fn tensor_shape(&self, var: &str) -> Option<Vec<Expr>> {
        if let Some(p) = self.func().find_param(var) {
            return Some(p.shape.clone());
        }
        let mut found = None;
        self.func().body.walk(&mut |s| {
            if let StmtKind::VarDef { name, shape, .. } = &s.kind {
                if name == var {
                    found = Some(shape.clone());
                }
            }
        });
        found
    }

    /// Compute, for each dimension of `var`'s accesses inside `scope`, the
    /// inclusive bounds in terms of variables defined *outside* `scope`.
    fn cache_region(
        &self,
        scope: &Stmt,
        var: &str,
        uses: &TensorUse,
    ) -> Result<Vec<SymBounds>, ScheduleError> {
        if uses.index_sets.is_empty() {
            return Err(ScheduleError::Unsupported(format!(
                "tensor `{var}` is not accessed in the cache scope"
            )));
        }
        let ndim = uses.index_sets[0].len();
        if uses.index_sets.iter().any(|s| s.len() != ndim) {
            return Err(ScheduleError::Unsupported(
                "mixed-rank accesses cannot be cached".to_string(),
            ));
        }
        // Bounds context: every loop from the root to (and inside) the scope.
        let nest = ft_ir::find::loop_nest_of(&self.func().body, scope.id)
            .ok_or_else(|| ScheduleError::NotFound(format!("{:?}", scope.id)))?;
        let mut ctx = BoundsCtx::new();
        for l in &nest.loops {
            let (Some(lo), Some(hi)) = (to_linexpr(l.begin), to_linexpr(l.end)) else {
                return Err(ScheduleError::Unsupported(
                    "non-affine loop bounds around the cache scope".to_string(),
                ));
            };
            ctx.push(l.iter, lo, hi - 1);
        }
        // Loops inside (and including) the scope are eliminated.
        let mut eliminate: Vec<String> = Vec::new();
        scope.walk(&mut |s| {
            if let StmtKind::For {
                iter, begin, end, ..
            } = &s.kind
            {
                eliminate.push(iter.clone());
                if let (Some(lo), Some(hi)) = (to_linexpr(begin), to_linexpr(end)) {
                    if !ctx.contains(iter) {
                        ctx.push(iter.clone(), lo, hi - 1);
                    }
                }
            }
        });
        let mut dims: Vec<SymBounds> = Vec::with_capacity(ndim);
        for d in 0..ndim {
            let mut bounds: Option<SymBounds> = None;
            for set in &uses.index_sets {
                let b = symbolic_bounds(&set[d], &ctx, &eliminate).ok_or_else(|| {
                    ScheduleError::Unsupported(format!(
                        "cannot infer bounds of index {:?} for caching",
                        set[d]
                    ))
                })?;
                bounds = Some(match bounds {
                    None => b,
                    Some(prev) if prev == b => prev,
                    Some(prev) => {
                        // Different access patterns: fall back to constants.
                        let all = [&prev.lower, &b.lower, &prev.upper, &b.upper];
                        if all.iter().all(|l| l.is_constant()) {
                            SymBounds {
                                lower: LinExpr::constant(
                                    prev.lower.constant_term().min(b.lower.constant_term()),
                                ),
                                upper: LinExpr::constant(
                                    prev.upper.constant_term().max(b.upper.constant_term()),
                                ),
                            }
                        } else {
                            return Err(ScheduleError::Unsupported(
                                "accesses with different symbolic regions cannot be cached"
                                    .to_string(),
                            ));
                        }
                    }
                });
            }
            dims.push(bounds.expect("index_sets is non-empty"));
        }
        Ok(dims)
    }

    /// Offsets and extents of the cached region, clamped to the tensor's
    /// declared bounds — guarded accesses may have rectangular hulls that
    /// poke outside the tensor (e.g. `x[i + k]` under an `i + k >= 0` guard),
    /// and the cache fill/write-back loops run unguarded.
    fn clamped_region(
        &self,
        scope: &Stmt,
        var: &str,
        dims: &[SymBounds],
    ) -> Result<(Vec<Expr>, Vec<Expr>), ScheduleError> {
        let shape = self
            .tensor_shape(var)
            .ok_or_else(|| ScheduleError::NotFound(format!("tensor `{var}`")))?;
        // Domain of the variables the bounds may reference: the loops
        // enclosing the caching point.
        let mut domain = ft_poly::System::new();
        if let Some(nest) = ft_ir::find::loop_nest_of(&self.func().body, scope.id) {
            for l in &nest.loops {
                if let (Some(lo), Some(hi)) = (to_linexpr(l.begin), to_linexpr(l.end)) {
                    domain.push(ft_poly::Constraint::ge(LinExpr::var(l.iter), lo));
                    domain.push(ft_poly::Constraint::lt(LinExpr::var(l.iter), hi));
                }
            }
        }
        let provably = |sys: ft_poly::System| sys.satisfiable() == ft_poly::Sat::Empty;
        let mut offsets = Vec::with_capacity(dims.len());
        let mut extents = Vec::with_capacity(dims.len());
        for (b, size) in dims.iter().zip(&shape) {
            // Clamp only what the polyhedral check cannot prove in-bounds:
            // guarded accesses may have rectangular hulls poking outside the
            // tensor, and the fill/write-back loops run unguarded.
            let mut lower_safe = {
                let mut sys = domain.clone();
                sys.push(ft_poly::Constraint::lt(
                    b.lower.clone(),
                    LinExpr::constant(0),
                ));
                provably(sys)
            };
            let mut upper_safe = false;
            if let Some(size_lin) = to_linexpr(size) {
                let mut sys = domain.clone();
                sys.push(ft_poly::Constraint::ge(b.upper.clone(), size_lin));
                upper_safe = provably(sys);
            }
            if dims.len() != shape.len() {
                lower_safe = false;
                upper_safe = false;
            }
            let lo_raw = linexpr_to_expr(&b.lower);
            let hi_raw = linexpr_to_expr(&b.upper);
            let lo = if lower_safe {
                lo_raw.clone()
            } else {
                const_fold_expr(lo_raw.clone().max(0))
            };
            let hi = if upper_safe {
                hi_raw
            } else {
                const_fold_expr(hi_raw.min(const_fold_expr(size.clone() - 1)))
            };
            let ext = if lower_safe && upper_safe {
                // Affine difference folds symbolically: (i+m-1) - i + 1 = m.
                const_fold_expr(linexpr_to_expr(&(b.upper.clone() - b.lower.clone())) + 1)
            } else {
                const_fold_expr((hi - lo.clone() + 1).max(0))
            };
            offsets.push(lo);
            extents.push(ext);
        }
        Ok((offsets, extents))
    }

    /// Fetch the region of `var` touched inside `scope_sel` into a new, closer
    /// tensor before the scope, and store it back after (paper Fig. 14).
    /// Returns the cache tensor's name.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when the touched region's bounds cannot
    /// be inferred (non-affine subscripts).
    pub fn cache(
        &mut self,
        scope_sel: impl Into<Selector>,
        var: &str,
        mtype: MemType,
    ) -> Result<String, ScheduleError> {
        let sel = scope_sel.into();
        let args = self
            .tracing()
            .then(|| format!("({sel:?}, \"{var}\", {mtype:?})"));
        let r = self.cache_impl(sel, var, mtype);
        self.record("cache", args, &r);
        r
    }

    fn cache_impl(
        &mut self,
        scope_sel: Selector,
        var: &str,
        mtype: MemType,
    ) -> Result<String, ScheduleError> {
        let scope = self.resolve_ref(scope_sel)?;
        let uses = collect_use(scope, var);
        let dims = self.cache_region(scope, var, &uses)?;
        let dtype = self
            .tensor_dtype(var)
            .ok_or_else(|| ScheduleError::NotFound(format!("tensor `{var}`")))?;
        // Fresh names: caching `var` twice with overlapping scopes would
        // otherwise shadow the first `{var}.cache` def and capture its fill
        // iterators, silently corrupting the copy (found by the gradient
        // conformance sweep: double-`cache` of longformer's `Q`).
        let mut used = bound_names(self.func());
        let cache_name = fresh_name(&format!("{var}.cache"), &mut used);
        let (offsets, extents) = self.clamped_region(scope, var, &dims)?;
        let scope_id = scope.id;
        let iters: Vec<String> = (0..dims.len())
            .map(|d| fresh_name(&format!("{var}.c{d}"), &mut used))
            .collect();

        let fill = uses.reads.then(|| {
            build_copy_nest(&iters, &extents, |ivs| {
                let src: Vec<Expr> = offsets
                    .iter()
                    .zip(ivs)
                    .map(|(off, iv)| const_fold_expr(off.clone() + iv.clone()))
                    .collect();
                ft_ir::builder::store(
                    cache_name.clone(),
                    ivs.to_vec(),
                    Expr::Load {
                        var: var.to_string(),
                        indices: src,
                    },
                )
            })
        });
        let writeback = uses.writes.then(|| {
            build_copy_nest(&iters, &extents, |ivs| {
                let dst: Vec<Expr> = offsets
                    .iter()
                    .zip(ivs)
                    .map(|(off, iv)| const_fold_expr(off.clone() + iv.clone()))
                    .collect();
                ft_ir::builder::store(
                    var.to_string(),
                    dst,
                    Expr::Load {
                        var: cache_name.clone(),
                        indices: ivs.to_vec(),
                    },
                )
            })
        });
        self.rewrite(scope_id, |scope| {
            let rewritten = RemapAccess {
                from: var,
                to: &cache_name,
                offsets: &offsets,
            }
            .mutate_stmt(scope);
            let seq = fill
                .into_iter()
                .chain([rewritten])
                .chain(writeback)
                .collect();
            let seq = Stmt::new(StmtKind::Block(seq));
            ft_ir::builder::var_def(&cache_name, extents, dtype, mtype, seq)
        })?;
        Ok(cache_name)
    }

    /// Accumulate reductions into a new, closer tensor inside `scope_sel`,
    /// then reduce it back into `var` afterwards (paper `cache_reduce`).
    /// Returns the cache tensor's name.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] unless every access to `var` in the
    /// scope is a `ReduceTo` with one common operator.
    pub fn cache_reduce(
        &mut self,
        scope_sel: impl Into<Selector>,
        var: &str,
        mtype: MemType,
    ) -> Result<String, ScheduleError> {
        let sel = scope_sel.into();
        let args = self
            .tracing()
            .then(|| format!("({sel:?}, \"{var}\", {mtype:?})"));
        let r = self.cache_reduce_impl(sel, var, mtype);
        self.record("cache_reduce", args, &r);
        r
    }

    fn cache_reduce_impl(
        &mut self,
        scope_sel: Selector,
        var: &str,
        mtype: MemType,
    ) -> Result<String, ScheduleError> {
        let scope = self.resolve_ref(scope_sel)?;
        let uses = collect_use(scope, var);
        if uses.reads || uses.reduce_ops.is_empty() {
            return Err(ScheduleError::Unsupported(
                "cache_reduce requires reduce-only accesses".to_string(),
            ));
        }
        let op = uses.reduce_ops[0];
        if uses.reduce_ops.iter().any(|o| *o != op) {
            return Err(ScheduleError::Unsupported(
                "cache_reduce requires a single reduction operator".to_string(),
            ));
        }
        let dims = self.cache_region(scope, var, &uses)?;
        let dtype = self
            .tensor_dtype(var)
            .ok_or_else(|| ScheduleError::NotFound(format!("tensor `{var}`")))?;
        // Fresh names, for the same reason as in `cache_impl`.
        let mut used = bound_names(self.func());
        let cache_name = fresh_name(&format!("{var}.cache_red"), &mut used);
        let (offsets, extents) = self.clamped_region(scope, var, &dims)?;
        let scope_id = scope.id;
        let iters: Vec<String> = (0..dims.len())
            .map(|d| fresh_name(&format!("{var}.r{d}"), &mut used))
            .collect();
        let init = build_copy_nest(&iters, &extents, |ivs| {
            ft_ir::builder::store(cache_name.clone(), ivs.to_vec(), op.identity(dtype))
        });
        let writeback = build_copy_nest(&iters, &extents, |ivs| {
            let dst: Vec<Expr> = offsets
                .iter()
                .zip(ivs)
                .map(|(off, iv)| const_fold_expr(off.clone() + iv.clone()))
                .collect();
            ft_ir::builder::reduce(
                var.to_string(),
                dst,
                op,
                Expr::Load {
                    var: cache_name.clone(),
                    indices: ivs.to_vec(),
                },
            )
        });
        self.rewrite(scope_id, |scope| {
            let rewritten = RemapAccess {
                from: var,
                to: &cache_name,
                offsets: &offsets,
            }
            .mutate_stmt(scope);
            let seq = Stmt::new(StmtKind::Block(vec![init, rewritten, writeback]));
            ft_ir::builder::var_def(&cache_name, extents, dtype, mtype, seq)
        })?;
        Ok(cache_name)
    }

    /// Change where a locally defined tensor is stored.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotFound`] when no local definition of `var` exists
    /// (parameter placements belong to the caller).
    pub fn set_mtype(&mut self, var: &str, new_mtype: MemType) -> Result<(), ScheduleError> {
        let args = self
            .tracing()
            .then(|| format!("(\"{var}\", {new_mtype:?})"));
        // The vocabulary's `set_mtype` is a promotion to the CPU stack.
        let op = self
            .def_pos(var)
            .filter(|_| new_mtype == MemType::CpuStack)
            .map(|def_idx| ScheduleOp::SetMtype { def_idx });
        let r = self.set_mtype_impl(var, new_mtype);
        self.note_op(op, &r);
        self.record("set_mtype", args, &r);
        r
    }

    fn set_mtype_impl(&mut self, var: &str, new_mtype: MemType) -> Result<(), ScheduleError> {
        let mut def_id: Option<StmtId> = None;
        self.func().body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                if name == var && def_id.is_none() {
                    def_id = Some(s.id);
                }
            }
        });
        let def_id =
            def_id.ok_or_else(|| ScheduleError::NotFound(format!("local tensor `{var}`")))?;
        self.rewrite(def_id, |mut s| {
            if let StmtKind::VarDef { mtype, .. } = &mut s.kind {
                *mtype = new_mtype;
            }
            s
        })
    }
}

/// `for c0 in 0..e0: ... for ck: body([c0..ck])`, or just `body([])` for
/// scalars.
fn build_copy_nest(iters: &[String], extents: &[Expr], body: impl FnOnce(&[Expr]) -> Stmt) -> Stmt {
    let ivs: Vec<Expr> = iters.iter().map(ft_ir::builder::var).collect();
    let mut s = body(&ivs);
    for (it, ext) in iters.iter().zip(extents).rev() {
        s = ft_ir::builder::for_(it, 0, ext.clone(), s);
    }
    s
}
