//! Memory-layout transformations: `var_split`, `var_reorder`, `var_merge`
//! (paper Table 1, "Memory Layout Trans.").
//!
//! Layout changes are always legal — they re-index every access consistently
//! with the new shape — but are only applied to *locally defined* tensors
//! (a parameter's layout is part of the caller-visible ABI).

use crate::{Schedule, ScheduleError};
use ft_ir::mutate::{mutate_expr_walk, mutate_stmt_walk};
use ft_ir::{Expr, Mutator, Stmt, StmtId, StmtKind};
use ft_passes::const_fold_expr;

struct RewriteIdx<'a> {
    var: &'a str,
    f: &'a dyn Fn(Vec<Expr>) -> Vec<Expr>,
}

impl Mutator for RewriteIdx<'_> {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Load { var, indices } if var == self.var => {
                let indices = indices.into_iter().map(|i| self.mutate_expr(i)).collect();
                Expr::Load {
                    var,
                    indices: (self.f)(indices),
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
            } if var == self.var => StmtKind::Store {
                var,
                indices: (self.f)(indices),
                value,
            },
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                atomic,
            } if var == self.var => StmtKind::ReduceTo {
                var,
                indices: (self.f)(indices),
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
    fn find_local_def(&self, var: &str) -> Result<(StmtId, Vec<Expr>), ScheduleError> {
        let mut found = None;
        self.func().body.walk(&mut |s| {
            if let StmtKind::VarDef { name, shape, .. } = &s.kind {
                if name == var && found.is_none() {
                    found = Some((s.id, shape.clone()));
                }
            }
        });
        found.ok_or_else(|| {
            ScheduleError::NotFound(format!(
                "local tensor `{var}` (layout of parameters is caller-owned)"
            ))
        })
    }

    fn rewrite_layout(
        &mut self,
        var: &str,
        def_id: StmtId,
        new_shape: Vec<Expr>,
        f: &dyn Fn(Vec<Expr>) -> Vec<Expr>,
    ) -> Result<(), ScheduleError> {
        self.rewrite(def_id, |s| {
            let StmtKind::VarDef {
                name,
                dtype,
                mtype,
                atype,
                body,
                ..
            } = s.kind
            else {
                unreachable!()
            };
            let new_body = RewriteIdx { var, f }.mutate_stmt(*body);
            Stmt {
                id: s.id,
                label: s.label,
                kind: StmtKind::VarDef {
                    name,
                    shape: new_shape.clone(),
                    dtype,
                    mtype,
                    atype,
                    body: Box::new(new_body),
                },
            }
        })
    }

    /// Split dimension `dim` of a tensor into two of extents
    /// `(ceil(n / factor), factor)`; accesses `e` become `(e / factor,
    /// e % factor)`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotFound`] for parameters/unknown tensors;
    /// [`ScheduleError::Unsupported`] for a bad dimension or factor.
    pub fn var_split(&mut self, var: &str, dim: usize, factor: i64) -> Result<(), ScheduleError> {
        let args = self
            .tracing()
            .then(|| format!("(\"{var}\", {dim}, {factor})"));
        let r = self.var_split_impl(var, dim, factor);
        self.record("var_split", args, &r);
        r
    }

    fn var_split_impl(&mut self, var: &str, dim: usize, factor: i64) -> Result<(), ScheduleError> {
        if factor <= 0 {
            return Err(ScheduleError::Unsupported(
                "var_split factor must be positive".to_string(),
            ));
        }
        let (def_id, shape) = self.find_local_def(var)?;
        if dim >= shape.len() {
            return Err(ScheduleError::Unsupported(format!(
                "var_split: dimension {dim} out of range for rank {}",
                shape.len()
            )));
        }
        let mut new_shape = shape.clone();
        let n = shape[dim].clone();
        new_shape[dim] = const_fold_expr((n + (factor - 1)) / factor);
        new_shape.insert(dim + 1, Expr::IntConst(factor));
        let f = move |mut idx: Vec<Expr>| {
            let e = idx.remove(dim);
            idx.insert(dim, const_fold_expr(e.clone() / factor));
            idx.insert(dim + 1, const_fold_expr(e.rem(factor)));
            idx
        };
        self.rewrite_layout(var, def_id, new_shape, &f)
    }

    /// Permute the dimensions of a tensor (`perm[k]` = old dimension placed
    /// at new position `k`); e.g. `[1, 0]` transposes a matrix.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when `perm` is not a permutation of
    /// the tensor's dimensions.
    pub fn var_reorder(&mut self, var: &str, perm: &[usize]) -> Result<(), ScheduleError> {
        let args = self.tracing().then(|| format!("(\"{var}\", {perm:?})"));
        let r = self.var_reorder_impl(var, perm);
        self.record("var_reorder", args, &r);
        r
    }

    fn var_reorder_impl(&mut self, var: &str, perm: &[usize]) -> Result<(), ScheduleError> {
        let (def_id, shape) = self.find_local_def(var)?;
        let mut check: Vec<usize> = perm.to_vec();
        check.sort_unstable();
        if check != (0..shape.len()).collect::<Vec<_>>() {
            return Err(ScheduleError::Unsupported(format!(
                "var_reorder: {perm:?} is not a permutation of 0..{}",
                shape.len()
            )));
        }
        let new_shape: Vec<Expr> = perm.iter().map(|&d| shape[d].clone()).collect();
        let perm_owned: Vec<usize> = perm.to_vec();
        let f = move |idx: Vec<Expr>| -> Vec<Expr> {
            perm_owned.iter().map(|&d| idx[d].clone()).collect()
        };
        self.rewrite_layout(var, def_id, new_shape, &f)
    }

    /// Merge dimensions `dim` and `dim + 1`; accesses `(i, j)` become
    /// `i * extent(dim + 1) + j`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when `dim + 1` is out of range.
    pub fn var_merge(&mut self, var: &str, dim: usize) -> Result<(), ScheduleError> {
        let args = self.tracing().then(|| format!("(\"{var}\", {dim})"));
        let r = self.var_merge_impl(var, dim);
        self.record("var_merge", args, &r);
        r
    }

    fn var_merge_impl(&mut self, var: &str, dim: usize) -> Result<(), ScheduleError> {
        let (def_id, shape) = self.find_local_def(var)?;
        if dim + 1 >= shape.len() {
            return Err(ScheduleError::Unsupported(format!(
                "var_merge: needs dimensions {dim} and {} in rank {}",
                dim + 1,
                shape.len()
            )));
        }
        let inner = shape[dim + 1].clone();
        let mut new_shape = shape.clone();
        let merged = const_fold_expr(shape[dim].clone() * inner.clone());
        new_shape[dim] = merged;
        new_shape.remove(dim + 1);
        let f = move |mut idx: Vec<Expr>| {
            let i = idx.remove(dim);
            let j = idx.remove(dim);
            idx.insert(dim, const_fold_expr(i * inner.clone() + j));
            idx
        };
        self.rewrite_layout(var, def_id, new_shape, &f)
    }
}
