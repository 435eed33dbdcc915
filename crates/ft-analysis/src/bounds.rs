//! Symbolic and constant bound inference.
//!
//! This implements the bound analysis the paper uses for the `cache`
//! transformation (Fig. 14): every affine index expression gets a set of
//! candidate lower and upper bounds, obtained by substituting the bounds of
//! loop iterators; the caller then selects the tightest bound expressed only
//! in terms of variables defined at the caching point.

use crate::affine::to_linexpr;
use ft_ir::Expr;
use ft_poly::LinExpr;
use std::collections::HashMap;

/// Per-iterator bound context: `iter -> [lower, upper]` (both inclusive),
/// as affine expressions over outer variables.
#[derive(Debug, Clone, Default)]
pub struct BoundsCtx {
    ranges: Vec<(String, LinExpr, LinExpr)>,
    index: HashMap<String, usize>,
}

impl BoundsCtx {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an iterator with inclusive bounds `[lower, upper]`, innermost
    /// last. Bounds may reference previously registered iterators.
    pub fn push(&mut self, iter: impl Into<String>, lower: LinExpr, upper: LinExpr) {
        let name = iter.into();
        self.index.insert(name.clone(), self.ranges.len());
        self.ranges.push((name, lower, upper));
    }

    /// Remove the innermost iterator.
    pub fn pop(&mut self) {
        if let Some((name, _, _)) = self.ranges.pop() {
            self.index.remove(&name);
        }
    }

    /// Whether `name` is a registered iterator.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// The registered bounds of an iterator, if any.
    pub fn get(&self, name: &str) -> Option<(&LinExpr, &LinExpr)> {
        self.index.get(name).map(|&i| {
            let (_, lo, hi) = &self.ranges[i];
            (lo, hi)
        })
    }
}

/// Symbolic inclusive bounds of an expression: `lower <= e <= upper`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymBounds {
    /// An affine lower bound.
    pub lower: LinExpr,
    /// An affine upper bound.
    pub upper: LinExpr,
}

/// Compute symbolic bounds of `e` in terms of variables *not* listed in
/// `eliminate` (typically the iterators inner to a caching point), by
/// repeatedly substituting each eliminated iterator's own bounds according to
/// its coefficient sign.
///
/// Returns `None` when `e` is not affine or an eliminated variable has no
/// registered bounds.
pub fn symbolic_bounds(e: &Expr, ctx: &BoundsCtx, eliminate: &[String]) -> Option<SymBounds> {
    bounds_without(e, ctx, |name| eliminate.iter().any(|n| n == name))
}

/// [`symbolic_bounds`] with the eliminated variables given by a predicate.
fn bounds_without(
    e: &Expr,
    ctx: &BoundsCtx,
    eliminated: impl Fn(&str) -> bool,
) -> Option<SymBounds> {
    let lin = to_linexpr(e)?;
    let mut lower = lin.clone();
    let mut upper = lin;
    // Substitute innermost-first so bounds referencing outer iterators are
    // themselves eliminated on later steps.
    for (name, lo, hi) in ctx.ranges.iter().rev() {
        if !eliminated(name) {
            continue;
        }
        let cl = lower.coeff(name);
        if cl != 0 {
            let sub = if cl > 0 { lo } else { hi };
            lower = lower.subst(name, sub);
        }
        let cu = upper.coeff(name);
        if cu != 0 {
            let sub = if cu > 0 { hi } else { lo };
            upper = upper.subst(name, sub);
        }
    }
    // Every eliminated variable must be gone.
    if lower.vars().chain(upper.vars()).any(eliminated) {
        return None;
    }
    Some(SymBounds { lower, upper })
}

/// Compute constant inclusive bounds of `e`, eliminating *all* iterators in
/// the context. Remaining free variables (size parameters) make this fail.
pub fn const_bounds(e: &Expr, ctx: &BoundsCtx) -> Option<(i64, i64)> {
    let b = bounds_without(e, ctx, |_| true)?;
    if b.lower.is_constant() && b.upper.is_constant() {
        Some((b.lower.constant_term(), b.upper.constant_term()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    #[test]
    fn paper_fig14_cache_bounds() {
        // for i in 0..n: for j in 0..m: access a[i + j]
        // Caching between i and j: eliminate j. Tightest bounds: [i, i+m-1].
        let mut ctx = BoundsCtx::new();
        ctx.push("i", LinExpr::constant(0), LinExpr::var("n") - 1);
        ctx.push("j", LinExpr::constant(0), LinExpr::var("m") - 1);
        let e = var("i") + var("j");
        let b = symbolic_bounds(&e, &ctx, &["j".to_string()]).unwrap();
        assert_eq!(b.lower, LinExpr::var("i"));
        assert_eq!(b.upper, LinExpr::var("i") + LinExpr::var("m") - 1);
        // Cache extent: upper - lower + 1 = m.
        let extent = b.upper - b.lower + 1;
        assert_eq!(extent, LinExpr::var("m"));
    }

    #[test]
    fn negative_coefficients_flip_bounds() {
        let mut ctx = BoundsCtx::new();
        ctx.push("k", LinExpr::constant(0), LinExpr::constant(7));
        let e = -var("k") + 10;
        let (lo, hi) = const_bounds(&e, &ctx).unwrap();
        assert_eq!((lo, hi), (3, 10));
    }

    #[test]
    fn triangular_loops_substitute_transitively() {
        // for i in 0..8: for j in 0..i: bounds of (i + j) eliminating both.
        let mut ctx = BoundsCtx::new();
        ctx.push("i", LinExpr::constant(0), LinExpr::constant(7));
        ctx.push("j", LinExpr::constant(0), LinExpr::var("i") - 1);
        let (lo, hi) = const_bounds(&(var("i") + var("j")), &ctx).unwrap();
        assert_eq!(lo, 0);
        assert_eq!(hi, 13); // i = 7, j <= 6
    }

    #[test]
    fn fails_on_non_affine_or_unbounded() {
        let ctx = BoundsCtx::new();
        assert!(symbolic_bounds(&(var("i") * var("j")), &ctx, &[]).is_none());
        // Eliminating a variable with no registered bounds fails.
        assert!(symbolic_bounds(&var("i"), &ctx, &["i".to_string()]).is_none());
        // Size parameters remain symbolic: const bounds fail, symbolic ok.
        let mut ctx = BoundsCtx::new();
        ctx.push("i", LinExpr::constant(0), LinExpr::var("n") - 1);
        assert!(const_bounds(&var("i"), &ctx).is_none());
        assert!(symbolic_bounds(&var("i"), &ctx, &["i".to_string()]).is_some());
    }
}
