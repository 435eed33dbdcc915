//! # ft-analysis — program analyses over the FreeTensor IR
//!
//! The holistic optimizations of FreeTensor all hinge on answering
//! *instance-of-statement* precision dependence questions (paper §4.2): not
//! "does statement S depend on statement T" but "does the instance of S in
//! iteration (i,j) depend on the instance of T in iteration (i',j')".
//!
//! This crate provides:
//!
//! * [`affine`] — extraction of affine ([`ft_poly::LinExpr`]) forms from IR
//!   expressions, with a conservative "unknown" fallback for non-affine
//!   subscripts such as the indirect `adj[i, j]` accesses of SubdivNet/GAT;
//! * [`bounds`] — symbolic and constant bound inference for expressions under
//!   a loop context (used by `cache` size inference, paper Fig. 14, and by
//!   the simplifier);
//! * [`access`] — collection of every tensor access together with its
//!   enclosing loops, branch conditions and syntactic position;
//! * [`deps`] — the dependence engine: RAW/WAR/WAW dependences classified as
//!   loop-carried (per carrier loop) or loop-independent, with the
//!   stack-scope projection of paper Fig. 12(d) and the commutative-reduction
//!   exemption of Fig. 12(c), plus the order-violation queries that back
//!   every legality check in `ft-schedule`;
//! * [`memplan`] — static memory planning: per-`VarDef` live ranges in
//!   program pre-order (loop-carried defs widened to their enclosing loop),
//!   interference, and deterministic best-fit arena packing, plus a
//!   write-before-read proof that lets engines elide the scope-entry
//!   zero-fill.

pub mod access;
pub mod affine;
pub mod bounds;
pub mod deps;
pub mod memplan;

pub use access::{collect_accesses, Access, AccessKind, LoopCtx};
pub use memplan::{eval_extent, MemPlan, PlanClass, PlanEntry, ARENA_ALIGN};
pub use affine::{cond_to_constraints, linexpr_to_expr, to_linexpr};
pub use bounds::{const_bounds, symbolic_bounds, BoundsCtx, SymBounds};
pub use deps::{
    all_deps, carried_reductions, carried_reductions_in, fission_illegal, fuse_illegal,
    loop_carried_deps, loop_carried_deps_in, reorder_illegal, swap_illegal,
    Carrier, DepKind, FoundDep, Violation,
};
/// The verdict of [`deps::dep_exists`].
pub use ft_poly::Sat;
