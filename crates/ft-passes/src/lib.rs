//! # ft-passes — simplification and cleanup passes
//!
//! The "further optimizations on the AST" of paper §4.3: mathematical
//! simplification, removal of redundant branches and dead code, and the
//! normalization steps (unique definition names, flattened blocks) that the
//! schedule, AD and codegen stages rely on.
//!
//! All passes are pure rewrites built on [`ft_ir::Mutator`]; [`simplify()`]
//! runs the standard pipeline to a fixpoint. [`hoist`] is not a pass but the
//! legality rule two later stages share: when a subexpression may be
//! evaluated once in front of a loop.

pub mod dce;
pub mod normalize;
pub mod fold;
pub mod hoist;
pub mod simplify;
pub mod uniquify;

pub use dce::remove_dead_defs;
pub use normalize::{normalize_affine, remove_redundant_guards};
pub use fold::{const_fold_expr, const_fold_func, const_fold_stmt};
pub use simplify::{simplify, simplify_once, simplify_stmt, simplify_traced};
pub use uniquify::uniquify_defs;
