//! # ft-passes — simplification and cleanup passes
//!
//! The "further optimizations on the AST" of paper §4.3: mathematical
//! simplification, removal of redundant branches and dead code, and the
//! normalization steps (unique definition names, flattened blocks) that the
//! schedule, AD and codegen stages rely on.
//!
//! All passes are pure rewrites; [`simplify()`] runs the standard pipeline,
//! one pass each, and its output is a fixpoint of every pass in it.
//! [`hoist`] is not a pass but the legality rule two later stages share:
//! when a subexpression may be evaluated once in front of a loop.

pub mod dce;
pub mod fold;
pub mod guards;
pub mod hoist;
pub mod simplify;
pub mod uniquify;

pub use dce::remove_dead_defs;
pub use fold::{const_fold_expr, const_fold_func, const_fold_stmt, simplify_expr};
pub use guards::remove_redundant_guards;
pub use simplify::{simplify, simplify_stmt};
pub use uniquify::uniquify_defs;
