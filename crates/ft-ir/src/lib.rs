//! # ft-ir — the FreeTensor intermediate representation
//!
//! This crate defines the *stack-scoped* abstract syntax tree that the rest of
//! the compiler operates on, mirroring Section 4 of the FreeTensor paper
//! (PLDI 2022):
//!
//! * every tensor is introduced by a [`StmtKind::VarDef`] node and is alive
//!   only inside the sub-tree of that node, which (a) lets transformations
//!   move code without breaking allocation/free pairing and (b) lets the
//!   dependence analysis project away false dependences on loop-local
//!   temporaries (paper Fig. 12(d));
//! * reductions are first-class ([`StmtKind::ReduceTo`]), so commutativity can
//!   be exploited during legality checking (paper Fig. 12(c)) and atomic or
//!   parallel-reduction lowering (paper Fig. 13(d)/(e));
//! * loops carry a [`ForProperty`] describing how they are mapped to hardware
//!   parallelism (OpenMP threads, CUDA blocks/threads, vector lanes).
//!
//! The tree is immutable: passes read it through [`Stmt::walk`] and
//! [`Expr::walk`] and rewrite it functionally through the
//! [`mutate::Mutator`] framework. Statements carry stable [`StmtId`]s (and
//! optional string labels) so that schedule primitives can address them across
//! rewrites.
//!
//! ```
//! use ft_ir::prelude::*;
//!
//! // for i in 0..n: y[i] = x[i] * 2 + 1
//! let n = var("n");
//! let f = Func::new("scale")
//!     .param("x", &[n.clone()], DataType::F32, AccessType::Input)
//!     .param("y", &[n.clone()], DataType::F32, AccessType::Output)
//!     .size_param("n")
//!     .body(for_("i", 0, n, store("y", [var("i")], load("x", [var("i")]) * 2.0f32 + 1.0f32)));
//! assert!(f.to_string().contains("y[i]"));
//! ```

pub mod builder;
pub mod expr;
pub mod find;
pub mod func;
pub mod hash;
pub mod mutate;
pub mod printer;
pub mod scalar;
pub mod stmt;
pub mod types;

pub use builder::*;
pub use expr::{BinaryOp, Expr, ExprType, UnaryOp};
pub use find::{find_stmt, find_stmts, parent_map, LoopNest};
pub use func::{Func, Param};
pub use hash::{fnv1a, Fnv1a};
pub use mutate::Mutator;
pub use scalar::{DivisionByZero, Scalar};
pub use stmt::{ForProperty, ReduceOp, Stmt, StmtId, StmtKind};
pub use types::{AccessType, DataType, Device, MemType, ParallelScope};

/// Commonly used items, for glob import in downstream crates and examples.
pub mod prelude {
    pub use crate::builder::*;
    pub use crate::expr::{BinaryOp, Expr, UnaryOp};
    pub use crate::find::{find_stmt, find_stmts};
    pub use crate::func::{Func, Param};
    pub use crate::mutate::Mutator;
    pub use crate::stmt::{ForProperty, ReduceOp, Stmt, StmtId, StmtKind};
    pub use crate::types::{AccessType, DataType, Device, MemType, ParallelScope};
}
