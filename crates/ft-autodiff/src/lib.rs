//! # ft-autodiff — fine-grained reverse-mode automatic differentiation
//!
//! Implements §5 of the FreeTensor paper: AD as an AST→AST transformation,
//! so the gradient program enjoys the same scheduling and simplification
//! passes as the original.
//!
//! [`grad`] produces a single function computing the forward outputs *and*
//! the parameter gradients:
//!
//! * inputs: the original inputs, plus one seed `y.grad` per output;
//! * outputs: the original outputs, plus one `x.grad` per (float) input.
//!
//! Two mechanisms from the paper are central:
//!
//! * **Symbolic tape versioning** (§5.1): an intermediate tensor overwritten
//!   inside loops is materialized into a tape with one extra dimension per
//!   enclosing loop — the version number is the loop iterator vector, known
//!   at compile time, so the taped program parallelizes like the original
//!   (no runtime version counter).
//! * **Selective intermediate tensor materialization** (§5.2): per tensor,
//!   the transform chooses between *storing* (tape) and *recomputing* in the
//!   backward pass, balancing tape footprint against recompute cost
//!   ([`TapePolicy::Selective`]; `All` and `None` reproduce the FT(-) / FT(+)
//!   ablation of the paper's Fig. 18).

pub mod analyze;
pub mod deriv;
mod name;
pub mod transform;

pub use analyze::{MaterializeDecision, TapePolicy};
pub use transform::{grad, grad_with, AdError, AdFault, GradOptions};
