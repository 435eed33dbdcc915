//! # ft-poly — Presburger-lite integer linear constraint solving
//!
//! The FreeTensor paper uses isl to decide dependence questions: given memory
//! accesses described as affine ("Presburger") formulas, a dependence exists
//! iff an integer solution exists to the conjunction of
//!
//! 1. both statement instances' iteration domains,
//! 2. equality of the accessed array indices, and
//! 3. a lexicographic ordering constraint between the two instances.
//!
//! This crate implements exactly that decision procedure from scratch:
//!
//! * [`LinExpr`] — affine expressions over named integer variables;
//! * [`Constraint`] / [`System`] — conjunctions of `e ≥ 0` / `e = 0`;
//! * [`Rows::satisfiable`] — integer emptiness via equality substitution
//!   (with GCD feasibility tests) followed by Fourier–Motzkin elimination
//!   with *real shadow* (sound for "empty") and *dark shadow* (sound for
//!   "non-empty") tracking, in the style of the Omega test, on dense rows
//!   over variables numbered in pivot order; [`System::satisfiable`] numbers
//!   a system's variables by name and solves it so;
//! * [`lex_order_systems`] — the per-depth disjuncts of `p >lex q` used to
//!   classify loop-carried dependences.
//!
//! Answers are three-valued ([`Sat`]): `Unknown` arises when the dark and
//! real shadows disagree or arithmetic would overflow; dependence analysis
//! treats `Unknown` conservatively as "dependence may exist".
//!
//! ```
//! use ft_poly::{LinExpr, Constraint, System, Sat};
//!
//! // { i : 0 <= i < 10  and  i = 2k  and  i >= 7 and k >= 4 } is non-empty (i=8).
//! let i = LinExpr::var("i");
//! let k = LinExpr::var("k");
//! let sys = System::new()
//!     .with(Constraint::ge(i.clone(), LinExpr::constant(0)))
//!     .with(Constraint::lt(i.clone(), LinExpr::constant(10)))
//!     .with(Constraint::eq(i.clone(), k.clone().scaled(2)))
//!     .with(Constraint::ge(i, LinExpr::constant(7)))
//!     .with(Constraint::ge(k, LinExpr::constant(4)));
//! assert_eq!(sys.satisfiable(), Sat::NonEmpty);
//! ```

pub mod constraint;
pub mod linexpr;
pub mod solve;

pub use constraint::{CmpOp, Constraint, System};
pub use linexpr::LinExpr;
pub use solve::{lex_order_systems, Rows, Sat};
