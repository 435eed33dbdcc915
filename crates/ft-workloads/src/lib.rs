//! # ft-workloads — the paper's four irregular tensor programs
//!
//! Each workload (paper §6.1) is implemented three ways over identical
//! synthetic inputs:
//!
//! * **FreeTensor DSL** — the fine-grained, redundancy-free program (the
//!   unoptimized build doubles as the "Julia-style fine-grained" baseline;
//!   `Program::optimize` produces the scheduled FreeTensor build);
//! * **operator-based** (`ft-opbase`) — the PyTorch/JAX/DGL-style chain with
//!   its rearrangement operators and materialized intermediates;
//! * **reference** — a plain Rust oracle used by the test suite to check
//!   both against.
//!
//! | workload | irregularity |
//! |---|---|
//! | [`subdivnet`] | indirect adjacency + circular difference (paper Fig. 2) |
//! | [`longformer`] | sliding-window attention with boundary guards (Fig. 1/5) |
//! | [`softras`] | per pixel–face geometric scoring |
//! | [`gat`] | CSR neighbor softmax with data-dependent loop bounds |

pub mod data;
pub mod gat;
pub mod longformer;
pub mod softras;
pub mod subdivnet;
mod table;

pub use table::{Instance, Scale, Workload};

use ft_runtime::TensorVal;
use std::collections::HashMap;

/// Named input tensors for a workload run.
pub type Inputs = HashMap<String, TensorVal>;
