//! The programs under differential test: the paper's four workloads
//! ([`ft_workloads::Workload`], at [`Scale::Test`]), plus custom cases for
//! fault-injection tests.

use ft_ir::Func;
use ft_runtime::TensorVal;
use ft_workloads::{Inputs, Scale, Workload};

/// A fully-instantiated program under test: IR, inputs, and the plain-Rust
/// oracle's expected value of the main output.
#[derive(Debug, Clone)]
pub struct Case {
    /// Workload (or custom case) name.
    pub name: String,
    /// The unscheduled function; schedule traces are applied to clones.
    pub func: Func,
    /// Named input tensors.
    pub inputs: Inputs,
    /// Expected value of [`Case::oracle_output`], computed in plain Rust.
    pub oracle: TensorVal,
    /// Name of the output tensor the oracle predicts.
    pub oracle_output: String,
    /// Seed the synthetic inputs were drawn with.
    pub input_seed: u64,
}

impl Case {
    /// Build a case from parts — used by fault-injection tests that need a
    /// program outside the standard workload set.
    pub fn custom(
        name: &str,
        func: Func,
        inputs: Inputs,
        oracle: TensorVal,
        oracle_output: &str,
    ) -> Case {
        Case {
            name: name.to_string(),
            func,
            inputs,
            oracle,
            oracle_output: oracle_output.to_string(),
            input_seed: 0,
        }
    }

    /// Instantiate `w` at test scale with inputs drawn from `seed`.
    pub fn build(w: Workload, seed: u64) -> Case {
        let instance = w.at(Scale::Test);
        let inputs = instance.inputs(seed);
        Case {
            name: w.name().to_string(),
            func: instance.program().func().clone(),
            oracle: instance.reference(&inputs),
            inputs,
            oracle_output: w.output().to_string(),
            input_seed: seed,
        }
    }
}
