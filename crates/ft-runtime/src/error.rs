//! Runtime errors.

use ft_ir::Device;
use std::fmt;

/// Errors surfaced while executing a lowered function.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A tensor allocation exceeded a device's memory capacity (the paper's
    /// "OOM" outcomes in Figs. 16(b) and 18).
    OutOfMemory {
        /// Device that ran out of memory.
        device: Device,
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Live bytes at the time of the request.
        live: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// A required input tensor was not supplied.
    MissingInput(String),
    /// A supplied tensor's shape does not match the parameter declaration.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Declared shape (after size-parameter substitution).
        expected: Vec<usize>,
        /// Supplied shape.
        actual: Vec<usize>,
    },
    /// A size parameter was not supplied or a shape was not a constant.
    UnresolvedSize(String),
    /// The program referenced an unknown tensor or scalar.
    UndefinedName(String),
    /// An unknown library kernel name in a `LibCall`.
    UnknownKernel(String),
    /// An index evaluated out of the tensor's bounds.
    IndexOutOfBounds {
        /// Tensor name.
        name: String,
        /// The offending multi-index.
        index: Vec<i64>,
        /// The tensor's shape.
        shape: Vec<usize>,
    },
    /// Division (or remainder) by zero.
    DivisionByZero,
    /// The native compiled engine failed to emit, compile, load, or call
    /// the generated shared object (carries the toolchain/loader message).
    Native(String),
    /// A spawned child process (the C compiler) exceeded its deadline and
    /// was killed.
    ChildTimeout {
        /// What was running (e.g. `"cc"`).
        what: String,
        /// The deadline that was exceeded, in milliseconds.
        timeout_ms: u64,
    },
    /// A reusable `RunContext` bound to one (program, plan, shapes) was
    /// handed to `run_with` for a different one. Contexts carry buffer
    /// pools packed for a specific memory plan and staging buffers sized
    /// for specific shapes; silently rebuilding them hid real bugs in
    /// serving paths, so the mismatch is now an error. Call
    /// `RunContext::reset` to intentionally repurpose a context.
    ContextMismatch {
        /// Function the context is bound to.
        bound_func: String,
        /// Plan hash the context is bound to.
        bound_plan_hash: u64,
        /// Function of the rejected run.
        requested_func: String,
        /// Plan hash of the rejected run.
        requested_plan_hash: u64,
    },
    /// A finished run's outputs were recycled into a `RunContext` bound to
    /// a program with a different output signature (name/shape set), which
    /// would seed the staging pools with foreign buffers.
    RecycleMismatch {
        /// Function the context is bound to.
        bound_func: String,
        /// The offending output tensor.
        output: String,
        /// The bound program's shape for that output (`None` = the bound
        /// program has no such output).
        expected_shape: Option<Vec<usize>>,
        /// The recycled tensor's shape.
        actual_shape: Vec<usize>,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::OutOfMemory {
                device,
                requested,
                live,
                capacity,
            } => write!(
                f,
                "out of memory on {device}: requested {requested} bytes with {live} live of {capacity} capacity"
            ),
            RuntimeError::MissingInput(n) => write!(f, "missing input tensor `{n}`"),
            RuntimeError::ShapeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch for `{name}`: expected {expected:?}, got {actual:?}"
            ),
            RuntimeError::UnresolvedSize(n) => write!(f, "unresolved size parameter `{n}`"),
            RuntimeError::UndefinedName(n) => write!(f, "undefined name `{n}`"),
            RuntimeError::UnknownKernel(n) => write!(f, "unknown library kernel `{n}`"),
            RuntimeError::IndexOutOfBounds { name, index, shape } => write!(
                f,
                "index {index:?} out of bounds for `{name}` of shape {shape:?}"
            ),
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
            RuntimeError::Native(msg) => write!(f, "native engine: {msg}"),
            RuntimeError::ChildTimeout { what, timeout_ms } => {
                write!(f, "child_timeout: `{what}` exceeded {timeout_ms} ms and was killed")
            }
            RuntimeError::ContextMismatch {
                bound_func,
                bound_plan_hash,
                requested_func,
                requested_plan_hash,
            } => write!(
                f,
                "context_mismatch: RunContext is bound to `{bound_func}` \
                 (plan {bound_plan_hash:016x}) but was asked to run \
                 `{requested_func}` (plan {requested_plan_hash:016x}); \
                 call RunContext::reset to repurpose it"
            ),
            RuntimeError::RecycleMismatch {
                bound_func,
                output,
                expected_shape,
                actual_shape,
            } => match expected_shape {
                Some(exp) => write!(
                    f,
                    "recycle_mismatch: output `{output}` of shape {actual_shape:?} does not \
                     match shape {exp:?} of the context's bound program `{bound_func}`"
                ),
                None => write!(
                    f,
                    "recycle_mismatch: the context's bound program `{bound_func}` has no \
                     output `{output}` (recycled tensor shape {actual_shape:?})"
                ),
            },
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ft_ir::DivisionByZero> for RuntimeError {
    fn from(_: ft_ir::DivisionByZero) -> RuntimeError {
        RuntimeError::DivisionByZero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::OutOfMemory {
            device: Device::Gpu,
            requested: 100,
            live: 50,
            capacity: 120,
        };
        let s = e.to_string();
        assert!(s.contains("out of memory on gpu"));
        assert!(s.contains("100"));
    }
}
