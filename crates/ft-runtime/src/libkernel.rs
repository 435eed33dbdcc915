//! Hand-optimized "vendor library" kernels backing the `as_lib`
//! transformation (paper Table 1, "Others").
//!
//! A `LibCall` bypasses the interpreter's per-element instrumentation: like a
//! cuBLAS/MKL call, it executes natively (a cache-blocked Rust matmul) and
//! charges the counters in bulk with the traffic an optimized kernel would
//! generate — one streaming pass over each operand — plus FLOPs at a modeled
//! vendor-library efficiency.

use crate::error::RuntimeError;
use crate::slots::ExecCtx;
use crate::value::{Scalar, TensorVal};

/// Efficiency factor of a vendor kernel relative to naive per-element
/// interpretation (used by the time model).
pub const LIB_EFFICIENCY: f64 = 16.0;

pub(crate) fn dispatch_slots(
    ctx: &mut ExecCtx<'_>,
    kernel: &str,
    inputs: &[usize],
    outputs: &[usize],
    attrs: &[i64],
) -> Result<(), RuntimeError> {
    match kernel {
        "matmul" => matmul(ctx, inputs, outputs, attrs),
        other => Err(RuntimeError::UnknownKernel(other.to_string())),
    }
}

/// `C[m,n] += A[m,k] * B[k,n]` — blocked, f64 accumulate.
fn matmul(
    ctx: &mut ExecCtx<'_>,
    inputs: &[usize],
    outputs: &[usize],
    attrs: &[i64],
) -> Result<(), RuntimeError> {
    let a = ctx.tensor(inputs[0])?.clone();
    let b = ctx.tensor(inputs[1])?.clone();
    let mut c = ctx.tensor(outputs[0])?.clone();
    let [m, k, n] = matmul_checked(&a, &b, &mut c, attrs, &ctx.names[outputs[0]])?;
    ctx.replace_tensor(outputs[0], c)?;
    // Bulk accounting: one streaming pass per operand, FLOPs at library
    // efficiency for the time model.
    let elem = 4u64; // f32-equivalent traffic
    let bytes = ((m * k + k * n + 2 * m * n) as u64) * elem;
    let flops = (2 * m * k * n) as u64;
    ctx.charge_bulk(bytes, flops, flops as f64 / LIB_EFFICIENCY);
    Ok(())
}

/// The `matmul` kernel on three resolved operands, as both the interpreter
/// and the VM call it: reads `[m, k, n]` from `attrs`, checks every
/// operand's element count against them and runs [`matmul_blocked`].
/// `out_name` is the output's name, for the error payload.
pub(crate) fn matmul_checked(
    a: &TensorVal,
    b: &TensorVal,
    c: &mut TensorVal,
    attrs: &[i64],
    out_name: &str,
) -> Result<[usize; 3], RuntimeError> {
    let [m, k, n] = attrs else {
        return Err(RuntimeError::UnknownKernel(
            "matmul expects attrs [m, k, n]".to_string(),
        ));
    };
    let (m, k, n) = (*m as usize, *k as usize, *n as usize);
    if a.numel() != m * k || b.numel() != k * n || c.numel() != m * n {
        return Err(RuntimeError::ShapeMismatch {
            name: out_name.to_string(),
            expected: vec![m, n],
            actual: c.shape().to_vec(),
        });
    }
    matmul_blocked(a, b, c, m, k, n);
    Ok([m, k, n])
}

/// The blocked compute kernel itself (partial sums round through the output
/// dtype on every update, so the iteration order and the per-update
/// `set_flat` are semantically significant).
fn matmul_blocked(a: &TensorVal, b: &TensorVal, c: &mut TensorVal, m: usize, k: usize, n: usize) {
    const BLK: usize = 32;
    for i0 in (0..m).step_by(BLK) {
        for k0 in (0..k).step_by(BLK) {
            for j0 in (0..n).step_by(BLK) {
                for i in i0..(i0 + BLK).min(m) {
                    for kk in k0..(k0 + BLK).min(k) {
                        let av = a.get_flat(i * k + kk).as_f64();
                        for j in j0..(j0 + BLK).min(n) {
                            let cv = c.get_flat(i * n + j).as_f64();
                            c.set_flat(
                                i * n + j,
                                Scalar::Float(cv + av * b.get_flat(kk * n + j).as_f64()),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Reference (unblocked) matmul used by tests and the operator baseline.
pub fn matmul_reference(a: &TensorVal, b: &TensorVal, m: usize, k: usize, n: usize) -> TensorVal {
    let mut c = TensorVal::zeros(ft_ir::DataType::F32, &[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += a.get_flat(i * k + kk).as_f64() * b.get_flat(kk * n + j).as_f64();
            }
            c.set_flat(i * n + j, Scalar::Float(acc));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Runtime;
    use crate::ExecutionEngine;
    use ft_ir::prelude::*;
    use ft_ir::{DataType, Stmt, StmtKind};
    use std::collections::HashMap;

    #[test]
    fn libcall_matmul_matches_reference() {
        let (m, k, n) = (5usize, 7usize, 3usize);
        let a = TensorVal::from_f32(&[m, k], (0..m * k).map(|x| x as f32 * 0.5).collect());
        let b = TensorVal::from_f32(&[k, n], (0..k * n).map(|x| (x as f32).sin()).collect());
        let f = Func::new("mm")
            .param("A", [m, k], DataType::F32, AccessType::Input)
            .param("B", [k, n], DataType::F32, AccessType::Input)
            .param("C", [m, n], DataType::F32, AccessType::Output)
            .body(Stmt::new(StmtKind::LibCall {
                kernel: "matmul".to_string(),
                inputs: vec!["A".to_string(), "B".to_string()],
                outputs: vec!["C".to_string()],
                attrs: vec![m as i64, k as i64, n as i64],
            }));
        let inputs: HashMap<String, TensorVal> =
            [("A".to_string(), a.clone()), ("B".to_string(), b.clone())]
                .into_iter()
                .collect();
        let r = Runtime::new().run(&f, &inputs, &HashMap::new()).unwrap();
        let reference = matmul_reference(&a, &b, m, k, n);
        assert!(r.output("C").allclose(&reference, 1e-4));
        assert_eq!(r.counters.flops, (2 * m * k * n) as u64);
    }

    #[test]
    fn unknown_kernel_errors() {
        let f = Func::new("f").body(Stmt::new(StmtKind::LibCall {
            kernel: "fft".to_string(),
            inputs: vec![],
            outputs: vec![],
            attrs: vec![],
        }));
        let err = Runtime::new().run(&f, &HashMap::new(), &HashMap::new());
        assert!(matches!(err, Err(crate::RuntimeError::UnknownKernel(_))));
    }
}
