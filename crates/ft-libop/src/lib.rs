//! # ft-libop — the operator library, written in the DSL itself
//!
//! The paper's `libop` (§3.2): operators from elementwise arithmetic up to
//! `softmax` and `matmul`, implemented as *pure DSL code* rather than native
//! kernels. Calls to these functions are fully inlined by the frontend and
//! then co-optimized with the rest of the program — the key to removing
//! operator-boundary redundancy.
//!
//! Use [`prelude_source`] to prepend the library to a user program:
//!
//! ```
//! let src = format!(
//!     "{}\n{}",
//!     ft_libop::prelude_source(),
//!     r#"
//! def entry(x: f32[4, 8] in, y: f32[4, 8] out):
//!   add(x, x, y)
//! "#
//! );
//! let func = ft_frontend::compile_str(&src, "entry").expect("compiles");
//! assert_eq!(func.params.len(), 2);
//! ```
//!
//! Dimension-free operators (`zeros`, `add`, `mul_el`, …) use the finite
//! recursion of paper Fig. 6(b) and expand to nested loops by partial
//! evaluation; shape-specific ones (`softmax1d`, `matmul`) are written in
//! the canonical forms that the scheduler's `as_lib` and the auto-scheduler
//! recognize.

/// DSL source of the whole operator library.
pub fn prelude_source() -> &'static str {
    r#"
# ---- libop: dimension-free elementwise operators (paper Fig. 6(b)) ----

def zeros(A):
  if A.ndim == 0:
    A = 0.0
  else:
    for i in range(A.shape(0)):
      zeros(A[i])

def copy_el(A, C):
  if A.ndim == 0:
    C = A
  else:
    for i in range(A.shape(0)):
      copy_el(A[i], C[i])

def add(A, B, C):
  if A.ndim == 0:
    C = A + B
  else:
    for i in range(A.shape(0)):
      add(A[i], B[i], C[i])

def sub(A, B, C):
  if A.ndim == 0:
    C = A - B
  else:
    for i in range(A.shape(0)):
      sub(A[i], B[i], C[i])

def mul_el(A, B, C):
  if A.ndim == 0:
    C = A * B
  else:
    for i in range(A.shape(0)):
      mul_el(A[i], B[i], C[i])

def div_el(A, B, C):
  if A.ndim == 0:
    C = A / B
  else:
    for i in range(A.shape(0)):
      div_el(A[i], B[i], C[i])

def abs_el(A, C):
  if A.ndim == 0:
    C = abs(A)
  else:
    for i in range(A.shape(0)):
      abs_el(A[i], C[i])

def exp_el(A, C):
  if A.ndim == 0:
    C = exp(A)
  else:
    for i in range(A.shape(0)):
      exp_el(A[i], C[i])

def relu(A, C):
  if A.ndim == 0:
    C = max(A, 0.0)
  else:
    for i in range(A.shape(0)):
      relu(A[i], C[i])

def sigmoid_el(A, C):
  if A.ndim == 0:
    C = sigmoid(A)
  else:
    for i in range(A.shape(0)):
      sigmoid_el(A[i], C[i])

def scale(A, s, C):
  if A.ndim == 0:
    C = A * s
  else:
    for i in range(A.shape(0)):
      scale(A[i], s, C[i])

# ---- reductions ----

def sum_acc(A, out):
  if A.ndim == 0:
    out += A
  else:
    for i in range(A.shape(0)):
      sum_acc(A[i], out)

def reduce_sum(A, out):
  out = 0.0
  sum_acc(A, out)

def max_acc(A, out):
  if A.ndim == 0:
    out max= A
  else:
    for i in range(A.shape(0)):
      max_acc(A[i], out)

def reduce_max(A, out):
  out = -inf
  max_acc(A, out)

# ---- composite operators ----

def softmax1d(x, y, n: size):
  m = create_var((), "f32", "cpu")
  m = -inf
  for i in range(n):
    m max= x[i]
  den = create_var((), "f32", "cpu")
  den = 0.0
  for j in range(n):
    den += exp(x[j] - m)
  for k in range(n):
    y[k] = exp(x[k] - m) / den

def matmul(A, B, C, m: size, k: size, n: size):
  for i in range(m):
    for j in range(n):
      C[i, j] = 0.0
      for p in range(k):
        C[i, j] += A[i, p] * B[p, j]
"#
}

/// Compile a user program together with the operator library.
///
/// # Errors
///
/// Propagates frontend parse/lowering errors (as strings with locations).
pub fn compile_with_libop(user_src: &str, entry: &str) -> Result<ft_ir::Func, String> {
    let src = format!("{}\n{}", prelude_source(), user_src);
    ft_frontend::compile_str(&src, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_runtime::{ExecutionEngine, Runtime, TensorVal};
    use std::collections::HashMap;

    fn run1(
        src: &str,
        entry: &str,
        inputs: &[(&str, TensorVal)],
        out: &str,
    ) -> TensorVal {
        let f = compile_with_libop(src, entry).expect("compiles");
        let inputs: HashMap<String, TensorVal> = inputs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        Runtime::new()
            .run(&f, &inputs, &HashMap::new())
            .expect("runs")
            .output(out)
            .clone()
    }

    #[test]
    fn elementwise_ops_on_2d() {
        let x = TensorVal::from_f32(&[2, 3], vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0]);
        let y = run1(
            "def e(x: f32[2, 3] in, y: f32[2, 3] out):\n  abs_el(x, y)\n",
            "e",
            &[("x", x.clone())],
            "y",
        );
        assert_eq!(y.to_f64_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = run1(
            "def e(x: f32[2, 3] in, y: f32[2, 3] out):\n  relu(x, y)\n",
            "e",
            &[("x", x.clone())],
            "y",
        );
        assert_eq!(y.to_f64_vec(), vec![1.0, 0.0, 3.0, 0.0, 5.0, 0.0]);
        let y = run1(
            "def e(x: f32[2, 3] in, y: f32[2, 3] out):\n  add(x, x, y)\n",
            "e",
            &[("x", x)],
            "y",
        );
        assert_eq!(y.to_f64_vec(), vec![2.0, -4.0, 6.0, -8.0, 10.0, -12.0]);
    }

    #[test]
    fn reductions() {
        let x = TensorVal::from_f32(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let s = run1(
            "def e(x: f32[2, 2] in, s: f32[] out):\n  reduce_sum(x, s)\n",
            "e",
            &[("x", x.clone())],
            "s",
        );
        assert_eq!(s.to_f64_vec(), vec![10.0]);
        let m = run1(
            "def e(x: f32[2, 2] in, m: f32[] out):\n  reduce_max(x, m)\n",
            "e",
            &[("x", x)],
            "m",
        );
        assert_eq!(m.to_f64_vec(), vec![4.0]);
    }

    #[test]
    fn softmax_normalizes() {
        let x = TensorVal::from_f32(&[4], vec![0.5, 1.5, -0.5, 2.0]);
        let y = run1(
            "def e(x: f32[4] in, y: f32[4] out):\n  softmax1d(x, y, 4)\n",
            "e",
            &[("x", x)],
            "y",
        );
        let v = y.to_f64_vec();
        let total: f64 = v.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert!(v[3] > v[1] && v[1] > v[0] && v[0] > v[2]);
    }

    #[test]
    fn matmul_matches_reference() {
        let a = TensorVal::from_f32(&[3, 4], (0..12).map(|x| x as f32 * 0.25).collect());
        let b = TensorVal::from_f32(&[4, 2], (0..8).map(|x| (x as f32).sin()).collect());
        let c = run1(
            "def e(a: f32[3, 4] in, b: f32[4, 2] in, c: f32[3, 2] out):\n  matmul(a, b, c, 3, 4, 2)\n",
            "e",
            &[("a", a.clone()), ("b", b.clone())],
            "c",
        );
        let reference = ft_runtime::libkernel::matmul_reference(&a, &b, 3, 4, 2);
        assert!(c.allclose(&reference, 1e-5));
    }

    #[test]
    fn libop_matmul_matches_as_lib_pattern() {
        // The libop matmul, inlined, must be recognized by the scheduler's
        // `as_lib` (holistic pipeline property).
        let f = compile_with_libop(
            "def e(a: f32[3, 4] in, b: f32[4, 2] in, c: f32[3, 2] out):\n  matmul(a, b, c, 3, 4, 2)\n",
            "e",
        )
        .unwrap();
        let mut s = ft_schedule::Schedule::new(f);
        s.as_lib("i").expect("libop matmul matches as_lib");
        assert!(ft_ir::find::find_stmt(&s.func().body, &|st| {
            matches!(st.kind, ft_ir::StmtKind::LibCall { .. })
        })
        .is_some());
    }

    #[test]
    fn zeros_then_accumulate() {
        let x = TensorVal::from_f32(&[3], vec![1.0, 2.0, 3.0]);
        let y = run1(
            "def e(x: f32[3] in, y: f32[3] out):\n  zeros(y)\n  add(y, x, y)\n",
            "e",
            &[("x", x)],
            "y",
        );
        assert_eq!(y.to_f64_vec(), vec![1.0, 2.0, 3.0]);
    }
}
