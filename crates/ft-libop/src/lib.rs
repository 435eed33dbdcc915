//! # ft-libop — the operator library, written in the DSL itself
//!
//! The paper's `libop` (§3.2): operators from elementwise arithmetic up to
//! `softmax` and `matmul`, implemented as *pure DSL code* rather than native
//! kernels. Calls to these functions are fully inlined by the frontend and
//! then co-optimized with the rest of the program — the key to removing
//! operator-boundary redundancy.
//!
//! [`compile_with_libop`] compiles a user program with the library in
//! scope. The library is parsed once per process and only the user's text
//! per call; the user's own definitions shadow the library's:
//!
//! ```
//! let src = r#"
//! def entry(x: f32[4, 8] in, y: f32[4, 8] out):
//!   add(x, x, y)
//! "#;
//! let func = ft_libop::compile_with_libop(src, "entry").expect("compiles");
//! assert_eq!(func.params.len(), 2);
//! ```
//!
//! Dimension-free operators (`zeros`, `add`, `mul_el`, …) use the finite
//! recursion of paper Fig. 6(b) and expand to nested loops by partial
//! evaluation; shape-specific ones (`softmax1d`, `matmul`) are written in
//! the canonical forms that the scheduler's `as_lib` and the auto-scheduler
//! recognize.

use ft_frontend::Module;
use std::sync::OnceLock;

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

/// The operator library, parsed once per process.
fn library() -> &'static Module {
    static LIBRARY: OnceLock<Module> = OnceLock::new();
    LIBRARY.get_or_init(|| ft_frontend::parse(prelude_source()).expect("the operator library parses"))
}

/// Compile a user program with the operator library in scope. Only
/// `user_src` is parsed; its own definitions shadow the library's, and a
/// parse or lowering error names a line of `user_src` — or, inside a
/// library function, a line of the library.
///
/// # Errors
///
/// Propagates frontend parse/lowering errors (as strings with locations).
pub fn compile_with_libop(user_src: &str, entry: &str) -> Result<ft_ir::Func, String> {
    let module = ft_frontend::parse(user_src).map_err(|e| e.to_string())?;
    ft_frontend::lower_with_library(&module, library(), entry).map_err(|e| e.to_string())
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
    fn a_syntax_error_names_its_line_in_the_user_text() {
        let src = "def e(x: f32[3] in, y: f32[3] out):\n  zeros(y)\n  y[0] = = x[0]\n";
        let err = compile_with_libop(src, "e").unwrap_err();
        assert!(err.starts_with("parse error at line 3:"), "{err}");
    }

    #[test]
    fn a_lowering_error_inside_a_library_function_names_the_library() {
        // `add` recurses on `C[i]` one level deeper than a 1-D `y` allows.
        let src = "def e(x: f32[2, 3] in, y: f32[2] out):\n  add(x, x, y)\n";
        let err = compile_with_libop(src, "e").unwrap_err();
        let line = prelude_source()
            .lines()
            .position(|l| l.trim() == "add(A[i], B[i], C[i])")
            .expect("add recurses")
            + 1;
        assert_eq!(
            err,
            format!(
                "lowering error in the operator library at line {line}: \
                 too many indices: `y` has 0 remaining dimensions"
            )
        );
        // An error at the call site is the user's.
        let err = compile_with_libop("def e(y: f32[2] out):\n\n  add(y, y)\n", "e").unwrap_err();
        assert_eq!(err, "lowering error at line 3: `add` takes 3 arguments, got 2");
    }

    #[test]
    fn user_definitions_shadow_the_library() {
        let x = TensorVal::from_f32(&[2], vec![1.0, 2.0]);
        let y = run1(
            "def add(A, B, C):\n  for i in range(2):\n    C[i] = A[i] - B[i] * 2.0\n\n\
             def e(x: f32[2] in, y: f32[2] out):\n  add(x, x, y)\n",
            "e",
            &[("x", x)],
            "y",
        );
        assert_eq!(y.to_f64_vec(), vec![-1.0, -2.0]);
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
