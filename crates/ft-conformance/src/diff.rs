//! Differential comparison of one scheduled variant across backends.

use crate::backend::{run_backend, run_backend_planned, Backend};
use crate::workload::Case;
use ft_ir::{Func, StmtKind};
use ft_runtime::TensorVal;
use std::collections::HashMap;

/// Tolerance contract for *gradient* comparisons.
///
/// Forward outputs are judged by the flat absolute bound of
/// [`check_variant`]; gradients must not reuse it. A backward pass is a
/// chain of `+=` accumulations whose rounding error grows with both the
/// magnitude of the accumulated value and the nesting depth of the
/// reduction loops, so a flat absolute epsilon either rejects correct
/// large-magnitude gradients or accepts wrong small-magnitude ones. The
/// gradient contract is therefore element-wise
///
/// ```text
/// |got − want| <= scale · (abs + rel · |want|)
/// ```
///
/// with `scale = 1 + reduction_depth(func)` ([`reduction_depth`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradTol {
    /// Absolute floor (covers want ≈ 0).
    pub abs: f64,
    /// Relative term (covers large accumulated magnitudes).
    pub rel: f64,
}

impl Default for GradTol {
    fn default() -> GradTol {
        // f32 accumulation over test-scale reductions: ~1e-6 relative noise
        // per step, two orders of margin.
        GradTol {
            abs: 1e-5,
            rel: 1e-3,
        }
    }
}

/// Maximum number of `For` loops enclosing any `ReduceTo` statement — a
/// structural proxy for how deeply nested the longest accumulation chain
/// is. Backward passes turn every forward read into a gradient `+=`, so
/// grad functions typically have depth ≥ 1; the depth scales [`GradTol`].
pub fn reduction_depth(func: &Func) -> usize {
    fn rec(s: &ft_ir::Stmt, depth: usize, max: &mut usize) {
        match &s.kind {
            StmtKind::For { body, .. } => rec(body, depth + 1, max),
            StmtKind::ReduceTo { .. } => *max = (*max).max(depth),
            _ => {
                for c in s.children() {
                    rec(c, depth, max);
                }
            }
        }
    }
    let mut max = 0;
    rec(&func.body, 0, &mut max);
    max
}

/// Element-wise check of `got` against `want` under the gradient contract.
/// Returns `Ok(())` when every element passes, `Err(max_abs_err)` with the
/// worst absolute error otherwise. NaN on either side fails.
pub fn grad_close(got: &TensorVal, want: &TensorVal, tol: &GradTol, scale: f64) -> Result<(), f64> {
    let mut worst = 0.0f64;
    let mut ok = true;
    for i in 0..want.numel() {
        let g = got.get_flat(i).as_f64();
        let w = want.get_flat(i).as_f64();
        let d = (g - w).abs();
        if d.is_nan() {
            return Err(f64::NAN);
        }
        if d > worst {
            worst = d;
        }
        // A NaN bound (no relative term times an infinite `want`) accepts
        // nothing.
        let bound = scale * (tol.abs + tol.rel * w.abs());
        if d > bound || bound.is_nan() {
            ok = false;
        }
    }
    if ok {
        Ok(())
    } else {
        Err(worst)
    }
}

/// One observed disagreement between a backend and the oracle (or a backend
/// failure, which counts as a disagreement).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The backend that disagreed.
    pub backend: Backend,
    /// Output tensor the disagreement was observed on (empty on a backend
    /// execution failure).
    pub output: String,
    /// Maximum element-wise absolute difference (infinite on failure).
    pub max_abs_err: f64,
    /// Human-readable description.
    pub message: String,
}

fn diverge(backend: Backend, output: &str, err: f64, what: &str) -> Divergence {
    Divergence {
        backend,
        output: output.to_string(),
        max_abs_err: err,
        message: format!(
            "backend {} disagrees on `{output}`: {what} (max_abs_err {err:.6e})",
            backend.name()
        ),
    }
}

/// A backend that did not run at all: `message` is its error.
fn failed(backend: Backend, message: String) -> Divergence {
    Divergence {
        backend,
        output: String::new(),
        max_abs_err: f64::INFINITY,
        message,
    }
}

/// Re-run `func` on `b` through the warm-reuse path
/// ([`run_backend_planned`]: memory-planned pools, warmed `RunContext`)
/// and compare every output against the outputs `plain` of a first run on
/// a fresh context, whose buffers come from the allocator.
/// The planner only moves buffers; it must never change what is computed,
/// and every backend is run-to-run deterministic, so the two runs are held
/// to exact equality.
fn check_planned_path(
    b: Backend,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    plain: &HashMap<String, TensorVal>,
) -> Option<Divergence> {
    let planned = match run_backend_planned(b, func, inputs) {
        Ok(o) => o,
        Err(e) => return Some(failed(b, e)),
    };
    for name in func.output_names() {
        let Some(got) = planned.get(name) else {
            return Some(diverge(b, name, f64::INFINITY, "planned run lost output"));
        };
        let want = &plain[name];
        if got.shape() != want.shape() {
            return Some(diverge(
                b,
                name,
                f64::INFINITY,
                "planned run shape mismatch",
            ));
        }
        if let Some(d) = bit_difference(got, want) {
            return Some(diverge(
                b,
                name,
                d,
                "arena-planned run differs from fresh-allocation run",
            ));
        }
    }
    None
}

/// `|got - want|` at the first element whose bits differ, or `None` when
/// every element has the same bits: a NaN on one side only differs (its
/// difference is NaN), the same NaN on both sides does not.
fn bit_difference(got: &TensorVal, want: &TensorVal) -> Option<f64> {
    let bits = |s: ft_runtime::Scalar| match s {
        ft_runtime::Scalar::Float(f) => f.to_bits(),
        ft_runtime::Scalar::Int(v) => v as u64,
        ft_runtime::Scalar::Bool(b) => u64::from(b),
    };
    (0..want.numel()).find_map(|i| {
        let (g, w) = (got.get_flat(i), want.get_flat(i));
        (bits(g) != bits(w)).then(|| (g.as_f64() - w.as_f64()).abs())
    })
}

/// How one kind of variant is judged: the element-wise contract
/// ([`grad_close`] under `tol` and `scale`) and the wording of its reports.
struct Contract {
    tol: GradTol,
    scale: f64,
    /// A backend did not return an output at all.
    missing: &'static str,
    /// An output with an oracle value is not close to it.
    vs_oracle: &'static str,
    /// An output without one is not close to the interpreter's.
    vs_interp: &'static str,
}

/// The differential check. Run `func` through every backend in `backends`
/// and compare:
///
/// * each output named in `oracles` against its plain-Rust oracle value,
///   element-wise under `contract`;
/// * each non-interpreter backend's *other* outputs against the
///   interpreter's under the same contract, so outputs without an oracle
///   are covered too;
/// * each backend's *arena-planned* run (memory-planned pools through a
///   warmed `RunContext`) against its fresh-allocation run, bit for bit
///   ([`check_planned_path`]).
///
/// Returns the first divergence found, or `None` when all agree.
fn check(
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    oracles: &HashMap<&str, &TensorVal>,
    backends: &[Backend],
    contract: &Contract,
) -> Option<Divergence> {
    // The interpreter doubles as the baseline for non-oracle outputs; run it
    // unconditionally (it is also the cheapest backend).
    let base = match run_backend(Backend::Interp, func, inputs) {
        Ok(o) => o,
        Err(e) => return Some(failed(Backend::Interp, e)),
    };
    for &b in backends {
        let outs = if b == Backend::Interp {
            base.clone()
        } else {
            match run_backend(b, func, inputs) {
                Ok(o) => o,
                Err(e) => return Some(failed(b, e)),
            }
        };
        for name in func.output_names() {
            let Some(got) = outs.get(name) else {
                return Some(diverge(b, name, f64::INFINITY, contract.missing));
            };
            let (expect, what) = if let Some(oracle) = oracles.get(name) {
                (*oracle, contract.vs_oracle)
            } else if b == Backend::Interp {
                continue;
            } else {
                (&base[name], contract.vs_interp)
            };
            if got.shape() != expect.shape() {
                return Some(diverge(b, name, f64::INFINITY, "shape mismatch"));
            }
            if let Err(d) = grad_close(got, expect, &contract.tol, contract.scale) {
                return Some(diverge(b, name, d, what));
            }
        }
        if let Some(d) = check_planned_path(b, func, inputs, &outs) {
            return Some(d);
        }
    }
    None
}

/// `check` of a forward variant: the main output is judged against the
/// plain-Rust oracle (`case.oracle`), every other output against the
/// interpreter, element-wise within the flat absolute bound `tol` — the
/// gradient contract with one oracle, no relative term and scale 1.
///
/// `tol` is what lets [`Backend::Reordered`] reassociate float reductions;
/// the VM and the compiled engine sit far inside it (`tests/vm_fuzz.rs`
/// holds the VM to bit-identity with the interpreter).
pub fn check_variant(
    case: &Case,
    func: &Func,
    backends: &[Backend],
    tol: f64,
) -> Option<Divergence> {
    let contract = Contract {
        tol: GradTol { abs: tol, rel: 0.0 },
        scale: 1.0,
        missing: "output missing",
        vs_oracle: "values differ from oracle",
        vs_interp: "values differ from oracle",
    };
    let oracles = HashMap::from([(case.oracle_output.as_str(), &case.oracle)]);
    check(func, &case.inputs, &oracles, backends, &contract)
}

/// `check` of a *gradient* function.
///
/// `inputs` must already contain the seed gradient (`{output}.grad` ones);
/// `oracle_grads` maps `.grad` output names to the plain-Rust oracle
/// gradient. Each backend's `.grad` outputs are judged against the oracle
/// under the [`GradTol`] contract (scaled by the function's reduction
/// depth); every other output of the grad function — the recomputed forward
/// outputs and consumed seeds — is judged against the interpreter baseline
/// under the same contract, so taped-vs-recomputed forward replay is
/// covered too.
pub fn check_grad_variant(
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    oracle_grads: &HashMap<String, TensorVal>,
    backends: &[Backend],
    tol: &GradTol,
) -> Option<Divergence> {
    let contract = Contract {
        tol: *tol,
        scale: (1 + reduction_depth(func)) as f64,
        missing: "gradient output missing",
        vs_oracle: "gradient differs from oracle",
        vs_interp: "gradient-function output differs from interp",
    };
    let oracles = oracle_grads.iter().map(|(k, v)| (k.as_str(), v)).collect();
    check(func, inputs, &oracles, backends, &contract)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gradient contract differs from the forward contract in *both*
    /// directions: it accepts proportionally-noisy large gradients the old
    /// flat epsilon rejected, and rejects absolutely-small-but-relatively-
    /// wrong values the old epsilon let through. This test fails if
    /// gradient comparison is ever reverted to the forward `d > tol`
    /// contract.
    #[test]
    fn grad_tolerance_is_relative_not_forward_absolute() {
        let tol = GradTol::default();
        let forward_tol = crate::Config::default().tol;

        // Large magnitude, 5e-4 relative error: correct accumulation noise.
        let want = TensorVal::from_f64(&[1], vec![100.0]);
        let got = TensorVal::from_f64(&[1], vec![100.05]);
        let abs_err = got.max_abs_diff(&want);
        assert!(
            abs_err > forward_tol,
            "the old absolute contract would have rejected this ({abs_err:.1e} > {forward_tol:.1e})"
        );
        assert!(
            grad_close(&got, &want, &tol, 1.0).is_ok(),
            "the gradient contract must accept relative noise on large gradients"
        );

        // Small magnitude, error inside the old epsilon but far outside the
        // gradient floor: a genuinely wrong near-zero gradient.
        let want = TensorVal::from_f64(&[1], vec![0.0]);
        let got = TensorVal::from_f64(&[1], vec![3e-4]);
        assert!(
            got.max_abs_diff(&want) < forward_tol,
            "old contract accepted this"
        );
        assert!(
            grad_close(&got, &want, &tol, 1.0).is_err(),
            "the gradient contract must reject wrong near-zero gradients"
        );

        // NaN always fails.
        let got = TensorVal::from_f64(&[1], vec![f64::NAN]);
        assert!(grad_close(&got, &want, &tol, 1.0).is_err());
    }

    #[test]
    fn a_wrong_oracle_is_reported_alike_for_both_kinds_of_variant() {
        use crate::grad::{build_grad_func, grad_setup, GradSpec};
        use ft_runtime::Scalar;
        let bump = |t: &mut TensorVal| {
            let v = t.get_flat(0).as_f64();
            t.set_flat(0, Scalar::Float(v + 1.0));
        };
        let said = |d: &Divergence, what: &str| {
            let want = format!(
                "backend vm disagrees on `{}`: {what} (max_abs_err {:.6e})",
                d.output, d.max_abs_err
            );
            assert_eq!(d.message, want);
            assert_eq!(d.backend, Backend::Vm);
            assert!((d.max_abs_err - 1.0).abs() < 1e-3, "{d:?}");
        };
        let w = crate::Workload::Subdivnet;
        let mut case = Case::build(w, 7);
        let backends = [Backend::Vm];
        let forward_tol = crate::Config::default().tol;

        assert!(check_variant(&case, &case.func, &backends, forward_tol).is_none());
        bump(&mut case.oracle);
        let d = check_variant(&case, &case.func, &backends, forward_tol).expect("wrong oracle");
        assert_eq!(d.output, "y");
        said(&d, "values differ from oracle");

        let case = Case::build(w, 7);
        let (inputs, mut oracle_grads) = grad_setup(w, &case);
        let (g, _) = build_grad_func(&case.func, &[], &GradSpec::default(), None).unwrap();
        let tol = GradTol::default();
        assert!(check_grad_variant(&g, &inputs, &oracle_grads, &backends, &tol).is_none());
        bump(oracle_grads.get_mut("e.grad").unwrap());
        let d = check_grad_variant(&g, &inputs, &oracle_grads, &backends, &tol)
            .expect("wrong gradient oracle");
        assert_eq!(d.output, "e.grad");
        said(&d, "gradient differs from oracle");
    }

    #[test]
    fn the_planned_path_is_compared_bit_for_bit() {
        let t = |v: Vec<f32>| TensorVal::from_f32(&[2], v);
        let one = t(vec![1.0, 2.0]);
        assert_eq!(bit_difference(&one, &one.clone()), None);
        // A NaN from one run only: folding `|a - b|` with `f64::max`
        // dropped it and called the runs equal.
        let d = bit_difference(&t(vec![1.0, f32::NAN]), &one);
        assert!(d.is_some_and(f64::is_nan), "{d:?}");
        assert!(bit_difference(&one, &t(vec![1.0, f32::NAN])).is_some());
        // The same NaN twice is the same bits; a sign is a bit too.
        let nan = t(vec![f32::NAN, 0.0]);
        assert_eq!(bit_difference(&nan, &nan.clone()), None);
        assert_eq!(
            bit_difference(&t(vec![1.0, -0.0]), &t(vec![1.0, 0.0])),
            Some(0.0)
        );
    }

    #[test]
    fn reduction_depth_counts_enclosing_loops() {
        use ft_ir::prelude::*;
        let f = Func::new("f")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                for_(
                    "j",
                    0,
                    4,
                    reduce("y", [var("i")], ReduceOp::Add, load("x", [var("j")])),
                ),
            ));
        assert_eq!(reduction_depth(&f), 2);
        let g = Func::new("g")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                store("y", [var("i")], load("x", [var("i")])),
            ));
        assert_eq!(reduction_depth(&g), 0, "no ReduceTo, no accumulation depth");
    }
}
