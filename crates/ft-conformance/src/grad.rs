//! Gradient differential conformance: fuzz the AD pipeline (paper §5)
//! across backends the same way [`crate::run_conformance`] fuzzes the
//! forward scheduler.
//!
//! For every sampled schedule trace the sweep differentiates the workload
//! under both tape policies ([`TapePolicy::All`] and
//! [`TapePolicy::Selective`], sweeping `recompute_threshold` across the
//! def-cost boundary), in both composition orders ([`GradOrder`]), executes
//! the backward pass on every backend, and judges the `.grad` outputs
//! against (a) a plain-Rust oracle gradient per workload and (b) central
//! finite differences through the forward oracle — both under the
//! reduction-depth-scaled tolerance contract of [`crate::diff::GradTol`].
//! Divergences shrink to a minimal trace and are written as JSON repros
//! that capture the full `GradOptions` alongside the schedule.

use crate::backend::Backend;
use crate::diff::{reduction_depth, GradTol};
use crate::ops::{self, ScheduleOp};
use crate::workload::Case;
use crate::{Summary, Variant};
use ft_autodiff::{grad_with, AdError, AdFault, GradOptions, TapePolicy};
use ft_ir::Func;
use ft_runtime::{Scalar, TensorVal};
use ft_workloads::{Inputs, Scale, Workload};
use std::path::PathBuf;

/// Composition order of differentiation and scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradOrder {
    /// Differentiate the user program, then apply the schedule trace to the
    /// gradient function (the paper's default pipeline: AD before
    /// optimization, §5).
    GradThenOpt,
    /// Apply the schedule trace to the forward program, then differentiate
    /// the scheduled function.
    OptThenGrad,
}

impl GradOrder {
    /// Both orders, in sweep order.
    pub const ALL: [GradOrder; 2] = [GradOrder::GradThenOpt, GradOrder::OptThenGrad];

    /// Stable name (used in repro files).
    pub fn name(&self) -> &'static str {
        match self {
            GradOrder::GradThenOpt => "grad-then-opt",
            GradOrder::OptThenGrad => "opt-then-grad",
        }
    }

    /// Inverse of [`GradOrder::name`].
    pub fn from_name(name: &str) -> Option<GradOrder> {
        GradOrder::ALL.iter().copied().find(|o| o.name() == name)
    }
}

/// Stable name of a tape policy (used in repro files).
pub fn policy_name(p: TapePolicy) -> &'static str {
    match p {
        TapePolicy::All => "all",
        TapePolicy::Selective => "selective",
        TapePolicy::None => "none",
    }
}

/// Inverse of [`policy_name`].
pub fn policy_from_name(name: &str) -> Option<TapePolicy> {
    [TapePolicy::All, TapePolicy::Selective, TapePolicy::None]
        .into_iter()
        .find(|p| policy_name(*p) == name)
}

/// Stable name of an injected AD fault (used in repro files).
pub fn fault_name(f: AdFault) -> &'static str {
    match f {
        AdFault::DropTapeVersionBump => "drop-tape-version-bump",
    }
}

/// Inverse of [`fault_name`].
pub fn fault_from_name(name: &str) -> Option<AdFault> {
    [AdFault::DropTapeVersionBump]
        .into_iter()
        .find(|f| fault_name(*f) == name)
}

/// One point of the gradient sweep: how the grad function of a variant was
/// built. Serialized into repro files so a divergence replays with the
/// exact `GradOptions` that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradSpec {
    /// Store-vs-recompute strategy.
    pub policy: TapePolicy,
    /// `Selective`'s def-cost threshold.
    pub recompute_threshold: usize,
    /// Differentiate-then-schedule or schedule-then-differentiate.
    pub order: GradOrder,
    /// Deliberate AD miscompilation (harness-validation runs only).
    pub fault: Option<AdFault>,
}

impl Default for GradSpec {
    fn default() -> GradSpec {
        GradSpec {
            policy: TapePolicy::Selective,
            recompute_threshold: GradOptions::default().recompute_threshold,
            order: GradOrder::GradThenOpt,
            fault: None,
        }
    }
}

impl GradSpec {
    fn options(&self) -> GradOptions {
        GradOptions {
            policy: self.policy,
            recompute_threshold: self.recompute_threshold,
            wrt: None,
            fault: self.fault,
        }
    }

    /// Compact human-readable label (`selective@16/grad-then-opt`).
    pub fn label(&self) -> String {
        let fault = self
            .fault
            .map(|f| format!("+fault:{}", fault_name(f)))
            .unwrap_or_default();
        format!(
            "{}@{}/{}{}",
            policy_name(self.policy),
            self.recompute_threshold,
            self.order.name(),
            fault
        )
    }
}

/// Build the gradient function of `func` for one sweep point, applying the
/// schedule trace on the side of AD that `spec.order` dictates. Returns the
/// function together with the legality-accepted subsequence of `trace`.
///
/// # Errors
///
/// [`AdError`] when the (possibly scheduled) program falls outside the
/// differentiable fragment — a structured skip for the sweep, not a
/// divergence.
pub fn build_grad_func(
    func: &Func,
    trace: &[ScheduleOp],
    spec: &GradSpec,
) -> Result<(Func, Vec<ScheduleOp>), AdError> {
    build_grad_func_traced(func, trace, spec, None)
}

/// [`build_grad_func`] with an optional trace sink capturing the schedule
/// decision log (used when writing repros).
pub fn build_grad_func_traced(
    func: &Func,
    trace: &[ScheduleOp],
    spec: &GradSpec,
    sink: Option<&ft_trace::TraceSink>,
) -> Result<(Func, Vec<ScheduleOp>), AdError> {
    let opts = spec.options();
    match spec.order {
        GradOrder::GradThenOpt => {
            let g = grad_with(func, &opts)?;
            Ok(ops::apply_trace_traced(&g, trace, sink))
        }
        GradOrder::OptThenGrad => {
            let (f, accepted) = ops::apply_trace_traced(func, trace, sink);
            let g = grad_with(&f, &opts)?;
            Ok((g, accepted))
        }
    }
}

/// What a gradient variant of a workload case runs on and is judged
/// against. The loss is the sum of the main output's elements, so the seed
/// `∂L/∂output` is all ones: the inputs are the case's plus that seed as the
/// consumed in-out `{output}.grad`, the oracle the plain-Rust gradient
/// `{x}.grad` of every differentiable input under it.
pub fn grad_setup(w: Workload, case: &Case) -> (Inputs, Inputs) {
    let seed = TensorVal::from_f32(case.oracle.shape(), vec![1.0; case.oracle.numel()]);
    let oracle_grads = w.at(Scale::Test).reference_grad(&case.inputs, &seed);
    let mut inputs = case.inputs.clone();
    inputs.insert(format!("{}.grad", case.oracle_output), seed);
    (inputs, oracle_grads)
}

/// Central-difference probes per differentiable input when validating the
/// analytic oracle gradient.
const FD_PROBES: usize = 6;

/// Validate the analytic oracle gradient of one case against central finite
/// differences through the plain-Rust forward oracle, probing a handful of
/// elements per input. Returns one message per input whose probes disagree.
///
/// Tolerances are scaled by the forward function's reduction depth, and an
/// input only counts as disagreeing when more than a third of its probes
/// mismatch: a single bad probe is almost always a kink (`abs`, `max`)
/// inside the `±h` interval, while a wrong gradient formula breaks nearly
/// every probe.
pub fn fd_disagreements(w: Workload, case: &Case, oracle_grads: &Inputs) -> Vec<String> {
    let scale = (1 + reduction_depth(&case.func)) as f64;
    let oracle = w.at(Scale::Test);
    let h = 1e-3f64;
    let mut names: Vec<&String> = oracle_grads.keys().collect();
    names.sort();
    let mut out = Vec::new();
    for gname in names {
        let Some(xname) = gname.strip_suffix(".grad") else {
            continue;
        };
        let gval = &oracle_grads[gname];
        let xt = &case.inputs[xname];
        let n = xt.numel();
        let probes = FD_PROBES.min(n);
        let mut bad = 0usize;
        let mut worst = 0.0f64;
        for t in 0..probes {
            let i = t * n / probes;
            let x0 = xt.get_flat(i).as_f64();
            // Write then read back so `h` is exact after f32 rounding.
            let mut plus = case.inputs.clone();
            let mut minus = case.inputs.clone();
            plus.get_mut(xname).unwrap().set_flat(i, Scalar::Float(x0 + h));
            minus.get_mut(xname).unwrap().set_flat(i, Scalar::Float(x0 - h));
            let xp = plus[xname].get_flat(i).as_f64();
            let xm = minus[xname].get_flat(i).as_f64();
            let lp: f64 = oracle.reference(&plus).to_f64_vec().iter().sum();
            let lm: f64 = oracle.reference(&minus).to_f64_vec().iter().sum();
            let fd = (lp - lm) / (xp - xm);
            let g = gval.get_flat(i).as_f64();
            // The forward oracle stores f32 elements, so the summed loss
            // carries ~1e-5 absolute noise; divided by 2h that dominates
            // curvature, hence the 1e-2 floor.
            let err = (fd - g).abs();
            if err.is_nan() || err > scale * (1e-2 + 1e-2 * g.abs()) {
                bad += 1;
                worst = worst.max(err);
            }
        }
        if bad * 3 > probes {
            out.push(format!(
                "{}: analytic `{gname}` disagrees with central differences on {bad}/{probes} probes (worst {worst:.3e})",
                w.name()
            ));
        }
    }
    out
}

/// Knobs of one gradient conformance sweep.
#[derive(Debug, Clone)]
pub struct GradConfig {
    /// Random schedule traces sampled per workload; each trace expands into
    /// {All, Selective} × {grad-then-opt, opt-then-grad} grad variants.
    pub samples_per_workload: usize,
    /// Maximum schedule ops drawn per trace (before legality filtering).
    pub max_ops: usize,
    /// Master seed; every variant derives its own deterministic stream.
    pub seed: u64,
    /// Gradient tolerance contract.
    pub tol: GradTol,
    /// Backends to execute.
    pub backends: Vec<Backend>,
    /// Where JSON repros of divergences are written.
    pub out_dir: PathBuf,
    /// `recompute_threshold` values rotated across samples. The default
    /// straddles the def-cost boundary of the default threshold (16): both
    /// sides of `def_cost == threshold` plus the extremes.
    pub thresholds: Vec<usize>,
    /// Deliberate AD miscompilation injected into every variant — used by
    /// harness-validation tests to prove the sweep catches AD bugs.
    pub fault: Option<AdFault>,
}

impl Default for GradConfig {
    fn default() -> GradConfig {
        GradConfig {
            samples_per_workload: 4,
            max_ops: 4,
            seed: 0x5EED,
            tol: GradTol::default(),
            backends: Backend::available(),
            out_dir: PathBuf::from("results/conformance/grad"),
            thresholds: vec![16, 0, 17, 15, 64],
            fault: None,
        }
    }
}

/// Salt separating the gradient sweep's random streams from the forward
/// sweep's, so the two explore different (input, trace) points.
const GRAD_STREAM_SALT: u64 = 0x6772_6164; // "grad"

/// Run the full gradient differential sweep and return a per-variant
/// summary.
///
/// Divergent variants are shrunk to a minimal failing trace and a JSON
/// repro capturing the [`GradSpec`] is written under `cfg.out_dir`; the
/// sweep itself never panics — callers decide via
/// [`Summary::assert_clean`].
pub fn run_grad_conformance(cfg: &GradConfig) -> Summary {
    let mut summary = Summary {
        grad: true,
        ..Summary::default()
    };
    for w in Workload::ALL {
        for k in 0..cfg.samples_per_workload {
            let (case, raw) = crate::sample(w, cfg.seed ^ GRAD_STREAM_SALT, k, cfg.max_ops);
            let (inputs, oracle_grads) = grad_setup(w, &case);
            // Cross-check the analytic oracle itself against central
            // differences once per case (schedule-independent).
            summary
                .fd_failures
                .extend(fd_disagreements(w, &case, &oracle_grads));
            let threshold = cfg.thresholds[k % cfg.thresholds.len()];
            for policy in [TapePolicy::All, TapePolicy::Selective] {
                for order in GradOrder::ALL {
                    let spec = GradSpec {
                        policy,
                        recompute_threshold: threshold,
                        order,
                        fault: cfg.fault,
                    };
                    let variant = Variant {
                        case: &case,
                        grad: Some((spec, &inputs, &oracle_grads)),
                        tol: cfg.tol,
                        backends: &cfg.backends,
                    };
                    summary.variants.push(variant.run(&raw, &cfg.out_dir));
                }
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrips() {
        for o in GradOrder::ALL {
            assert_eq!(GradOrder::from_name(o.name()), Some(o));
        }
        for p in [TapePolicy::All, TapePolicy::Selective, TapePolicy::None] {
            assert_eq!(policy_from_name(policy_name(p)), Some(p));
        }
        assert_eq!(
            fault_from_name(fault_name(AdFault::DropTapeVersionBump)),
            Some(AdFault::DropTapeVersionBump)
        );
        assert_eq!(GradOrder::from_name("nope"), None);
        assert_eq!(policy_from_name("nope"), None);
        assert_eq!(fault_from_name("nope"), None);
    }

    #[test]
    fn oracle_gradients_pass_finite_differences() {
        // The analytic oracle gradient of every workload agrees with
        // central differences through the forward oracle.
        for w in Workload::ALL {
            let case = Case::build(w, 11);
            let (_, grads) = grad_setup(w, &case);
            assert!(!grads.is_empty(), "{}: oracle gradient is empty", w.name());
            let bad = fd_disagreements(w, &case, &grads);
            assert!(bad.is_empty(), "{:?}", bad);
        }
    }

    #[test]
    fn fd_cross_check_catches_a_wrong_oracle() {
        // Scaling the oracle gradient by 2 must trip the FD check — the
        // cross-check is live, not vacuous.
        let w = Workload::Subdivnet;
        let case = Case::build(w, 11);
        let (_, mut grads) = grad_setup(w, &case);
        let g = grads.get_mut("e.grad").unwrap();
        for i in 0..g.numel() {
            let v = g.get_flat(i).as_f64();
            g.set_flat(i, Scalar::Float(v * 2.0));
        }
        assert!(!fd_disagreements(w, &case, &grads).is_empty());
    }

    #[test]
    fn both_orders_build_and_agree_on_interp() {
        // Sanity: grad-then-opt and opt-then-grad of an empty trace give
        // the same gradients on the interpreter.
        let w = Workload::Longformer;
        let case = Case::build(w, 5);
        let (inputs, oracle) = grad_setup(w, &case);
        for order in GradOrder::ALL {
            let spec = GradSpec {
                order,
                ..GradSpec::default()
            };
            let (g, _) = build_grad_func(&case.func, &[], &spec).unwrap();
            let d = crate::check_grad_variant(&g, &inputs, &oracle, &[Backend::Interp], &GradTol::default());
            assert!(d.is_none(), "{}: {:?}", order.name(), d);
        }
    }
}
