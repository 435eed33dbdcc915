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
use crate::diff::{check_grad_variant, reduction_depth, Divergence, GradTol};
use crate::ops::{self, ScheduleOp};
use crate::repro::Repro;
use crate::shrink::minimize;
use crate::workload::{Case, Workload};
use ft_autodiff::{grad_with, AdError, AdFault, GradOptions, TapePolicy};
use ft_ir::Func;
use ft_runtime::{Scalar, TensorVal};
use ft_workloads::Inputs;
use proptest::test_runner::TestRng;
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

/// The all-ones seed gradient `∂L/∂output` for a case (the loss is the sum
/// of the main output's elements).
pub fn ones_seed(case: &Case) -> TensorVal {
    TensorVal::from_f32(case.oracle.shape(), vec![1.0; case.oracle.numel()])
}

/// The inputs a grad function of `case` runs with: the case inputs plus the
/// consumed in-out seed `{output}.grad`.
pub fn grad_run_inputs(case: &Case, seed: &TensorVal) -> Inputs {
    let mut m = case.inputs.clone();
    m.insert(format!("{}.grad", case.oracle_output), seed.clone());
    m
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
            let lp: f64 = w.oracle_value(&plus).to_f64_vec().iter().sum();
            let lm: f64 = w.oracle_value(&minus).to_f64_vec().iter().sum();
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

/// What happened to one grad variant of the sweep.
#[derive(Debug)]
pub struct GradVariantReport {
    /// Workload name.
    pub workload: String,
    /// Seed used for the synthetic inputs of this variant.
    pub input_seed: u64,
    /// How the grad function was built.
    pub spec: GradSpec,
    /// The legality-accepted schedule trace that was executed.
    pub trace: Vec<ScheduleOp>,
    /// `Some` when the (possibly scheduled) program fell outside the
    /// differentiable fragment — a structured skip, not a divergence.
    pub skipped: Option<String>,
    /// `None` when every backend agreed with the oracle gradient.
    pub divergence: Option<Divergence>,
    /// JSON repro path, when a divergence was recorded.
    pub repro_path: Option<PathBuf>,
}

/// Aggregate outcome of [`run_grad_conformance`].
#[derive(Debug, Default)]
pub struct GradSummary {
    /// One entry per grad variant.
    pub variants: Vec<GradVariantReport>,
    /// Cases whose analytic oracle gradient failed the finite-difference
    /// cross-check (`workload`, message) — an oracle bug, independent of
    /// any backend.
    pub fd_failures: Vec<String>,
}

impl GradSummary {
    /// Variants on which all backends matched the oracle gradient.
    pub fn n_ok(&self) -> usize {
        self.variants
            .iter()
            .filter(|v| v.divergence.is_none() && v.skipped.is_none())
            .count()
    }

    /// Variants that diverged.
    pub fn n_diverged(&self) -> usize {
        self.variants.iter().filter(|v| v.divergence.is_some()).count()
    }

    /// Variants skipped with a structured [`AdError`].
    pub fn n_skipped(&self) -> usize {
        self.variants.iter().filter(|v| v.skipped.is_some()).count()
    }

    /// Human-readable one-screen report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "grad conformance: {} variants, {} ok, {} diverged, {} skipped, {} oracle FD failures\n",
            self.variants.len(),
            self.n_ok(),
            self.n_diverged(),
            self.n_skipped(),
            self.fd_failures.len()
        );
        for m in &self.fd_failures {
            s.push_str(&format!("  ORACLE-FD {m}\n"));
        }
        for v in self.variants.iter().filter(|v| v.divergence.is_some()) {
            let d = v.divergence.as_ref().unwrap();
            s.push_str(&format!(
                "  DIVERGED {} (input_seed {}, {}): backend {} output `{}` max_abs_err {:.3e}{}\n",
                v.workload,
                v.input_seed,
                v.spec.label(),
                d.backend.name(),
                d.output,
                d.max_abs_err,
                v.repro_path
                    .as_ref()
                    .map(|p| format!(" — repro: {}", p.display()))
                    .unwrap_or_default(),
            ));
        }
        s
    }

    /// Panic with the rendered report if any variant diverged or the oracle
    /// failed its finite-difference cross-check.
    pub fn assert_clean(&self) {
        assert!(
            self.n_diverged() == 0 && self.fd_failures.is_empty(),
            "{}",
            self.render()
        );
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
/// [`GradSummary::assert_clean`].
pub fn run_grad_conformance(cfg: &GradConfig) -> GradSummary {
    let mut summary = GradSummary::default();
    for w in Workload::ALL {
        for k in 0..cfg.samples_per_workload {
            let stream = ft_ir::fnv1a_p44(w.name().as_bytes())
                ^ cfg.seed
                ^ GRAD_STREAM_SALT
                ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let input_seed = stream & 0xFFFF;
            let case = w.build(input_seed);
            let seed = ones_seed(&case);
            let oracle_grads = w.oracle_grad(&case.inputs, &seed);
            // Cross-check the analytic oracle itself against central
            // differences once per case (schedule-independent).
            summary
                .fd_failures
                .extend(fd_disagreements(w, &case, &oracle_grads));
            let inputs = grad_run_inputs(&case, &seed);
            let mut rng = TestRng::from_seed_u64(stream);
            let raw = ops::sample_trace(&mut rng, cfg.max_ops);
            let threshold = cfg.thresholds[k % cfg.thresholds.len()];
            for policy in [TapePolicy::All, TapePolicy::Selective] {
                for order in GradOrder::ALL {
                    let spec = GradSpec {
                        policy,
                        recompute_threshold: threshold,
                        order,
                        fault: cfg.fault,
                    };
                    let (gfunc, trace) = match build_grad_func(&case.func, &raw, &spec) {
                        Ok(x) => x,
                        Err(e) => {
                            summary.variants.push(GradVariantReport {
                                workload: w.name().to_string(),
                                input_seed,
                                spec,
                                trace: Vec::new(),
                                skipped: Some(e.to_string()),
                                divergence: None,
                                repro_path: None,
                            });
                            continue;
                        }
                    };
                    let divergence =
                        check_grad_variant(&gfunc, &inputs, &oracle_grads, &cfg.backends, &cfg.tol);
                    let (divergence, repro_path) = match divergence {
                        None => (None, None),
                        Some(first) => {
                            let fails = |t: &[ScheduleOp]| {
                                build_grad_func(&case.func, t, &spec)
                                    .map(|(f, _)| {
                                        check_grad_variant(
                                            &f,
                                            &inputs,
                                            &oracle_grads,
                                            &cfg.backends,
                                            &cfg.tol,
                                        )
                                        .is_some()
                                    })
                                    .unwrap_or(false)
                            };
                            let minimized = minimize(&trace, fails);
                            // Replay the minimized trace once more with a
                            // sink so the repro embeds the decision log.
                            let sink = ft_trace::TraceSink::new();
                            let (f, _) = build_grad_func_traced(
                                &case.func,
                                &minimized,
                                &spec,
                                Some(&sink),
                            )
                            .expect("minimized trace must still differentiate");
                            let decision_log = sink
                                .decisions()
                                .iter()
                                .map(ft_trace::decision_line)
                                .collect();
                            let (d, flaky) = crate::shrink::recheck(first, || {
                                check_grad_variant(
                                    &f,
                                    &inputs,
                                    &oracle_grads,
                                    &cfg.backends,
                                    &cfg.tol,
                                )
                            });
                            // Telemetry of the diverging backward run
                            // rides along in the repro.
                            let metrics = crate::backend::run_backend_telemetry(
                                d.backend, &f, &inputs,
                            );
                            let repro = Repro {
                                workload: w.name().to_string(),
                                input_seed,
                                backend: d.backend.name().to_string(),
                                output: d.output.clone(),
                                max_abs_err: d.max_abs_err,
                                tol: cfg.tol.abs,
                                trace: minimized,
                                decision_log,
                                grad: Some(spec),
                                tol_rel: Some(cfg.tol.rel),
                                metrics: Some(metrics),
                                flaky,
                            };
                            let path = repro.write(&cfg.out_dir).ok();
                            (Some(d), path)
                        }
                    };
                    summary.variants.push(GradVariantReport {
                        workload: w.name().to_string(),
                        input_seed,
                        spec,
                        trace,
                        skipped: None,
                        divergence,
                        repro_path,
                    });
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
            let case = w.build(11);
            let seed = ones_seed(&case);
            let grads = w.oracle_grad(&case.inputs, &seed);
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
        let case = w.build(11);
        let seed = ones_seed(&case);
        let mut grads = w.oracle_grad(&case.inputs, &seed);
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
        let case = w.build(5);
        let seed = ones_seed(&case);
        let inputs = grad_run_inputs(&case, &seed);
        let oracle = w.oracle_grad(&case.inputs, &seed);
        for order in GradOrder::ALL {
            let spec = GradSpec {
                order,
                ..GradSpec::default()
            };
            let (g, _) = build_grad_func(&case.func, &[], &spec).unwrap();
            let d = check_grad_variant(&g, &inputs, &oracle, &[Backend::Interp], &GradTol::default());
            assert!(d.is_none(), "{}: {:?}", order.name(), d);
        }
    }
}
