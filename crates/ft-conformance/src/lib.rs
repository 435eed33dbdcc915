//! # ft-conformance — cross-backend differential conformance testing
//!
//! FreeTensor's core soundness claim (paper §4) is that any schedule the
//! dependence checks *accept* preserves program semantics. This crate turns
//! that claim into an executable, Csmith-style differential test:
//!
//! 1. take each workload program (`ft-workloads`);
//! 2. sample a random schedule trace — `split` / `merge` / `reorder` /
//!    `fuse` / `parallelize` / `cache` / … — via proptest strategies, keeping
//!    only the transformations the legality checks accept ([`ops`]);
//! 3. execute the scheduled variant through every backend — the sequential
//!    instrumented interpreter, the interpreter again with every parallel
//!    loop reversed, the bytecode VM, and the native compiled engine (C
//!    built with the system compiler, loaded and *run* in-process) — and
//!    compare every output element-wise against the plain-Rust oracle
//!    ([`diff`]);
//! 4. on divergence, shrink the trace to a minimal failing prefix
//!    ([`shrink`]) and write a machine-readable JSON repro under
//!    `results/conformance/` ([`repro`]).
//!
//! The [`grad`] module extends the same differential discipline to the AD
//! pipeline (paper §5): every sampled trace is also differentiated — under
//! both tape policies, sweeping `recompute_threshold` across the def-cost
//! boundary, in both grad/schedule composition orders — executed on every
//! backend, and judged against a plain-Rust oracle gradient plus central
//! finite differences under a reduction-depth-scaled tolerance
//! ([`diff::GradTol`]).
//!
//! The entry points are [`run_conformance`] and [`run_grad_conformance`];
//! `tests/conformance.rs` and `tests/grad_conformance.rs` at the workspace
//! root are the CI drivers.

pub mod backend;
pub mod diff;
pub mod grad;
pub mod ops;
pub mod repro;
pub mod shrink;
pub mod workload;

pub use backend::{run_backend_planned, run_backend_telemetry, Backend};
pub use diff::{check_grad_variant, check_variant, Divergence, GradTol};
pub use ft_workloads::Workload;
pub use grad::{run_grad_conformance, GradConfig, GradOrder, GradSpec};
pub use ops::ScheduleOp;
pub use repro::Repro;
pub use shrink::{minimize, recheck, Flaky, RECHECK_RUNS};
pub use workload::Case;

use ft_autodiff::AdError;
use ft_ir::Func;
use ft_workloads::Inputs;
use proptest::test_runner::TestRng;
use std::path::{Path, PathBuf};

/// Knobs of one conformance run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Random (workload × schedule) variants sampled per workload.
    pub samples_per_workload: usize,
    /// Maximum schedule ops drawn per variant (before legality filtering).
    pub max_ops: usize,
    /// Master seed; every variant derives its own deterministic stream.
    pub seed: u64,
    /// Maximum tolerated element-wise |backend − oracle| difference.
    pub tol: f64,
    /// Backends to execute. Defaults to [`Backend::available`].
    pub backends: Vec<Backend>,
    /// Where JSON repros of divergences are written.
    pub out_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            samples_per_workload: 16,
            max_ops: 6,
            seed: 0x5EED,
            tol: 5e-4,
            backends: Backend::available(),
            out_dir: PathBuf::from("results/conformance"),
        }
    }
}

/// What happened to one sampled variant.
#[derive(Debug)]
pub struct VariantReport {
    /// Workload name.
    pub workload: String,
    /// Seed used for the synthetic inputs of this variant.
    pub input_seed: u64,
    /// Gradient variants: how the grad function was built.
    pub spec: Option<GradSpec>,
    /// The legality-accepted schedule trace that was executed.
    pub trace: Vec<ScheduleOp>,
    /// `Some` when the (possibly scheduled) program fell outside the
    /// differentiable fragment — a structured skip, not a divergence.
    pub skipped: Option<String>,
    /// `None` when every backend agreed with the oracle.
    pub divergence: Option<Divergence>,
    /// JSON repro path, when a divergence was recorded.
    pub repro_path: Option<PathBuf>,
}

/// Aggregate outcome of [`run_conformance`] or [`run_grad_conformance`].
#[derive(Debug, Default)]
pub struct Summary {
    /// One entry per variant.
    pub variants: Vec<VariantReport>,
    /// Gradient sweep: cases whose analytic oracle gradient failed the
    /// finite-difference cross-check — an oracle bug, independent of any
    /// backend.
    pub fd_failures: Vec<String>,
    grad: bool,
}

impl Summary {
    /// Variants on which all backends matched the oracle.
    pub fn n_ok(&self) -> usize {
        self.variants.len() - self.n_diverged() - self.n_skipped()
    }

    /// Variants that diverged.
    pub fn n_diverged(&self) -> usize {
        self.variants
            .iter()
            .filter(|v| v.divergence.is_some())
            .count()
    }

    /// Variants skipped with a structured [`AdError`].
    pub fn n_skipped(&self) -> usize {
        self.variants.iter().filter(|v| v.skipped.is_some()).count()
    }

    /// Human-readable one-screen report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}conformance: {} variants, {} ok, {} diverged",
            if self.grad { "grad " } else { "" },
            self.variants.len(),
            self.n_ok(),
            self.n_diverged()
        );
        if self.grad {
            let fd = self.fd_failures.len();
            s.push_str(&format!(
                ", {} skipped, {fd} oracle FD failures",
                self.n_skipped()
            ));
        }
        s.push('\n');
        for m in &self.fd_failures {
            s.push_str(&format!("  ORACLE-FD {m}\n"));
        }
        for v in &self.variants {
            let Some(d) = &v.divergence else { continue };
            s.push_str(&format!(
                "  DIVERGED {} (input_seed {}{}): backend {} output `{}` max_abs_err {:.3e}{}\n",
                v.workload,
                v.input_seed,
                v.spec
                    .map(|s| format!(", {}", s.label()))
                    .unwrap_or_default(),
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

/// One kind of variant of a case and how it is built and judged: the
/// scheduled program as it is, or differentiated at one sweep point. Both
/// sweeps and [`Repro::replay`] go through it, so a check added for one
/// kind of variant holds for the other.
pub(crate) struct Variant<'a> {
    pub case: &'a Case,
    /// For gradient variants: the sweep point and what [`grad::grad_setup`]
    /// made of the case — the inputs with the seed, the oracle gradients.
    pub grad: Option<(GradSpec, &'a Inputs, &'a Inputs)>,
    /// A forward variant has no relative term.
    pub tol: GradTol,
    pub backends: &'a [Backend],
}

impl Variant<'_> {
    fn inputs(&self) -> &Inputs {
        self.grad.map_or(&self.case.inputs, |(_, inputs, _)| inputs)
    }

    /// The variant's function under `trace`, with the legality-accepted
    /// subsequence of `trace`.
    ///
    /// # Errors
    ///
    /// [`AdError`] when a gradient variant falls outside the differentiable
    /// fragment; a forward variant always builds.
    pub fn build(
        &self,
        trace: &[ScheduleOp],
        sink: Option<&ft_trace::TraceSink>,
    ) -> Result<(Func, Vec<ScheduleOp>), AdError> {
        match &self.grad {
            None => Ok(ops::apply_trace(&self.case.func, trace, sink)),
            Some((spec, ..)) => grad::build_grad_func(&self.case.func, trace, spec, sink),
        }
    }

    /// The differential check of a built variant.
    pub fn check(&self, func: &Func) -> Option<Divergence> {
        match self.grad {
            None => check_variant(self.case, func, self.backends, self.tol.abs),
            Some((_, inputs, oracle_grads)) => {
                check_grad_variant(func, inputs, oracle_grads, self.backends, &self.tol)
            }
        }
    }

    /// Build and check the sampled trace `raw`. A divergence is shrunk and
    /// written up under `out_dir` ([`Variant::record_divergence`]); a
    /// variant that does not build ([`Variant::build`]) is reported skipped.
    pub fn run(&self, raw: &[ScheduleOp], out_dir: &Path) -> VariantReport {
        let mut report = VariantReport {
            workload: self.case.name.clone(),
            input_seed: self.case.input_seed,
            spec: self.grad.map(|(spec, ..)| spec),
            trace: Vec::new(),
            skipped: None,
            divergence: None,
            repro_path: None,
        };
        match self.build(raw, None) {
            Err(e) => report.skipped = Some(e.to_string()),
            Ok((func, trace)) => {
                if let Some(first) = self.check(&func) {
                    let (d, path) = self.record_divergence(&trace, first, out_dir);
                    report.divergence = Some(d);
                    report.repro_path = path;
                }
                report.trace = trace;
            }
        }
        report
    }

    /// Write up the divergence `first` that `trace` produced: shrink the
    /// trace, re-run the minimized variant, and write its [`Repro`] under
    /// `out_dir`. Returns the divergence to report and the repro's path.
    fn record_divergence(
        &self,
        trace: &[ScheduleOp],
        first: Divergence,
        out_dir: &Path,
    ) -> (Divergence, Option<PathBuf>) {
        // Shrink on the accepted trace (rejected ops are no-ops, so the
        // accepted subsequence reproduces the same func).
        let minimized = minimize(trace, |t| {
            self.build(t, None)
                .is_ok_and(|(f, _)| self.check(&f).is_some())
        });
        // Rebuild the minimized variant once more with a trace sink so the
        // repro can embed the schedule decision log.
        let sink = ft_trace::TraceSink::new();
        let (f, _) = self
            .build(&minimized, Some(&sink))
            .expect("minimized trace must still differentiate");
        let decision_log = sink
            .decisions()
            .iter()
            .map(ft_trace::decision_line)
            .collect();
        let (d, flaky) = recheck(first, || self.check(&f));
        // One more run of the diverging backend with a fresh metrics
        // registry, so the repro carries the runtime telemetry of the
        // failure.
        let metrics = backend::run_backend_telemetry(d.backend, &f, self.inputs());
        let repro = Repro {
            workload: self.case.name.clone(),
            input_seed: self.case.input_seed,
            backend: d.backend.name().to_string(),
            output: d.output.clone(),
            max_abs_err: d.max_abs_err,
            tol: self.tol.abs,
            trace: minimized,
            decision_log,
            grad: self.grad.map(|(spec, ..)| spec),
            tol_rel: self.grad.map(|_| self.tol.rel),
            metrics: Some(metrics),
            flaky,
        };
        let path = repro.write(out_dir).ok();
        (d, path)
    }
}

/// Sample `k` of workload `w` under the master `seed`: the case and a raw
/// trace of up to `max_ops` ops, both drawn from one deterministic stream.
pub(crate) fn sample(w: Workload, seed: u64, k: usize, max_ops: usize) -> (Case, Vec<ScheduleOp>) {
    let stream =
        ft_ir::fnv1a(w.name().as_bytes()) ^ seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let case = Case::build(w, stream & 0xFFFF);
    let raw = ops::sample_trace(&mut TestRng::from_seed_u64(stream), max_ops);
    (case, raw)
}

/// Run the full differential sweep and return a per-variant summary.
///
/// Divergent variants are shrunk to a minimal failing prefix and a JSON
/// repro is written under `cfg.out_dir`; the sweep itself never panics —
/// callers decide via [`Summary::assert_clean`].
pub fn run_conformance(cfg: &Config) -> Summary {
    let mut summary = Summary::default();
    for w in Workload::ALL {
        for k in 0..cfg.samples_per_workload {
            let (case, raw) = sample(w, cfg.seed, k, cfg.max_ops);
            let variant = Variant {
                case: &case,
                grad: None,
                tol: GradTol {
                    abs: cfg.tol,
                    rel: 0.0,
                },
                backends: &cfg.backends,
            };
            summary.variants.push(variant.run(&raw, &cfg.out_dir));
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_autodiff::{AdFault, TapePolicy};

    /// Both kinds of variant are written up by the one record path: the
    /// trace shrunk, the repro on disk with telemetry and the fields its
    /// kind carries, and `Repro::replay` rebuilding the same variant.
    #[test]
    fn both_kinds_of_divergence_are_recorded_and_replay() {
        let dir = std::env::temp_dir().join(format!("ftconf-record-{}", std::process::id()));
        let backends = [Backend::Interp];
        let w = Workload::Subdivnet;
        let raw = [
            ScheduleOp::Split {
                loop_idx: 0,
                factor: 4,
            },
            ScheduleOp::Unroll { loop_idx: 1 },
        ];
        let recorded = |o: &VariantReport| {
            let text = std::fs::read_to_string(o.repro_path.as_ref().expect("repro written"));
            let repro = Repro::from_json(&text.unwrap()).unwrap();
            assert!(
                repro.trace.is_empty(),
                "schedule-independent: {:?}",
                repro.trace
            );
            assert_eq!(
                (repro.workload.as_str(), repro.input_seed),
                ("subdivnet", 13)
            );
            assert_eq!(repro.flaky, None);
            let runs = repro.metrics.as_ref().expect("telemetry rides along");
            assert_eq!(runs.histograms["engine.interp.run_us"].count, 1);
            repro
        };

        // Forward, against an oracle that is off by one in one element.
        let mut case = Case::build(w, 13);
        let v = case.oracle.get_flat(0).as_f64();
        case.oracle.set_flat(0, ft_runtime::Scalar::Float(v + 1.0));
        let variant = Variant {
            case: &case,
            grad: None,
            tol: GradTol {
                abs: 5e-4,
                rel: 0.0,
            },
            backends: &backends,
        };
        let outcome = variant.run(&raw, &dir);
        assert_eq!(outcome.trace.len(), 2, "both ops are legal");
        assert_eq!(outcome.divergence.as_ref().unwrap().output, "y");
        let repro = recorded(&outcome);
        assert_eq!((repro.grad, repro.tol_rel, repro.tol), (None, None, 5e-4));
        // The replayed case has the real oracle.
        assert!(repro.replay().unwrap().is_none());

        // Gradient, with the tape version bump dropped.
        let case = Case::build(w, 13);
        let (inputs, oracle_grads) = grad::grad_setup(w, &case);
        let spec = GradSpec {
            policy: TapePolicy::All,
            fault: Some(AdFault::DropTapeVersionBump),
            ..GradSpec::default()
        };
        let tol = GradTol::default();
        let variant = Variant {
            case: &case,
            grad: Some((spec, &inputs, &oracle_grads)),
            tol,
            backends: &backends,
        };
        let outcome = variant.run(&raw, &dir);
        let d = outcome.divergence.as_ref().expect("the fault is caught");
        assert_eq!(d.output, "e.grad");
        let repro = recorded(&outcome);
        assert_eq!(
            (repro.grad, repro.tol_rel, repro.tol),
            (Some(spec), Some(tol.rel), tol.abs)
        );
        let again = repro.replay().unwrap().expect("replay still diverges");
        assert_eq!(again.max_abs_err, d.max_abs_err);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// CI's sweep (32 variants per workload, the default seed) splits a
    /// guarded loop in at least 8 of its 128 variants.
    #[test]
    fn the_ci_sweep_reaches_separate_tail() {
        let cfg = Config::default();
        let split = Workload::ALL
            .into_iter()
            .flat_map(|w| (0..32).map(move |k| (w, k)))
            .filter(|&(w, k)| {
                let (case, raw) = sample(w, cfg.seed, k, cfg.max_ops);
                let accepted = ops::apply_trace(&case.func, &raw, None).1;
                accepted
                    .iter()
                    .any(|op| matches!(op, ScheduleOp::SeparateTail { .. }))
            })
            .count();
        assert!(
            split >= 8,
            "separate_tail accepted in {split} of 128 variants"
        );
    }
}
