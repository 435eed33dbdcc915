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
pub use grad::{run_grad_conformance, GradConfig, GradOrder, GradSpec, GradSummary};
pub use ops::ScheduleOp;
pub use repro::Repro;
pub use shrink::{minimize, recheck, Flaky, RECHECK_RUNS};
pub use workload::{Case, Workload};

use proptest::test_runner::TestRng;
use std::path::PathBuf;

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
    /// The legality-accepted schedule trace that was executed.
    pub trace: Vec<ScheduleOp>,
    /// `None` when every backend agreed with the oracle.
    pub divergence: Option<Divergence>,
    /// JSON repro path, when a divergence was recorded.
    pub repro_path: Option<PathBuf>,
}

/// Aggregate outcome of [`run_conformance`].
#[derive(Debug, Default)]
pub struct Summary {
    /// One entry per executed variant.
    pub variants: Vec<VariantReport>,
}

impl Summary {
    /// Variants on which all backends matched the oracle.
    pub fn n_ok(&self) -> usize {
        self.variants.iter().filter(|v| v.divergence.is_none()).count()
    }

    /// Variants that diverged.
    pub fn n_diverged(&self) -> usize {
        self.variants.len() - self.n_ok()
    }

    /// Human-readable one-screen report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "conformance: {} variants, {} ok, {} diverged\n",
            self.variants.len(),
            self.n_ok(),
            self.n_diverged()
        );
        for v in self.variants.iter().filter(|v| v.divergence.is_some()) {
            let d = v.divergence.as_ref().unwrap();
            s.push_str(&format!(
                "  DIVERGED {} (input_seed {}): backend {} output `{}` max_abs_err {:.3e}{}\n",
                v.workload,
                v.input_seed,
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

    /// Panic with the rendered report if any variant diverged.
    pub fn assert_clean(&self) {
        assert!(self.n_diverged() == 0, "{}", self.render());
    }
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
            let stream = ft_ir::fnv1a_p44(w.name().as_bytes()) ^ cfg.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let input_seed = stream & 0xFFFF;
            let case = w.build(input_seed);
            let mut rng = TestRng::from_seed_u64(stream);
            let raw = ops::sample_trace(&mut rng, cfg.max_ops);
            let (func, trace) = ops::apply_trace(&case.func, &raw);
            let divergence = check_variant(&case, &func, &cfg.backends, cfg.tol);
            let (divergence, repro_path) = match divergence {
                None => (None, None),
                Some(first) => {
                    // Shrink on the accepted trace (rejected ops are no-ops,
                    // so the accepted subsequence reproduces the same func).
                    let minimized = minimize(&trace, |t| {
                        let (f, _) = ops::apply_trace(&case.func, t);
                        check_variant(&case, &f, &cfg.backends, cfg.tol).is_some()
                    });
                    // Replay the minimized trace once more with a trace sink
                    // so the repro can embed the schedule decision log.
                    let sink = ft_trace::TraceSink::new();
                    let (f, _) = ops::apply_trace_traced(&case.func, &minimized, Some(&sink));
                    let decision_log = sink
                        .decisions()
                        .iter()
                        .map(ft_trace::decision_line)
                        .collect();
                    let (d, flaky) = recheck(first, || {
                        check_variant(&case, &f, &cfg.backends, cfg.tol)
                    });
                    // One more run of the diverging backend with a fresh
                    // metrics registry, so the repro carries the runtime
                    // telemetry of the failure.
                    let metrics = backend::run_backend_telemetry(d.backend, &f, &case.inputs);
                    let repro = Repro {
                        workload: w.name().to_string(),
                        input_seed,
                        backend: d.backend.name().to_string(),
                        output: d.output.clone(),
                        max_abs_err: d.max_abs_err,
                        tol: cfg.tol,
                        trace: minimized,
                        decision_log,
                        grad: None,
                        tol_rel: None,
                        metrics: Some(metrics),
                        flaky,
                    };
                    let path = repro.write(&cfg.out_dir).ok();
                    (Some(d), path)
                }
            };
            summary.variants.push(VariantReport {
                workload: w.name().to_string(),
                input_seed,
                trace,
                divergence,
                repro_path,
            });
        }
    }
    summary
}
