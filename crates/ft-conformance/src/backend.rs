//! The execution backends a variant is pushed through.
//!
//! Every backend is driven through the common [`ExecutionEngine`] trait —
//! the harness only chooses which engine to construct and, for
//! [`Backend::Reordered`], which rewrite of the program to hand it.

use ft_ir::mutate::{mutate_stmt_walk, subst_var_stmt, Mutator};
use ft_ir::{find_stmt, Expr, Func, ParallelScope, Stmt, StmtKind};
use ft_runtime::{
    cc_available, CompiledEngine, ExecutionEngine, RunContext, Runtime, TensorVal, VmRuntime,
};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// One way of executing a scheduled function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Sequential instrumented interpreter ([`Runtime`]).
    Interp,
    /// The interpreter on [`reverse_parallel_loops`] of the program: the
    /// legality check of `parallelize`. A loop marked `OpenMp` claims its
    /// iterations may run in any order, so running them last-to-first must
    /// give the same answer (up to float reduction order, hence the sweep's
    /// tolerance). An *illegal* mark — a carried dependence the analysis
    /// missed — gives a wrong answer on every run, on any core count. It
    /// proves order-independence only: it runs on one thread, so it says
    /// nothing about races inside an engine's own parallel runtime (that is
    /// what the bit-identity rows of [`Backend::Vm`] and
    /// [`Backend::Compiled`] under real threads are for).
    Reordered,
    /// Bytecode VM ([`VmRuntime`]) — a wall-clock engine.
    Vm,
    /// Native compiled engine ([`CompiledEngine`]): C → `cc` → shared
    /// object, loaded and called in-process through the artifact cache.
    Compiled,
}

/// All backend variants, in sweep order.
const ALL: [Backend; 4] = [
    Backend::Interp,
    Backend::Reordered,
    Backend::Vm,
    Backend::Compiled,
];

impl Backend {
    /// Stable lower-case name (used in repro files).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Reordered => "reordered",
            Backend::Vm => "vm",
            Backend::Compiled => "compiled",
        }
    }

    /// Inverse of [`Backend::name`].
    pub fn from_name(name: &str) -> Option<Backend> {
        ALL.into_iter().find(|b| b.name() == name)
    }

    /// All backends usable in this environment: the compiled engine is
    /// included only when a C compiler is on `PATH`.
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Interp, Backend::Reordered, Backend::Vm];
        if cc_available() {
            v.push(Backend::Compiled);
        }
        v
    }

    /// The program this backend executes for `func`.
    fn program<'a>(&self, func: &'a Func) -> Cow<'a, Func> {
        match self {
            Backend::Reordered => Cow::Owned(reverse_parallel_loops(func)),
            _ => Cow::Borrowed(func),
        }
    }
}

/// Rewrite every `OpenMp` loop `for i in [b, e)` to visit its iterations in
/// descending order, by substituting `i ↦ b + e − 1 − i` in the body. A
/// loop whose body writes a tensor its own bounds read is left alone: the
/// substitution re-reads the bounds on every use, where the loop read them
/// once on entry.
pub fn reverse_parallel_loops(func: &Func) -> Func {
    struct Reverse;
    impl Mutator for Reverse {
        fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
            let Stmt { id, label, kind } = mutate_stmt_walk(self, s);
            let kind = match kind {
                StmtKind::For {
                    iter,
                    begin,
                    end,
                    property,
                    body,
                } if property.parallel == ParallelScope::OpenMp
                    && !writes_any(&body, &(&begin.loaded_vars() | &end.loaded_vars())) =>
                {
                    let mirrored = begin.clone() + end.clone() - 1 - Expr::Var(iter.clone());
                    StmtKind::For {
                        body: Box::new(subst_var_stmt(*body, &iter, &mirrored)),
                        iter,
                        begin,
                        end,
                        property,
                    }
                }
                other => other,
            };
            Stmt { id, label, kind }
        }
    }
    let mut out = func.clone();
    out.body = Reverse.mutate_stmt(out.body);
    out
}

/// Whether `body` stores to, reduces into or library-writes a tensor named
/// in `names`.
fn writes_any(body: &Stmt, names: &HashSet<String>) -> bool {
    !names.is_empty()
        && find_stmt(body, &|s| match &s.kind {
            StmtKind::Store { var, .. } | StmtKind::ReduceTo { var, .. } => names.contains(var),
            StmtKind::LibCall { outputs, .. } => outputs.iter().any(|o| names.contains(o)),
            _ => false,
        })
        .is_some()
}

/// The process-wide compiled engine: sharing one instance lets every
/// variant in a sweep reuse the in-memory kernel memo on top of the on-disk
/// artifact cache.
pub fn shared_compiled_engine() -> &'static CompiledEngine {
    static ENGINE: OnceLock<CompiledEngine> = OnceLock::new();
    ENGINE.get_or_init(CompiledEngine::new)
}

/// Construct the engine behind a backend.
pub fn engine_for(backend: Backend) -> Box<dyn ExecutionEngine> {
    match backend {
        Backend::Interp | Backend::Reordered => Box::new(Runtime::new()),
        Backend::Vm => Box::new(VmRuntime::new()),
        Backend::Compiled => Box::new(shared_compiled_engine().clone()),
    }
}

/// Execute `func` on `backend`, returning its output tensors by name.
///
/// # Errors
///
/// A human-readable description of whatever failed — a runtime error or a
/// C compilation failure. Errors are treated as divergences by the
/// differential checker.
pub fn run_backend(
    backend: Backend,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
) -> Result<HashMap<String, TensorVal>, String> {
    let engine = engine_for(backend);
    engine
        .run(&backend.program(func), inputs, &HashMap::new())
        .map(|r| r.outputs)
        .map_err(|e| format!("{}: {e}", backend.name()))
}

/// Execute `func` on `backend` through the *warm-reuse* path: the second
/// run on one [`RunContext`] (memory-planned buffer pools, staging reuse),
/// the first recycled into it. The returned outputs come from the
/// buffer-*reuse* steady state — the riskiest path, where a stale or
/// mis-packed buffer would surface; [`run_backend`]'s fresh context reuses
/// only within its one run.
///
/// # Errors
///
/// As [`run_backend`].
pub fn run_backend_planned(
    backend: Backend,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
) -> Result<HashMap<String, TensorVal>, String> {
    let engine = engine_for(backend);
    let func = backend.program(func);
    let mut ctx = RunContext::new();
    if let Ok(warm) = engine.run_with(&func, inputs, &HashMap::new(), &mut ctx) {
        ctx.recycle(warm).expect("recycle into bound context");
    }
    engine
        .run_with(&func, inputs, &HashMap::new(), &mut ctx)
        .map(|r| r.outputs)
        .map_err(|e| format!("{} (planned): {e}", backend.name()))
}

/// Re-run `func` on `backend` with a fresh metrics registry installed and
/// return the frozen telemetry of exactly that run (run/kernel wall
/// histograms, cache and compile counters, pool stats). The run's outputs
/// are discarded and failures are tolerated — a failing run still produces
/// the telemetry that led up to the failure, which is precisely what a
/// miscompile repro wants to carry.
pub fn run_backend_telemetry(
    backend: Backend,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
) -> ft_metrics::MetricsSnapshot {
    let mut engine = engine_for(backend);
    let metrics = ft_metrics::Metrics::new();
    engine.set_sink(Some(ft_trace::TraceSink::from(metrics.clone())));
    let _ = engine.run(&backend.program(func), inputs, &HashMap::new());
    metrics.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{apply_trace, ScheduleOp};

    const N: usize = 1000;

    fn compile(src: &str, name: &str) -> Func {
        freetensor_core::Program::compile(src, name)
            .expect("compiles")
            .func()
            .clone()
    }

    #[test]
    fn legal_atomic_reductions_survive_reversal() {
        // Both sums are carried by `i`, so the checked `parallelize` accepts
        // the loop only by marking the two reductions atomic.
        let base = compile(
            &format!(
                r#"
def sums(x: f32[{N}] in, k: i32[{N}] in, fsum: f32[] out, isum: i32[] out):
  for i in range({N}):
    fsum += x[i]
    isum += k[i]
"#
            ),
            "sums",
        );
        let (func, accepted) = apply_trace(&base, &[ScheduleOp::Parallelize { loop_idx: 0 }], None);
        assert_eq!(accepted.len(), 1, "legal parallelize was rejected");
        assert_ne!(
            reverse_parallel_loops(&func).to_string(),
            func.to_string(),
            "the parallel loop was not reversed"
        );
        let x = TensorVal::from_f32(
            &[N],
            (0..N).map(|i| (i as f32 * 0.37).sin() * 3.0).collect(),
        );
        let k = TensorVal::from_i32(&[N], (0..N as i32).map(|i| i * 7919 % 1013 - 500).collect());
        let inputs: HashMap<String, TensorVal> = [("x".to_string(), x), ("k".to_string(), k)]
            .into_iter()
            .collect();
        let interp = run_backend(Backend::Interp, &func, &inputs).unwrap();
        let reordered = run_backend(Backend::Reordered, &func, &inputs).unwrap();
        // Integer addition is associative: exact. Float addition is not: the
        // reversed sum lands on different low bits, inside the sweep's bound.
        assert_eq!(interp["isum"], reordered["isum"]);
        let d = interp["fsum"].max_abs_diff(&reordered["fsum"]);
        assert!(d > 0.0, "reversal did not reassociate the float sum");
        assert!(
            d <= crate::Config::default().tol,
            "float reduction drifted by {d:e}"
        );
    }

    #[test]
    fn reversal_exposes_a_carried_dependence_and_respects_loop_entry_bounds() {
        // y[i] = y[i - 1] + 1 run last-to-first reads zeros: every cell is 1.
        let rec = compile(
            r#"
def rec(y: f32[8] out):
  for i in range(8):
    y[i] = 1.0
    if i > 0:
      y[i] = y[i - 1] + 1.0
"#,
            "rec",
        );
        let (bad, accepted) = apply_trace(
            &rec,
            &[ScheduleOp::ParallelizeUnchecked { loop_idx: 0 }],
            None,
        );
        assert_eq!(accepted.len(), 1);
        let out = run_backend(Backend::Reordered, &bad, &HashMap::new()).unwrap();
        assert_eq!(out["y"].to_f64_vec(), vec![1.0; 8]);

        // A loop that overwrites the tensor its own upper bound was read
        // from must keep its order: mirroring would re-read the new bound.
        let own_bound = compile(
            r#"
def shrink(n: i32[1] inout, y: f32[4] out):
  for i in range(n[0]):
    n[0] = 0
    y[i] = 1.0
"#,
            "shrink",
        );
        let (marked, accepted) = apply_trace(
            &own_bound,
            &[ScheduleOp::ParallelizeUnchecked { loop_idx: 0 }],
            None,
        );
        assert_eq!(accepted.len(), 1);
        assert_eq!(
            reverse_parallel_loops(&marked).to_string(),
            marked.to_string()
        );
    }
}
