//! A common interface over the three execution engines.
//!
//! Each engine exists for one role: the interpreter
//! ([`Runtime`](crate::Runtime)) is the reference semantics and the one
//! device model, which every other engine is diffed against; the bytecode
//! VM ([`VmRuntime`](crate::VmRuntime)) is the portable fallback for hosts
//! without a C compiler, which `ft-serve` serves on when
//! [`cc_available`](crate::cc_available) is false; the native compiled engine
//! ([`CompiledEngine`](crate::native::CompiledEngine)) is the production
//! path and the paper's execution model. The last two execute the same
//! lowered function (`ft_codegen::lower_and_plan`, with every parallel mark
//! the dependence engine cannot prove made serial when the call resolves)
//! under one contract: no counters, no device capacities, no legality rule
//! of their own. All three answer the same question —
//! "run this `Func` on these tensors" — and the [`ExecutionEngine`] trait,
//! whose [`run`](ExecutionEngine::run) and
//! [`run_with`](ExecutionEngine::run_with) are the only run methods, is
//! the single seam harnesses (bench, conformance, serving, examples) drive
//! them through. What the question means on the call side — sizes, shapes,
//! which inputs must be there — is decided once, in [`crate::bind`], and
//! the sequence around it once, here: an engine supplies only `execute`.
//! Every call runs that sequence on a [`RunContext`] — `run` on a fresh one
//! it drops — so a test of `run` runs the production path. The context
//! keeps the resolved call, and a repeat of it skips the lowering, the
//! memory plan and the parallel-legality proof.

use crate::arena::RunContext;
use crate::bind::Resolved;
use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::pool::PoolStatsSnapshot;
use crate::value::TensorVal;
use ft_ir::Func;
use ft_metrics::Metrics;
use ft_trace::TraceSink;
use std::collections::HashMap;

/// Publish one run's own worker-pool statistics into `m`:
/// `pool.regions[.inline]`, `pool.chunks.{submitter,helper}` counters, the
/// monotone `pool.queue.peak_depth` gauge, and the run's
/// `pool.claim.imbalance_pct` gauge.
pub(crate) fn record_pool_stats(m: &Metrics, d: &PoolStatsSnapshot) {
    m.counter("pool.regions").add(d.regions);
    m.counter("pool.regions.inline").add(d.inline_regions);
    m.counter("pool.chunks.submitter").add(d.chunks_submitter);
    m.counter("pool.chunks.helper").add(d.chunks_helper);
    m.gauge("pool.queue.peak_depth")
        .fetch_max(d.queue_peak as i64);
    if let Some(p) = d.imbalance_pct() {
        m.gauge("pool.claim.imbalance_pct").set(p as i64);
    }
}

mod sealed {
    use super::*;

    /// What an engine contributes to a run; the rest is the shell behind
    /// [`ExecutionEngine::run`]. The module is private, which seals
    /// [`ExecutionEngine`] and keeps `execute` — whose callers vouch for
    /// validated inputs — off the public surface.
    pub trait Backend {
        /// Whether this engine executes `ft_codegen::lower_and_plan(func)`,
        /// its unprovable parallel marks made serial, instead of `func` as
        /// given.
        fn lowers(&self) -> bool;

        /// Run a resolved, validated call on `ctx`, which the shell has
        /// already bound to `resolved`.
        fn execute(
            &self,
            resolved: &Resolved<'_>,
            inputs: &HashMap<String, TensorVal>,
            ctx: &mut RunContext,
        ) -> Result<RunResult, RuntimeError>;

        /// The installed telemetry handle, what the trait's
        /// `set_sink`/`sink` write and read.
        fn handle(&self) -> &Option<TraceSink>;

        fn handle_mut(&mut self) -> &mut Option<TraceSink>;

        /// The registry of the installed handle.
        fn registry(&self) -> Option<&Metrics> {
            self.handle().as_ref().map(TraceSink::metrics)
        }

        /// The installed handle, if it keeps an event log: what a span, a
        /// decision or a profile is built for.
        fn log(&self) -> Option<&TraceSink> {
            self.handle().as_ref().filter(|s| s.logs())
        }
    }
}
pub(crate) use sealed::Backend;

/// The one prepare-then-run sequence, [`run_bound`], timed as
/// `engine.<name>.run_us` and counted in `engine.<name>.errors`.
fn run_shell<E: ExecutionEngine + ?Sized>(
    engine: &E,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    sizes: &HashMap<String, i64>,
    ctx: &mut RunContext,
) -> Result<RunResult, RuntimeError> {
    let metrics = engine.registry();
    let t0 = metrics.map(|_| std::time::Instant::now());
    let r = run_bound(engine, func, inputs, sizes, ctx);
    if let (Some(m), Some(t0)) = (metrics, t0) {
        let name = engine.name();
        m.histogram(&format!("engine.{name}.run_us"))
            .record_duration_us(t0.elapsed());
        if r.is_err() {
            m.counter(&format!("engine.{name}.errors")).inc();
        }
    }
    r
}

/// Resolve → validate → bind → publish the plan and the serialized marks →
/// execute → end the run on the context. The call is the one the context
/// keeps when `func` at `sizes` is it, else a fresh resolve that
/// `ensure_bound` keeps. Only an error of the run itself poisons the
/// context: a call refused before `execute` has touched none of its
/// buffers.
fn run_bound<E: ExecutionEngine + ?Sized>(
    engine: &E,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    sizes: &HashMap<String, i64>,
    ctx: &mut RunContext,
) -> Result<RunResult, RuntimeError> {
    let lowers = engine.lowers();
    let call = match ctx.kept(func, sizes, lowers) {
        Some(call) => {
            count(engine, "resolve_reused");
            call.resolved().check_inputs(inputs)?;
            call
        }
        None => {
            let resolved = engine.resolve(func, sizes)?;
            count(engine, "resolves");
            resolved.check_inputs(inputs)?;
            ctx.ensure_bound(resolved, func, sizes, lowers)?
        }
    };
    let handle = engine.handle().as_ref();
    crate::arena::publish_plan(handle, call.resolved());
    let r = engine.execute(call.resolved(), inputs, ctx);
    ctx.end_run(handle);
    if r.is_err() {
        ctx.poison();
    }
    r
}

/// Count one `engine.<name>.<what>` event.
fn count<E: ExecutionEngine + ?Sized>(engine: &E, what: &str) {
    if let Some(m) = engine.registry() {
        m.counter(&format!("engine.{}.{what}", engine.name())).inc();
    }
}

/// An execution backend for lowered functions.
///
/// Engines differ in *how* they execute (tree-walking, bytecode, compiled
/// native code) and in what instrumentation they can report — counters are
/// zero for the two engines that do not model the device — but the call
/// side is one contract, spelled once ([`Resolved`]): inputs are read-only,
/// `InOut` params are copied in and returned, `Output` params are
/// zero-initialized, and a call with a missing size or a missing or
/// ill-shaped input is refused, with the same error by every engine, before
/// anything is compiled, bound or allocated.
pub trait ExecutionEngine: Backend {
    /// Short stable identifier (`"interp"`, `"vm"`, `"compiled"`), used in
    /// reports and trace spans.
    fn name(&self) -> &'static str;

    /// The call-side facts of running `func` at `sizes` on this engine:
    /// the function it executes (for an engine that lowers, proved: see
    /// [`Resolved::serialized`]), its memory plan, resolved sizes and
    /// parameter shapes, the planned footprint.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnresolvedSize`] / [`RuntimeError::DivisionByZero`]
    /// when a size is missing or an extent does not evaluate.
    fn resolve<'f>(
        &self,
        func: &'f Func,
        sizes: &HashMap<String, i64>,
    ) -> Result<Resolved<'f>, RuntimeError> {
        Resolved::new(func, sizes, self.lowers())
    }

    /// Execute `func` with the given input tensors and size parameters:
    /// [`run_with`](ExecutionEngine::run_with) on a fresh [`RunContext`],
    /// dropped when the call returns.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] for missing/ill-shaped inputs plus whatever failure
    /// modes the backend adds (e.g. [`RuntimeError::Native`] for the
    /// compiled engine's toolchain errors).
    fn run(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
    ) -> Result<RunResult, RuntimeError> {
        self.run_with(func, inputs, sizes, &mut RunContext::new())
    }

    /// Execute `func` on a reusable [`RunContext`]: the engine draws
    /// temporary buffers from the context's arena pools (sized by the plan
    /// of the function it executes — see [`RunContext`]) and keeps staging
    /// buffers alive across calls — so a compile-once/run-many loop reaches
    /// zero tensor heap allocations in steady state (observable via the
    /// `mem.arena.*` metrics). The context also keeps the resolved call: a
    /// repeat of the same function (`Func ==`) at the same sizes skips
    /// [`resolve`](ExecutionEngine::resolve) — the lowering, the memory plan
    /// and the parallel-legality proof — and is counted
    /// `engine.<name>.resolve_reused`, a fresh resolve
    /// `engine.<name>.resolves`. Inputs are checked and the plan published
    /// on every call either way. Feed each result back with
    /// [`RunContext::recycle`] to return output buffers to the context.
    fn run_with(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        ctx: &mut RunContext,
    ) -> Result<RunResult, RuntimeError> {
        run_shell(self, func, inputs, sizes, ctx)
    }

    /// Install (or remove) the telemetry handle: its registry receives
    /// per-run wall histograms (`engine.<name>.run_us`), error counters,
    /// and whatever backend-specific metrics the engine owns (cache
    /// counters, kernel dispatch counts, pool claims); its event log, if it
    /// keeps one, the runtime spans, decisions and profiles.
    fn set_sink(&mut self, sink: Option<TraceSink>) {
        *self.handle_mut() = sink;
    }

    /// The installed telemetry handle, if any.
    fn sink(&self) -> Option<&TraceSink> {
        self.handle().as_ref()
    }

    /// Install (or remove) a registry-only handle. Kept for the benchmark
    /// harness (`benchmark/src/harness.rs`), which calls it; everything
    /// else installs a handle with [`set_sink`](ExecutionEngine::set_sink).
    fn set_metrics(&mut self, metrics: Option<Metrics>) {
        self.set_sink(metrics.map(TraceSink::from));
    }
}
