//! A common interface over the three execution engines.
//!
//! Each engine exists for one role: the interpreter
//! ([`Runtime`](crate::Runtime)) is the reference semantics and the device
//! model every other engine is diffed against; the bytecode VM
//! ([`VmRuntime`](crate::VmRuntime)) is the portable fallback for hosts
//! without a C compiler; the native compiled engine
//! ([`CompiledEngine`](crate::native::CompiledEngine)) is the production
//! path and the paper's execution model — the last two execute the same
//! lowered function (`ft_codegen::lower_and_plan`). All three answer the
//! same question — "run this `Func` on these tensors" — and the
//! [`ExecutionEngine`] trait is the single seam harnesses (bench,
//! conformance, serving, examples) drive them through. What the question
//! means on the call side — sizes, shapes, which inputs must be there — is
//! decided once, in [`crate::bind`], and the sequence around it once, here:
//! an engine supplies only `execute`.

use crate::arena::RunContext;
use crate::bind::Resolved;
use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::pool::{PoolStatsSnapshot, WorkerPool};
use crate::value::TensorVal;
use ft_ir::Func;
use ft_metrics::Metrics;
use ft_trace::TraceSink;
use std::collections::HashMap;

/// Publish the worker-pool statistics accumulated since `before` into `m`:
/// `pool.regions[.inline]`, `pool.chunks.{submitter,helper}` counters, the
/// monotone `pool.queue.peak_depth` gauge, and the last run's
/// `pool.claim.imbalance_pct` gauge.
pub(crate) fn record_pool_delta(m: &Metrics, before: &PoolStatsSnapshot) {
    let d = WorkerPool::global().stats().delta_since(before);
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

    /// The installed trace sink and metrics registry of one engine — what
    /// the trait's `set_sink`/`sink`/`set_metrics` read and write.
    #[derive(Debug, Clone, Default)]
    pub struct Telemetry {
        pub(crate) sink: Option<TraceSink>,
        pub(crate) metrics: Option<Metrics>,
    }

    /// What an engine contributes to a run; the rest is the shell behind
    /// [`ExecutionEngine::run`]. The module is private, which seals
    /// [`ExecutionEngine`] and keeps `execute` — whose callers vouch for
    /// validated inputs — off the public surface.
    pub trait Backend {
        /// Whether this engine executes `ft_codegen::lower_and_plan(func)`
        /// instead of `func` as given.
        fn lowers(&self) -> bool;

        /// Run a resolved, validated call. With a context, the shell has
        /// already bound it to `resolved`.
        fn execute(
            &self,
            resolved: &Resolved<'_>,
            inputs: &HashMap<String, TensorVal>,
            ctx: Option<&mut RunContext>,
        ) -> Result<RunResult, RuntimeError>;

        fn telemetry(&self) -> &Telemetry;

        fn telemetry_mut(&mut self) -> &mut Telemetry;
    }
}
pub(crate) use sealed::{Backend, Telemetry};

/// The one prepare-then-run sequence: resolve → validate → bind → publish
/// the plan → execute, timed as `engine.<name>.run_us` and counted in
/// `engine.<name>.errors`. Only an error of the run itself poisons the
/// context: a call refused before `execute` has touched none of its buffers.
fn run_shell<E: ExecutionEngine + ?Sized>(
    engine: &E,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    sizes: &HashMap<String, i64>,
    mut ctx: Option<&mut RunContext>,
) -> Result<RunResult, RuntimeError> {
    let Telemetry { sink, metrics } = engine.telemetry();
    let t0 = metrics.as_ref().map(|_| std::time::Instant::now());
    let r = engine.resolve(func, sizes).and_then(|resolved| {
        resolved.check_inputs(inputs)?;
        if let Some(c) = ctx.as_deref_mut() {
            c.ensure_bound(&resolved)?;
        }
        let name = &resolved.func().name;
        crate::arena::publish_plan(sink.as_ref(), metrics.as_ref(), name, resolved.plan());
        let r = engine.execute(&resolved, inputs, ctx.as_deref_mut());
        if let (Err(_), Some(c)) = (&r, ctx) {
            c.poison();
        }
        r
    });
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
    /// the function it executes, its memory plan, resolved sizes and
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

    /// Execute `func` with the given input tensors and size parameters.
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
        run_shell(self, func, inputs, sizes, None)
    }

    /// As [`run`](ExecutionEngine::run), with a reusable [`RunContext`]:
    /// the engine draws temporary buffers from the context's arena pools
    /// (sized by the plan of the function it executes — see [`RunContext`])
    /// and keeps staging buffers alive across calls — so a compile-once/
    /// run-many loop reaches zero tensor heap allocations in steady state
    /// (observable via the `mem.arena.*` metrics). Results are bit-identical
    /// to `run`. Feed each result back with [`RunContext::recycle`] to
    /// return output buffers to the context.
    fn run_with(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        ctx: &mut RunContext,
    ) -> Result<RunResult, RuntimeError> {
        run_shell(self, func, inputs, sizes, Some(ctx))
    }

    /// Install (or remove) a trace sink.
    fn set_sink(&mut self, sink: Option<TraceSink>) {
        self.telemetry_mut().sink = sink;
    }

    /// The installed trace sink, if any.
    fn sink(&self) -> Option<&TraceSink> {
        self.telemetry().sink.as_ref()
    }

    /// Install (or remove) a metrics registry. Engines record per-run wall
    /// histograms (`engine.<name>.run_us`), error counters, and whatever
    /// backend-specific telemetry they own (cache counters, kernel dispatch
    /// counts, pool claims).
    fn set_metrics(&mut self, metrics: Option<Metrics>) {
        self.telemetry_mut().metrics = metrics;
    }
}
