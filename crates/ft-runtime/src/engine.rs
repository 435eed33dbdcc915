//! A common interface over the three execution engines.
//!
//! Each engine exists for one role: the interpreter ([`Runtime`]) is the
//! reference semantics and the device model every other engine is diffed
//! against; the bytecode VM ([`VmRuntime`]) is the portable fallback for
//! hosts without a C compiler; the native compiled engine
//! ([`CompiledEngine`](crate::native::CompiledEngine)) is the production
//! path and the paper's execution model — the last two execute the same
//! lowered function ([`lower_and_plan`](crate::lower_and_plan)). All three answer the same
//! question — "run this lowered `Func` on these tensors" — and the
//! [`ExecutionEngine`] trait is the single seam harnesses (bench,
//! conformance, serving, examples) drive them through: one `run` signature
//! returning the interpreter's [`RunResult`], plus trace-sink plumbing so
//! drivers can wire provenance uniformly.

use crate::arena::RunContext;
use crate::vm::VmRuntime;
use crate::error::RuntimeError;
use crate::interp::{RunResult, Runtime};
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

/// An execution backend for lowered functions.
///
/// Engines differ in *how* they execute (tree-walking, bytecode, compiled
/// native code) and in what instrumentation they can report — counters are
/// zero for the two engines that do not model the device — but all satisfy
/// the interpreter's parameter semantics: inputs are read-only, `InOut`
/// params are copied in and returned, `Output` params are zero-initialized.
pub trait ExecutionEngine {
    /// Short stable identifier (`"interp"`, `"vm"`, `"compiled"`), used in
    /// reports and trace spans.
    fn name(&self) -> &'static str;

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
    ) -> Result<RunResult, RuntimeError>;

    /// As [`run`](ExecutionEngine::run), with a reusable [`RunContext`]:
    /// the engine plans `VarDef` storage (`ft_analysis::MemPlan`, of the
    /// function it executes — see [`RunContext`]), draws
    /// temporary buffers from the context's arena pools, and keeps staging
    /// buffers alive across calls — so a compile-once/run-many loop reaches
    /// zero tensor heap allocations in steady state (observable via the
    /// `mem.arena.*` metrics). Results are bit-identical to `run`. Feed
    /// each result back with [`RunContext::recycle`] to return output
    /// buffers to the context.
    fn run_with(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        ctx: &mut RunContext,
    ) -> Result<RunResult, RuntimeError>;

    /// Install (or remove) a trace sink.
    fn set_sink(&mut self, sink: Option<TraceSink>);

    /// The installed trace sink, if any.
    fn sink(&self) -> Option<&TraceSink>;

    /// Install (or remove) a metrics registry. Engines record per-run wall
    /// histograms (`engine.<name>.run_us`), error counters, and whatever
    /// backend-specific telemetry they own (cache counters, kernel dispatch
    /// counts, pool claims).
    fn set_metrics(&mut self, metrics: Option<Metrics>);
}

impl ExecutionEngine for Runtime {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn run(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
    ) -> Result<RunResult, RuntimeError> {
        Runtime::run(self, func, inputs, sizes)
    }

    fn run_with(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        ctx: &mut RunContext,
    ) -> Result<RunResult, RuntimeError> {
        self.run_timed(func, inputs, sizes, Some(ctx))
    }

    fn set_sink(&mut self, sink: Option<TraceSink>) {
        Runtime::set_sink(self, sink)
    }

    fn sink(&self) -> Option<&TraceSink> {
        Runtime::sink(self)
    }

    fn set_metrics(&mut self, metrics: Option<Metrics>) {
        Runtime::set_metrics(self, metrics)
    }
}

impl ExecutionEngine for VmRuntime {
    fn name(&self) -> &'static str {
        "vm"
    }

    fn run(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
    ) -> Result<RunResult, RuntimeError> {
        VmRuntime::run(self, func, inputs, sizes)
    }

    fn run_with(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        ctx: &mut RunContext,
    ) -> Result<RunResult, RuntimeError> {
        self.run_inner(func, inputs, sizes, Some(ctx))
    }

    fn set_sink(&mut self, sink: Option<TraceSink>) {
        VmRuntime::set_sink(self, sink)
    }

    fn sink(&self) -> Option<&TraceSink> {
        VmRuntime::sink(self)
    }

    fn set_metrics(&mut self, metrics: Option<Metrics>) {
        VmRuntime::set_metrics(self, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::{AccessType, DataType};

    fn axpy() -> Func {
        Func::new("axpy")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::InOut)
            .size_param("n")
            .body(for_(
                "i",
                0,
                var("n"),
                store(
                    "y",
                    [var("i")],
                    load("y", [var("i")]) + load("x", [var("i")]) * 2.0f32,
                ),
            ))
    }

    #[test]
    fn engines_agree_through_the_trait() {
        let f = axpy();
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), TensorVal::from_f32(&[4], vec![1.0; 4]));
        inputs.insert("y".to_string(), TensorVal::from_f32(&[4], vec![0.5; 4]));
        let sizes = HashMap::from([("n".to_string(), 4i64)]);
        let engines: Vec<Box<dyn ExecutionEngine>> = vec![
            Box::new(Runtime::new()),
            Box::new(VmRuntime::new()),
        ];
        for e in &engines {
            let r = e.run(&f, &inputs, &sizes).expect("runs");
            assert_eq!(
                r.output("y").to_f64_vec(),
                vec![2.5; 4],
                "engine {}",
                e.name()
            );
        }
    }
}
