//! The instrumented interpreter.

use crate::arena::RunContext;
use crate::bind::Resolved;
use crate::counters::{CacheSim, PerfCounters};
use crate::device::DeviceConfig;
use crate::engine::{Backend, ExecutionEngine};
use crate::error::RuntimeError;
use crate::value::TensorVal;
use ft_trace::{RunProfile, StmtCounters, TraceSink, TRACK_RUNTIME};
use std::borrow::Cow;
use std::collections::HashMap;

/// Result of executing a function.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Output and in-out tensors, by parameter name.
    pub outputs: HashMap<String, TensorVal>,
    /// Execution counters (traffic, FLOPs, kernels, footprint, model time).
    pub counters: PerfCounters,
}

impl RunResult {
    /// Take one output tensor by name.
    ///
    /// # Panics
    ///
    /// Panics if the function has no such output.
    pub fn output(&self, name: &str) -> &TensorVal {
        self.outputs
            .get(name)
            .unwrap_or_else(|| panic!("no output tensor `{name}`"))
    }
}

/// The interpreter with its device model.
///
/// With a trace sink installed ([`ExecutionEngine::set_sink`]) every run
/// additionally records a runtime span and a [`RunProfile`] attributing
/// counter deltas to loops and library calls; with a metrics registry,
/// `engine.interp.run_us` and per-library-kernel `engine.interp.kernel_us`
/// wall histograms plus an error counter.
#[derive(Debug, Clone, Default)]
pub struct Runtime {
    /// Modeled platform parameters.
    pub config: DeviceConfig,
    sink: Option<TraceSink>,
}

impl Runtime {
    /// A runtime with the default device model.
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// A runtime with an explicit device model.
    pub fn with_config(config: DeviceConfig) -> Runtime {
        Runtime {
            config,
            ..Runtime::default()
        }
    }
}

impl ExecutionEngine for Runtime {
    fn name(&self) -> &'static str {
        "interp"
    }
}

impl Backend for Runtime {
    fn lowers(&self) -> bool {
        false
    }

    fn handle(&self) -> &Option<TraceSink> {
        &self.sink
    }

    fn handle_mut(&mut self) -> &mut Option<TraceSink> {
        &mut self.sink
    }

    fn execute(
        &self,
        resolved: &Resolved<'_>,
        inputs: &HashMap<String, TensorVal>,
        rctx: &mut RunContext,
    ) -> Result<RunResult, RuntimeError> {
        let func = resolved.func();
        let (sink, metrics) = (self.log(), self.registry());
        let mut span =
            sink.map(|s| s.span_on(TRACK_RUNTIME, "runtime", &format!("interp {}", func.name)));
        let compiled = crate::slots::compile(func)?;
        // Planned VarDef storage: loop-local defs reuse one buffer across
        // iterations within this run (skipping the re-zero where liveness
        // proves write-before-read), and the context keeps the pool alive
        // across runs.
        let mut ctx = crate::slots::ExecCtx {
            config: &self.config,
            tensors: (0..compiled.n_tensors).map(|_| None).collect(),
            names: &compiled.tensor_names,
            scalars: vec![0; compiled.n_scalars],
            counters: PerfCounters::default(),
            cache: CacheSim::new(self.config.l2_size, self.config.l2_ways),
            next_addr: 0x1000,
            gpu_depth: 0,
            prof: sink.map(|_| vec![StmtCounters::default(); compiled.prof_nodes.len()]),
            prof_cur: 0,
            kernel_us: metrics.map(|m| m.histogram("engine.interp.kernel_us")),
            arena: rctx.take_tensor_pool(resolved.plan()),
        };
        let r = bind_and_exec(&compiled, &mut ctx, resolved, inputs, rctx);
        rctx.tensor_pool = Some(ctx.arena);
        let outputs = r?;
        if let (Some(sink), Some(buckets)) = (sink, ctx.prof.take()) {
            let mut nodes = compiled.prof_nodes.clone();
            for (n, c) in nodes.iter_mut().zip(buckets) {
                n.counters = c;
            }
            sink.profile(RunProfile {
                func: func.name.clone(),
                nodes,
            });
            if let Some(sp) = span.as_mut() {
                sp.arg(
                    "modeled_cycles",
                    format!("{:.0}", ctx.counters.modeled_cycles),
                );
                sp.arg("flops", ctx.counters.flops);
            }
        }
        Ok(RunResult {
            outputs,
            counters: ctx.counters,
        })
    }
}

/// Place the resolved sizes and the bound parameters, execute the body, and
/// extract outputs — the fallible core of `execute`, separated so the
/// caller can recover the arena pool from the
/// [`ExecCtx`](crate::slots::ExecCtx) whether or not execution succeeded.
fn bind_and_exec<'i>(
    compiled: &crate::slots::Compiled,
    ctx: &mut crate::slots::ExecCtx<'i>,
    resolved: &Resolved<'_>,
    inputs: &'i HashMap<String, TensorVal>,
    rctx: &mut RunContext,
) -> Result<HashMap<String, TensorVal>, RuntimeError> {
    for (slot, v) in compiled.size_slots.iter().zip(resolved.sizes()) {
        ctx.scalars[*slot] = *v;
    }
    let bound = resolved.bind(inputs, rctx);
    for (((slot, _), (p, _)), val) in compiled.params.iter().zip(resolved.params()).zip(bound) {
        let val = if compiled.written[*slot] {
            Cow::Owned(val.into_owned())
        } else {
            val
        };
        ctx.alloc(*slot, val, p.mtype)?;
    }
    ctx.exec(&compiled.body)?;
    Ok(resolved.outputs(inputs, |i| {
        let slot = compiled.params[i].0;
        ctx.tensors[slot]
            .take()
            .expect("params stay live")
            .val
            .into_owned()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    fn run(func: &Func, inputs: &[(&str, TensorVal)], sizes: &[(&str, i64)]) -> RunResult {
        let inputs: HashMap<String, TensorVal> = inputs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let sizes: HashMap<String, i64> = sizes.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        Runtime::new().run(func, &inputs, &sizes).expect("run ok")
    }

    #[test]
    fn elementwise_scale() {
        let f = Func::new("scale")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_(
                "i",
                0,
                var("n"),
                store("y", [var("i")], load("x", [var("i")]) * 2.0f32 + 1.0f32),
            ));
        let x = TensorVal::from_f32(&[4], vec![0.0, 1.0, 2.0, 3.0]);
        let r = run(&f, &[("x", x)], &[("n", 4)]);
        assert_eq!(r.output("y").to_f64_vec(), vec![1.0, 3.0, 5.0, 7.0]);
        assert!(r.counters.flops >= 8);
    }

    #[test]
    fn reduction_and_guards() {
        // y[0] = sum of x[i] for even i
        let f = Func::new("sum_even")
            .param("x", [var("n")], DataType::F64, AccessType::Input)
            .param("y", [1], DataType::F64, AccessType::Output)
            .size_param("n")
            .body(for_(
                "i",
                0,
                var("n"),
                if_(
                    var("i").rem(2).eq(0),
                    reduce("y", [0], ReduceOp::Add, load("x", [var("i")])),
                ),
            ));
        let x = TensorVal::from_f64(&[5], vec![1.0, 10.0, 2.0, 10.0, 3.0]);
        let r = run(&f, &[("x", x)], &[("n", 5)]);
        assert_eq!(r.output("y").to_f64_vec(), vec![6.0]);
    }

    #[test]
    fn local_var_scoping_and_footprint() {
        // Allocates a 1KB local inside a loop; peak live must count it once.
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                var_def(
                    "t",
                    [256],
                    DataType::F32,
                    MemType::CpuHeap,
                    block([
                        store("t", [0], 1.0f32),
                        reduce("y", [0], ReduceOp::Add, load("t", [0])),
                    ]),
                ),
            ));
        let r = run(&f, &[], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![4.0]);
        // y (4B) + t (1024B) live at once.
        assert_eq!(r.counters.peak_bytes["cpu"], 4 + 1024);
    }

    #[test]
    fn gpu_kernel_launch_counting() {
        use ft_ir::ForProperty;
        // Two separate GPU-parallel loops = two kernels; nested gpu loops
        // inside the first count as the same kernel.
        let kernel1 = for_with(
            "b",
            0,
            4,
            ForProperty::parallel(ParallelScope::CudaBlockX),
            for_with(
                "t",
                0,
                8,
                ForProperty::parallel(ParallelScope::CudaThreadX),
                store("y", [var("b") * 8 + var("t")], 1.0f32),
            ),
        );
        let kernel2 = for_with(
            "b2",
            0,
            32,
            ForProperty::parallel(ParallelScope::CudaBlockX),
            store("y", [var("b2")], 2.0f32),
        );
        let f = Func::new("f")
            .param_on(
                "y",
                [32],
                DataType::F32,
                MemType::GpuGlobal,
                AccessType::Output,
            )
            .body(block([kernel1, kernel2]));
        let r = run(&f, &[], &[]);
        assert_eq!(r.counters.kernel_launches, 2);
        assert_eq!(r.output("y").to_f64_vec(), vec![2.0; 32]);
    }

    #[test]
    fn oom_is_reported() {
        let config = DeviceConfig {
            gpu_mem_capacity: 1024,
            ..Default::default()
        };
        let f = Func::new("f")
            .param_on(
                "y",
                [1024],
                DataType::F32,
                MemType::GpuGlobal,
                AccessType::Output,
            )
            .body(store("y", [0], 1.0f32));
        let err = Runtime::with_config(config)
            .run(&f, &HashMap::new(), &HashMap::new())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::OutOfMemory { .. }));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let f = Func::new("f")
            .param("y", [2], DataType::F32, AccessType::Output)
            .body(store("y", [5], 1.0f32));
        let err = Runtime::new()
            .run(&f, &HashMap::new(), &HashMap::new())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn parallel_loop_reduces_modeled_time() {
        let body = |para: bool| {
            let prop = if para {
                ft_ir::ForProperty::parallel(ParallelScope::OpenMp)
            } else {
                ft_ir::ForProperty::serial()
            };
            Func::new("f")
                .param("y", [1024], DataType::F32, AccessType::Output)
                .body(for_with(
                    "i",
                    0,
                    1024,
                    prop,
                    store("y", [var("i")], load("y", [var("i")]) + 1.0f32),
                ))
        };
        let serial = run(&body(false), &[], &[]);
        let parallel = run(&body(true), &[], &[]);
        assert!(
            parallel.counters.modeled_cycles < serial.counters.modeled_cycles / 4.0,
            "parallel {} vs serial {}",
            parallel.counters.modeled_cycles,
            serial.counters.modeled_cycles
        );
    }

    #[test]
    fn cache_model_separates_dram_and_l2() {
        // Streaming 64KB twice: second pass hits in the 4MB L2.
        let f = Func::new("f")
            .param("x", [16384], DataType::F32, AccessType::Input)
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(block([
                for_(
                    "i",
                    0,
                    16384,
                    reduce("y", [0], ReduceOp::Add, load("x", [var("i")])),
                ),
                for_(
                    "i2",
                    0,
                    16384,
                    reduce("y", [0], ReduceOp::Add, load("x", [var("i2")])),
                ),
            ]));
        let x = TensorVal::from_f32(&[16384], vec![1.0; 16384]);
        let r = run(&f, &[("x", x)], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![32768.0]);
        assert!(r.counters.l2_bytes > 0);
        assert!(r.counters.dram_bytes > 0);
        // The second pass should hit: L2 traffic exceeds DRAM traffic for x.
        assert!(r.counters.l2_bytes > r.counters.dram_bytes / 2);
    }

    #[test]
    fn shadowed_names_resolve_lexically() {
        // Two sibling VarDefs named `t` and a shadowed loop iterator: the
        // slot-indexed lowering must bind each use to its nearest definition.
        let f = Func::new("f")
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(block([
                var_def(
                    "t",
                    [1],
                    DataType::F32,
                    MemType::CpuStack,
                    block([
                        store("t", [0], 10.0f32),
                        var_def(
                            "t",
                            [1],
                            DataType::F32,
                            MemType::CpuStack,
                            block([
                                store("t", [0], 20.0f32),
                                store("y", [0], load("t", [0])), // inner t = 20
                            ]),
                        ),
                        store("y", [1], load("t", [0])), // outer t = 10
                    ]),
                ),
                for_(
                    "i",
                    0,
                    1,
                    for_(
                        "i",
                        2,
                        3,
                        store("y", [2], Expr::cast(DataType::F32, var("i"))),
                    ),
                ),
            ]));
        let r = run(&f, &[], &[]);
        assert_eq!(r.output("y").to_f64_vec()[..3], [20.0, 10.0, 2.0]);
    }

    #[test]
    fn vardef_reentry_gets_fresh_zeroed_tensor() {
        // A VarDef inside a loop is a fresh zeroed incarnation per iteration.
        let f = Func::new("f")
            .param("y", [3], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                3,
                var_def(
                    "t",
                    ft_ir::builder::scalar(),
                    DataType::F32,
                    MemType::CpuStack,
                    block([
                        reduce("t", scalar(), ReduceOp::Add, 1.0f32),
                        store("y", [var("i")], load("t", scalar())),
                    ]),
                ),
            ));
        let r = run(&f, &[], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![1.0; 3]);
    }

    #[test]
    fn conditionally_written_vardef_is_still_zeroed_per_reentry() {
        // The zero-elision analysis may skip the per-iteration zero-fill
        // only when the def is provably written before read on *every*
        // path. Here the first write is conditional (`i == 0` only), so the
        // pooled buffer must be re-zeroed on each re-entry — otherwise
        // iterations 1 and 2 would read iteration 0's stale 5.0.
        let f = Func::new("f")
            .param("y", [3], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                3,
                var_def(
                    "t",
                    ft_ir::builder::scalar(),
                    DataType::F32,
                    MemType::CpuHeap,
                    block([
                        if_(var("i").eq(0), store("t", scalar(), 5.0f32)),
                        store("y", [var("i")], load("t", scalar())),
                    ]),
                ),
            ));
        let want = vec![5.0, 0.0, 0.0];
        let r = run(&f, &[], &[]);
        assert_eq!(r.output("y").to_f64_vec(), want);
        // And through a reused RunContext, where iteration-to-iteration AND
        // run-to-run reuse both hand back dirty buffers.
        let rt = Runtime::new();
        let mut ctx = crate::arena::RunContext::new();
        for _ in 0..2 {
            let r = rt
                .run_with(&f, &HashMap::new(), &HashMap::new(), &mut ctx)
                .unwrap();
            assert_eq!(r.output("y").to_f64_vec(), want);
            ctx.recycle(r).unwrap();
        }
    }

    #[test]
    fn profile_sums_match_whole_run_counters() {
        // Nested loops + straight-line code outside any loop: exclusive
        // per-node attribution must sum exactly to the run's aggregates.
        let f = Func::new("tiled")
            .param("x", [64, 64], DataType::F32, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(block([
                store("y", [0], 1.0f32),
                for_(
                    "i",
                    0,
                    64,
                    for_(
                        "j",
                        0,
                        64,
                        reduce(
                            "y",
                            [var("i")],
                            ReduceOp::Add,
                            load("x", [var("i"), var("j")]),
                        ),
                    ),
                ),
            ]));
        let x = TensorVal::from_f32(&[64, 64], vec![1.0; 64 * 64]);
        let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
        let sink = ft_trace::TraceSink::new();
        let mut rt = Runtime::new();
        rt.set_sink(Some(sink.clone()));
        let r = rt.run(&f, &inputs, &HashMap::new()).unwrap();

        let profiles = sink.profiles();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        // Root + two loops, in preorder, with parents wired up.
        assert_eq!(p.nodes.len(), 3);
        assert!(p.nodes[0].stmt.is_none());
        assert_eq!(p.nodes[1].desc, "for i");
        assert_eq!(p.nodes[1].parent, Some(0));
        assert_eq!(p.nodes[2].desc, "for j");
        assert_eq!(p.nodes[2].parent, Some(1));
        assert_eq!(p.nodes[1].counters.trips, 64);
        assert_eq!(p.nodes[2].counters.trips, 64 * 64);

        // Exclusive sums == whole-run counters, exactly.
        let t = p.totals();
        assert_eq!(t.flops, r.counters.flops);
        assert_eq!(t.int_ops, r.counters.int_ops);
        assert_eq!(t.dram_bytes, r.counters.dram_bytes);
        assert_eq!(t.l2_bytes, r.counters.l2_bytes);
        assert_eq!(t.heap_bytes, r.counters.heap_bytes);
        assert_eq!(t.scratch_bytes, r.counters.scratch_bytes);
        // The store outside the loops lands on the root, not a loop node.
        assert!(p.nodes[0].counters.l2_bytes > 0);
        // The inner loop dominates the traffic.
        assert!(p.nodes[2].counters.l2_bytes > p.nodes[1].counters.l2_bytes);
        // A runtime span was recorded too.
        assert!(sink.events().iter().any(|e| e.name.starts_with("interp")));
    }

    #[test]
    fn no_sink_records_no_profile() {
        let f = Func::new("f")
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(for_("i", 0, 8, store("y", [var("i")], 1.0f32)));
        let r = Runtime::new()
            .run(&f, &HashMap::new(), &HashMap::new())
            .unwrap();
        assert_eq!(r.output("y").to_f64_vec(), vec![1.0; 8]);
    }

    fn fill(name: &str, n: i64, v: f32) -> Func {
        Func::new(name)
            .param("y", [n], DataType::F32, AccessType::Output)
            .body(for_("i", 0, n, store("y", [var("i")], v)))
    }

    #[test]
    fn context_binds_to_first_program_and_rejects_others() {
        let a = fill("a", 8, 1.0);
        let b = fill("b", 16, 2.0);
        let rt = Runtime::new();
        let mut ctx = crate::arena::RunContext::new();
        let none: HashMap<String, TensorVal> = HashMap::new();
        let nosz: HashMap<String, i64> = HashMap::new();
        rt.run_with(&a, &none, &nosz, &mut ctx).unwrap();
        assert_eq!(ctx.bound_func(), Some("a"));
        let err = rt.run_with(&b, &none, &nosz, &mut ctx).unwrap_err();
        assert!(
            matches!(
                &err,
                RuntimeError::ContextMismatch { bound_func, requested_func, .. }
                    if bound_func == "a" && requested_func == "b"
            ),
            "want ContextMismatch(a, b), got {err}"
        );
        // The mismatch does not poison the context — its own program still runs.
        assert!(!ctx.is_poisoned());
        rt.run_with(&a, &none, &nosz, &mut ctx).unwrap();
        // reset() repurposes it intentionally.
        ctx.reset();
        let r = rt.run_with(&b, &none, &nosz, &mut ctx).unwrap();
        assert_eq!(r.output("y").to_f64_vec(), vec![2.0; 16]);
        assert_eq!(ctx.bound_func(), Some("b"));
    }

    #[test]
    fn same_program_different_sizes_is_a_mismatch() {
        let f = Func::new("scale")
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_("i", 0, var("n"), store("y", [var("i")], 1.0f32)));
        let rt = Runtime::new();
        let mut ctx = crate::arena::RunContext::new();
        let none: HashMap<String, TensorVal> = HashMap::new();
        let s8: HashMap<String, i64> = [("n".to_string(), 8)].into_iter().collect();
        let s9: HashMap<String, i64> = [("n".to_string(), 9)].into_iter().collect();
        rt.run_with(&f, &none, &s8, &mut ctx).unwrap();
        // Same plan hash is possible for size-independent plans, but the
        // shape signature still differs — staging buffers are sized for n=8.
        let err = rt.run_with(&f, &none, &s9, &mut ctx);
        assert!(matches!(err, Err(RuntimeError::ContextMismatch { .. })));
        rt.run_with(&f, &none, &s8, &mut ctx).unwrap();
    }

    #[test]
    fn recycle_rejects_outputs_of_a_foreign_program() {
        let a = fill("a", 8, 1.0);
        let b = fill("b", 16, 2.0);
        let rt = Runtime::new();
        let mut ctx = crate::arena::RunContext::new();
        let none: HashMap<String, TensorVal> = HashMap::new();
        let nosz: HashMap<String, i64> = HashMap::new();
        let ra = rt.run_with(&a, &none, &nosz, &mut ctx).unwrap();
        let rb = rt.run(&b, &none, &nosz).unwrap();
        // b's `y` is [16]; the context is bound to a's `y` of [8].
        let err = ctx.recycle(rb).unwrap_err();
        assert!(
            matches!(
                &err,
                RuntimeError::RecycleMismatch { bound_func, output, expected_shape, actual_shape }
                    if bound_func == "a"
                        && output == "y"
                        && *expected_shape == Some(vec![8])
                        && *actual_shape == vec![16]
            ),
            "want RecycleMismatch, got {err}"
        );
        // The bound program's own outputs recycle fine.
        ctx.recycle(ra).unwrap();
    }

    #[test]
    fn errored_run_poisons_the_context_and_the_next_run_resets_it() {
        // x / (i - 2) divides by zero at i == 2, killing the run mid-way.
        let bad = Func::new("bad")
            .param("x", [8], DataType::I64, AccessType::Input)
            .param("y", [8], DataType::I64, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                store("y", [var("i")], load("x", [var("i")]) / (var("i") - 2)),
            ));
        let x = TensorVal::from_i64(&[8], (1..9).collect());
        let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
        let rt = Runtime::new();
        let mut ctx = crate::arena::RunContext::new();
        let err = rt
            .run_with(&bad, &inputs, &HashMap::new(), &mut ctx)
            .unwrap_err();
        assert_eq!(err, RuntimeError::DivisionByZero);
        assert!(ctx.is_poisoned());
        // The next run — even of a *different* program — heals the context
        // with a counted full reset instead of reusing suspect storage.
        let good = fill("good", 4, 3.0);
        let none: HashMap<String, TensorVal> = HashMap::new();
        let nosz: HashMap<String, i64> = HashMap::new();
        let r = rt.run_with(&good, &none, &nosz, &mut ctx).unwrap();
        assert_eq!(r.output("y").to_f64_vec(), vec![3.0; 4]);
        assert!(!ctx.is_poisoned());
        assert_eq!(ctx.bound_func(), Some("good"));
        assert_eq!(ctx.stats.poison_resets, 1);
        ctx.recycle(r).unwrap();
    }
}
