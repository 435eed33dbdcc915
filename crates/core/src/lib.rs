//! # freetensor-core — the compile-pipeline facade
//!
//! One type, [`Program`], strings the whole FreeTensor stack together:
//!
//! ```text
//! DSL source ──parse/inline/partial-eval──▶ IR ──simplify──▶ Program
//!     Program::optimize(target)   rule-based auto-scheduling (§4.3)
//!     Program::grad(options)      reverse-mode AD (§5)
//!     Program::schedule()         manual Table-1 transformations
//!     Program::run(engine, …)     execution on any engine
//!     Program::emit_c()           the C/OpenMP unit cc builds
//! ```
//!
//! ```
//! use freetensor_core::Program;
//! use ft_autoschedule::Target;
//! use std::collections::HashMap;
//!
//! let p = Program::compile(
//!     "def scale(x: f32[8] in, y: f32[8] out):\n  for i in range(8):\n    y[i] = x[i] * 2 + 1\n",
//!     "scale",
//! )?;
//! let fast = p.optimize(&Target::cpu());
//! let rt = ft_runtime::Runtime::new();
//! let x = ft_runtime::TensorVal::from_f32(&[8], vec![1.0; 8]);
//! let inputs = HashMap::from([("x".to_string(), x)]);
//! let out = fast.run(&rt, &inputs, &HashMap::new())?;
//! assert_eq!(out.output("y").to_f64_vec(), vec![3.0; 8]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use ft_autodiff::{AdError, GradOptions};
use ft_autoschedule::Target;
use ft_ir::Func;
use ft_runtime::{ExecutionEngine, RunResult, RuntimeError, TensorVal};
use ft_trace::TraceSink;
use std::collections::HashMap;

/// A compiled FreeTensor program (an IR function plus pipeline operations).
///
/// Installing a [`TraceSink`] (via [`Program::compile_traced`] or
/// [`Program::set_sink`]) turns on end-to-end provenance: every pipeline
/// stage this program goes through — frontend lowering, simplification
/// passes, auto-scheduling decisions, codegen, and instrumented runs —
/// reports into the sink's event log, and the sink carries through
/// `optimize`/`grad` to derived programs.
#[derive(Debug, Clone)]
pub struct Program {
    func: Func,
    sink: Option<TraceSink>,
}

impl Program {
    /// Compile DSL source (entry function `entry`), with the `libop`
    /// operator library in scope; inlines all calls, partially evaluates
    /// metadata, and simplifies.
    ///
    /// # Errors
    ///
    /// Returns parse/lowering errors as display-ready strings.
    pub fn compile(src: &str, entry: &str) -> Result<Program, String> {
        Program::compile_inner(src, entry, None)
    }

    /// [`Program::compile`] with provenance recording into `sink`.
    ///
    /// # Errors
    ///
    /// Same error surface as [`Program::compile`].
    pub fn compile_traced(src: &str, entry: &str, sink: TraceSink) -> Result<Program, String> {
        Program::compile_inner(src, entry, Some(sink))
    }

    fn compile_inner(src: &str, entry: &str, sink: Option<TraceSink>) -> Result<Program, String> {
        let func = {
            let mut span = sink.as_ref().map(|s| s.span("frontend", "compile"));
            let func = ft_libop::compile_with_libop(src, entry)?;
            if let Some(sp) = span.as_mut() {
                sp.arg("entry", entry);
                sp.arg("source_bytes", src.len());
            }
            func
        };
        Ok(Program::from_func_inner(func, sink))
    }

    /// Wrap an already-built IR function (normalizing definition names and
    /// simplifying).
    pub fn from_func(func: Func) -> Program {
        Program::from_func_inner(func, None)
    }

    fn from_func_inner(func: Func, sink: Option<TraceSink>) -> Program {
        let func = {
            let _span = sink.as_ref().map(|s| s.span("pass", "uniquify_defs"));
            ft_passes::uniquify_defs(func)
        };
        let func = ft_passes::simplify(func, sink.as_ref());
        Program { func, sink }
    }

    /// Install (or remove) the trace sink all later pipeline stages report
    /// into.
    pub fn set_sink(&mut self, sink: Option<TraceSink>) {
        self.sink = sink;
    }

    /// The installed trace sink, if any.
    pub fn sink(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// The underlying IR function.
    pub fn func(&self) -> &Func {
        &self.func
    }

    /// Apply the rule-based auto-scheduling passes for a target (§4.3),
    /// followed by cleanup simplification. Parameters are placed in the
    /// target device's default memory space (GPU global for GPU targets).
    /// With a sink installed, every primitive the passes attempt lands in
    /// the schedule decision log.
    pub fn optimize(&self, target: &Target) -> Program {
        let mut func = self.func.clone();
        for p in &mut func.params {
            p.mtype = ft_ir::MemType::default_for(target.device);
        }
        let tuned = ft_autoschedule::auto_schedule(func, target, self.sink.clone());
        Program {
            func: ft_passes::simplify(tuned, self.sink.as_ref()),
            sink: self.sink.clone(),
        }
    }

    /// Start manual scheduling (Table 1 transformations). With a sink
    /// installed, manual primitives are logged the same way automatic ones
    /// are.
    pub fn schedule(&self) -> ft_schedule::Schedule {
        let mut sched = ft_schedule::Schedule::new(self.func.clone());
        sched.set_sink(self.sink.clone());
        sched
    }

    /// Finish manual scheduling. The schedule's sink (if any) carries over.
    pub fn from_schedule(sched: ft_schedule::Schedule) -> Program {
        let sink = sched.sink().cloned();
        Program {
            func: sched.into_func(),
            sink,
        }
    }

    /// Differentiate (reverse mode, §5). The result computes the original
    /// outputs plus `x.grad` for every float input, given `y.grad` seeds.
    ///
    /// # Errors
    ///
    /// See [`ft_autodiff::grad_with`].
    pub fn grad(&self, opts: &GradOptions) -> Result<Program, AdError> {
        let g = {
            let _span = self.sink.as_ref().map(|s| s.span("autodiff", "grad"));
            ft_autodiff::grad_with(&self.func, opts)?
        };
        Ok(Program::from_func_inner(g, self.sink.clone()))
    }

    /// Execute on any [`ExecutionEngine`] — the interpreter
    /// ([`ft_runtime::Runtime`]), the bytecode VM ([`ft_runtime::VmRuntime`])
    /// or the native compiled engine ([`ft_runtime::CompiledEngine`]). The
    /// maps are lent to [`ExecutionEngine::run`] as they are. If this program
    /// carries a sink with an event log and `engine`'s handle keeps none,
    /// the run is logged into the program's sink — a runtime span, plus
    /// per-statement counter attribution on the interpreter — while its
    /// metrics still go to the engine's registry (the program's, when the
    /// engine has no handle).
    ///
    /// # Errors
    ///
    /// The engine's [`RuntimeError`] surface.
    pub fn run<E: ExecutionEngine + Clone>(
        &self,
        engine: &E,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
    ) -> Result<RunResult, RuntimeError> {
        match &self.sink {
            Some(s) if s.logs() && !engine.sink().is_some_and(TraceSink::logs) => {
                let mut e = engine.clone();
                let registry = engine.sink().unwrap_or(s).metrics();
                e.set_sink(Some(s.with_metrics(registry.clone())));
                e.run(&self.func, inputs, sizes)
            }
            _ => engine.run(&self.func, inputs, sizes),
        }
    }

    /// The C99 + OpenMP unit the compiled engine builds for the current
    /// schedule: [`ft_codegen::emit_c`] of [`ft_codegen::lower_and_plan`]
    /// at no sizes, `ft_entry` included. For a program without size
    /// parameters it is byte for byte the `<key>.c` the engine writes, with
    /// one difference: the engine proves each parallel mark first
    /// ([`ft_codegen::prove_parallel`]), so a mark the dependence engine
    /// refuses runs serially there while this text keeps its `#pragma omp
    /// parallel for`. A def whose extent reads a size parameter is
    /// `calloc`ed here and takes an arena offset at the sizes of a run.
    ///
    /// # Panics
    ///
    /// When the program calls a library kernel the C backend does not
    /// provide (any but `matmul`, reachable through [`Program::from_func`]);
    /// every engine returns `RuntimeError::UnknownKernel` for such a
    /// program instead.
    pub fn emit_c(&self) -> String {
        let mut span = self.sink.as_ref().map(|s| s.span("codegen", "emit_c"));
        let (lowered, plan) = ft_codegen::lower_and_plan(&self.func, &HashMap::new());
        let src = ft_codegen::emit_c(&lowered, &plan, false)
            .expect("lowered IR calling library kernels the C backend provides")
            .0;
        if let Some(sp) = span.as_mut() {
            sp.arg("func", &self.func.name);
            sp.arg("bytes", src.len());
        }
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_runtime::{CompiledEngine, Runtime, VmRuntime};

    /// Named tensors as the map [`Program::run`] takes.
    fn named<const N: usize>(pairs: [(&str, TensorVal); N]) -> HashMap<String, TensorVal> {
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn end_to_end_compile_optimize_run() {
        let p = Program::compile(
            "def f(x: f32[16] in, y: f32[16] out):\n  for i in range(16):\n    y[i] = x[i] * x[i]\n",
            "f",
        )
        .unwrap();
        let rt = Runtime::new();
        let x = TensorVal::from_f32(&[16], (0..16).map(|v| v as f32).collect());
        let plain = p
            .run(&rt, &named([("x", x.clone())]), &HashMap::new())
            .unwrap();
        for target in [Target::cpu(), Target::gpu()] {
            let fast = p.optimize(&target);
            let out = fast
                .run(&rt, &named([("x", x.clone())]), &HashMap::new())
                .unwrap();
            assert!(plain.output("y").allclose(out.output("y"), 1e-6));
        }
    }

    #[test]
    fn libop_calls_are_inlined_and_co_optimized() {
        let p = Program::compile(
            "def f(x: f32[8, 4] in, y: f32[8, 4] out):\n  t = create_var((8, 4), \"f32\", \"cpu\")\n  relu(x, t)\n  scale(t, 3, y)\n",
            "f",
        )
        .unwrap();
        // After inlining + auto_fuse, a single fused nest should survive.
        let tuned = p.optimize(&Target::cpu());
        let rt = Runtime::new();
        let x = TensorVal::from_f32(&[8, 4], (0..32).map(|v| v as f32 - 16.0).collect());
        let out = tuned
            .run(&rt, &named([("x", x.clone())]), &HashMap::new())
            .unwrap();
        let expect: Vec<f64> = x
            .to_f64_vec()
            .into_iter()
            .map(|v| v.max(0.0) * 3.0)
            .collect();
        assert_eq!(out.output("y").to_f64_vec(), expect);
    }

    #[test]
    fn grad_pipeline() {
        let p = Program::compile(
            "def f(x: f64[4] in, y: f64[4] out):\n  for i in range(4):\n    y[i] = x[i] * x[i] * x[i]\n",
            "f",
        )
        .unwrap();
        let g = p.grad(&GradOptions::default()).unwrap();
        let rt = Runtime::new();
        let x = TensorVal::from_f64(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let seed = TensorVal::from_f64(&[4], vec![1.0; 4]);
        let out = g
            .run(&rt, &named([("x", x), ("y.grad", seed)]), &HashMap::new())
            .unwrap();
        let gx = out.output("x.grad").to_f64_vec();
        let expect: Vec<f64> = [1.0f64, 2.0, 3.0, 4.0]
            .iter()
            .map(|v| 3.0 * v * v)
            .collect();
        for (a, b) in gx.iter().zip(expect) {
            assert!((a - b).abs() < 1e-9, "{gx:?}");
        }
    }

    #[test]
    fn traced_pipeline_covers_compile_schedule_and_run() {
        let sink = ft_trace::TraceSink::new();
        let p = Program::compile_traced(
            "def f(x: f32[64] in, y: f32[64] out):\n  for i in range(64):\n    y[i] = x[i] * 2\n",
            "f",
            sink.clone(),
        )
        .unwrap();
        let fast = p.optimize(&Target::cpu());
        let rt = Runtime::new();
        let x = TensorVal::from_f32(&[64], vec![1.0; 64]);
        let r = fast.run(&rt, &named([("x", x)]), &HashMap::new()).unwrap();
        let _ = fast.emit_c();

        let events = sink.events();
        for expected in ["compile", "uniquify_defs", "simplify", "emit_c"] {
            assert!(
                events.iter().any(|e| e.name == expected),
                "missing span `{expected}` in {:?}",
                events.iter().map(|e| &e.name).collect::<Vec<_>>()
            );
        }
        assert!(events.iter().any(|e| e.name.starts_with("interp")));
        // The auto-schedule passes logged decisions; the run left a profile
        // whose exclusive sums equal the whole-run counters.
        assert!(!sink.decisions().is_empty());
        let profiles = sink.profiles();
        assert_eq!(profiles.len(), 1);
        let t = profiles[0].totals();
        assert_eq!(t.flops, r.counters.flops);
        assert_eq!(t.dram_bytes, r.counters.dram_bytes);
        assert_eq!(t.l2_bytes, r.counters.l2_bytes);
        // The exported Chrome trace is well-formed.
        let json = ft_trace::chrome_trace(&sink);
        ft_trace::validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn vm_engine_matches_interpreter_end_to_end() {
        let p = Program::compile(
            "def f(x: f32[32] in, y: f32[32] out):\n  for i in range(32):\n    y[i] = x[i] * x[i] + 1\n",
            "f",
        )
        .unwrap();
        let fast = p.optimize(&Target::cpu());
        let x = TensorVal::from_f32(&[32], (0..32).map(|v| v as f32 * 0.25).collect());
        let ri = fast
            .run(&Runtime::new(), &named([("x", x.clone())]), &HashMap::new())
            .unwrap();
        let rv = fast
            .run(&VmRuntime::new(), &named([("x", x)]), &HashMap::new())
            .unwrap();
        assert_eq!(ri.output("y"), rv.output("y"));
    }

    #[test]
    fn compiled_engine_matches_interpreter_end_to_end() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let p = Program::compile(
            "def f(x: f32[32] in, y: f32[32] out):\n  for i in range(32):\n    y[i] = x[i] * x[i] + 1\n",
            "f",
        )
        .unwrap();
        let fast = p.optimize(&Target::cpu());
        let x = TensorVal::from_f32(&[32], (0..32).map(|v| v as f32 * 0.25).collect());
        let ri = fast
            .run(&Runtime::new(), &named([("x", x.clone())]), &HashMap::new())
            .unwrap();
        let rc = fast
            .run(&CompiledEngine::new(), &named([("x", x)]), &HashMap::new())
            .unwrap();
        // Inputs here are exactly representable and the kernel is one
        // multiply-add per element, so f32-native arithmetic agrees with
        // the interpreter's widen-to-f64-then-round to rounding error.
        assert!(ri.output("y").allclose(rc.output("y"), 1e-6));
    }

    #[test]
    fn emit_c_prints_the_function_under_either_target() {
        let p = Program::compile(
            "def f(x: f32[8] in, y: f32[8] out):\n  for i in range(8):\n    y[i] = x[i] + 1\n",
            "f",
        )
        .unwrap();
        assert!(p.emit_c().contains("void f("));
        let gpu = p.optimize(&Target::gpu());
        assert!(gpu.emit_c().contains("void f("));
    }
}
