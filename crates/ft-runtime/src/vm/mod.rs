//! A flat bytecode VM over the slot-indexed lowering in [`crate::compiled`].
//!
//! The tree-walking interpreter ([`crate::interp::Runtime`]) is the
//! *specification*: deterministic, fully instrumented, and deliberately
//! simple. It is also slow — every expression evaluation chases `Box`es,
//! re-matches enum variants, and re-folds multi-dimensional indices. This
//! module lowers a [`Compiled`] function once more into a linear instruction
//! stream over a flat `u64` register file, executed by a single dispatch
//! loop with explicit jump offsets: no recursion, no allocation per
//! statement, no hash lookups.
//!
//! The VM is the *portable fallback* engine — a wall-clock execution path
//! for hosts without a C compiler — and a *back end*, not a second
//! runtime: like the compiled engine it executes the function
//! `ft_codegen::lower_and_plan` returns, on the crate's [`TensorVal`] and
//! `arena::TensorPool`. How a parallel reduction is realized (chunk-private
//! rows merged in chunk order, or a serial loop) is thus decided once, on
//! the IR, for both; the VM runs a marked loop on the [`WorkerPool`] once
//! the dependence engine finds nothing it carries (the legality rule
//! `parallelize` asks, [`VmProgram::refusal`]). It models no device:
//! counters, the cache simulator and per-statement profiling belong to the
//! interpreter alone, and [`RunResult::counters`] comes back defaulted
//! (only the capacity accounting that reproduces out-of-memory errors
//! remains).
//!
//! It keeps three fast paths, each because it pays at least 1.5× on the
//! program it helps most (EXPERIMENTS.md, "What the VM's fast paths buy"):
//! affine tensor indices inside the innermost loop are strength-reduced to
//! a per-iteration induction increment (`off += stride`) hoisted into a
//! loop preheader; a `vectorize` loop whose body is an `axpy` or a `dot`
//! runs as one fused kernel (`kernels.rs`); and a proven parallel region
//! forks onto the pool. Any other `vectorize` body compiles as if unmarked,
//! and a region that runs inline runs its own bytecode body.
//!
//! Every program is statically typed: parameters hold their declared dtype
//! (an input of another dtype is converted when it is bound,
//! [`crate::bind`]) and a `Select` has its node's type (the slot lowering
//! converts the arms to it), so the VM runs every program itself and
//! [`VmRuntime::run`] is a drop-in replacement for
//! [`Runtime::run`](crate::interp::Runtime::run).
//!
//! ## The contract, and known, documented divergences
//!
//! On programs that *succeed*, outputs are bit-identical to the interpreter
//! run on `lower_cpu_parallel(func)`, run to run and at any worker count
//! (the differential fuzz suite asserts this): results follow the lowered
//! function's association order. Where the lowering returns `func`
//! untouched that is the interpreter on `func` itself; where it privatizes
//! a float reduction the two agree to rounding, as the compiled kernel does.
//!
//! Programs that *fail* may differ in the error payload:
//!
//! * Strength-reduced accesses check the *flat* offset against `numel`
//!   instead of each dimension, so a program that indexes out-of-bounds
//!   per-dimension but in-bounds flat is caught by the interpreter but not
//!   by the VM, and the out-of-bounds payload carries the flat offset.
//! * `VarDef` shapes are evaluated dimension-at-a-time by the interpreter
//!   (erroring before later dimensions run) but all-dims-then-convert by
//!   the VM. (Parameter shapes are neither's business: they arrive
//!   resolved, see [`crate::bind`].)
//! * The VM hoists loop-invariant index arithmetic — including loads
//!   from tensors the loop does not write, for accesses executed
//!   unconditionally on every iteration — into the loop preheader. The
//!   hoisted code only runs when the loop has at least one iteration, so
//!   every fault it can raise is one the first iteration would raise too,
//!   but it runs *before* that iteration's other side effects, so an
//!   erroring program may report a different (still-legitimate) error than
//!   the interpreter.

mod exec;
mod kernels;
mod lower;

use exec::*;
use lower::*;

use crate::arena::{RunContext, TensorPool};
use crate::bind::Resolved;
use crate::compiled::Compiled;
use crate::counters::PerfCounters;
use crate::device::DeviceConfig;
use crate::engine::{Backend, ExecutionEngine, Telemetry};
use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::libkernel::matmul_checked;
use crate::pool::{grain_for, WorkerPool};
use crate::value::{lanes, Data, Scalar, TensorVal};
use ft_ir::scalar;
use ft_ir::{BinaryOp, DataType, Device, Func, MemType, ParallelScope, ReduceOp, UnaryOp};
use ft_trace::TRACK_RUNTIME;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Statically inferred scalar kind of a register, mirroring the
/// interpreter's runtime [`Scalar`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// `Scalar::Int` — stored as the `i64` bit pattern.
    I,
    /// `Scalar::Float` — stored via `f64::to_bits`.
    F,
    /// `Scalar::Bool` — stored as 0/1.
    B,
}

fn ty_of(dtype: DataType) -> Ty {
    match dtype {
        DataType::F32 | DataType::F64 => Ty::F,
        DataType::I32 | DataType::I64 => Ty::I,
        DataType::Bool => Ty::B,
    }
}

/// One VM instruction. Register operands are indices into a flat `u64`
/// file; the first `n_scalars` registers are the scalar slots of the
/// lowering (loop iterators and size parameters, always [`Ty::I`]).
#[derive(Debug, Clone)]
enum Instr {
    ConstI { dst: u32, v: i64 },
    ConstF { dst: u32, v: f64 },
    ConstB { dst: u32, v: bool },
    Mov { dst: u32, src: u32 },
    /// `dst += v` (wrapping). Loop increment and preheader probe.
    AddImmI { dst: u32, v: i64 },

    /// The operators that are the machine's own — integer `+ - *`, float
    /// `+ - * /` — each under an opcode of its own. Induction latches and
    /// the bulk of every loop body are these seven, and a second dispatch
    /// on the operator cost the four workloads 25–45 % (EXPERIMENTS.md).
    /// Their arms still call the table, with the operator a constant.
    AddI { dst: u32, a: u32, b: u32 },
    SubI { dst: u32, a: u32, b: u32 },
    MulI { dst: u32, a: u32, b: u32 },
    AddF { dst: u32, a: u32, b: u32 },
    SubF { dst: u32, a: u32, b: u32 },
    MulF { dst: u32, a: u32, b: u32 },
    DivF { dst: u32, a: u32, b: u32 },
    /// The other integer operators, `Div`..`Max`, by [`scalar::int_binary`]
    /// (floor `Div`/`Mod`; a zero divisor is the run's `DivisionByZero`).
    BinI { op: BinaryOp, dst: u32, a: u32, b: u32 },
    /// The other float operators, `Mod`..`Pow`, by [`scalar::float_binary`].
    BinF { op: BinaryOp, dst: u32, a: u32, b: u32 },
    /// `And`/`Or` by [`scalar::logic`].
    BinB { op: BinaryOp, dst: u32, a: u32, b: u32 },
    /// A comparison of two `Int`s, exact ([`scalar::compare`]).
    CmpI { op: BinaryOp, dst: u32, a: u32, b: u32 },
    /// A comparison of any other pair, both converted to `f64`.
    CmpF { op: BinaryOp, dst: u32, a: u32, b: u32 },
    /// Integer `Neg`/`Abs`/`Sign` by [`scalar::int_unary`].
    UnI { op: UnaryOp, dst: u32, a: u32 },
    /// Every float unary by [`scalar::float_unary`].
    UnF { op: UnaryOp, dst: u32, a: u32 },
    Not { dst: u32, a: u32 },
    /// [`scalar::cast`] of a register of kind `from` to `to`; a conversion
    /// between kinds is the cast to the kind's widest type.
    Cast { to: DataType, from: Ty, dst: u32, a: u32 },

    Jmp { to: u32 },
    BrFalse { cond: u32, to: u32 },
    /// Loop guard: jump if `regs[a] >= regs[b]` (as `i64`).
    BrGeI { a: u32, b: u32, to: u32 },

    /// Row-major fold of `ndim` index registers starting at `idx`, with
    /// per-dimension bounds checks (the interpreter's `bounds_check`).
    Off { t: u32, idx: u32, ndim: u8, dst: u32 },
    /// Same fold, wrapping and unchecked — preheader stride probes only.
    OffRaw { t: u32, idx: u32, ndim: u8, dst: u32 },
    LoadT { t: u32, off: u32, dst: u32 },
    /// Strength-reduced load: flat offset checked against `numel` only.
    LoadFlat { t: u32, off: u32, dst: u32 },
    StoreT { t: u32, off: u32, src: u32, sty: Ty },
    StoreFlat { t: u32, off: u32, src: u32, sty: Ty },
    ReduceT { t: u32, off: u32, src: u32, sty: Ty, op: ReduceOp },
    ReduceFlat { t: u32, off: u32, src: u32, sty: Ty, op: ReduceOp },

    Alloc { t: u32, shape: u32, ndim: u8, dtype: DataType, mtype: MemType },
    Free { t: u32 },
    LibCall { id: u32 },

    /// A whole innermost `vectorize`-marked `axpy` or `dot` loop fused into
    /// one wide kernel dispatch ([`VecSite`]). Carries no jump targets, so it
    /// relocates freely inside enclosing loop bodies.
    VecLoop { site: u32 },
    /// A whole `OpenMp` loop run as a fork-join region on the
    /// persistent worker pool ([`ParSite`]).
    ParRegion { site: u32 },
    Halt,
}

/// A `LibCall` site.
#[derive(Debug, Clone)]
struct LibSite {
    kernel: String,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    attrs: Vec<i64>,
}

/// A strength-reduced access used by a vectorized loop: the register
/// holding the flat base offset (maintained by the loop preheader) plus the
/// register holding the numerically probed per-iteration stride (`None` for
/// loop-invariant accesses, i.e. stride 0).
#[derive(Debug, Clone)]
struct VecAccess {
    t: u32,
    off: u32,
    stride: Option<u32>,
}

/// The fused inner-loop shapes the vectorizer recognizes (`kernels.rs`
/// says why only these two). Both preserve the interpreter's serial-order
/// combines and per-step storage rounding (see [`crate::value::lanes`]),
/// so accepting a kernel never changes results — only dispatch cost.
#[derive(Debug, Clone)]
enum VecKernel {
    /// `dst[k] += a * x[k]` — elementwise float accumulate with an optional
    /// invariant multiplier `a` (`a_lhs` records the operand order so NaN
    /// propagation matches the serial multiply).
    Axpy {
        dst: VecAccess,
        x: VecAccess,
        a: Option<(u32, Ty)>,
        a_lhs: bool,
    },
    /// `acc += x[k] * y[k]` — loop-carried dot-product reduction into one
    /// invariant cell.
    Dot {
        dst: VecAccess,
        x: VecAccess,
        y: VecAccess,
    },
}

/// Names of the fused kernels: the `vm.simd` decision detail and the
/// `vm.kernel.*` metric suffix, in [`VecKernel::idx`] order.
const VEC_KERNEL_NAMES: [&str; 2] = ["axpy", "dot"];

impl VecKernel {
    /// This kernel's place in [`VEC_KERNEL_NAMES`] and [`VmTally::vec`].
    fn idx(&self) -> usize {
        match self {
            VecKernel::Axpy { .. } => 0,
            VecKernel::Dot { .. } => 1,
        }
    }
}

/// A vectorized-loop site: iterator register, end-bound register, kernel.
#[derive(Debug, Clone)]
struct VecSite {
    s: u32,
    end: u32,
    kernel: VecKernel,
}

/// A parallel-region site: the loop body compiled into a standalone
/// instruction stream workers execute once per iteration.
#[derive(Debug, Clone)]
struct ParSite {
    s: u32,
    end: u32,
    code: Vec<Instr>,
    /// Per tensor slot: `true` when each worker owns a private copy (the
    /// body's `VarDef` locals); `false` slots route to the parent's
    /// storage.
    local_mask: Vec<bool>,
    /// Static body cost (instruction count) feeding the grain heuristic.
    cost: u32,
    /// Profile node of the loop, whose `stmt` is the loop's id.
    prof: usize,
    /// Why the loop may not run on the pool (`None`: nothing stops it),
    /// asked the first time the region is about to fork, or after a traced
    /// run.
    refusal: OnceLock<Option<String>>,
}

/// One lowering decision (a `vectorize` attempt), surfaced as a `vm.simd`
/// trace span with a structured acceptance or rejection reason.
#[derive(Debug, Clone)]
struct LowerDecision {
    prof: usize,
    accepted: bool,
    detail: String,
}

/// A compiled VM program: the instruction streams, beside the slot-resolved
/// function they were lowered from (whose name, parameter and size tables
/// the dispatch loop reads in place).
pub(crate) struct VmProgram<'c> {
    c: &'c Compiled,
    /// The function `c` was compiled from: what the dependence engine is
    /// asked about.
    func: &'c Func,
    /// The accesses of `func`, collected for the first region asked.
    accesses: OnceLock<ft_analysis::access::AccessInfo<'c>>,
    code: Vec<Instr>,
    n_regs: usize,
    lib_sites: Vec<LibSite>,
    vec_sites: Vec<VecSite>,
    par_sites: Vec<ParSite>,
    decisions: Vec<LowerDecision>,
}

impl VmProgram<'_> {
    /// Why `site` may not run on the pool, or `None`: the first dependence
    /// the engine finds carried by its loop — as the schedule decision log
    /// prints one for a refused `parallelize` — or the first reduction
    /// whose target two iterations update. Asked at most once per site, over
    /// accesses collected at most once per program.
    fn refusal<'s>(&self, site: &'s ParSite) -> Option<&'s str> {
        let refusal = site.refusal.get_or_init(|| {
            let l = self.c.prof_nodes[site.prof]
                .stmt
                .expect("a loop's node has its id");
            let info = self
                .accesses
                .get_or_init(|| ft_analysis::collect_accesses(self.func));
            if let Some(dep) = ft_analysis::loop_carried_deps_in(info, l).first() {
                return Some(dep.to_string());
            }
            let reduce = ft_analysis::carried_reductions_in(info, l);
            reduce.first().map(|s| format!("carried reduction {s}"))
        });
        refusal.as_deref()
    }
}

/// The bytecode execution engine, a drop-in replacement for
/// [`Runtime`](crate::interp::Runtime).
///
/// A trace sink ([`ExecutionEngine::set_sink`]) records a `"vm <name>"`
/// runtime span per run plus one `vm.lower` span per `vectorize` decision
/// and per parallel region (with a sink, every region is asked for its
/// proof, whether or not it came to fork). A metrics registry records an
/// `engine.vm.run_us` wall histogram, fused-kernel dispatch counters
/// (`vm.kernel.{axpy,dot}`) with an `engine.vm.kernel_ns` dispatch-wall
/// histogram, parallel-region scheduling counters (`vm.par.{pool,serial}`)
/// and worker-pool claim counters.
#[derive(Debug, Clone, Default)]
pub struct VmRuntime {
    /// Modeled platform parameters: the device capacities of the
    /// out-of-memory checks.
    pub config: DeviceConfig,
    tel: Telemetry,
}

impl VmRuntime {
    /// A VM with the default device model.
    pub fn new() -> VmRuntime {
        VmRuntime::default()
    }

    /// A VM with an explicit device model.
    pub fn with_config(config: DeviceConfig) -> VmRuntime {
        VmRuntime {
            config,
            ..VmRuntime::default()
        }
    }

    /// Execute `func` ([`ExecutionEngine::run`], callable without the trait
    /// in scope).
    ///
    /// # Errors
    ///
    /// The same [`RuntimeError`] conditions as
    /// [`Runtime::run`](crate::interp::Runtime::run).
    pub fn run(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
    ) -> Result<RunResult, RuntimeError> {
        ExecutionEngine::run(self, func, inputs, sizes)
    }
}

impl ExecutionEngine for VmRuntime {
    fn name(&self) -> &'static str {
        "vm"
    }
}

impl Backend for VmRuntime {
    // Execute, plan and bind contexts to the function `CompiledEngine`
    // emits C for: a reduction is privatized (or its loop serialized)
    // once, on the IR, for both back ends.
    fn lowers(&self) -> bool {
        true
    }

    fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.tel
    }

    fn execute(
        &self,
        resolved: &Resolved<'_>,
        inputs: &HashMap<String, TensorVal>,
        mut rctx: Option<&mut RunContext>,
    ) -> Result<RunResult, RuntimeError> {
        let (sink, metrics) = (self.tel.sink.as_ref(), self.tel.metrics.as_ref());
        let pool_before = metrics.map(|_| WorkerPool::global().stats());
        let func = resolved.func();
        let compiled = crate::compiled::compile(func)?;
        let prog = compile_program(&compiled, func);
        // With a cross-run context: pool `VarDef` buffers by the plan's
        // interference classes. Plain `run` allocates every `VarDef` fresh,
        // which is what the planned path is diffed against.
        let pool = rctx.as_deref_mut().map(|c| c.take_tensor_pool(resolved.plan()));
        let _span =
            sink.map(|s| s.span_on(TRACK_RUNTIME, "runtime", &format!("vm {}", func.name)));
        let mut st = VmState {
            config: &self.config,
            names: &compiled.tensor_names,
            regs: vec![0; prog.n_regs],
            tensors: (0..compiled.n_tensors).map(|_| None).collect(),
            live: [0, 0],
            shared: None,
            tally: metrics.map(|m| VmTally {
                vec: [0; VEC_KERNEL_NAMES.len()],
                par_pool: 0,
                par_serial: 0,
                kernel_ns: m.histogram("engine.vm.kernel_ns"),
            }),
            arena: pool,
        };
        for (slot, v) in compiled.size_slots.iter().zip(resolved.sizes()) {
            st.regs[*slot] = *v as u64;
        }
        let exec_r = st
            .bind_params(&compiled, resolved, inputs)
            .and_then(|()| st.exec_code(&prog.code, &prog));
        // One span per lowering decision and per region, so a trace
        // explains which loops became wide kernels or may run on the pool
        // and why the rest may not. A region that never came to fork is
        // asked here, so a span carries the engine's verdict on any host.
        if let Some(sink) = sink {
            let span = |kind: &str, prof: usize, accepted: bool, detail: &str| {
                let mut sp = sink.span_on(TRACK_RUNTIME, "vm.lower", kind);
                sp.arg("target", &compiled.prof_nodes[prof].desc);
                sp.arg("accepted", accepted);
                sp.arg(if accepted { "how" } else { "reason" }, detail);
            };
            for d in &prog.decisions {
                span("vm.simd", d.prof, d.accepted, &d.detail);
            }
            for p in &prog.par_sites {
                match prog.refusal(p) {
                    Some(why) => span("vm.parallel", p.prof, false, why),
                    None => span("vm.parallel", p.prof, true, &format!("cost={}", p.cost)),
                }
            }
        }
        if let Some(m) = metrics {
            if let Some(t) = st.tally.take() {
                for (i, name) in VEC_KERNEL_NAMES.iter().enumerate() {
                    if t.vec[i] > 0 {
                        m.counter(&format!("vm.kernel.{name}")).add(t.vec[i]);
                    }
                }
                if t.par_pool > 0 {
                    m.counter("vm.par.pool").add(t.par_pool);
                }
                if t.par_serial > 0 {
                    m.counter("vm.par.serial").add(t.par_serial);
                }
            }
            if let Some(before) = &pool_before {
                crate::engine::record_pool_delta(m, before);
            }
        }
        crate::arena::return_pool(st.arena.take(), metrics, rctx);
        exec_r?;
        let outputs = resolved.outputs(inputs, |i| {
            let slot = compiled.params[i].0;
            st.tensors[slot].take().expect("params stay live").val
        });
        Ok(RunResult {
            outputs,
            counters: PerfCounters::default(),
        })
    }
}

/// Execute a function on the VM and return its outputs.
///
/// # Errors
///
/// The same [`RuntimeError`] conditions as [`VmRuntime::run`].
pub fn run_vm(
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    sizes: &HashMap<String, i64>,
) -> Result<HashMap<String, TensorVal>, RuntimeError> {
    VmRuntime::new().run(func, inputs, sizes).map(|r| r.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    pub(super) use crate::interp::Runtime;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;
    pub(super) use ft_metrics::Metrics;
    pub(super) use ft_trace::TraceSink;

    pub(super) fn maps(
        inputs: &[(&str, TensorVal)],
        sizes: &[(&str, i64)],
    ) -> (HashMap<String, TensorVal>, HashMap<String, i64>) {
        (
            inputs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            sizes.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        )
    }

    /// The VM's contract: run `f` on the VM and `lower_cpu_parallel(f)` on
    /// the interpreter; outputs must be bit-identical and the VM must
    /// report no counters. Returns the interpreter's result.
    pub(super) fn assert_parity(
        f: &Func,
        inputs: &[(&str, TensorVal)],
        sizes: &[(&str, i64)],
    ) -> RunResult {
        let (ins, szs) = maps(inputs, sizes);
        let lowered = ft_codegen::lower_cpu_parallel(f);
        let ri = Runtime::new().run(&lowered, &ins, &szs).expect("interp ok");
        let rv = VmRuntime::new().run(f, &ins, &szs).expect("vm ok");
        assert_eq!(ri.outputs, rv.outputs, "vm outputs differ");
        assert_eq!(rv.counters, PerfCounters::default(), "the vm must not count");
        ri
    }

    #[test]
    fn fast_vm_matches_interp_on_affine_elementwise() {
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
        let x = TensorVal::from_f32(&[100], (0..100).map(|v| v as f32 * 0.25).collect());
        let r = assert_parity(&f, &[("x", x)], &[("n", 100)]);
        assert_eq!(r.output("y").get_flat(4).as_f64(), 3.0);
    }

    #[test]
    fn nested_tiled_loops_with_runtime_strides() {
        // Transposed read: the `j` stride in `x` is the runtime size `n`,
        // so strength reduction must probe the stride numerically.
        let f = Func::new("transpose")
            .param("x", [var("m"), var("n")], DataType::F64, AccessType::Input)
            .param("y", [var("n"), var("m")], DataType::F64, AccessType::Output)
            .size_param("m")
            .size_param("n")
            .body(for_(
                "i",
                0,
                var("m"),
                for_(
                    "j",
                    0,
                    var("n"),
                    store(
                        "y",
                        [var("j"), var("i")],
                        load("x", [var("i"), var("j")]) * 3.0f64,
                    ),
                ),
            ));
        let x = TensorVal::from_f64(&[5, 7], (0..35).map(|v| v as f64).collect());
        let r = assert_parity(&f, &[("x", x)], &[("m", 5), ("n", 7)]);
        // y[j, i] = 3 * x[i, j] = 3 * (i*7 + j)
        assert_eq!(r.output("y").get(&[6, 4]).as_f64(), 3.0 * (4.0 * 7.0 + 6.0));
    }

    #[test]
    fn gather_guards_and_select_take_generic_path() {
        let f = Func::new("gather")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("idx", [4], DataType::I64, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                if_(
                    load("idx", [var("i")]).ge(0),
                    store(
                        "y",
                        [var("i")],
                        Expr::select(
                            load("x", [load("idx", [var("i")])]).gt(2.0f32),
                            load("x", [load("idx", [var("i")])]),
                            Expr::from(-1.0f32),
                        ),
                    ),
                ),
            ));
        let x = TensorVal::from_f32(&[8], (0..8).map(|v| v as f32).collect());
        let idx = TensorVal::from_i64(&[4], vec![7, 0, 3, 2]);
        let r = assert_parity(&f, &[("x", x), ("idx", idx)], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![7.0, -1.0, 3.0, -1.0]);
    }

    /// One function mixing GPU-scoped loops, a vectorized reduction,
    /// scratch memory, float and int reductions, casts, intrinsics, `Pow`
    /// and `Mod`.
    fn mixed_workload() -> Func {
        let vec_prop = ForProperty {
            vectorize: true,
            ..ForProperty::serial()
        };
        let cpu_part = block([
            for_with(
                "i",
                0,
                64,
                ForProperty::parallel(ParallelScope::OpenMp),
                store(
                    "y",
                    [var("i")],
                    intrin::sqrt(intrin::abs(load("x", [var("i")])))
                        + intrin::sigmoid(load("x", [var("i")]))
                            * Expr::cast(DataType::F32, var("i").rem(7)),
                ),
            ),
            for_with(
                "v",
                0,
                64,
                vec_prop,
                reduce(
                    "acc",
                    [0],
                    ReduceOp::Add,
                    load("y", [var("v")]) * load("y", [var("v")]),
                ),
            ),
            for_(
                "j",
                0,
                8,
                reduce(
                    "zi",
                    [0],
                    ReduceOp::Max,
                    Expr::binary(BinaryOp::Pow, var("j"), 2.into())
                        - Expr::binary(BinaryOp::Mod, var("j"), 3.into()),
                ),
            ),
            var_def(
                "scratch",
                [16],
                DataType::F32,
                MemType::CpuStack,
                block([
                    for_("s", 0, 16, store("scratch", [var("s")], var("s") * 2)),
                    for_(
                        "s2",
                        0,
                        16,
                        reduce("acc", [0], ReduceOp::Add, load("scratch", [var("s2")])),
                    ),
                ]),
            ),
        ]);
        let gpu_part = for_with(
            "b",
            0,
            4,
            ForProperty::parallel(ParallelScope::CudaBlockX),
            for_with(
                "t",
                0,
                8,
                ForProperty::parallel(ParallelScope::CudaThreadX),
                store("g", [var("b") * 8 + var("t")], var("b") + var("t")),
            ),
        );
        Func::new("mix")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .param("acc", [1], DataType::F32, AccessType::Output)
            .param("zi", [1], DataType::I64, AccessType::Output)
            .param_on(
                "g",
                [32],
                DataType::F32,
                MemType::GpuGlobal,
                AccessType::Output,
            )
            .body(block([cpu_part, gpu_part]))
    }

    #[test]
    fn mixed_workload_matches_interp_and_emits_a_vm_span() {
        let x = TensorVal::from_f32(&[64], (0..64).map(|v| (v as f32 - 31.0) * 0.5).collect());
        let f = mixed_workload();
        assert_parity(&f, &[("x", x.clone())], &[]);

        let (ins, szs) = maps(&[("x", x)], &[]);
        let sink = TraceSink::new();
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(sink.clone()));
        vm.run(&f, &ins, &szs).expect("vm ok");
        let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
        assert!(
            names.iter().any(|n| n == "vm mix"),
            "expected a vm span, got {names:?}"
        );
    }

    #[test]
    fn a_select_of_mixed_arms_runs_on_the_vm_in_the_nodes_type() {
        // `select(i < 2, i, 0.5)` is a float (`Expr::dtype`, C's `?:`), so
        // `/ 2` divides floats: 1 / 2 is 0.5, not the integer 0.
        let f = Func::new("mixsel")
            .param("y", [4], DataType::F64, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                store(
                    "y",
                    [var("i")],
                    Expr::select(var("i").lt(2), var("i"), Expr::from(0.5f64)) / 2,
                ),
            ));
        let r = assert_parity(&f, &[], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0, 0.5, 0.25, 0.25]);
    }

    /// The `vectorize` decision log of `f`, as (accepted, detail).
    pub(super) fn decisions_of(f: &Func) -> Vec<(bool, String)> {
        let c = crate::compiled::compile(f).unwrap();
        let prog = compile_program(&c, f);
        prog.decisions
            .iter()
            .map(|d| (d.accepted, d.detail.clone()))
            .collect()
    }

    /// What `exec_region` is told about each region of `f`, in site order.
    pub(super) fn refusals_of(f: &Func) -> Vec<Option<String>> {
        let c = crate::compiled::compile(f).unwrap();
        let prog = compile_program(&c, f);
        let sites = prog.par_sites.iter();
        sites.map(|p| prog.refusal(p).map(str::to_string)).collect()
    }

    /// `target[index] op= value`, flagged `atomic`: what `parallelize` leaves
    /// of a reduction its loop carries.
    pub(super) fn atomic_reduce(target: &str, index: Expr, op: ReduceOp, value: Expr) -> Stmt {
        Stmt::new(StmtKind::ReduceTo {
            var: target.to_string(),
            indices: vec![index],
            op,
            value,
            atomic: true,
        })
    }
}
