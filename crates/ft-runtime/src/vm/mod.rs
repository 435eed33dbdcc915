//! A flat bytecode VM over the slot-indexed lowering in `crate::slots`.
//!
//! The tree-walking interpreter ([`crate::interp::Runtime`]) is the
//! *specification*: deterministic, fully instrumented, and deliberately
//! simple. It is also slow — every expression evaluation chases `Box`es,
//! re-matches enum variants, and re-folds multi-dimensional indices. This
//! module lowers a `Compiled` function once more into a linear instruction
//! stream over a flat `u64` register file, executed by a single dispatch
//! loop with explicit jump offsets: no recursion, no allocation per
//! statement, no hash lookups.
//!
//! The VM is the *portable fallback* engine — a wall-clock execution path
//! for hosts without a C compiler — and a *back end*, not a second
//! runtime: like the compiled engine it executes the function
//! `ft_codegen::lower_and_plan` returns, on the crate's [`TensorVal`] and
//! `arena::TensorPool`. So what is decided on the IR is decided once, for
//! both: how a parallel reduction is realized (chunk-private rows merged in
//! chunk order, or a serial loop); whether a marked loop may run in
//! parallel (`ft_codegen::prove_parallel`, in the resolve both share, see
//! [`crate::bind`]; the VM runs every `OpenMp` loop it is given as a region
//! on the [`WorkerPool`]); and which values leave a loop, are computed
//! once or accumulate in a register (`ft_codegen::lower_scalar`). A
//! register of the IR — a 0-d `CpuStack` def — is a machine register here,
//! with no buffer. The VM models no device: counters, the cache simulator,
//! device capacities and per-statement profiling belong to the interpreter
//! alone, and [`RunResult::counters`] comes back defaulted.
//!
//! It keeps three fast paths, each because it pays at least 1.5× on the
//! program it helps most (EXPERIMENTS.md, "What the VM's fast paths buy"):
//! affine tensor indices inside the innermost loop — over iterators, sizes
//! and integer registers the loop does not write — are strength-reduced to
//! a per-iteration induction increment (`off += stride`) set up in a loop
//! preheader; a `vectorize` loop whose body is an `axpy` or a `dot` runs as
//! one fused kernel (`kernels.rs`); and a proven parallel region forks onto
//! the pool. Any other `vectorize` body compiles as if unmarked, and a
//! region that runs inline runs its own bytecode body.
//!
//! Every program is statically typed, and the VM infers no type: parameters
//! hold their declared dtype (an input of another dtype is converted when
//! it is bound, [`crate::bind`]), and the slot lowering states every
//! conversion, so each node's operands arrive in the [`Kind`] it computes
//! in (`scalar::unary_kind`, `scalar::binary_kind`) and a value stored
//! arrives in its tensor's. The VM picks each instruction by its operands'
//! kind and runs every program itself, behind the same [`ExecutionEngine`]
//! contract as the other two engines.
//!
//! ## The contract, and known, documented divergences
//!
//! On programs that *succeed*, outputs are bit-identical to the interpreter
//! run on `lower_cpu_parallel(func)`, run to run and at any worker count
//! (the differential fuzz suite asserts this; the scalar lowering changes
//! no bit the interpreter computes). Where the lowering returns `func`
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
//! * A value the scalar lowering hoists is evaluated in front of its loop,
//!   which certainly runs and evaluates it unconditionally: a fault it
//!   raises is the first iteration's, raised before that iteration's other
//!   side effects.

mod exec;
mod kernels;
mod lower;

use exec::*;
use lower::*;

use crate::arena::{RunContext, TensorPool};
use crate::bind::Resolved;
use crate::counters::PerfCounters;
use crate::engine::{Backend, ExecutionEngine};
use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::libkernel::matmul_checked;
use crate::pool::{grain_for, PoolStatsSnapshot, WorkerPool};
use crate::slots::{CExpr, CStmt, Compiled};
use crate::value::{lanes, Data, Scalar, TensorVal};
use ft_ir::scalar::{self, Kind};
use ft_ir::{BinaryOp, DataType, ParallelScope, ReduceOp, StmtId, UnaryOp};
use ft_trace::{TraceSink, TRACK_RUNTIME};
use parking_lot::Mutex;
use std::collections::HashMap;

/// One VM instruction. Register operands are indices into a flat `u64`
/// file; the first `n_scalars` registers are the scalar slots of the
/// lowering (loop iterators and size parameters, always [`Kind::Int`]).
#[derive(Debug, Clone)]
enum Instr {
    /// A constant, as its register holds it.
    Const {
        dst: u32,
        bits: u64,
    },
    Mov {
        dst: u32,
        src: u32,
    },
    /// `dst += v` (wrapping). Loop increment and preheader probe.
    AddImmI {
        dst: u32,
        v: i64,
    },

    /// The operators that are the machine's own — integer `+ - *`, float
    /// `+ - * /` — each under an opcode of its own. Induction latches and
    /// the bulk of every loop body are these seven, and a second dispatch
    /// on the operator cost the four workloads 25–45 % (EXPERIMENTS.md).
    /// Their arms still call the table, with the operator a constant.
    AddI {
        dst: u32,
        a: u32,
        b: u32,
    },
    SubI {
        dst: u32,
        a: u32,
        b: u32,
    },
    MulI {
        dst: u32,
        a: u32,
        b: u32,
    },
    AddF {
        dst: u32,
        a: u32,
        b: u32,
    },
    SubF {
        dst: u32,
        a: u32,
        b: u32,
    },
    MulF {
        dst: u32,
        a: u32,
        b: u32,
    },
    DivF {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// The other integer operators, `Div`..`Max`, by [`scalar::int_binary`]
    /// (floor `Div`/`Mod`; a zero divisor is the run's `DivisionByZero`).
    BinI {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// The other float operators, `Mod`..`Pow`, by [`scalar::float_binary`].
    BinF {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `And`/`Or` by [`scalar::logic`].
    BinB {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// A comparison of two `Int`s, exact ([`scalar::compare`]).
    CmpI {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// A comparison of any other pair, both converted to `f64`.
    CmpF {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Integer `Neg`/`Abs`/`Sign` by [`scalar::int_unary`].
    UnI {
        op: UnaryOp,
        dst: u32,
        a: u32,
    },
    /// Every float unary by [`scalar::float_unary`].
    UnF {
        op: UnaryOp,
        dst: u32,
        a: u32,
    },
    Not {
        dst: u32,
        a: u32,
    },
    /// [`scalar::cast`] of a register of kind `from` to `to`.
    Cast {
        to: DataType,
        from: Kind,
        dst: u32,
        a: u32,
    },

    Jmp {
        to: u32,
    },
    BrFalse {
        cond: u32,
        to: u32,
    },
    /// Loop guard: jump if `regs[a] >= regs[b]` (as `i64`).
    BrGeI {
        a: u32,
        b: u32,
        to: u32,
    },

    /// Row-major fold of `ndim` index registers starting at `idx`, with
    /// per-dimension bounds checks (the interpreter's `bounds_check`).
    Off {
        t: u32,
        idx: u32,
        ndim: u8,
        dst: u32,
    },
    /// Same fold, wrapping and unchecked — preheader stride probes only.
    OffRaw {
        t: u32,
        idx: u32,
        ndim: u8,
        dst: u32,
    },
    LoadT {
        t: u32,
        off: u32,
        dst: u32,
    },
    /// Strength-reduced load: flat offset checked against `numel` only.
    LoadFlat {
        t: u32,
        off: u32,
        dst: u32,
    },
    /// Stores and reductions of a register of the tensor's kind.
    StoreT {
        t: u32,
        off: u32,
        src: u32,
    },
    StoreFlat {
        t: u32,
        off: u32,
        src: u32,
    },
    ReduceT {
        t: u32,
        off: u32,
        src: u32,
        op: ReduceOp,
    },
    ReduceFlat {
        t: u32,
        off: u32,
        src: u32,
        op: ReduceOp,
    },

    /// The `VarDef` of slot `t` ([`VmProgram::defs`] names its statement).
    Alloc {
        t: u32,
        shape: u32,
        ndim: u8,
        dtype: DataType,
    },
    Free {
        t: u32,
    },
    LibCall {
        id: u32,
    },

    /// A whole innermost `vectorize`-marked `axpy` or `dot` loop fused into
    /// one wide kernel dispatch ([`VecSite`]). Carries no jump targets, so it
    /// relocates freely inside enclosing loop bodies.
    VecLoop {
        site: u32,
    },
    /// A whole `OpenMp` loop run as a fork-join region on the
    /// persistent worker pool ([`ParSite`]).
    ParRegion {
        site: u32,
    },
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
    /// invariant float multiplier `a` (`a_lhs` records the operand order so
    /// NaN propagation matches the serial multiply).
    Axpy {
        dst: VecAccess,
        x: VecAccess,
        a: Option<u32>,
        a_lhs: bool,
    },
    /// `acc += x[k] * y[k]` — a loop-carried dot product into register
    /// `dst` of `dtype` (`ft_codegen::lower_scalar` keeps every element a
    /// `vectorize` loop folds into in a register, or clears the mark).
    Dot {
        dst: u32,
        dtype: DataType,
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
    code: Vec<Instr>,
    /// The defining statement of each tensor slot a `VarDef` allocates: its
    /// entry of the memory plan.
    defs: Vec<Option<StmtId>>,
    n_regs: usize,
    lib_sites: Vec<LibSite>,
    vec_sites: Vec<VecSite>,
    par_sites: Vec<ParSite>,
    decisions: Vec<LowerDecision>,
}

/// The bytecode execution engine: the portable fallback, with the same
/// [`ExecutionEngine`] contract as the compiled engine.
///
/// A trace sink ([`ExecutionEngine::set_sink`]) records a `"vm <name>"`
/// runtime span per run plus one `vm.lower` span per `vectorize` decision
/// (the parallel marks the resolve made serial are its `lower.parallel`
/// decisions, on both engines). A metrics registry records an
/// `engine.vm.run_us` wall histogram, fused-kernel dispatch counters
/// (`vm.kernel.{axpy,dot}`) with an `engine.vm.kernel_ns` dispatch-wall
/// histogram, parallel-region scheduling counters (`vm.par.{pool,serial}`)
/// and worker-pool claim counters.
#[derive(Debug, Clone, Default)]
pub struct VmRuntime {
    sink: Option<TraceSink>,
}

impl VmRuntime {
    /// A VM with no sink and no metrics registry.
    pub fn new() -> VmRuntime {
        VmRuntime::default()
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
        let (sink, metrics) = (self.log(), self.registry());
        let func = resolved.func();
        let compiled = crate::slots::compile(func)?;
        let prog = compile_program(&compiled);
        let _span = sink.map(|s| s.span_on(TRACK_RUNTIME, "runtime", &format!("vm {}", func.name)));
        let mut st = VmState {
            names: &compiled.tensor_names,
            regs: vec![0; prog.n_regs],
            tensors: (0..compiled.n_tensors).map(|_| None).collect(),
            shared: None,
            tally: metrics.map(|m| VmTally {
                vec: [0; VEC_KERNEL_NAMES.len()],
                par_pool: 0,
                par_serial: 0,
                pool: PoolStatsSnapshot::default(),
                kernel_ns: m.histogram("engine.vm.kernel_ns"),
            }),
            // `VarDef` buffers come from the context's pool, by the plan's
            // interference classes.
            arena: Some(rctx.take_tensor_pool(resolved.plan())),
        };
        for (slot, v) in compiled.size_slots.iter().zip(resolved.sizes()) {
            st.regs[*slot] = *v as u64;
        }
        st.bind_params(&compiled, resolved, inputs, rctx);
        let exec_r = st.exec_code(&prog.code, &prog);
        // One span per lowering decision, so a trace explains which loops
        // became wide kernels and why the rest did not.
        if let Some(sink) = sink {
            for d in &prog.decisions {
                let mut sp = sink.span_on(TRACK_RUNTIME, "vm.lower", "vm.simd");
                sp.arg("target", &compiled.prof_nodes[d.prof].desc);
                sp.arg("accepted", d.accepted);
                sp.arg(if d.accepted { "how" } else { "reason" }, &d.detail);
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
                crate::engine::record_pool_stats(m, &t.pool);
            }
        }
        rctx.tensor_pool = st.arena.take();
        exec_r?;
        let outputs = resolved.outputs(inputs, |i| {
            let slot = compiled.params[i].0;
            st.tensors[slot]
                .take()
                .expect("params stay live")
                .val
                .into_owned()
        });
        Ok(RunResult {
            outputs,
            counters: PerfCounters::default(),
        })
    }
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
        assert_eq!(
            rv.counters,
            PerfCounters::default(),
            "the vm must not count"
        );
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
        let (lowered, _) = ft_codegen::lower_and_plan(f, &HashMap::new());
        let c = crate::slots::compile(&lowered).unwrap();
        let prog = compile_program(&c);
        prog.decisions
            .iter()
            .map(|d| (d.accepted, d.detail.clone()))
            .collect()
    }

    /// Why the VM's resolve made each loop of `f` it could not prove
    /// serial, in loop order.
    pub(super) fn serialized_of(f: &Func) -> Vec<String> {
        let r = VmRuntime::new().resolve(f, &HashMap::new()).unwrap();
        r.serialized().iter().map(|s| s.reason.clone()).collect()
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
