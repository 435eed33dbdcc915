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
//! the IR, for both; the VM only proves the writes of a marked loop
//! disjoint and runs it on the [`WorkerPool`]. It models no device:
//! counters, the cache simulator and per-statement profiling belong to the
//! interpreter alone, and [`RunResult::counters`] comes back defaulted
//! (only the capacity accounting that reproduces out-of-memory errors
//! remains). Affine tensor indices inside the innermost loop are
//! strength-reduced to a per-iteration induction increment
//! (`off += stride`) hoisted into a loop preheader.
//!
//! Programs the static compiler cannot type (currently: `Select` whose arms
//! evaluate to different runtime scalar kinds) and runs whose supplied
//! input dtypes differ from the declared parameter dtypes fall back
//! transparently to the interpreter, on the same lowered function, so
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
//! * `VarDef`/parameter shapes are evaluated dimension-at-a-time by the
//!   interpreter (erroring before later dimensions run) but
//!   all-dims-then-convert by the VM.
//! * Integer overflow wraps in the VM (as it does in interpreter release
//!   builds) where a debug-build interpreter would panic.
//! * The VM hoists loop-invariant index arithmetic — including loads
//!   from tensors the loop does not write, for accesses executed
//!   unconditionally on every iteration — into the loop preheader. The
//!   hoisted code only runs when the loop has at least one iteration, so
//!   every fault it can raise is one the first iteration would raise too,
//!   but it runs *before* that iteration's other side effects, so an
//!   erroring program may report a different (still-legitimate) error than
//!   the interpreter.

use crate::arena::TensorPool;
use crate::compiled::Compiled;
use crate::counters::PerfCounters;
use crate::device::DeviceConfig;
use crate::error::RuntimeError;
use crate::interp::{RunResult, Runtime};
use crate::libkernel::matmul_checked;
use crate::pool::{grain_for, WorkerPool};
use crate::value::{lanes, Data, Scalar, TensorVal};
use ft_ir::{AccessType, BinaryOp, DataType, Device, Func, MemType, ParallelScope, ReduceOp, UnaryOp};
use ft_metrics::Metrics;
use ft_trace::{TraceSink, TRACK_RUNTIME};
use parking_lot::Mutex;
use std::collections::HashMap;

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

    AddI { dst: u32, a: u32, b: u32 },
    SubI { dst: u32, a: u32, b: u32 },
    MulI { dst: u32, a: u32, b: u32 },
    DivI { dst: u32, a: u32, b: u32 },
    ModI { dst: u32, a: u32, b: u32 },
    MinI { dst: u32, a: u32, b: u32 },
    MaxI { dst: u32, a: u32, b: u32 },
    PowI { dst: u32, a: u32, b: u32 },

    AddF { dst: u32, a: u32, b: u32 },
    SubF { dst: u32, a: u32, b: u32 },
    MulF { dst: u32, a: u32, b: u32 },
    DivF { dst: u32, a: u32, b: u32 },
    ModF { dst: u32, a: u32, b: u32 },
    MinF { dst: u32, a: u32, b: u32 },
    MaxF { dst: u32, a: u32, b: u32 },
    PowF { dst: u32, a: u32, b: u32 },

    NegI { dst: u32, a: u32 },
    NegF { dst: u32, a: u32 },
    AbsI { dst: u32, a: u32 },
    AbsF { dst: u32, a: u32 },
    SignI { dst: u32, a: u32 },
    SignF { dst: u32, a: u32 },
    NotB { dst: u32, a: u32 },
    SqrtF { dst: u32, a: u32 },
    ExpF { dst: u32, a: u32 },
    LnF { dst: u32, a: u32 },
    SigmoidF { dst: u32, a: u32 },
    TanhF { dst: u32, a: u32 },

    /// Comparisons over `f64` operands (the interpreter compares `as_f64`).
    EqF { dst: u32, a: u32, b: u32 },
    NeF { dst: u32, a: u32, b: u32 },
    LtF { dst: u32, a: u32, b: u32 },
    LeF { dst: u32, a: u32, b: u32 },
    GtF { dst: u32, a: u32, b: u32 },
    GeF { dst: u32, a: u32, b: u32 },
    AndB { dst: u32, a: u32, b: u32 },
    OrB { dst: u32, a: u32, b: u32 },

    IToF { dst: u32, a: u32 },
    BToF { dst: u32, a: u32 },
    BToI { dst: u32, a: u32 },
    FToI { dst: u32, a: u32 },
    IToB { dst: u32, a: u32 },
    FToB { dst: u32, a: u32 },
    /// `x as f32 as f64` — the F32 cast.
    RoundF32 { dst: u32, a: u32 },
    /// `x as i32 as i64` — the I32 cast.
    TruncI32 { dst: u32, a: u32 },

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
    BindParam { p: u32, shape: u32, ndim: u8 },
    LibCall { id: u32 },

    /// A whole innermost `vectorize`-marked loop fused into one
    /// wide kernel dispatch ([`VecSite`]). Carries no jump targets, so it
    /// relocates freely inside enclosing loop bodies.
    VecLoop { site: u32 },
    /// A whole `OpenMp` loop run as a fork-join region on the
    /// persistent worker pool ([`ParSite`]).
    ParRegion { site: u32 },
    Halt,
}

/// Marker: the program uses a construct the static compiler cannot type;
/// the caller falls back to the interpreter. Carries a stable machine-
/// readable reason naming the construct (reported as the `reason` arg of
/// the `vm.fallback` trace span — no fallback is silent).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unsupported(pub(crate) &'static str);

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

/// The fused inner-loop shapes the vectorizer recognizes. Float reduction
/// kernels preserve the interpreter's serial-order combines and per-step
/// storage rounding (see [`crate::value::lanes`]), so accepting a kernel
/// never changes results — only dispatch cost.
#[derive(Debug, Clone)]
enum VecKernel {
    /// `dst[k] = v` with `v` loop-invariant (hoisted into register `src`).
    Fill { dst: VecAccess, src: u32, sty: Ty },
    /// `dst[k] = x[k]` (dtype conversion through the scalar widen/narrow).
    Copy { dst: VecAccess, x: VecAccess },
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
    /// `acc op= x[k]` — loop-carried horizontal reduction (Add/Min/Max).
    HReduce {
        dst: VecAccess,
        x: VecAccess,
        op: ReduceOp,
    },
}

/// Names of the fused kernels: the `vm.simd` decision detail and the
/// `vm.kernel.*` metric suffix, in [`VecKernel::idx`] order.
const VEC_KERNEL_NAMES: [&str; 5] = ["fill", "copy", "axpy", "dot", "hreduce"];

impl VecKernel {
    /// This kernel's place in [`VEC_KERNEL_NAMES`] and [`VmTally::vec`].
    fn idx(&self) -> usize {
        match self {
            VecKernel::Fill { .. } => 0,
            VecKernel::Copy { .. } => 1,
            VecKernel::Axpy { .. } => 2,
            VecKernel::Dot { .. } => 3,
            VecKernel::HReduce { .. } => 4,
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
    /// storage, written disjointly.
    local_mask: Vec<bool>,
    /// Static body cost (instruction count) feeding the grain heuristic.
    cost: u32,
}

/// One lowering decision (a `vectorize` or parallel-region attempt),
/// surfaced as a `vm.simd` / `vm.parallel` trace span with a structured
/// acceptance or rejection reason.
#[derive(Debug, Clone)]
struct LowerDecision {
    kind: &'static str,
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
    n_regs: usize,
    lib_sites: Vec<LibSite>,
    vec_sites: Vec<VecSite>,
    par_sites: Vec<ParSite>,
    decisions: Vec<LowerDecision>,
}

/// Per-open-loop compile state for strength reduction.
struct LoopCtx {
    /// Scalar slot of the loop iterator.
    s: usize,
    /// `Compiler::cond_depth` at loop entry; an access compiled while the
    /// depth is back at this value executes unconditionally every iteration.
    cond_base: usize,
    /// Tensor slots the loop body writes (stores, reduces, `LibCall`
    /// outputs, and `VarDef`s) — loads from any other tensor are
    /// loop-invariant.
    writes: std::collections::HashSet<usize>,
    /// Whether the preheader contains instructions that can fault (hoisted
    /// invariant loads / integer division); if so the preheader must be
    /// skipped for zero-trip loops.
    faulty_preheader: bool,
    /// Instructions to run once at loop entry (after `s = begin`).
    preheader: Vec<Instr>,
    /// Induction increments to run at the end of every iteration.
    latches: Vec<Instr>,
}

impl LoopCtx {
    fn new(s: usize, cond_base: usize, writes: std::collections::HashSet<usize>) -> LoopCtx {
        LoopCtx {
            s,
            cond_base,
            writes,
            faulty_preheader: false,
            preheader: Vec::new(),
            latches: Vec::new(),
        }
    }
}

/// Call `f` on `s` and on every statement nested in it.
fn for_each_stmt(s: &crate::compiled::CStmt, f: &mut impl FnMut(&crate::compiled::CStmt)) {
    use crate::compiled::CStmt as S;
    f(s);
    match s {
        S::Nop | S::Store { .. } | S::Reduce { .. } | S::LibCall { .. } => {}
        S::Seq(v) => v.iter().for_each(|st| for_each_stmt(st, f)),
        S::VarDef { body, .. } | S::For { body, .. } => for_each_stmt(body, f),
        S::If {
            then, otherwise, ..
        } => {
            for_each_stmt(then, f);
            if let Some(o) = otherwise {
                for_each_stmt(o, f);
            }
        }
    }
}

/// Collect every tensor slot `s` can write (or reallocate).
fn collect_writes(s: &crate::compiled::CStmt, out: &mut std::collections::HashSet<usize>) {
    use crate::compiled::CStmt as S;
    for_each_stmt(s, &mut |st| match st {
        S::VarDef { t, .. } | S::Store { t, .. } | S::Reduce { t, .. } => {
            out.insert(*t);
        }
        S::LibCall { outputs, .. } => out.extend(outputs.iter().copied()),
        _ => {}
    });
}

struct Compiler {
    buf: Vec<Instr>,
    /// Next free register (stack-discipline temporaries).
    next: u32,
    /// Registers below this are permanently reserved (persists).
    floor: u32,
    max_regs: u32,
    loops: Vec<LoopCtx>,
    /// Loop depth at which each tensor slot was defined (`Some(0)` for
    /// parameters), used to prove a tensor — and hence its shape — is
    /// invariant in the innermost loop.
    depth_of: Vec<Option<usize>>,
    /// Declared dtype per tensor slot (fixed by the lowering).
    tdtype: Vec<DataType>,
    /// Number of conditional constructs (`If` branches, `Select` arms)
    /// currently open; compared against `LoopCtx::cond_base` to decide
    /// whether an access executes unconditionally in its loop.
    cond_depth: usize,
    lib_sites: Vec<LibSite>,
    vec_sites: Vec<VecSite>,
    par_sites: Vec<ParSite>,
    decisions: Vec<LowerDecision>,
}

/// Tensor slots a region body defines locally (`VarDef`s).
fn collect_locals(s: &crate::compiled::CStmt, out: &mut std::collections::HashSet<usize>) {
    for_each_stmt(s, &mut |st| {
        if let crate::compiled::CStmt::VarDef { t, .. } = st {
            out.insert(*t);
        }
    });
}

/// Record every non-local tensor `e` loads from into `loaded`.
fn collect_loads(
    e: &crate::compiled::CExpr,
    locals: &std::collections::HashSet<usize>,
    loaded: &mut std::collections::HashSet<usize>,
) {
    use crate::compiled::CExpr as E;
    match e {
        E::Int(_) | E::Float(_) | E::Bool(_) | E::Scalar(_) => {}
        E::Load { t, idx } => {
            if !locals.contains(t) {
                loaded.insert(*t);
            }
            idx.iter().for_each(|i| collect_loads(i, locals, loaded));
        }
        E::Unary { a, .. } => collect_loads(a, locals, loaded),
        E::Binary { a, b, .. } => {
            collect_loads(a, locals, loaded);
            collect_loads(b, locals, loaded);
        }
        E::Select {
            cond,
            then,
            otherwise,
        } => {
            collect_loads(cond, locals, loaded);
            collect_loads(then, locals, loaded);
            collect_loads(otherwise, locals, loaded);
        }
        E::Cast { a, .. } => collect_loads(a, locals, loaded),
    }
}

/// Whether a write at `idx` provably touches distinct cells on distinct
/// iterations of the loop over scalar slot `s`: some index component must
/// be a pure, strictly affine function of `s`. Scatter writes (`y[idx[k]]`)
/// and divided/modded indices fail the test and serialize the region.
fn disjoint_by(idx: &[crate::compiled::CExpr], s: usize) -> bool {
    idx.iter()
        .any(|e| pure_total(e) && linear_in(e, s) && contains_scalar(e, s))
}

/// If `e` is a load whose index varies in `s`, return its target and index.
fn varying_load(
    e: &crate::compiled::CExpr,
    s: usize,
) -> Option<(usize, &[crate::compiled::CExpr])> {
    match e {
        crate::compiled::CExpr::Load { t, idx }
            if idx.iter().any(|i| contains_scalar(i, s)) =>
        {
            Some((*t, idx))
        }
        _ => None,
    }
}

/// Strip nested single-statement `Seq` wrappers.
fn unwrap_single(body: &crate::compiled::CStmt) -> &crate::compiled::CStmt {
    match body {
        crate::compiled::CStmt::Seq(v) if v.len() == 1 => unwrap_single(&v[0]),
        other => other,
    }
}

/// Whether `e` is total (cannot fault), pure (no memory reads) and integer
/// (never produces a `Float`/`Bool` that `as_i64` would bend nonlinearly):
/// safe to evaluate speculatively in a preheader, even for zero-trip loops.
fn pure_total(e: &crate::compiled::CExpr) -> bool {
    use crate::compiled::CExpr as E;
    use BinaryOp::*;
    match e {
        E::Int(_) | E::Scalar(_) => true,
        E::Unary { op, a } => {
            matches!(op, UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign) && pure_total(a)
        }
        E::Binary { op, a, b } => {
            matches!(op, Add | Sub | Mul | Min | Max) && pure_total(a) && pure_total(b)
        }
        _ => false,
    }
}

/// Whether scalar slot `s` appears anywhere in `e`.
fn contains_scalar(e: &crate::compiled::CExpr, s: usize) -> bool {
    use crate::compiled::CExpr as E;
    match e {
        E::Int(_) | E::Float(_) | E::Bool(_) => false,
        E::Scalar(x) => *x == s,
        E::Load { idx, .. } => idx.iter().any(|i| contains_scalar(i, s)),
        E::Unary { a, .. } => contains_scalar(a, s),
        E::Binary { a, b, .. } => contains_scalar(a, s) || contains_scalar(b, s),
        E::Select {
            cond,
            then,
            otherwise,
        } => {
            contains_scalar(cond, s) || contains_scalar(then, s) || contains_scalar(otherwise, s)
        }
        E::Cast { a, .. } => contains_scalar(a, s),
    }
}

/// Whether `e` (already known `pure_total`) is an affine function of scalar
/// slot `s`, with everything else loop-invariant.
fn linear_in(e: &crate::compiled::CExpr, s: usize) -> bool {
    use crate::compiled::CExpr as E;
    use BinaryOp::*;
    match e {
        E::Int(_) | E::Scalar(_) => true,
        E::Unary { op, a } => match op {
            UnaryOp::Neg => linear_in(a, s),
            _ => !contains_scalar(a, s),
        },
        E::Binary { op, a, b } => match op {
            Add | Sub => linear_in(a, s) && linear_in(b, s),
            Mul => {
                (linear_in(a, s) && !contains_scalar(b, s))
                    || (!contains_scalar(a, s) && linear_in(b, s))
            }
            Min | Max => !contains_scalar(a, s) && !contains_scalar(b, s),
            _ => false,
        },
        _ => false,
    }
}

fn reloc(mut ins: Instr, base: u32) -> Instr {
    match &mut ins {
        Instr::Jmp { to } | Instr::BrFalse { to, .. } | Instr::BrGeI { to, .. } => *to += base,
        _ => {}
    }
    ins
}

impl Compiler {
    fn emit(&mut self, i: Instr) {
        self.buf.push(i);
    }

    fn emit_idx(&mut self, i: Instr) -> usize {
        self.buf.push(i);
        self.buf.len() - 1
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.buf[at] {
            Instr::Jmp { to: t } | Instr::BrFalse { to: t, .. } | Instr::BrGeI { to: t, .. } => {
                *t = to
            }
            other => unreachable!("patch target is not a branch: {other:?}"),
        }
    }

    fn mark(&self) -> u32 {
        self.next
    }

    fn alloc_tmp(&mut self) -> u32 {
        let r = self.next;
        self.next += 1;
        if self.next > self.max_regs {
            self.max_regs = self.next;
        }
        r
    }

    /// Release temporaries back to `mark` (never below the persist floor).
    fn free_to(&mut self, mark: u32) {
        self.next = mark.max(self.floor);
    }

    /// Allocate a register that survives for the rest of the program.
    ///
    /// Persists must not collide with *any* temporary — including ones in
    /// code emitted earlier that re-executes every loop iteration (a loop
    /// body's early statements run again after a later statement's persist
    /// is installed). Allocating at the high watermark puts the persist
    /// above every register ever touched, and raising the floor keeps all
    /// future temporaries above it too. Registers skipped in between are
    /// leaked (8 bytes each, bounded by program size).
    fn alloc_persist(&mut self) -> u32 {
        let r = self.max_regs;
        self.max_regs = r + 1;
        self.floor = r + 1;
        self.next = r + 1;
        r
    }

    /// Emit a conversion between scalar kinds, mirroring the interpreter's
    /// `as_f64`/`as_i64`/`as_bool`.
    fn conv(&mut self, r: u32, from: Ty, to: Ty) -> u32 {
        if from == to {
            return r;
        }
        let dst = self.alloc_tmp();
        let ins = match (from, to) {
            (Ty::I, Ty::F) => Instr::IToF { dst, a: r },
            (Ty::B, Ty::F) => Instr::BToF { dst, a: r },
            (Ty::B, Ty::I) => Instr::BToI { dst, a: r },
            (Ty::F, Ty::I) => Instr::FToI { dst, a: r },
            (Ty::I, Ty::B) => Instr::IToB { dst, a: r },
            (Ty::F, Ty::B) => Instr::FToB { dst, a: r },
            _ => unreachable!(),
        };
        self.emit(ins);
        dst
    }

    /// Compile each index expression into a contiguous register block
    /// (converted to `i64`, preserving the interpreter's evaluation order).
    fn idx_block(&mut self, idx: &[crate::compiled::CExpr]) -> Result<u32, Unsupported> {
        let blk = self.next;
        for _ in idx {
            self.alloc_tmp();
        }
        for (d, e) in idx.iter().enumerate() {
            let mark = self.mark();
            let (r, t) = self.expr(e)?;
            let r = self.conv(r, t, Ty::I);
            self.emit(Instr::Mov {
                dst: blk + d as u32,
                src: r,
            });
            self.free_to(mark);
        }
        Ok(blk)
    }

    /// Statically inferred scalar kind of an expression, mirroring the
    /// typing rules `expr` compiles with.
    fn static_ty(&self, e: &crate::compiled::CExpr) -> Ty {
        use crate::compiled::CExpr as E;
        use BinaryOp::*;
        match e {
            E::Int(_) => Ty::I,
            E::Float(_) => Ty::F,
            E::Bool(_) => Ty::B,
            E::Scalar(_) => Ty::I,
            E::Load { t, .. } => ty_of(self.tdtype[*t]),
            E::Unary { op, a } => match op {
                UnaryOp::Not => Ty::B,
                UnaryOp::Sqrt
                | UnaryOp::Exp
                | UnaryOp::Ln
                | UnaryOp::Sigmoid
                | UnaryOp::Tanh => Ty::F,
                UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign => self.static_ty(a),
            },
            E::Binary { op, a, b } => match op {
                And | Or | Eq | Ne | Lt | Le | Gt | Ge => Ty::B,
                _ if self.static_ty(a) == Ty::F || self.static_ty(b) == Ty::F => Ty::F,
                _ => Ty::I,
            },
            E::Select { then, .. } => self.static_ty(then),
            E::Cast { dtype, .. } => ty_of(*dtype),
        }
    }

    /// Whether `e` is invariant in scalar slot `s` *and* safe to hoist into
    /// the loop preheader: it never references `s`, and every load it
    /// performs reads a tensor that exists before the loop and that the
    /// loop body does not write, so its value — and any fault it raises —
    /// is exactly that of the access's first-iteration evaluation.
    fn invariant_ok(
        &self,
        e: &crate::compiled::CExpr,
        s: usize,
        writes: &std::collections::HashSet<usize>,
    ) -> bool {
        use crate::compiled::CExpr as E;
        match e {
            E::Int(_) | E::Float(_) | E::Bool(_) => true,
            E::Scalar(x) => *x != s,
            E::Load { t, idx } => {
                !writes.contains(t)
                    && self.depth_of[*t].is_some_and(|d| d < self.loops.len())
                    && idx.iter().all(|i| self.invariant_ok(i, s, writes))
            }
            E::Unary { a, .. } => self.invariant_ok(a, s, writes),
            E::Binary { a, b, .. } => {
                self.invariant_ok(a, s, writes) && self.invariant_ok(b, s, writes)
            }
            E::Select {
                cond,
                then,
                otherwise,
            } => {
                self.invariant_ok(cond, s, writes)
                    && self.invariant_ok(then, s, writes)
                    && self.invariant_ok(otherwise, s, writes)
            }
            E::Cast { a, .. } => self.invariant_ok(a, s, writes),
        }
    }

    /// Affine-in-`s` check where `s`-free subtrees may be arbitrary
    /// hoistable invariants ([`Compiler::invariant_ok`]), as long as every
    /// node on the `s`-path stays integer-typed — a float on the path would
    /// round the truncated offset and break the two-point stride probe.
    fn linear_mixed(
        &self,
        e: &crate::compiled::CExpr,
        s: usize,
        writes: &std::collections::HashSet<usize>,
    ) -> bool {
        use crate::compiled::CExpr as E;
        use BinaryOp::*;
        if self.invariant_ok(e, s, writes) {
            return self.static_ty(e) != Ty::F;
        }
        match e {
            E::Scalar(x) => *x == s,
            E::Unary {
                op: UnaryOp::Neg,
                a,
            } => self.linear_mixed(a, s, writes),
            E::Binary { op, a, b } => match op {
                Add | Sub => {
                    self.linear_mixed(a, s, writes) && self.linear_mixed(b, s, writes)
                }
                Mul => {
                    (self.linear_mixed(a, s, writes)
                        && self.invariant_ok(b, s, writes)
                        && self.static_ty(b) != Ty::F)
                        || (self.invariant_ok(a, s, writes)
                            && self.static_ty(a) != Ty::F
                            && self.linear_mixed(b, s, writes))
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Try to strength-reduce an access to tensor `t` at `idx` against the
    /// innermost loop: returns the register holding the (incrementally
    /// maintained) flat offset, or `None` to take the generic path.
    ///
    /// The stride is measured *numerically* in the preheader — the offset is
    /// evaluated at `s` and `s + 1` and subtracted — which handles
    /// runtime-invariant coefficients (`i * n + j` with a size parameter
    /// `n`) that a compile-time constant folder could not. Structural
    /// linearity is still required, so the two probes fully determine the
    /// sequence (wrapping arithmetic keeps this exact mod 2^64).
    fn try_reduce(
        &mut self,
        t: usize,
        idx: &[crate::compiled::CExpr],
    ) -> Result<Option<u32>, Unsupported> {
        let Some((s, cond_base)) = self.loops.last().map(|l| (l.s, l.cond_base)) else {
            return Ok(None);
        };
        // The tensor (and hence its shape, which OffRaw reads at loop
        // entry) must exist before the loop starts.
        if self.depth_of[t].is_none_or(|d| d >= self.loops.len()) {
            return Ok(None);
        }
        // Two eligibility tiers: `simple` probes are pure arithmetic that
        // cannot fault, so they may run unconditionally in the preheader
        // even for zero-trip loops; `with_loads` probes additionally hoist
        // loop-invariant loads (gather rows, runtime strides read from
        // memory), which is only sound for accesses executed
        // unconditionally on every iteration — and obliges the preheader to
        // be skipped when the loop runs zero iterations.
        let simple = idx.iter().all(|e| pure_total(e) && linear_in(e, s));
        let with_loads = !simple && self.cond_depth == cond_base && {
            let lp = self.loops.last().expect("checked above");
            idx.iter().all(|e| {
                self.invariant_ok(e, s, &lp.writes) || self.linear_mixed(e, s, &lp.writes)
            })
        };
        if !(simple || with_loads) {
            return Ok(None);
        }
        if with_loads {
            self.loops
                .last_mut()
                .expect("checked above")
                .faulty_preheader = true;
        }
        let varying = idx.iter().any(|e| contains_scalar(e, s));
        let r_off = self.alloc_persist();
        let r_stride = if varying {
            Some(self.alloc_persist())
        } else {
            None
        };
        let mut pre = Vec::new();
        std::mem::swap(&mut self.buf, &mut pre);
        let mark = self.mark();
        let blk = self.idx_block(idx)?;
        self.emit(Instr::OffRaw {
            t: t as u32,
            idx: blk,
            ndim: idx.len() as u8,
            dst: r_off,
        });
        if let Some(rs) = r_stride {
            // stride = off(s + 1) - off(s), probed by nudging the iterator.
            self.emit(Instr::AddImmI {
                dst: s as u32,
                v: 1,
            });
            let blk2 = self.idx_block(idx)?;
            let t2 = self.alloc_tmp();
            self.emit(Instr::OffRaw {
                t: t as u32,
                idx: blk2,
                ndim: idx.len() as u8,
                dst: t2,
            });
            self.emit(Instr::AddImmI {
                dst: s as u32,
                v: -1,
            });
            self.emit(Instr::SubI {
                dst: rs,
                a: t2,
                b: r_off,
            });
        }
        self.free_to(mark);
        std::mem::swap(&mut self.buf, &mut pre);
        let lp = self.loops.last_mut().expect("checked above");
        lp.preheader.extend(pre);
        if let Some(rs) = r_stride {
            lp.latches.push(Instr::AddI {
                dst: r_off,
                a: r_off,
                b: rs,
            });
        }
        Ok(Some(r_off))
    }

    fn expr(&mut self, e: &crate::compiled::CExpr) -> Result<(u32, Ty), Unsupported> {
        use crate::compiled::CExpr as E;
        match e {
            E::Int(v) => {
                let dst = self.alloc_tmp();
                self.emit(Instr::ConstI { dst, v: *v });
                Ok((dst, Ty::I))
            }
            E::Float(v) => {
                let dst = self.alloc_tmp();
                self.emit(Instr::ConstF { dst, v: *v });
                Ok((dst, Ty::F))
            }
            E::Bool(v) => {
                let dst = self.alloc_tmp();
                self.emit(Instr::ConstB { dst, v: *v });
                Ok((dst, Ty::B))
            }
            // Scalar slots are read-only to expressions; return the slot
            // register itself.
            E::Scalar(s) => Ok((*s as u32, Ty::I)),
            E::Load { t, idx } => {
                let ty = ty_of(self.tdtype[*t]);
                if let Some(off) = self.try_reduce(*t, idx)? {
                    let dst = self.alloc_tmp();
                    self.emit(Instr::LoadFlat {
                        t: *t as u32,
                        off,
                        dst,
                    });
                    Ok((dst, ty))
                } else {
                    let mark = self.mark();
                    let blk = self.idx_block(idx)?;
                    let roff = self.alloc_tmp();
                    self.emit(Instr::Off {
                        t: *t as u32,
                        idx: blk,
                        ndim: idx.len() as u8,
                        dst: roff,
                    });
                    self.free_to(mark);
                    let dst = self.alloc_tmp();
                    self.emit(Instr::LoadT {
                        t: *t as u32,
                        off: roff,
                        dst,
                    });
                    Ok((dst, ty))
                }
            }
            E::Unary { op, a } => {
                let mark = self.mark();
                let (ra, ta) = self.expr(a)?;
                use UnaryOp::*;
                match op {
                    // The interpreter's catch-all passes Bool operands
                    // through Neg/Abs/Sign unchanged.
                    Neg | Abs | Sign if ta == Ty::B => Ok((ra, Ty::B)),
                    Neg | Abs | Sign => {
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(match (op, ta) {
                            (Neg, Ty::F) => Instr::NegF { dst, a: ra },
                            (Neg, _) => Instr::NegI { dst, a: ra },
                            (Abs, Ty::F) => Instr::AbsF { dst, a: ra },
                            (Abs, _) => Instr::AbsI { dst, a: ra },
                            (Sign, Ty::F) => Instr::SignF { dst, a: ra },
                            (_, _) => Instr::SignI { dst, a: ra },
                        });
                        Ok((dst, ta))
                    }
                    Not => {
                        let ca = self.conv(ra, ta, Ty::B);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(Instr::NotB { dst, a: ca });
                        Ok((dst, Ty::B))
                    }
                    Sqrt | Exp | Ln | Sigmoid | Tanh => {
                        let ca = self.conv(ra, ta, Ty::F);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(match op {
                            Sqrt => Instr::SqrtF { dst, a: ca },
                            Exp => Instr::ExpF { dst, a: ca },
                            Ln => Instr::LnF { dst, a: ca },
                            Sigmoid => Instr::SigmoidF { dst, a: ca },
                            _ => Instr::TanhF { dst, a: ca },
                        });
                        Ok((dst, Ty::F))
                    }
                }
            }
            E::Binary { op, a, b } => {
                let mark = self.mark();
                let (ra, ta) = self.expr(a)?;
                let (rb, tb) = self.expr(b)?;
                use BinaryOp::*;
                match op {
                    And | Or => {
                        let ca = self.conv(ra, ta, Ty::B);
                        let cb = self.conv(rb, tb, Ty::B);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(match op {
                            And => Instr::AndB { dst, a: ca, b: cb },
                            _ => Instr::OrB { dst, a: ca, b: cb },
                        });
                        Ok((dst, Ty::B))
                    }
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        let ca = self.conv(ra, ta, Ty::F);
                        let cb = self.conv(rb, tb, Ty::F);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(match op {
                            Eq => Instr::EqF { dst, a: ca, b: cb },
                            Ne => Instr::NeF { dst, a: ca, b: cb },
                            Lt => Instr::LtF { dst, a: ca, b: cb },
                            Le => Instr::LeF { dst, a: ca, b: cb },
                            Gt => Instr::GtF { dst, a: ca, b: cb },
                            _ => Instr::GeF { dst, a: ca, b: cb },
                        });
                        Ok((dst, Ty::B))
                    }
                    _ if ta == Ty::F || tb == Ty::F => {
                        let ca = self.conv(ra, ta, Ty::F);
                        let cb = self.conv(rb, tb, Ty::F);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(match op {
                            Add => Instr::AddF { dst, a: ca, b: cb },
                            Sub => Instr::SubF { dst, a: ca, b: cb },
                            Mul => Instr::MulF { dst, a: ca, b: cb },
                            Div => Instr::DivF { dst, a: ca, b: cb },
                            Mod => Instr::ModF { dst, a: ca, b: cb },
                            Min => Instr::MinF { dst, a: ca, b: cb },
                            Max => Instr::MaxF { dst, a: ca, b: cb },
                            _ => Instr::PowF { dst, a: ca, b: cb },
                        });
                        Ok((dst, Ty::F))
                    }
                    _ => {
                        let ca = self.conv(ra, ta, Ty::I);
                        let cb = self.conv(rb, tb, Ty::I);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(match op {
                            Add => Instr::AddI { dst, a: ca, b: cb },
                            Sub => Instr::SubI { dst, a: ca, b: cb },
                            Mul => Instr::MulI { dst, a: ca, b: cb },
                            Div => Instr::DivI { dst, a: ca, b: cb },
                            Mod => Instr::ModI { dst, a: ca, b: cb },
                            Min => Instr::MinI { dst, a: ca, b: cb },
                            Max => Instr::MaxI { dst, a: ca, b: cb },
                            _ => Instr::PowI { dst, a: ca, b: cb },
                        });
                        Ok((dst, Ty::I))
                    }
                }
            }
            E::Select {
                cond,
                then,
                otherwise,
            } => {
                let mark = self.mark();
                let (rc, tc) = self.expr(cond)?;
                let cb = self.conv(rc, tc, Ty::B);
                self.free_to(mark);
                let dst = self.alloc_tmp();
                let br = self.emit_idx(Instr::BrFalse { cond: cb, to: 0 });
                // Arms evaluate conditionally (a compile error discards the
                // whole compiler, so the depth need not unwind on `?`).
                self.cond_depth += 1;
                let mark2 = self.mark();
                let (rt, tt) = self.expr(then)?;
                self.emit(Instr::Mov { dst, src: rt });
                self.free_to(mark2);
                let jend = self.emit_idx(Instr::Jmp { to: 0 });
                let else_pc = self.buf.len() as u32;
                self.patch(br, else_pc);
                let (re, te) = self.expr(otherwise)?;
                self.cond_depth -= 1;
                if tt != te {
                    // Arms of different runtime scalar kinds cannot be
                    // statically typed; the whole program falls back.
                    return Err(Unsupported("select.mixed_arm_types"));
                }
                self.emit(Instr::Mov { dst, src: re });
                self.free_to(mark2);
                let end_pc = self.buf.len() as u32;
                self.patch(jend, end_pc);
                Ok((dst, tt))
            }
            E::Cast { dtype, a } => {
                let mark = self.mark();
                let (ra, ta) = self.expr(a)?;
                match dtype {
                    DataType::F32 => {
                        let c = self.conv(ra, ta, Ty::F);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(Instr::RoundF32 { dst, a: c });
                        Ok((dst, Ty::F))
                    }
                    DataType::F64 => Ok((self.conv(ra, ta, Ty::F), Ty::F)),
                    DataType::I32 => {
                        let c = self.conv(ra, ta, Ty::I);
                        self.free_to(mark);
                        let dst = self.alloc_tmp();
                        self.emit(Instr::TruncI32 { dst, a: c });
                        Ok((dst, Ty::I))
                    }
                    DataType::I64 => Ok((self.conv(ra, ta, Ty::I), Ty::I)),
                    DataType::Bool => Ok((self.conv(ra, ta, Ty::B), Ty::B)),
                }
            }
        }
    }

    fn stmt(&mut self, s: &crate::compiled::CStmt) -> Result<(), Unsupported> {
        use crate::compiled::CStmt as S;
        match s {
            S::Nop => {}
            S::Seq(v) => {
                for st in v {
                    self.stmt(st)?;
                }
            }
            S::If {
                cond,
                then,
                otherwise,
            } => {
                let mark = self.mark();
                let (rc, tc) = self.expr(cond)?;
                let cb = self.conv(rc, tc, Ty::B);
                self.free_to(mark);
                let br = self.emit_idx(Instr::BrFalse { cond: cb, to: 0 });
                self.cond_depth += 1;
                self.stmt(then)?;
                if let Some(o) = otherwise {
                    let j = self.emit_idx(Instr::Jmp { to: 0 });
                    let else_pc = self.buf.len() as u32;
                    self.patch(br, else_pc);
                    self.stmt(o)?;
                    let end = self.buf.len() as u32;
                    self.patch(j, end);
                } else {
                    let end = self.buf.len() as u32;
                    self.patch(br, end);
                }
                self.cond_depth -= 1;
            }
            S::Store { t, idx, value } => {
                let mark = self.mark();
                if let Some(off) = self.try_reduce(*t, idx)? {
                    let (rv, tv) = self.expr(value)?;
                    self.emit(Instr::StoreFlat {
                        t: *t as u32,
                        off,
                        src: rv,
                        sty: tv,
                    });
                } else {
                    let blk = self.idx_block(idx)?;
                    let (rv, tv) = self.expr(value)?;
                    // Bounds are checked after the value evaluates, matching
                    // the interpreter's error order.
                    let roff = self.alloc_tmp();
                    self.emit(Instr::Off {
                        t: *t as u32,
                        idx: blk,
                        ndim: idx.len() as u8,
                        dst: roff,
                    });
                    self.emit(Instr::StoreT {
                        t: *t as u32,
                        off: roff,
                        src: rv,
                        sty: tv,
                    });
                }
                self.free_to(mark);
            }
            // `atomic` matters only to the parallel-region analysis; the
            // serial lowering is identical either way.
            S::Reduce {
                t,
                idx,
                op,
                value,
                atomic: _,
            } => {
                let mark = self.mark();
                if let Some(off) = self.try_reduce(*t, idx)? {
                    let (rv, tv) = self.expr(value)?;
                    self.emit(Instr::ReduceFlat {
                        t: *t as u32,
                        off,
                        src: rv,
                        sty: tv,
                        op: *op,
                    });
                } else {
                    let blk = self.idx_block(idx)?;
                    let (rv, tv) = self.expr(value)?;
                    let roff = self.alloc_tmp();
                    self.emit(Instr::Off {
                        t: *t as u32,
                        idx: blk,
                        ndim: idx.len() as u8,
                        dst: roff,
                    });
                    self.emit(Instr::ReduceT {
                        t: *t as u32,
                        off: roff,
                        src: rv,
                        sty: tv,
                        op: *op,
                    });
                }
                self.free_to(mark);
            }
            S::VarDef {
                t,
                shape,
                dtype,
                mtype,
                body,
            } => {
                self.tdtype[*t] = *dtype;
                let mark = self.mark();
                let blk = self.idx_block(shape)?;
                self.emit(Instr::Alloc {
                    t: *t as u32,
                    shape: blk,
                    ndim: shape.len() as u8,
                    dtype: *dtype,
                    mtype: *mtype,
                });
                self.free_to(mark);
                self.depth_of[*t] = Some(self.loops.len());
                self.stmt(body)?;
                self.emit(Instr::Free { t: *t as u32 });
            }
            S::LibCall {
                kernel,
                inputs,
                outputs,
                attrs,
                prof: _,
            } => {
                let id = self.lib_sites.len() as u32;
                self.lib_sites.push(LibSite {
                    kernel: kernel.clone(),
                    inputs: inputs.clone(),
                    outputs: outputs.clone(),
                    attrs: attrs.clone(),
                });
                self.emit(Instr::LibCall { id });
            }
            S::For {
                s,
                begin,
                end,
                scope,
                vectorize,
                prof,
                body,
            } => self.compile_for(*s, begin, end, *scope, *vectorize, *prof, body)?,
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_for(
        &mut self,
        s: usize,
        begin: &crate::compiled::CExpr,
        end: &crate::compiled::CExpr,
        scope: ParallelScope,
        vectorize: bool,
        prof: usize,
        body: &crate::compiled::CStmt,
    ) -> Result<(), Unsupported> {
        let s_reg = s as u32;
        // `end` cannot reference `s` (the lowering creates the iterator
        // slot after lowering both bounds), so `s` can take the begin
        // value before `end` evaluates.
        let mark = self.mark();
        let (r0, t0) = self.expr(begin)?;
        let c0 = self.conv(r0, t0, Ty::I);
        self.emit(Instr::Mov {
            dst: s_reg,
            src: c0,
        });
        self.free_to(mark);
        let re = self.alloc_persist();
        let mark2 = self.mark();
        let (r1, t1) = self.expr(end)?;
        let c1 = self.conv(r1, t1, Ty::I);
        self.emit(Instr::Mov { dst: re, src: c1 });
        self.free_to(mark2);
        // Schedule marks, honored in priority order: an `OpenMp` loop
        // becomes a pool region; failing that, a `vectorize` mark
        // becomes a fused wide kernel; failing both, the plain
        // strength-reduced serial loop below.
        if scope == ParallelScope::OpenMp && self.try_region(s, s_reg, re, prof, body)? {
            return Ok(());
        }
        if vectorize && self.try_vectorize(s, s_reg, re, prof, body)? {
            return Ok(());
        }
        let mut writes = std::collections::HashSet::new();
        collect_writes(body, &mut writes);
        self.loops.push(LoopCtx::new(s, self.cond_depth, writes));
        let mut body_buf = Vec::new();
        std::mem::swap(&mut self.buf, &mut body_buf);
        let r = self.stmt(body);
        std::mem::swap(&mut self.buf, &mut body_buf);
        let ctx = self.loops.pop().expect("pushed above");
        r?;
        // Preheader (offset bases + numeric stride probes), then the
        // guard, then the relocated body, then the induction latches.
        let pre_gi = self.emit_preheader(ctx.faulty_preheader, ctx.preheader, s_reg, re);
        let guard = self.buf.len() as u32;
        let gi = self.emit_idx(Instr::BrGeI {
            a: s_reg,
            b: re,
            to: 0,
        });
        let base = self.buf.len() as u32;
        for ins in body_buf {
            let ins = reloc(ins, base);
            self.buf.push(ins);
        }
        self.buf.extend(ctx.latches);
        self.emit(Instr::AddImmI { dst: s_reg, v: 1 });
        self.emit(Instr::Jmp { to: guard });
        let exit = self.buf.len() as u32;
        self.patch(gi, exit);
        if let Some(pg) = pre_gi {
            self.patch(pg, exit);
        }
        Ok(())
    }

    /// Emit a loop's preheader. When it can fault (hoisted invariant loads)
    /// it goes behind a zero-trip pre-guard, so an empty loop never touches
    /// memory it would not have touched under the interpreter; the guard
    /// (on iterator `a` against bound `b`) is returned for the caller to
    /// patch to the loop's exit.
    fn emit_preheader(&mut self, faulty: bool, pre: Vec<Instr>, a: u32, b: u32) -> Option<usize> {
        let guard = faulty.then(|| self.emit_idx(Instr::BrGeI { a, b, to: 0 }));
        self.buf.extend(pre);
        guard
    }

    /// Record one lowering decision for the trace.
    fn decide(
        &mut self,
        kind: &'static str,
        prof: usize,
        accepted: bool,
        detail: impl Into<String>,
    ) {
        self.decisions.push(LowerDecision {
            kind,
            prof,
            accepted,
            detail: detail.into(),
        });
    }

    /// Hoist a loop-invariant expression into the (speculative) innermost
    /// loop's preheader, returning the persist register holding its value.
    /// `None` when the expression is not provably invariant.
    fn hoist_invariant(
        &mut self,
        e: &crate::compiled::CExpr,
    ) -> Result<Option<(u32, Ty)>, Unsupported> {
        let ok = {
            let lp = self.loops.last().expect("vectorize ctx pushed");
            self.invariant_ok(e, lp.s, &lp.writes)
        };
        if !ok {
            return Ok(None);
        }
        let dst = self.alloc_persist();
        let mut pre = Vec::new();
        std::mem::swap(&mut self.buf, &mut pre);
        let mark = self.mark();
        let out = self.expr(e).map(|(src, ty)| {
            self.emit(Instr::Mov { dst, src });
            ty
        });
        self.free_to(mark);
        std::mem::swap(&mut self.buf, &mut pre);
        let ty = out?;
        let lp = self.loops.last_mut().expect("vectorize ctx pushed");
        lp.preheader.extend(pre);
        if !pure_total(e) {
            lp.faulty_preheader = true;
        }
        Ok(Some((dst, ty)))
    }

    /// Strength-reduce one access for a vectorized loop and recover the
    /// stride register its induction latch would have advanced by.
    fn vec_access(
        &mut self,
        t: usize,
        idx: &[crate::compiled::CExpr],
    ) -> Result<Option<VecAccess>, Unsupported> {
        let before = self.loops.last().expect("vectorize ctx pushed").latches.len();
        let Some(off) = self.try_reduce(t, idx)? else {
            return Ok(None);
        };
        let lp = self.loops.last().expect("vectorize ctx pushed");
        let stride = lp.latches[before..].iter().find_map(|i| match i {
            Instr::AddI { dst, a, b } if *dst == off && *a == off => Some(*b),
            _ => None,
        });
        Ok(Some(VecAccess {
            t: t as u32,
            off,
            stride,
        }))
    }

    /// Classify the single-statement body of a `vectorize`-marked loop into
    /// a fused kernel. `Ok(Err(reason))` is a structured rejection (the
    /// loop compiles serially); `Err(Unsupported)` aborts the program to
    /// the interpreter as usual.
    fn build_vec_kernel(
        &mut self,
        inner: &crate::compiled::CStmt,
    ) -> Result<Result<VecKernel, &'static str>, Unsupported> {
        use crate::compiled::{CExpr as E, CStmt as S};
        let s = self.loops.last().expect("vectorize ctx pushed").s;
        match inner {
            S::Store { t, idx, value } => {
                let Some(dst) = self.vec_access(*t, idx)? else {
                    return Ok(Err("dst_not_stride_reducible"));
                };
                if dst.stride.is_none() {
                    return Ok(Err("dst_invariant"));
                }
                if let Some((xt, xidx)) = varying_load(value, s) {
                    let Some(x) = self.vec_access(xt, xidx)? else {
                        return Ok(Err("src_not_stride_reducible"));
                    };
                    return Ok(Ok(VecKernel::Copy { dst, x }));
                }
                match self.hoist_invariant(value)? {
                    Some((src, sty)) => Ok(Ok(VecKernel::Fill { dst, src, sty })),
                    None => Ok(Err("unsupported_value_shape")),
                }
            }
            S::Reduce {
                t,
                idx,
                op,
                value,
                atomic: _,
            } => {
                if ty_of(self.tdtype[*t]) != Ty::F {
                    return Ok(Err("unsupported_reduce_dtype"));
                }
                let Some(dst) = self.vec_access(*t, idx)? else {
                    return Ok(Err("dst_not_stride_reducible"));
                };
                let carried = dst.stride.is_none();
                match (op, value) {
                    (
                        ReduceOp::Add,
                        E::Binary {
                            op: BinaryOp::Mul,
                            a,
                            b,
                        },
                    ) => {
                        let (av, bv) = (varying_load(a, s), varying_load(b, s));
                        match (av, bv) {
                            (Some((xt, xidx)), Some((yt, yidx))) if carried => {
                                if xt == *t || yt == *t {
                                    return Ok(Err("reduction_target_reused"));
                                }
                                if ty_of(self.tdtype[xt]) != Ty::F
                                    || ty_of(self.tdtype[yt]) != Ty::F
                                {
                                    return Ok(Err("unsupported_reduce_dtype"));
                                }
                                let Some(x) = self.vec_access(xt, xidx)? else {
                                    return Ok(Err("src_not_stride_reducible"));
                                };
                                let Some(y) = self.vec_access(yt, yidx)? else {
                                    return Ok(Err("src_not_stride_reducible"));
                                };
                                Ok(Ok(VecKernel::Dot { dst, x, y }))
                            }
                            (Some(_), None) | (None, Some(_)) if !carried => {
                                let (xt, xidx) = av.or(bv).expect("one side varies");
                                // Multiplier on the left means the serial
                                // code computed `a * x`.
                                let a_lhs = av.is_none();
                                let mul = if a_lhs { a } else { b };
                                if xt == *t {
                                    return Ok(Err("reduction_target_reused"));
                                }
                                if ty_of(self.tdtype[xt]) != Ty::F {
                                    return Ok(Err("unsupported_reduce_dtype"));
                                }
                                let Some(x) = self.vec_access(xt, xidx)? else {
                                    return Ok(Err("src_not_stride_reducible"));
                                };
                                let Some(a) = self.hoist_invariant(mul)? else {
                                    return Ok(Err("unsupported_value_shape"));
                                };
                                Ok(Ok(VecKernel::Axpy {
                                    dst,
                                    x,
                                    a: Some(a),
                                    a_lhs,
                                }))
                            }
                            _ => Ok(Err("unsupported_value_shape")),
                        }
                    }
                    (ReduceOp::Add, _) => {
                        let Some((xt, xidx)) = varying_load(value, s) else {
                            return Ok(Err("unsupported_value_shape"));
                        };
                        if xt == *t {
                            return Ok(Err("reduction_target_reused"));
                        }
                        if ty_of(self.tdtype[xt]) != Ty::F {
                            return Ok(Err("unsupported_reduce_dtype"));
                        }
                        let Some(x) = self.vec_access(xt, xidx)? else {
                            return Ok(Err("src_not_stride_reducible"));
                        };
                        if carried {
                            Ok(Ok(VecKernel::HReduce {
                                dst,
                                x,
                                op: ReduceOp::Add,
                            }))
                        } else {
                            Ok(Ok(VecKernel::Axpy {
                                dst,
                                x,
                                a: None,
                                a_lhs: true,
                            }))
                        }
                    }
                    (ReduceOp::Min | ReduceOp::Max, _) => {
                        if !carried {
                            return Ok(Err("unsupported_reduce_op"));
                        }
                        let Some((xt, xidx)) = varying_load(value, s) else {
                            return Ok(Err("unsupported_value_shape"));
                        };
                        if xt == *t {
                            return Ok(Err("reduction_target_reused"));
                        }
                        if ty_of(self.tdtype[xt]) != Ty::F {
                            return Ok(Err("unsupported_reduce_dtype"));
                        }
                        let Some(x) = self.vec_access(xt, xidx)? else {
                            return Ok(Err("src_not_stride_reducible"));
                        };
                        Ok(Ok(VecKernel::HReduce { dst, x, op: *op }))
                    }
                    (ReduceOp::Mul, _) => Ok(Err("unsupported_reduce_op")),
                }
            }
            S::For { .. } => Ok(Err("not_innermost")),
            S::If { .. } => Ok(Err("conditional_body")),
            S::VarDef { .. } => Ok(Err("vardef_body")),
            S::LibCall { .. } => Ok(Err("libcall_body")),
            S::Seq(_) => Ok(Err("compound_body")),
            S::Nop => Ok(Err("empty_body")),
        }
    }

    /// Try to lower a `vectorize`-marked innermost loop into a [`VecSite`].
    /// On success the emitted code is `[pre-guard] preheader VecLoop`; on a
    /// structured rejection the caller falls through to the plain serial
    /// lowering with the reason in the decision log.
    fn try_vectorize(
        &mut self,
        s: usize,
        s_reg: u32,
        re: u32,
        prof: usize,
        body: &crate::compiled::CStmt,
    ) -> Result<bool, Unsupported> {
        let inner = unwrap_single(body);
        let mut writes = std::collections::HashSet::new();
        collect_writes(body, &mut writes);
        // A speculative loop context: accepted, its preheader feeds the
        // site; rejected, it is discarded whole (persist registers probed
        // into it leak, which `alloc_persist` documents as fine).
        self.loops.push(LoopCtx::new(s, self.cond_depth, writes));
        let built = self.build_vec_kernel(inner);
        let ctx = self.loops.pop().expect("pushed above");
        match built? {
            Err(reason) => {
                self.decide("vm.simd", prof, false, reason);
                Ok(false)
            }
            Ok(kernel) => {
                // The induction latches are dropped: the kernel dispatch
                // computes every offset from base + k * stride directly.
                let pre_gi = self.emit_preheader(ctx.faulty_preheader, ctx.preheader, s_reg, re);
                let detail = VEC_KERNEL_NAMES[kernel.idx()];
                let site = self.vec_sites.len() as u32;
                self.vec_sites.push(VecSite {
                    s: s_reg,
                    end: re,
                    kernel,
                });
                self.emit(Instr::VecLoop { site });
                let after = self.buf.len() as u32;
                if let Some(pg) = pre_gi {
                    self.patch(pg, after);
                }
                self.decide("vm.simd", prof, true, detail);
                Ok(true)
            }
        }
    }

    /// Prove a loop body safe for fork-join execution — every non-local
    /// write lands on provably iteration-disjoint cells and no tensor is
    /// both read and written — and return the slots its `VarDef`s bind.
    /// Reductions that collide across iterations are not this analysis's
    /// to resolve: `lower_cpu_parallel` has already turned them into
    /// chunk-private rows, which pass as ordinary disjoint writes.
    fn analyze_region(
        &self,
        body: &crate::compiled::CStmt,
        s: usize,
    ) -> Result<std::collections::HashSet<usize>, &'static str> {
        let mut locals = std::collections::HashSet::new();
        collect_locals(body, &mut locals);
        let mut stored = std::collections::HashSet::new();
        let mut loaded = std::collections::HashSet::new();
        scan_region(body, s, &locals, &mut stored, &mut loaded)?;
        if stored.iter().any(|t| loaded.contains(t)) {
            return Err("read_write_overlap");
        }
        Ok(locals)
    }

    /// Try to lower an `OpenMp` loop into a pool-executed [`ParSite`].
    fn try_region(
        &mut self,
        s: usize,
        s_reg: u32,
        re: u32,
        prof: usize,
        body: &crate::compiled::CStmt,
    ) -> Result<bool, Unsupported> {
        let locals = match self.analyze_region(body, s) {
            Err(reason) => {
                self.decide("vm.parallel", prof, false, reason);
                return Ok(false);
            }
            Ok(l) => l,
        };
        // The body compiles into a standalone stream with a clean loop /
        // conditional context (workers re-enter it from scratch every
        // iteration). `depth_of` stays consistent under the reset: tensors
        // defined outside merely stop looking loop-invariant, which only
        // makes strength reduction and hoisting more conservative.
        let saved_loops = std::mem::take(&mut self.loops);
        let saved_cond = self.cond_depth;
        self.cond_depth = 0;
        let mut code = Vec::new();
        std::mem::swap(&mut self.buf, &mut code);
        let r = self.stmt(body);
        self.emit(Instr::Halt);
        std::mem::swap(&mut self.buf, &mut code);
        self.loops = saved_loops;
        self.cond_depth = saved_cond;
        r?;
        let mut local_mask = vec![false; self.tdtype.len()];
        for &t in &locals {
            local_mask[t] = true;
        }
        let cost = code.len() as u32;
        let site = self.par_sites.len() as u32;
        self.par_sites.push(ParSite {
            s: s_reg,
            end: re,
            code,
            local_mask,
            cost,
        });
        self.emit(Instr::ParRegion { site });
        self.decide("vm.parallel", prof, true, format!("cost={cost}"));
        Ok(true)
    }
}

/// Walk a region body collecting non-local reads and writes; errors are
/// structured serialization reasons.
fn scan_region(
    st: &crate::compiled::CStmt,
    s: usize,
    locals: &std::collections::HashSet<usize>,
    stored: &mut std::collections::HashSet<usize>,
    loaded: &mut std::collections::HashSet<usize>,
) -> Result<(), &'static str> {
    use crate::compiled::CStmt as S;
    match st {
        S::Nop => Ok(()),
        S::Seq(v) => v
            .iter()
            .try_for_each(|x| scan_region(x, s, locals, stored, loaded)),
        S::VarDef { shape, body, .. } => {
            shape.iter().for_each(|e| collect_loads(e, locals, loaded));
            scan_region(body, s, locals, stored, loaded)
        }
        S::For {
            begin, end, body, ..
        } => {
            collect_loads(begin, locals, loaded);
            collect_loads(end, locals, loaded);
            scan_region(body, s, locals, stored, loaded)
        }
        S::If {
            cond,
            then,
            otherwise,
        } => {
            collect_loads(cond, locals, loaded);
            scan_region(then, s, locals, stored, loaded)?;
            match otherwise {
                Some(o) => scan_region(o, s, locals, stored, loaded),
                None => Ok(()),
            }
        }
        S::Store { t, idx, value } | S::Reduce { t, idx, value, .. } => {
            idx.iter().for_each(|e| collect_loads(e, locals, loaded));
            collect_loads(value, locals, loaded);
            if !locals.contains(t) {
                if !disjoint_by(idx, s) {
                    // The lowering leaves no `atomic` flag behind; one
                    // here means the caller skipped it (the C emitter's
                    // `CodegenError::AtomicReduce`).
                    return Err(match st {
                        S::Reduce { atomic: true, .. } => "atomic_reduce_unlowered",
                        _ => "unproven_disjoint_write",
                    });
                }
                stored.insert(*t);
            }
            Ok(())
        }
        S::LibCall { .. } => Err("libcall_in_region"),
    }
}

/// Lower a [`Compiled`] function into a VM program.
pub(crate) fn compile_program(c: &Compiled) -> Result<VmProgram<'_>, Unsupported> {
    let mut cp = Compiler {
        buf: Vec::new(),
        next: c.n_scalars as u32,
        floor: c.n_scalars as u32,
        max_regs: c.n_scalars as u32,
        loops: Vec::new(),
        cond_depth: 0,
        depth_of: vec![None; c.n_tensors],
        tdtype: vec![DataType::F32; c.n_tensors],
        lib_sites: Vec::new(),
        vec_sites: Vec::new(),
        par_sites: Vec::new(),
        decisions: Vec::new(),
    };
    for (pi, (slot, shape, dtype, _mtype, _atype)) in c.params.iter().enumerate() {
        cp.tdtype[*slot] = *dtype;
        cp.depth_of[*slot] = Some(0);
        let mark = cp.mark();
        let blk = cp.idx_block(shape)?;
        cp.emit(Instr::BindParam {
            p: pi as u32,
            shape: blk,
            ndim: shape.len() as u8,
        });
        cp.free_to(mark);
    }
    cp.stmt(&c.body)?;
    cp.emit(Instr::Halt);
    Ok(VmProgram {
        c,
        code: cp.buf,
        n_regs: cp.max_regs as usize,
        lib_sites: cp.lib_sites,
        vec_sites: cp.vec_sites,
        par_sites: cp.par_sites,
        decisions: cp.decisions,
    })
}

/// A live tensor in the VM: the crate's one tensor type, beside the two
/// facts the dispatch loop needs without a walk over the shape — the
/// element count every flat bounds check compares against, and the memory
/// type the capacity accounting charges.
#[derive(Debug)]
struct VmSlot {
    val: TensorVal,
    numel: usize,
    mtype: MemType,
}

impl VmSlot {
    fn new(val: TensorVal, mtype: MemType) -> VmSlot {
        VmSlot {
            numel: val.numel(),
            val,
            mtype,
        }
    }

    fn bytes(&self) -> u64 {
        (self.numel * self.val.dtype().size_bytes()) as u64
    }
}

/// Raw shared view of the coordinator's tensor slots for fork-join regions.
///
/// SAFETY: region compilation proves every concurrent non-local write lands
/// on iteration-disjoint cells, so element writes never race; the `Option`
/// shells of shared slots are never inserted or removed while the region
/// runs (region code contains no `Alloc`/`Free`/`BindParam` for non-local
/// tensors). Transient `&mut`
/// views of one shared slot may coexist across workers only under that
/// disjoint-write proof.
struct SharedSlots(*mut Option<VmSlot>);
unsafe impl Send for SharedSlots {}
unsafe impl Sync for SharedSlots {}

/// Minimum `trip * body_cost` before a parallel region pays for the
/// fork-join handshake; below it the region runs serially in place.
const PAR_THRESHOLD: u64 = 32_768;

/// Mutable machine state of one run.
struct VmState<'a> {
    config: &'a DeviceConfig,
    names: &'a [String],
    regs: Vec<u64>,
    tensors: Vec<Option<VmSlot>>,
    /// Live bytes per device, `[cpu, gpu]` — the capacity accounting that
    /// reproduces the interpreter's out-of-memory errors.
    live: [u64; 2],
    /// Inside a fork-join region: the coordinator's slots plus the mask of
    /// slots that stay worker-private (the region body's `VarDef`s).
    shared: Option<(&'a SharedSlots, &'a [bool])>,
    /// Dispatch tallies, present only when the owning
    /// [`VmRuntime`] has a metrics registry. Coordinator-thread only:
    /// worker states inside a fork-join region run untallied, so the
    /// counts are independent of worker count.
    tally: Option<VmTally>,
    /// Plan-driven buffer pool for `Alloc`/`Free` storage. Coordinator
    /// only — fork-join worker states run with `None`; live-byte
    /// accounting is unchanged.
    arena: Option<TensorPool>,
}

/// Per-run dispatch bookkeeping harvested into the metrics registry after
/// execution. Plain integers on the coordinator thread — no atomics on the
/// dispatch hot path.
#[derive(Debug)]
struct VmTally {
    /// Dispatch counts per fused [`VecKernel`] kind, by [`VecKernel::idx`].
    vec: [u64; VEC_KERNEL_NAMES.len()],
    /// Parallel-region sites scheduled on the worker pool.
    par_pool: u64,
    /// Parallel-region sites that took the serial fallback (tiny trip
    /// count, one-core host, or nested region).
    par_serial: u64,
    /// Wall time of each fused-kernel dispatch, in nanoseconds.
    kernel_ns: ft_metrics::Histogram,
}

/// Whether `trip` elements from flat offset `base` at `stride` are one
/// in-bounds slice of a `numel`-element tensor (the wide kernels' gate).
#[inline]
fn contiguous(base: i64, stride: i64, trip: usize, numel: usize) -> bool {
    stride == 1 && base >= 0 && (base as u64).saturating_add(trip as u64) <= numel as u64
}

#[inline(always)]
fn dev_index(device: Device) -> usize {
    matches!(device, Device::Gpu) as usize
}

impl VmState<'_> {
    #[inline(always)]
    fn ri(&self, r: u32) -> i64 {
        self.regs[r as usize] as i64
    }

    #[inline(always)]
    fn rf(&self, r: u32) -> f64 {
        f64::from_bits(self.regs[r as usize])
    }

    #[inline(always)]
    fn rb(&self, r: u32) -> bool {
        self.regs[r as usize] != 0
    }

    #[inline(always)]
    fn wi(&mut self, r: u32, v: i64) {
        self.regs[r as usize] = v as u64;
    }

    #[inline(always)]
    fn wf(&mut self, r: u32, v: f64) {
        self.regs[r as usize] = v.to_bits();
    }

    #[inline(always)]
    fn wb(&mut self, r: u32, v: bool) {
        self.regs[r as usize] = v as u64;
    }

    #[inline]
    fn scalar_of(&self, r: u32, ty: Ty) -> Scalar {
        match ty {
            Ty::I => Scalar::Int(self.ri(r)),
            Ty::F => Scalar::Float(self.rf(r)),
            Ty::B => Scalar::Bool(self.rb(r)),
        }
    }

    /// The tensor slot `t` resolves to: the local vector, or the
    /// coordinator's slot when running inside a fork-join region and `t`
    /// is not worker-private.
    #[inline(always)]
    fn slot(&self, t: usize) -> &Option<VmSlot> {
        match self.shared {
            // SAFETY: see [`SharedSlots`].
            Some((sh, mask)) if !mask[t] => unsafe { &*sh.0.add(t) },
            _ => &self.tensors[t],
        }
    }

    #[inline(always)]
    fn slot_mut(&mut self, t: usize) -> &mut Option<VmSlot> {
        match self.shared {
            // SAFETY: see [`SharedSlots`].
            Some((sh, mask)) if !mask[t] => unsafe { &mut *sh.0.add(t) },
            _ => &mut self.tensors[t],
        }
    }

    /// `numel` of a live slot, or the load/store error payload.
    #[inline]
    fn numel_of(&self, t: usize) -> Result<usize, RuntimeError> {
        self.slot(t)
            .as_ref()
            .map(|vt| vt.numel)
            .ok_or_else(|| RuntimeError::UndefinedName(self.names[t].clone()))
    }

    /// One `LoadFlat` worth of semantics (checks and error payloads
    /// included) as a plain call, for the vector kernels' scalar tails.
    #[inline]
    fn load_flat_val(&self, t: usize, o: i64) -> Result<Scalar, RuntimeError> {
        let Some(vt) = self.slot(t).as_ref() else {
            return Err(RuntimeError::UndefinedName(self.names[t].clone()));
        };
        if o < 0 || o as usize >= vt.numel {
            return Err(self.oob(t, vec![o]));
        }
        Ok(vt.val.get_flat(o as usize))
    }

    /// One `StoreFlat` worth of semantics as a plain call.
    #[inline]
    fn store_flat_val(&mut self, t: usize, o: i64, v: Scalar) -> Result<(), RuntimeError> {
        let numel = self.numel_of(t)?;
        if o < 0 || o as usize >= numel {
            return Err(self.oob(t, vec![o]));
        }
        self.slot_mut(t)
            .as_mut()
            .expect("checked above")
            .val
            .set_flat(o as usize, v);
        Ok(())
    }

    /// One `ReduceFlat` worth of semantics as a plain call.
    #[inline]
    fn reduce_flat_val(
        &mut self,
        t: usize,
        o: i64,
        op: ReduceOp,
        v: Scalar,
    ) -> Result<(), RuntimeError> {
        let old = self.load_flat_val(t, o)?;
        let new = crate::interp::apply_reduce(op, old, v);
        self.slot_mut(t)
            .as_mut()
            .expect("checked above")
            .val
            .set_flat(o as usize, new);
        Ok(())
    }

    /// The capacity check of `ExecCtx::alloc` (same `OutOfMemory` payload)
    /// without its counters.
    fn account_alloc(&mut self, t: usize, vt: VmSlot) -> Result<(), RuntimeError> {
        let device = vt.mtype.device();
        let bytes = vt.bytes();
        let capacity = self.config.capacity(device) as u64;
        let di = dev_index(device);
        let live = self.live[di];
        if live + bytes > capacity {
            return Err(RuntimeError::OutOfMemory {
                device,
                requested: bytes,
                live,
                capacity,
            });
        }
        self.live[di] = live + bytes;
        *self.slot_mut(t) = Some(vt);
        Ok(())
    }

    fn account_free(&mut self, t: usize) -> Option<VmSlot> {
        self.slot_mut(t).take().inspect(|vt| {
            let di = dev_index(vt.mtype.device());
            self.live[di] = self.live[di].saturating_sub(vt.bytes());
        })
    }

    /// The extents of tensor `t`, read from the `ndim` registers at `base`.
    fn shape_of(&self, t: usize, base: u32, ndim: u8) -> Result<Vec<usize>, RuntimeError> {
        let regs = &self.regs[base as usize..base as usize + ndim as usize];
        regs.iter()
            .map(|r| usize::try_from(*r as i64))
            .collect::<Result<_, _>>()
            .map_err(|_| RuntimeError::UnresolvedSize(self.names[t].clone()))
    }

    fn oob(&self, t: usize, index: Vec<i64>) -> RuntimeError {
        let shape = self.slot(t)
            .as_ref()
            .map(|vt| vt.val.shape().to_vec())
            .unwrap_or_default();
        RuntimeError::IndexOutOfBounds {
            name: self.names[t].clone(),
            index,
            shape,
        }
    }

    /// Dispatch a `LibCall` site to the kernels of [`crate::libkernel`], on
    /// the operands in place.
    fn libcall(&mut self, site: &LibSite) -> Result<(), RuntimeError> {
        match site.kernel.as_str() {
            "matmul" => {
                let out = site.outputs[0];
                let undefined = |t: usize| RuntimeError::UndefinedName(self.names[t].clone());
                // The output leaves its slot for the call so the inputs can
                // be borrowed beside it. An input that *is* the output reads
                // a copy of its value at entry, as the interpreter's does.
                let mut c = self.slot_mut(out).take().ok_or_else(|| undefined(out))?;
                let at_entry = site.inputs.contains(&out).then(|| c.val.clone());
                let input = |t: usize| match &at_entry {
                    Some(v) if t == out => Ok(v),
                    _ => self
                        .slot(t)
                        .as_ref()
                        .map(|s| &s.val)
                        .ok_or_else(|| undefined(t)),
                };
                let r = input(site.inputs[0]).and_then(|a| {
                    let b = input(site.inputs[1])?;
                    matmul_checked(a, b, &mut c.val, &site.attrs, &self.names[out])
                });
                *self.slot_mut(out) = Some(c);
                r.map(drop)
            }
            other => Err(RuntimeError::UnknownKernel(other.to_string())),
        }
    }

    /// The dispatch loop over one instruction stream (the top-level code or
    /// a fork-join region body).
    fn exec_code(
        &mut self,
        code: &[Instr],
        prog: &VmProgram<'_>,
        inputs: &HashMap<String, TensorVal>,
    ) -> Result<(), RuntimeError> {
        let mut pc = 0usize;
        loop {
            match &code[pc] {
                Instr::Halt => return Ok(()),
                Instr::Jmp { to } => {
                    pc = *to as usize;
                    continue;
                }
                Instr::BrFalse { cond, to } => {
                    if !self.rb(*cond) {
                        pc = *to as usize;
                        continue;
                    }
                }
                Instr::BrGeI { a, b, to } => {
                    if self.ri(*a) >= self.ri(*b) {
                        pc = *to as usize;
                        continue;
                    }
                }
                Instr::ConstI { dst, v } => self.wi(*dst, *v),
                Instr::ConstF { dst, v } => self.wf(*dst, *v),
                Instr::ConstB { dst, v } => self.wb(*dst, *v),
                Instr::Mov { dst, src } => self.regs[*dst as usize] = self.regs[*src as usize],
                Instr::AddImmI { dst, v } => {
                    let x = self.ri(*dst).wrapping_add(*v);
                    self.wi(*dst, x);
                }
                Instr::AddI { dst, a, b } => {
                    let v = self.ri(*a).wrapping_add(self.ri(*b));
                    self.wi(*dst, v);
                }
                Instr::SubI { dst, a, b } => {
                    let v = self.ri(*a).wrapping_sub(self.ri(*b));
                    self.wi(*dst, v);
                }
                Instr::MulI { dst, a, b } => {
                    let v = self.ri(*a).wrapping_mul(self.ri(*b));
                    self.wi(*dst, v);
                }
                Instr::DivI { dst, a, b } => {
                    let y = self.ri(*b);
                    if y == 0 {
                        return Err(RuntimeError::DivisionByZero);
                    }
                    let v = self.ri(*a).div_euclid(y);
                    self.wi(*dst, v);
                }
                Instr::ModI { dst, a, b } => {
                    let y = self.ri(*b);
                    if y == 0 {
                        return Err(RuntimeError::DivisionByZero);
                    }
                    let v = self.ri(*a).rem_euclid(y);
                    self.wi(*dst, v);
                }
                Instr::MinI { dst, a, b } => {
                    let v = self.ri(*a).min(self.ri(*b));
                    self.wi(*dst, v);
                }
                Instr::MaxI { dst, a, b } => {
                    let v = self.ri(*a).max(self.ri(*b));
                    self.wi(*dst, v);
                }
                Instr::PowI { dst, a, b } => {
                    let e = self.ri(*b).clamp(0, 62) as u32;
                    let v = self.ri(*a).wrapping_pow(e);
                    self.wi(*dst, v);
                }
                Instr::AddF { dst, a, b } => {
                    let v = self.rf(*a) + self.rf(*b);
                    self.wf(*dst, v);
                }
                Instr::SubF { dst, a, b } => {
                    let v = self.rf(*a) - self.rf(*b);
                    self.wf(*dst, v);
                }
                Instr::MulF { dst, a, b } => {
                    let v = self.rf(*a) * self.rf(*b);
                    self.wf(*dst, v);
                }
                Instr::DivF { dst, a, b } => {
                    let v = self.rf(*a) / self.rf(*b);
                    self.wf(*dst, v);
                }
                Instr::ModF { dst, a, b } => {
                    let v = self.rf(*a).rem_euclid(self.rf(*b));
                    self.wf(*dst, v);
                }
                Instr::MinF { dst, a, b } => {
                    let v = self.rf(*a).min(self.rf(*b));
                    self.wf(*dst, v);
                }
                Instr::MaxF { dst, a, b } => {
                    let v = self.rf(*a).max(self.rf(*b));
                    self.wf(*dst, v);
                }
                Instr::PowF { dst, a, b } => {
                    let v = self.rf(*a).powf(self.rf(*b));
                    self.wf(*dst, v);
                }
                Instr::NegI { dst, a } => {
                    let v = self.ri(*a).wrapping_neg();
                    self.wi(*dst, v);
                }
                Instr::NegF { dst, a } => {
                    let v = -self.rf(*a);
                    self.wf(*dst, v);
                }
                Instr::AbsI { dst, a } => {
                    let v = self.ri(*a).wrapping_abs();
                    self.wi(*dst, v);
                }
                Instr::AbsF { dst, a } => {
                    let v = self.rf(*a).abs();
                    self.wf(*dst, v);
                }
                Instr::SignI { dst, a } => {
                    let v = self.ri(*a).signum();
                    self.wi(*dst, v);
                }
                Instr::SignF { dst, a } => {
                    let x = self.rf(*a);
                    let v = if x > 0.0 {
                        1.0
                    } else if x < 0.0 {
                        -1.0
                    } else {
                        0.0
                    };
                    self.wf(*dst, v);
                }
                Instr::NotB { dst, a } => {
                    let v = !self.rb(*a);
                    self.wb(*dst, v);
                }
                Instr::SqrtF { dst, a } => {
                    let v = self.rf(*a).sqrt();
                    self.wf(*dst, v);
                }
                Instr::ExpF { dst, a } => {
                    let v = self.rf(*a).exp();
                    self.wf(*dst, v);
                }
                Instr::LnF { dst, a } => {
                    let v = self.rf(*a).ln();
                    self.wf(*dst, v);
                }
                Instr::SigmoidF { dst, a } => {
                    let v = 1.0 / (1.0 + (-self.rf(*a)).exp());
                    self.wf(*dst, v);
                }
                Instr::TanhF { dst, a } => {
                    let v = self.rf(*a).tanh();
                    self.wf(*dst, v);
                }
                Instr::EqF { dst, a, b } => {
                    let v = self.rf(*a) == self.rf(*b);
                    self.wb(*dst, v);
                }
                Instr::NeF { dst, a, b } => {
                    let v = self.rf(*a) != self.rf(*b);
                    self.wb(*dst, v);
                }
                Instr::LtF { dst, a, b } => {
                    let v = self.rf(*a) < self.rf(*b);
                    self.wb(*dst, v);
                }
                Instr::LeF { dst, a, b } => {
                    let v = self.rf(*a) <= self.rf(*b);
                    self.wb(*dst, v);
                }
                Instr::GtF { dst, a, b } => {
                    let v = self.rf(*a) > self.rf(*b);
                    self.wb(*dst, v);
                }
                Instr::GeF { dst, a, b } => {
                    let v = self.rf(*a) >= self.rf(*b);
                    self.wb(*dst, v);
                }
                Instr::AndB { dst, a, b } => {
                    let v = self.rb(*a) && self.rb(*b);
                    self.wb(*dst, v);
                }
                Instr::OrB { dst, a, b } => {
                    let v = self.rb(*a) || self.rb(*b);
                    self.wb(*dst, v);
                }
                Instr::IToF { dst, a } => {
                    let v = self.ri(*a) as f64;
                    self.wf(*dst, v);
                }
                Instr::BToF { dst, a } => {
                    let v = self.rb(*a) as i64 as f64;
                    self.wf(*dst, v);
                }
                Instr::BToI { dst, a } => {
                    let v = self.rb(*a) as i64;
                    self.wi(*dst, v);
                }
                Instr::FToI { dst, a } => {
                    let v = self.rf(*a) as i64;
                    self.wi(*dst, v);
                }
                Instr::IToB { dst, a } => {
                    let v = self.ri(*a) != 0;
                    self.wb(*dst, v);
                }
                Instr::FToB { dst, a } => {
                    let v = self.rf(*a) != 0.0;
                    self.wb(*dst, v);
                }
                Instr::RoundF32 { dst, a } => {
                    let v = self.rf(*a) as f32 as f64;
                    self.wf(*dst, v);
                }
                Instr::TruncI32 { dst, a } => {
                    let v = self.ri(*a) as i32 as i64;
                    self.wi(*dst, v);
                }
                Instr::Off { t, idx, ndim, dst } => {
                    let ti = *t as usize;
                    let Some(vt) = self.slot(ti).as_ref() else {
                        return Err(RuntimeError::UndefinedName(self.names[ti].clone()));
                    };
                    let nd = *ndim as usize;
                    let base = *idx as usize;
                    let index = || (0..nd).map(|d| self.regs[base + d] as i64).collect();
                    if nd != vt.val.ndim() {
                        return Err(self.oob(ti, index()));
                    }
                    let mut off = 0usize;
                    for d in 0..nd {
                        let i = self.regs[base + d] as i64;
                        let extent = vt.val.shape()[d];
                        if i < 0 || i as usize >= extent {
                            return Err(self.oob(ti, index()));
                        }
                        off = off * extent + i as usize;
                    }
                    self.regs[*dst as usize] = off as u64;
                }
                Instr::OffRaw { t, idx, ndim, dst } => {
                    let ti = *t as usize;
                    let vt = self.slot(ti).as_ref().expect("defined outside loop");
                    let base = *idx as usize;
                    let mut off = 0i64;
                    for d in 0..*ndim as usize {
                        let i = self.regs[base + d] as i64;
                        off = off.wrapping_mul(vt.val.shape()[d] as i64).wrapping_add(i);
                    }
                    self.regs[*dst as usize] = off as u64;
                }
                Instr::LoadT { t, off, dst } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as usize;
                    let vt = self.slot(ti).as_ref().expect("Off checked");
                    let bits = match &vt.val.data {
                        Data::F32(v) => (v[o] as f64).to_bits(),
                        Data::F64(v) => v[o].to_bits(),
                        Data::I32(v) => (v[o] as i64) as u64,
                        Data::I64(v) => v[o] as u64,
                        Data::Bool(v) => v[o] as u64,
                    };
                    self.regs[*dst as usize] = bits;
                }
                Instr::LoadFlat { t, off, dst } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as i64;
                    // `Scalar` widens exactly like the register file does.
                    let bits = match self.load_flat_val(ti, o)? {
                        Scalar::Float(x) => x.to_bits(),
                        Scalar::Int(x) => x as u64,
                        Scalar::Bool(x) => x as u64,
                    };
                    self.regs[*dst as usize] = bits;
                }
                Instr::StoreT { t, off, src, sty } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as usize;
                    let v = self.scalar_of(*src, *sty);
                    self.slot_mut(ti)
                        .as_mut()
                        .expect("Off checked")
                        .val
                        .set_flat(o, v);
                }
                Instr::StoreFlat { t, off, src, sty } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as i64;
                    let v = self.scalar_of(*src, *sty);
                    self.store_flat_val(ti, o, v)?;
                }
                Instr::ReduceT {
                    t,
                    off,
                    src,
                    sty,
                    op,
                } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as usize;
                    let v = self.scalar_of(*src, *sty);
                    let old = self.slot(ti).as_ref().expect("Off checked").val.get_flat(o);
                    let new = crate::interp::apply_reduce(*op, old, v);
                    self.slot_mut(ti)
                        .as_mut()
                        .expect("Off checked")
                        .val
                        .set_flat(o, new);
                }
                Instr::ReduceFlat {
                    t,
                    off,
                    src,
                    sty,
                    op,
                } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as i64;
                    let v = self.scalar_of(*src, *sty);
                    self.reduce_flat_val(ti, o, *op, v)?;
                }
                Instr::Alloc {
                    t,
                    shape,
                    ndim,
                    dtype,
                    mtype,
                } => {
                    let ti = *t as usize;
                    let sh = self.shape_of(ti, *shape, *ndim)?;
                    let val = match self.arena.as_mut() {
                        Some(pool) => pool.take_slot(ti, *dtype, &sh),
                        None => TensorVal::zeros(*dtype, &sh),
                    };
                    self.account_alloc(ti, VmSlot::new(val, *mtype))?;
                }
                Instr::Free { t } => {
                    let ti = *t as usize;
                    if let Some(vt) = self.account_free(ti) {
                        if let Some(pool) = self.arena.as_mut() {
                            pool.put_slot(ti, vt.val);
                        }
                    }
                }
                Instr::BindParam { p, shape, ndim } => {
                    let (ti, _, dtype, mtype, atype) = &prog.c.params[*p as usize];
                    let ti = *ti;
                    let name = &self.names[ti];
                    let sh = self.shape_of(ti, *shape, *ndim)?;
                    let val = match atype {
                        AccessType::Input | AccessType::InOut => {
                            let tv = inputs
                                .get(name)
                                .ok_or_else(|| RuntimeError::MissingInput(name.clone()))?;
                            if tv.shape() != sh.as_slice() {
                                return Err(RuntimeError::ShapeMismatch {
                                    name: name.clone(),
                                    expected: sh,
                                    actual: tv.shape().to_vec(),
                                });
                            }
                            tv.clone()
                        }
                        _ => TensorVal::zeros(*dtype, &sh),
                    };
                    self.account_alloc(ti, VmSlot::new(val, *mtype))?;
                }
                Instr::LibCall { id } => {
                    self.libcall(&prog.lib_sites[*id as usize])?;
                }
                Instr::VecLoop { site } => {
                    self.exec_vec(&prog.vec_sites[*site as usize])?;
                }
                Instr::ParRegion { site } => {
                    self.exec_region(prog, &prog.par_sites[*site as usize], inputs)?;
                }
            }
            pc += 1;
        }
    }

    /// Resolve one vectorized access to `(slot, base offset, stride)`.
    #[inline]
    fn acc(&self, a: &VecAccess) -> (usize, i64, i64) {
        (
            a.t as usize,
            self.ri(a.off),
            a.stride.map_or(0, |r| self.ri(r)),
        )
    }

    /// Dispatch one fused vectorized loop. Every kernel has a wide lane
    /// path gated on stride-1 in-bounds non-aliasing accesses, and a scalar
    /// tail/fallback that replays the exact serial per-iteration semantics
    /// (same op order, same error payloads, same wrapping offset math).
    fn exec_vec(&mut self, site: &VecSite) -> Result<(), RuntimeError> {
        let b = self.ri(site.s);
        let e = self.ri(site.end);
        if b < e {
            let t0 = self.tally.as_ref().map(|_| std::time::Instant::now());
            let trip = (e - b) as usize;
            match &site.kernel {
                VecKernel::Fill { dst, src, sty } => self.vec_fill(trip, dst, *src, *sty)?,
                VecKernel::Copy { dst, x } => self.vec_copy(trip, dst, x)?,
                VecKernel::Axpy { dst, x, a, a_lhs } => {
                    self.vec_axpy(trip, dst, x, *a, *a_lhs)?;
                }
                VecKernel::Dot { dst, x, y } => self.vec_dot(trip, dst, x, y)?,
                VecKernel::HReduce { dst, x, op } => self.vec_hreduce(trip, dst, x, *op)?,
            }
            if let Some(t) = self.tally.as_mut() {
                t.vec[site.kernel.idx()] += 1;
                if let Some(t0) = t0 {
                    t.kernel_ns
                        .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
            }
        }
        // The loop counter lands on `end`, exactly as the serial loop
        // leaves it.
        self.wi(site.s, e);
        Ok(())
    }

    /// `for i { dst[f(i)] = c }` with a loop-invariant `c`.
    fn vec_fill(
        &mut self,
        trip: usize,
        dst: &VecAccess,
        src: u32,
        sty: Ty,
    ) -> Result<(), RuntimeError> {
        let (dt, db, ds) = self.acc(dst);
        let v = self.scalar_of(src, sty);
        let numel = self.numel_of(dt)?;
        if contiguous(db, ds, trip, numel) {
            let o = db as usize;
            match &mut self.slot_mut(dt).as_mut().expect("checked above").val.data {
                Data::F32(d) => d[o..o + trip].fill(v.as_f64() as f32),
                Data::F64(d) => d[o..o + trip].fill(v.as_f64()),
                Data::I32(d) => d[o..o + trip].fill(v.as_i64() as i32),
                Data::I64(d) => d[o..o + trip].fill(v.as_i64()),
                Data::Bool(d) => d[o..o + trip].fill(v.as_bool()),
            }
            return Ok(());
        }
        let mut od = db;
        for _ in 0..trip {
            self.store_flat_val(dt, od, v)?;
            od = od.wrapping_add(ds);
        }
        Ok(())
    }

    /// `for i { dst[f(i)] = x[g(i)] }`.
    fn vec_copy(&mut self, trip: usize, dst: &VecAccess, x: &VecAccess) -> Result<(), RuntimeError> {
        let (dt, db, ds) = self.acc(dst);
        let (xt, xb, xs) = self.acc(x);
        // Serial order faults on the source load before the dest store.
        let xn = self.numel_of(xt)?;
        let dn = self.numel_of(dt)?;
        let lane = contiguous(xb, xs, trip, xn) && contiguous(db, ds, trip, dn) && dt != xt;
        if lane {
            let (xo, do_) = (xb as usize, db as usize);
            let sp: *const Option<VmSlot> = self.slot(xt);
            let dp: *mut Option<VmSlot> = self.slot_mut(dt);
            // SAFETY: distinct live slots (checked above); ranges in bounds.
            let xv = unsafe { (*sp).as_ref().expect("checked above") };
            let dv = unsafe { (*dp).as_mut().expect("checked above") };
            match (&mut dv.val.data, &xv.val.data) {
                (Data::F32(d), Data::F32(s)) => {
                    // Keep the serial f32→f64→f32 round-trip for NaN-bit
                    // fidelity.
                    for (dd, ss) in d[do_..do_ + trip].iter_mut().zip(&s[xo..xo + trip]) {
                        *dd = (*ss as f64) as f32;
                    }
                }
                (Data::F64(d), Data::F64(s)) => {
                    d[do_..do_ + trip].copy_from_slice(&s[xo..xo + trip]);
                }
                (Data::I32(d), Data::I32(s)) => {
                    d[do_..do_ + trip].copy_from_slice(&s[xo..xo + trip]);
                }
                (Data::I64(d), Data::I64(s)) => {
                    d[do_..do_ + trip].copy_from_slice(&s[xo..xo + trip]);
                }
                (Data::Bool(d), Data::Bool(s)) => {
                    d[do_..do_ + trip].copy_from_slice(&s[xo..xo + trip]);
                }
                _ => {
                    // Mixed dtypes: the exact scalar conversion per cell.
                    for k in 0..trip {
                        let v = xv.val.get_flat(xo + k);
                        dv.val.set_flat(do_ + k, v);
                    }
                }
            }
            return Ok(());
        }
        let (mut ox, mut od) = (xb, db);
        for _ in 0..trip {
            let v = self.load_flat_val(xt, ox)?;
            self.store_flat_val(dt, od, v)?;
            ox = ox.wrapping_add(xs);
            od = od.wrapping_add(ds);
        }
        Ok(())
    }

    /// `for i { dst[f(i)] += a * x[g(i)] }` (or `x[g(i)] * a`, or plain
    /// `x[g(i)]` when `a` is absent).
    fn vec_axpy(
        &mut self,
        trip: usize,
        dst: &VecAccess,
        x: &VecAccess,
        a: Option<(u32, Ty)>,
        a_lhs: bool,
    ) -> Result<(), RuntimeError> {
        let (dt, db, ds) = self.acc(dst);
        let (xt, xb, xs) = self.acc(x);
        let av = a.map(|(r, ty)| self.scalar_of(r, ty).as_f64());
        let xn = self.numel_of(xt)?;
        let dn = self.numel_of(dt)?;
        let lane = contiguous(xb, xs, trip, xn) && contiguous(db, ds, trip, dn) && dt != xt;
        if lane {
            let (xo, do_) = (xb as usize, db as usize);
            let sp: *const Option<VmSlot> = self.slot(xt);
            let dp: *mut Option<VmSlot> = self.slot_mut(dt);
            // SAFETY: distinct live slots (checked above); ranges in bounds.
            let xv = unsafe { (*sp).as_ref().expect("checked above") };
            let dv = unsafe { (*dp).as_mut().expect("checked above") };
            match (&mut dv.val.data, &xv.val.data) {
                (Data::F32(d), Data::F32(s)) => {
                    let (d, s) = (&mut d[do_..do_ + trip], &s[xo..xo + trip]);
                    match (av, a_lhs) {
                        (Some(a), true) => lanes::axpy_f32(d, a, s),
                        (Some(a), false) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y = (*y as f64 + *x as f64 * a) as f32;
                            }
                        }
                        (None, _) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y = (*y as f64 + *x as f64) as f32;
                            }
                        }
                    }
                }
                (Data::F64(d), Data::F64(s)) => {
                    let (d, s) = (&mut d[do_..do_ + trip], &s[xo..xo + trip]);
                    match (av, a_lhs) {
                        (Some(a), true) => lanes::axpy_f64(d, a, s),
                        (Some(a), false) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y += *x * a;
                            }
                        }
                        (None, _) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y += *x;
                            }
                        }
                    }
                }
                _ => {
                    // Mixed float widths: exact f64 math per cell.
                    for k in 0..trip {
                        let xvv = xv.val.get_flat(xo + k).as_f64();
                        let prod = match (av, a_lhs) {
                            (Some(a), true) => a * xvv,
                            (Some(a), false) => xvv * a,
                            (None, _) => xvv,
                        };
                        let old = dv.val.get_flat(do_ + k).as_f64();
                        dv.val.set_flat(do_ + k, Scalar::Float(old + prod));
                    }
                }
            }
            return Ok(());
        }
        let (mut ox, mut od) = (xb, db);
        for _ in 0..trip {
            let xvv = self.load_flat_val(xt, ox)?.as_f64();
            let prod = match (av, a_lhs) {
                (Some(a), true) => a * xvv,
                (Some(a), false) => xvv * a,
                (None, _) => xvv,
            };
            self.reduce_flat_val(dt, od, ReduceOp::Add, Scalar::Float(prod))?;
            ox = ox.wrapping_add(xs);
            od = od.wrapping_add(ds);
        }
        Ok(())
    }

    /// `for i { dst[c] += x[f(i)] * y[g(i)] }` — the loop-carried dot.
    fn vec_dot(
        &mut self,
        trip: usize,
        dst: &VecAccess,
        x: &VecAccess,
        y: &VecAccess,
    ) -> Result<(), RuntimeError> {
        let (dt, db, _) = self.acc(dst);
        let (xt, xb, xs) = self.acc(x);
        let (yt, yb, ys) = self.acc(y);
        let xn = self.numel_of(xt)?;
        let yn = self.numel_of(yt)?;
        let dn = self.numel_of(dt)?;
        let lane = contiguous(xb, xs, trip, xn)
            && contiguous(yb, ys, trip, yn)
            && db >= 0
            && (db as usize) < dn
            && dt != xt
            && dt != yt;
        if lane {
            let (xo, yo, do_) = (xb as usize, yb as usize, db as usize);
            let xp: *const Option<VmSlot> = self.slot(xt);
            let yp: *const Option<VmSlot> = self.slot(yt);
            let dp: *mut Option<VmSlot> = self.slot_mut(dt);
            // SAFETY: dst is distinct from both sources (checked above);
            // x and y may alias each other, both views are shared.
            let xv = unsafe { (*xp).as_ref().expect("checked above") };
            let yv = unsafe { (*yp).as_ref().expect("checked above") };
            let dv = unsafe { (*dp).as_mut().expect("checked above") };
            match (&mut dv.val.data, &xv.val.data, &yv.val.data) {
                (Data::F32(d), Data::F32(sx), Data::F32(sy)) => {
                    d[do_] = lanes::dot_f32(d[do_], &sx[xo..xo + trip], &sy[yo..yo + trip]);
                }
                (Data::F64(d), Data::F64(sx), Data::F64(sy)) => {
                    d[do_] = lanes::dot_f64(d[do_], &sx[xo..xo + trip], &sy[yo..yo + trip]);
                }
                _ => {
                    // Mixed float widths: exact f64 math per cell.
                    for k in 0..trip {
                        let p = xv.val.get_flat(xo + k).as_f64() * yv.val.get_flat(yo + k).as_f64();
                        let old = dv.val.get_flat(do_).as_f64();
                        dv.val.set_flat(do_, Scalar::Float(old + p));
                    }
                }
            }
            return Ok(());
        }
        let (mut ox, mut oy) = (xb, yb);
        for _ in 0..trip {
            let xvv = self.load_flat_val(xt, ox)?.as_f64();
            let yvv = self.load_flat_val(yt, oy)?.as_f64();
            self.reduce_flat_val(dt, db, ReduceOp::Add, Scalar::Float(xvv * yvv))?;
            ox = ox.wrapping_add(xs);
            oy = oy.wrapping_add(ys);
        }
        Ok(())
    }

    /// `for i { dst[c] op= x[f(i)] }` — the loop-carried horizontal reduce.
    fn vec_hreduce(
        &mut self,
        trip: usize,
        dst: &VecAccess,
        x: &VecAccess,
        op: ReduceOp,
    ) -> Result<(), RuntimeError> {
        let (dt, db, _) = self.acc(dst);
        let (xt, xb, xs) = self.acc(x);
        let xn = self.numel_of(xt)?;
        let dn = self.numel_of(dt)?;
        let lane = contiguous(xb, xs, trip, xn) && db >= 0 && (db as usize) < dn && dt != xt;
        if lane {
            let (xo, do_) = (xb as usize, db as usize);
            let xp: *const Option<VmSlot> = self.slot(xt);
            let dp: *mut Option<VmSlot> = self.slot_mut(dt);
            // SAFETY: distinct live slots (checked above); ranges in bounds.
            let xv = unsafe { (*xp).as_ref().expect("checked above") };
            let dv = unsafe { (*dp).as_mut().expect("checked above") };
            match (&mut dv.val.data, &xv.val.data) {
                (Data::F32(d), Data::F32(s)) => {
                    let s = &s[xo..xo + trip];
                    d[do_] = match op {
                        ReduceOp::Add => lanes::sum_f32(d[do_], s),
                        ReduceOp::Min => lanes::min_f32(d[do_], s),
                        ReduceOp::Max => lanes::max_f32(d[do_], s),
                        ReduceOp::Mul => unreachable!("rejected at compile time"),
                    };
                }
                (Data::F64(d), Data::F64(s)) => {
                    let s = &s[xo..xo + trip];
                    d[do_] = match op {
                        ReduceOp::Add => lanes::sum_f64(d[do_], s),
                        ReduceOp::Min => lanes::min_f64(d[do_], s),
                        ReduceOp::Max => lanes::max_f64(d[do_], s),
                        ReduceOp::Mul => unreachable!("rejected at compile time"),
                    };
                }
                _ => {
                    // Mixed float widths: exact scalar reduce per cell.
                    for k in 0..trip {
                        let v = xv.val.get_flat(xo + k);
                        let old = dv.val.get_flat(do_);
                        let new = crate::interp::apply_reduce(op, old, v);
                        dv.val.set_flat(do_, new);
                    }
                }
            }
            return Ok(());
        }
        let mut ox = xb;
        for _ in 0..trip {
            let v = self.load_flat_val(xt, ox)?;
            self.reduce_flat_val(dt, db, op, v)?;
            ox = ox.wrapping_add(xs);
        }
        Ok(())
    }

    /// Run one fork-join region on the worker pool, or serially in place
    /// when the work would not pay for the handshake.
    fn exec_region(
        &mut self,
        prog: &VmProgram<'_>,
        site: &ParSite,
        inputs: &HashMap<String, TensorVal>,
    ) -> Result<(), RuntimeError> {
        let b = self.ri(site.s);
        let e = self.ri(site.end);
        if b >= e {
            self.wi(site.s, e);
            return Ok(());
        }
        let trip = (e - b) as usize;
        let pool = WorkerPool::global();
        let workers = (pool.background_workers() + 1).min(trip);
        let work = (trip as u64).saturating_mul(u64::from(site.cost.max(1)));
        if workers <= 1 || work < PAR_THRESHOLD || self.shared.is_some() {
            if let Some(t) = self.tally.as_mut() {
                t.par_serial += 1;
            }
            for i in b..e {
                self.wi(site.s, i);
                self.exec_code(&site.code, prog, inputs)?;
            }
            self.wi(site.s, e);
            return Ok(());
        }
        if let Some(t) = self.tally.as_mut() {
            t.par_pool += 1;
        }
        let grain = grain_for(trip as i64, workers, u64::from(site.cost.max(1)));
        let base_regs = &self.regs;
        let shared = SharedSlots(self.tensors.as_mut_ptr());
        let config = self.config;
        let names = self.names;
        let live = self.live;
        let mask = site.local_mask.as_slice();
        // First error in deterministic (chunk, not thread) order. Region
        // analysis rejects loads of anything the region writes, so whether
        // each iteration faults is independent of the others and the
        // minimum faulting chunk matches the serial first fault.
        let err: Mutex<Option<(usize, RuntimeError)>> = Mutex::new(None);
        let body = |lo: i64, hi: i64| {
            let chunk = ((lo - b) / grain) as usize;
            if err.lock().as_ref().is_some_and(|(c, _)| *c < chunk) {
                return;
            }
            // This chunk's scratch state: the registers as they stood at
            // region entry, and empty slots for the body's own `VarDef`s.
            let mut ws = VmState {
                config,
                names,
                regs: base_regs.clone(),
                tensors: (0..prog.c.n_tensors).map(|_| None).collect(),
                live,
                shared: Some((&shared, mask)),
                tally: None,
                arena: None,
            };
            for i in lo..hi {
                ws.wi(site.s, i);
                if let Err(er) = ws.exec_code(&site.code, prog, inputs) {
                    let mut g = err.lock();
                    if g.as_ref().is_none_or(|(c, _)| chunk < *c) {
                        *g = Some((chunk, er));
                    }
                    break;
                }
            }
        };
        if let Err(payload) = pool.try_run(b, e, grain, workers, &body) {
            std::panic::resume_unwind(payload);
        }
        if let Some((_, er)) = err.into_inner() {
            return Err(er);
        }
        self.wi(site.s, e);
        Ok(())
    }
}

/// The bytecode execution engine, a drop-in replacement for
/// [`Runtime`](crate::interp::Runtime).
#[derive(Debug, Clone, Default)]
pub struct VmRuntime {
    /// Modeled platform parameters: device capacities for the
    /// out-of-memory checks, and the device model of interpreter fallbacks.
    pub config: DeviceConfig,
    sink: Option<TraceSink>,
    metrics: Option<Metrics>,
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

    /// Install (or remove) a trace sink. A sink records a `"vm <name>"`
    /// runtime span per run plus one `vm.lower` span per lowering decision.
    pub fn set_sink(&mut self, sink: Option<TraceSink>) {
        self.sink = sink;
    }

    /// The installed trace sink, if any.
    pub fn sink(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// Install (or remove) a metrics registry. When present, every run
    /// records an `engine.vm.run_us` wall histogram, fused-kernel
    /// dispatch counters (`vm.kernel.*`) with an `engine.vm.kernel_ns`
    /// dispatch-wall histogram, parallel-region scheduling counters
    /// (`vm.par.{pool,serial}`), worker-pool claim counters, and an
    /// `engine.vm.fallback` counter for runs delegated to the interpreter
    /// (those record interpreter metrics instead).
    pub fn set_metrics(&mut self, metrics: Option<Metrics>) {
        self.metrics = metrics;
    }

    /// Execute `func`, falling back to the interpreter for programs the
    /// static compiler cannot type (or whose supplied inputs' dtypes differ
    /// from the declarations).
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
        self.run_inner(func, inputs, sizes, None)
    }

    pub(crate) fn run_inner(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
        mut rctx: Option<&mut crate::arena::RunContext>,
    ) -> Result<RunResult, RuntimeError> {
        let t0 = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let pool_before = self.metrics.as_ref().map(|_| WorkerPool::global().stats());
        // Execute, plan and bind contexts to the function `CompiledEngine`
        // emits C for: a reduction is privatized (or its loop serialized)
        // once, on the IR, for both back ends.
        let (lowered, plan) = ft_codegen::lower_and_plan(func, sizes);
        let func = &*lowered;
        let compiled = crate::compiled::compile(func)?;
        // The interpreter binds inputs by clone whatever their dtype; the
        // VM compiles loads against the declared dtype, so mismatched
        // inputs take the interpreter path instead.
        let dtype_mismatch = compiled.params.iter().any(|(slot, _, dtype, _, atype)| {
            matches!(atype, AccessType::Input | AccessType::InOut)
                && inputs
                    .get(&compiled.tensor_names[*slot])
                    .is_some_and(|t| t.dtype() != *dtype)
        });
        let prog = if dtype_mismatch {
            Err(Unsupported("input.dtype_mismatch"))
        } else {
            compile_program(&compiled)
        };
        let prog = match prog {
            Ok(p) => p,
            Err(Unsupported(reason)) => {
                // Structured fallback: name the construct that kept the
                // program off the VM, then run the interpreter. Never
                // silent — conformance asserts on this span.
                if let Some(sink) = &self.sink {
                    let mut sp = sink.span_on(TRACK_RUNTIME, "vm.fallback", "vm.fallback");
                    sp.arg("reason", reason);
                    sp.arg("target", &func.name);
                }
                let mut rt = Runtime::with_config(self.config.clone());
                rt.set_sink(self.sink.clone());
                if let Some(m) = &self.metrics {
                    m.counter("engine.vm.fallback").inc();
                    rt.set_metrics(self.metrics.clone());
                }
                return rt.run_timed(func, inputs, sizes, rctx);
            }
        };
        // With a cross-run context: pool `Alloc` buffers by the plan's
        // interference classes. Plain `run` allocates every `VarDef` fresh,
        // which is what the planned path is diffed against.
        let mut pool: Option<TensorPool> = None;
        if let Some(c) = rctx.as_deref_mut() {
            c.ensure_bound(func, sizes, &plan)?;
            crate::arena::publish_plan(
                self.sink.as_ref(),
                self.metrics.as_ref(),
                &func.name,
                &plan,
            );
            if crate::arena::plan_matches_names(&plan, &compiled.tensor_names) {
                pool = Some(c.take_tensor_pool(&plan));
            }
        }
        let _span = self
            .sink
            .as_ref()
            .map(|s| s.span_on(TRACK_RUNTIME, "runtime", &format!("vm {}", func.name)));
        // One span per lowering decision, so a trace explains which loops
        // became wide kernels or pool regions and why the rest did not.
        if let Some(sink) = &self.sink {
            for d in &prog.decisions {
                let mut sp = sink.span_on(TRACK_RUNTIME, "vm.lower", d.kind);
                sp.arg("target", &compiled.prof_nodes[d.prof].desc);
                sp.arg("accepted", d.accepted);
                sp.arg(if d.accepted { "how" } else { "reason" }, &d.detail);
            }
        }
        let mut st = VmState {
            config: &self.config,
            names: &compiled.tensor_names,
            regs: vec![0; prog.n_regs],
            tensors: (0..compiled.n_tensors).map(|_| None).collect(),
            live: [0, 0],
            shared: None,
            tally: self.metrics.as_ref().map(|m| VmTally {
                vec: [0; VEC_KERNEL_NAMES.len()],
                par_pool: 0,
                par_serial: 0,
                kernel_ns: m.histogram("engine.vm.kernel_ns"),
            }),
            arena: pool,
        };
        for (name, slot) in &compiled.size_slots {
            let v = *sizes
                .get(name)
                .ok_or_else(|| RuntimeError::UnresolvedSize(name.clone()))?;
            st.regs[*slot] = v as u64;
        }
        let exec_r = st.exec_code(&prog.code, &prog, inputs);
        if let Some(m) = &self.metrics {
            if let Some(t0) = t0 {
                m.histogram("engine.vm.run_us").record_duration_us(t0.elapsed());
            }
            if exec_r.is_err() {
                m.counter("engine.vm.errors").inc();
            }
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
        crate::arena::return_pool(st.arena.take(), self.metrics.as_ref(), rctx.as_deref_mut());
        if let (Err(e), Some(c)) = (&exec_r, rctx) {
            c.poison_on(e);
        }
        exec_r?;
        let mut outputs = HashMap::new();
        for (slot, _, _, _, atype) in &compiled.params {
            if matches!(atype, AccessType::Output | AccessType::InOut) {
                let vt = st.tensors[*slot].take().expect("params stay live");
                outputs.insert(compiled.tensor_names[*slot].clone(), vt.val);
            }
        }
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
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;

    fn maps(
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
    fn assert_parity(
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
    fn mixed_type_select_falls_back_to_interp() {
        // `select` arms of different register types are statically untypable
        // for the VM; the program must still run (via the interpreter) and
        // announce itself as such in the trace.
        let f = Func::new("mixsel")
            .param("y", [4], DataType::F64, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                store(
                    "y",
                    [var("i")],
                    Expr::select(var("i").lt(2), var("i"), Expr::from(0.5f64)),
                ),
            ));
        let (ins, szs) = maps(&[], &[]);
        let ri = Runtime::new().run(&f, &ins, &szs).expect("interp ok");
        let sink = TraceSink::new();
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(sink.clone()));
        let rv = vm.run(&f, &ins, &szs).expect("vm (fallback) ok");
        assert_eq!(ri.outputs, rv.outputs);
        let events = sink.events();
        let fb = events
            .iter()
            .find(|e| e.name == "vm.fallback")
            .unwrap_or_else(|| {
                panic!(
                    "expected a structured vm.fallback span, got {:?}",
                    events.iter().map(|e| &e.name).collect::<Vec<_>>()
                )
            });
        assert!(
            fb.args
                .iter()
                .any(|(k, v)| k == "reason" && v == "select.mixed_arm_types"),
            "fallback span must name the construct, got args {:?}",
            fb.args
        );
        let names: Vec<String> = events.iter().map(|e| e.name.clone()).collect();
        assert!(
            names.iter().any(|n| n == "interp mixsel"),
            "expected interpreter fallback span, got {names:?}"
        );
    }

    #[test]
    fn dtype_mismatch_fallback_names_its_reason() {
        // Inputs whose dtype differs from the declaration take the
        // interpreter path with a named reason — not silently.
        let f = Func::new("mismatch")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                store("y", [var("i")], load("x", [var("i")]) * 2.0f64),
            ));
        let x = TensorVal::from_f64(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let (ins, szs) = maps(&[("x", x)], &[]);
        let sink = TraceSink::new();
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(sink.clone()));
        vm.run(&f, &ins, &szs).expect("fallback run ok");
        let events = sink.events();
        assert!(
            events.iter().any(|e| e.name == "vm.fallback"
                && e.args
                    .iter()
                    .any(|(k, v)| k == "reason" && v == "input.dtype_mismatch")),
            "expected vm.fallback with input.dtype_mismatch, got {:?}",
            events
                .iter()
                .map(|e| (&e.name, &e.args))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn error_parity_division_by_zero() {
        let f = Func::new("div")
            .param("x", [8], DataType::I64, AccessType::Input)
            .param("y", [8], DataType::I64, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                store("y", [var("i")], load("x", [var("i")]) / (var("i") - 2)),
            ));
        let x = TensorVal::from_i64(&[8], (1..9).collect());
        let (ins, szs) = maps(&[("x", x)], &[]);
        let ei = Runtime::new().run(&f, &ins, &szs).unwrap_err();
        let ef = VmRuntime::new().run(&f, &ins, &szs).unwrap_err();
        assert_eq!(ei, RuntimeError::DivisionByZero);
        assert_eq!(ei, ef);
    }

    #[test]
    fn error_parity_out_of_bounds_and_missing_input() {
        // A data-dependent index keeps the VM on the generic
        // (per-dimension checked) path, so the error payload is identical.
        let f = Func::new("oob")
            .param("idx", [1], DataType::I64, AccessType::Input)
            .param("y", [2], DataType::F32, AccessType::Output)
            .body(store("y", [load("idx", [0])], 1.0f32));
        let idx = TensorVal::from_i64(&[1], vec![5]);
        let (ins, szs) = maps(&[("idx", idx)], &[]);
        let ei = Runtime::new().run(&f, &ins, &szs).unwrap_err();
        let ef = VmRuntime::new().run(&f, &ins, &szs).unwrap_err();
        assert_eq!(
            ei,
            RuntimeError::IndexOutOfBounds {
                name: "y".to_string(),
                index: vec![5],
                shape: vec![2],
            }
        );
        assert_eq!(ei, ef);

        let empty = HashMap::new();
        let mi = Runtime::new().run(&f, &empty, &szs).unwrap_err();
        let mv = VmRuntime::new().run(&f, &empty, &szs).unwrap_err();
        assert_eq!(mi, RuntimeError::MissingInput("idx".to_string()));
        assert_eq!(mi, mv);
    }

    #[test]
    fn zero_trip_loops_are_safe_with_strength_reduction() {
        // Zero-trip and negative-trip loops must not fault in the stride
        // probe even though the body indexes `x[i*3 + 1]`.
        let f = Func::new("zt")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(block([
                for_(
                    "i",
                    0,
                    var("n"),
                    store("y", [var("i")], load("x", [var("i") * 3 + 1])),
                ),
                for_(
                    "k",
                    5,
                    2,
                    store("y", [var("k")], 9.0f32),
                ),
            ]));
        let x = TensorVal::from_f32(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let r = assert_parity(&f, &[("x", x.clone())], &[("n", 0)]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 4]);
        // And a one-trip run still reads through the reduced offset.
        let r = assert_parity(&f, &[("x", x)], &[("n", 1)]);
        assert_eq!(r.output("y").get_flat(0).as_f64(), 2.0);
    }

    #[test]
    fn libcall_matmul_parity() {
        let (m, k, n) = (9usize, 5usize, 6usize);
        let f = Func::new("mm")
            .param("A", [m, k], DataType::F32, AccessType::Input)
            .param("B", [k, n], DataType::F32, AccessType::Input)
            .param("C", [m, n], DataType::F32, AccessType::Output)
            .body(ft_ir::Stmt::new(ft_ir::StmtKind::LibCall {
                kernel: "matmul".to_string(),
                inputs: vec!["A".to_string(), "B".to_string()],
                outputs: vec!["C".to_string()],
                attrs: vec![m as i64, k as i64, n as i64],
            }));
        let a = TensorVal::from_f32(&[m, k], (0..m * k).map(|v| v as f32 * 0.5).collect());
        let b = TensorVal::from_f32(&[k, n], (0..k * n).map(|v| (v as f32).sin()).collect());
        let r = assert_parity(&f, &[("A", a), ("B", b)], &[]);
        assert_eq!(r.counters.flops, (2 * m * k * n) as u64);
    }

    #[test]
    fn dtype_mismatched_inputs_fall_back() {
        // The interpreter binds inputs by clone whatever the declared dtype;
        // the VM detects the mismatch and must take the same path.
        let f = Func::new("dt")
            .param("x", [3], DataType::F32, AccessType::Input)
            .param("y", [3], DataType::F64, AccessType::Output)
            .body(for_(
                "i",
                0,
                3,
                store("y", [var("i")], load("x", [var("i")]) + 0.5f64),
            ));
        let x64 = TensorVal::from_f64(&[3], vec![1.25, 2.25, 3.25]);
        let (ins, szs) = maps(&[("x", x64)], &[]);
        let ri = Runtime::new().run(&f, &ins, &szs).expect("interp ok");
        let rv = VmRuntime::new().run(&f, &ins, &szs).expect("vm ok");
        assert_eq!(ri.outputs, rv.outputs);
        assert_eq!(ri.output("y").to_f64_vec(), vec![1.75, 2.75, 3.75]);
    }

    #[test]
    fn oom_error_parity() {
        // 17 Mi f32 = 68 MB > the 64 MB default GPU capacity.
        let f = Func::new("oom")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [17 * 1024 * 1024],
                DataType::F32,
                MemType::GpuGlobal,
                store("y", [0], 1.0f32),
            ));
        let (ins, szs) = maps(&[], &[]);
        let ei = Runtime::new().run(&f, &ins, &szs).unwrap_err();
        let ef = VmRuntime::new().run(&f, &ins, &szs).unwrap_err();
        assert!(matches!(ei, RuntimeError::OutOfMemory { .. }));
        assert_eq!(ei, ef);
    }

    #[test]
    fn strength_reduction_emits_flat_accesses() {
        let affine = Func::new("aff")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                64,
                store("y", [var("i")], load("x", [var("i")])),
            ));
        let c = crate::compiled::compile(&affine).unwrap();
        let prog = compile_program(&c).expect("typable");
        assert!(
            prog.code.iter().any(|i| matches!(i, Instr::LoadFlat { .. })),
            "affine load should strength-reduce"
        );
        assert!(
            prog.code.iter().any(|i| matches!(i, Instr::StoreFlat { .. })),
            "affine store should strength-reduce"
        );

        let gather = Func::new("gat")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("idx", [64], DataType::I64, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                64,
                store("y", [var("i")], load("x", [load("idx", [var("i")])])),
            ));
        let c = crate::compiled::compile(&gather).unwrap();
        let prog = compile_program(&c).expect("typable");
        assert!(
            prog.code.iter().any(|i| matches!(i, Instr::LoadT { .. })),
            "gather load must stay on the generic checked path"
        );
    }

    #[test]
    fn invariant_gather_rows_strength_reduce() {
        // SubdivNet's inner-loop shape: the gathered row index
        // `adj[i, j]` (and its `% 3` neighbour) is invariant in the channel
        // loop, so the channel-loop accesses strength-reduce to flat
        // loads even though the index contains loads and a Mod.
        let (faces, ch) = (6usize, 8usize);
        let f = Func::new("conv")
            .param("e", [faces, ch], DataType::F32, AccessType::Input)
            .param("adj", [faces, 3], DataType::I64, AccessType::Input)
            .param("y", [faces, ch], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                faces as i64,
                for_(
                    "j",
                    0,
                    3,
                    for_(
                        "c",
                        0,
                        ch as i64,
                        reduce(
                            "y",
                            [var("i"), var("c")],
                            ReduceOp::Add,
                            load("e", [load("adj", [var("i"), var("j")]), var("c")])
                                + load(
                                    "e",
                                    [
                                        load("adj", [var("i"), (var("j") + 1) % 3]),
                                        var("c"),
                                    ],
                                ),
                        ),
                    ),
                ),
            ));
        let c = crate::compiled::compile(&f).unwrap();
        let prog = compile_program(&c).expect("typable");
        let flat_loads = prog
            .code
            .iter()
            .filter(|i| matches!(i, Instr::LoadFlat { .. }))
            .count();
        assert!(
            flat_loads >= 2,
            "both invariant-row gathers should strength-reduce, got {flat_loads} flat loads"
        );

        let e = TensorVal::from_f32(
            &[faces, ch],
            (0..faces * ch).map(|v| v as f32 * 0.25 - 3.0).collect(),
        );
        let adj = TensorVal::from_i64(
            &[faces, 3],
            (0..faces * 3)
                .map(|v| ((v * 7 + 2) % faces) as i64)
                .collect(),
        );
        let r = assert_parity(&f, &[("e", e.clone()), ("adj", adj.clone())], &[]);
        // Spot-check one output cell against a direct computation.
        let mut expect = 0.0f32;
        for j in 0..3 {
            let r0 = adj.get_flat(2 * 3 + j).as_i64() as usize;
            let r1 = adj.get_flat(2 * 3 + (j + 1) % 3).as_i64() as usize;
            expect += e.get_flat(r0 * ch + 5).as_f64() as f32
                + e.get_flat(r1 * ch + 5).as_f64() as f32;
        }
        assert_eq!(r.output("y").get_flat(2 * ch + 5).as_f64(), expect as f64);
    }

    #[test]
    fn zero_trip_loop_skips_faulting_preheader() {
        // The hoisted invariant load `idx[7]` is out of bounds, but the
        // loop never runs an iteration — the interpreter succeeds, so the
        // VM's preheader must be skipped by the zero-trip pre-guard.
        let f = Func::new("ztf")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("idx", [4], DataType::I64, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_(
                "c",
                0,
                var("n"),
                store("y", [var("c")], load("x", [load("idx", [7])])),
            ));
        let x = TensorVal::from_f32(&[8], vec![1.0; 8]);
        let idx = TensorVal::from_i64(&[4], vec![0; 4]);
        let r = assert_parity(&f, &[("x", x), ("idx", idx)], &[("n", 0)]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 8]);
    }

    #[test]
    fn guarded_gather_is_not_hoisted() {
        // `idx[0]` is 100 — far out of bounds of `x` — but the guard is
        // false on every iteration, so the interpreter never evaluates the
        // load. Hoisting it into the preheader would fault; conditional
        // accesses must stay on the generic lazily-evaluated path.
        let f = Func::new("guard")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("idx", [1], DataType::I64, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                if_(
                    var("i").lt(0),
                    store("y", [var("i")], load("x", [load("idx", [0])])),
                ),
            ));
        let x = TensorVal::from_f32(&[4], vec![1.0; 4]);
        let idx = TensorVal::from_i64(&[1], vec![100]);
        let r = assert_parity(&f, &[("x", x), ("idx", idx)], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 8]);
    }

    #[test]
    fn loads_from_loop_written_tensors_are_not_hoisted() {
        // `acc[0]` has a loop-invariant index but the loop itself writes
        // `acc`, so the load must be re-evaluated every iteration.
        let f = Func::new("carry")
            .param("y", [8], DataType::I64, AccessType::Output)
            .body(var_def(
                "acc",
                [1usize],
                DataType::I64,
                MemType::CpuHeap,
                for_(
                    "i",
                    0,
                    8,
                    block([
                        store("acc", [0], load("acc", [0]) + var("i")),
                        store("y", [var("i")], load("acc", [0])),
                    ]),
                ),
            ));
        let r = assert_parity(&f, &[], &[]);
        // Running sums 0,1,3,6,... — a stale hoisted load would repeat 0.
        assert_eq!(
            r.output("y").to_f64_vec(),
            vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0]
        );
    }

    #[test]
    fn int_reduction_and_wrapping_parity() {
        // Int reduce via apply_reduce plus wrapping int arithmetic.
        let f = Func::new("ired")
            .param("x", [16], DataType::I32, AccessType::Input)
            .param("s", [1], DataType::I64, AccessType::Output)
            .body(for_(
                "i",
                0,
                16,
                reduce(
                    "s",
                    [0],
                    ReduceOp::Add,
                    load("x", [var("i")]) * load("x", [var("i")]) - var("i"),
                ),
            ));
        let x = TensorVal::from_i32(&[16], (0..16).map(|v| v * 3 - 20).collect());
        let r = assert_parity(&f, &[("x", x)], &[]);
        let expect: i64 = (0..16i64)
            .map(|i| {
                let v = i * 3 - 20;
                v * v - i
            })
            .sum();
        assert_eq!(r.output("s").get_flat(0).as_i64(), expect);
    }

    /// Filter the lowering decision log by span kind, as (accepted, detail).
    fn decisions_of(f: &Func, kind: &str) -> Vec<(bool, String)> {
        let c = crate::compiled::compile(f).unwrap();
        let prog = compile_program(&c).expect("typable");
        prog.decisions
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| (d.accepted, d.detail.clone()))
            .collect()
    }

    /// One loop per fused kernel shape, every loop `vectorize`-marked with
    /// a runtime trip count.
    fn all_kernels_func() -> Func {
        let vec = ForProperty {
            vectorize: true,
            ..ForProperty::serial()
        };
        Func::new("kernels")
            .param("x", [16], DataType::F32, AccessType::Input)
            .param("w", [16], DataType::F32, AccessType::Input)
            .param("yf", [16], DataType::F32, AccessType::Output)
            .param("yc", [16], DataType::F32, AccessType::Output)
            .param("ya", [16], DataType::F32, AccessType::Output)
            .param("yb", [16], DataType::F32, AccessType::Output)
            .param("d", [1], DataType::F32, AccessType::Output)
            .param("hs", [1], DataType::F32, AccessType::Output)
            .param("hmin", [1], DataType::F32, AccessType::Output)
            .param("hmax", [1], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(block([
                // Fill: invariant store.
                for_with("i", 0, var("n"), vec.clone(), store("yf", [var("i")], 1.25f32)),
                // Copy: stride-1 load to stride-1 store.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    store("yc", [var("i")], load("x", [var("i")])),
                ),
                // Axpy with a hoisted multiplier.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce(
                        "ya",
                        [var("i")],
                        ReduceOp::Add,
                        load("x", [var("i")]) * 2.5f32,
                    ),
                ),
                // Elementwise accumulate (Axpy with no multiplier).
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce("yb", [var("i")], ReduceOp::Add, load("x", [var("i")])),
                ),
                // Dot: carried add of a two-stream product.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce(
                        "d",
                        [0],
                        ReduceOp::Add,
                        load("x", [var("i")]) * load("w", [var("i")]),
                    ),
                ),
                // Horizontal reductions: Add, Min, Max.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce("hs", [0], ReduceOp::Add, load("x", [var("i")])),
                ),
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce("hmin", [0], ReduceOp::Min, load("x", [var("i")])),
                ),
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec,
                    reduce("hmax", [0], ReduceOp::Max, load("x", [var("i")])),
                ),
            ]))
    }

    #[test]
    fn every_vectorize_kernel_shape_lowers() {
        let f = all_kernels_func();
        let c = crate::compiled::compile(&f).unwrap();
        let prog = compile_program(&c).expect("typable");
        let veclooops = prog
            .code
            .iter()
            .filter(|i| matches!(i, Instr::VecLoop { .. }))
            .count();
        assert_eq!(veclooops, 8, "all eight marked loops must lower");
        assert_eq!(prog.vec_sites.len(), 8);
        let mut accepted: Vec<String> = prog
            .decisions
            .iter()
            .filter(|d| d.kind == "vm.simd")
            .map(|d| {
                assert!(d.accepted, "unexpected rejection: {}", d.detail);
                d.detail.clone()
            })
            .collect();
        accepted.sort();
        assert_eq!(
            accepted,
            ["axpy", "axpy", "copy", "dot", "fill", "hreduce", "hreduce", "hreduce"]
        );
    }

    #[test]
    fn scalar_tail_parity_across_trip_counts() {
        // Trip counts 0..=9 cover the zero-trip guard, pure-tail loops
        // (n < 4), exactly-one-lane-group (n = 4,8), and every lane+tail
        // split in between; 13 and 16 add multi-group cases. f32 data with
        // irrational-ish mantissas makes any reassociation or skipped
        // per-step rounding visible in the bit pattern.
        let f = all_kernels_func();
        let x = TensorVal::from_f32(&[16], (0..16).map(|v| v as f32 * 0.37 - 2.21).collect());
        let w = TensorVal::from_f32(&[16], (0..16).map(|v| 1.0 / (v as f32 + 1.5)).collect());
        for n in (0..=9).chain([13, 16]) {
            assert_parity(&f, &[("x", x.clone()), ("w", w.clone())], &[("n", n)]);
        }
    }

    #[test]
    fn every_vectorize_rejection_reason_fires() {
        // One loop per structured rejection; each must fall back to the
        // serial lowering (parity below) with the right reason logged.
        let vec = ForProperty {
            vectorize: true,
            ..ForProperty::serial()
        };
        let f = Func::new("rej")
            .param("x", [16], DataType::F32, AccessType::Input)
            .param("xi", [16], DataType::I32, AccessType::Input)
            .param("idx", [16], DataType::I64, AccessType::Input)
            .param("a", [64], DataType::F32, AccessType::Output)
            .param("b", [16], DataType::F32, AccessType::Output)
            .param("c", [16], DataType::F32, AccessType::Output)
            .param("d", [16], DataType::F32, AccessType::Output)
            .param("e", [1], DataType::F32, AccessType::Output)
            .param("g", [16], DataType::F32, AccessType::Output)
            .param("g1", [1], DataType::F32, AccessType::Output)
            .param("h", [16], DataType::F32, AccessType::Output)
            .param("k", [16], DataType::F32, AccessType::Output)
            .param("si", [1], DataType::I64, AccessType::Output)
            .param("p", [1], DataType::F32, AccessType::Output)
            .param("q", [16], DataType::F32, AccessType::Output)
            .body(block([
                // not_innermost
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    for_(
                        "j",
                        0,
                        4,
                        store("a", [var("i") * 4 + var("j")], 1.0f32),
                    ),
                ),
                // conditional_body
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    if_(var("i").lt(8), store("b", [var("i")], load("x", [var("i")]))),
                ),
                // vardef_body
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    var_def(
                        "t",
                        [1usize],
                        DataType::F32,
                        MemType::CpuHeap,
                        block([
                            store("t", [0], load("x", [var("i")])),
                            store("c", [var("i")], load("t", [0]) * 2.0f32),
                        ]),
                    ),
                ),
                // compound_body
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    block([
                        store("d", [var("i")], load("x", [var("i")])),
                        reduce("e", [0], ReduceOp::Add, load("x", [var("i")])),
                    ]),
                ),
                // empty_body
                for_with("i", 0, 16, vec.clone(), Stmt::new(StmtKind::Empty)),
                // dst_not_stride_reducible (scatter store)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    store("g", [load("idx", [var("i")])], 1.0f32),
                ),
                // dst_invariant
                for_with("i", 0, 16, vec.clone(), store("g1", [0], 3.5f32)),
                // src_not_stride_reducible (gather load)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    store("h", [var("i")], load("x", [load("idx", [var("i")])])),
                ),
                // unsupported_value_shape (not a plain load or invariant)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    store("k", [var("i")], load("x", [var("i")]) + 1.0f32),
                ),
                // unsupported_reduce_dtype (integer target)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce("si", [0], ReduceOp::Add, load("xi", [var("i")])),
                ),
                // unsupported_reduce_op (carried product)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce("p", [0], ReduceOp::Mul, load("x", [var("i")])),
                ),
                // reduction_target_reused
                for_with(
                    "i",
                    0,
                    16,
                    vec,
                    reduce("q", [var("i")], ReduceOp::Add, load("q", [var("i")])),
                ),
            ]));
        let mut reasons: Vec<String> = decisions_of(&f, "vm.simd")
            .into_iter()
            .map(|(accepted, detail)| {
                assert!(!accepted, "loop unexpectedly vectorized: {detail}");
                detail
            })
            .collect();
        reasons.sort();
        let mut expect = vec![
            "not_innermost",
            "conditional_body",
            "vardef_body",
            "compound_body",
            "empty_body",
            "dst_not_stride_reducible",
            "dst_invariant",
            "src_not_stride_reducible",
            "unsupported_value_shape",
            "unsupported_reduce_dtype",
            "unsupported_reduce_op",
            "reduction_target_reused",
        ];
        expect.sort_unstable();
        assert_eq!(reasons, expect);
        // Every rejected loop runs the plain serial lowering; outputs must
        // still match the interpreter bit-for-bit.
        let x = TensorVal::from_f32(&[16], (0..16).map(|v| v as f32 * 0.11 - 0.8).collect());
        let xi = TensorVal::from_i32(&[16], (0..16).map(|v| v * 5 - 17).collect());
        let idx = TensorVal::from_i64(&[16], (0..16).map(|v| (v * 7 + 3) % 16).collect());
        assert_parity(&f, &[("x", x), ("xi", xi), ("idx", idx)], &[]);
    }

    /// `target[index] op= value`, flagged `atomic`: what `parallelize` leaves
    /// of a reduction its loop carries.
    fn atomic_reduce(target: &str, index: Expr, op: ReduceOp, value: Expr) -> Stmt {
        Stmt::new(StmtKind::ReduceTo {
            var: target.to_string(),
            indices: vec![index],
            op,
            value,
            atomic: true,
        })
    }

    #[test]
    fn parallel_float_reductions_run_the_lowered_nest() {
        // `y[i] += x[i, j]` and `top max= x[i, j]` with `j` parallel: float
        // reductions carried by the parallel loop. The VM used to serialize
        // such a loop; now it executes the nest the compiled kernel
        // executes — fill, chunk loop, merges, every one a disjoint-write
        // region — so the association is the lowered function's: fixed by
        // the IR, not by which worker ran what, and only close to serial.
        // 2048 rows put the merge of `y` over `PAR_THRESHOLD`: with a helper
        // thread it runs on the pool, on a one-core host inline, same bits.
        let (rows, cols) = (2048usize, 24usize);
        let xij = || load("x", [var("i"), var("j")]);
        let f = Func::new("rowsum")
            .param("x", [rows, cols], DataType::F32, AccessType::Input)
            .param("y", [rows], DataType::F32, AccessType::Output)
            .param("top", [1], DataType::F32, AccessType::Output)
            .body(for_with(
                "j",
                0,
                cols as i64,
                ForProperty::parallel(ParallelScope::OpenMp),
                for_(
                    "i",
                    0,
                    rows as i64,
                    block([
                        atomic_reduce("y", var("i"), ReduceOp::Add, xij()),
                        atomic_reduce("top", 0.into(), ReduceOp::Max, xij()),
                    ]),
                ),
            ));
        let x = TensorVal::from_f32(
            &[rows, cols],
            (0..rows * cols)
                .map(|v| (v as f32 * 0.37).sin() * 3.1)
                .collect(),
        );
        let (ins, szs) = maps(&[("x", x.clone())], &[]);
        let (sink, metrics) = (TraceSink::new(), Metrics::new());
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(sink.clone()));
        vm.set_metrics(Some(metrics.clone()));
        let first = vm.run(&f, &ins, &szs).expect("vm ok");
        assert_eq!(
            metrics.snapshot().counter("vm.par.pool") > 0,
            WorkerPool::global().background_workers() > 0
        );
        let regions: Vec<bool> = sink
            .events()
            .iter()
            .filter(|e| e.name == "vm.parallel")
            .map(|e| e.args.iter().any(|(k, v)| k == "accepted" && v == "true"))
            .collect();
        assert!(
            regions.len() >= 3 && regions.iter().all(|ok| *ok),
            "fill, chunk loop and merge must all stay parallel: {regions:?}"
        );
        for _ in 1..20 {
            let again = vm.run(&f, &ins, &szs).expect("vm ok");
            assert_eq!(again.outputs, first.outputs, "run-to-run bits moved");
        }
        assert_eq!(assert_parity(&f, &[("x", x)], &[]).outputs, first.outputs);
        let serial = Runtime::new().run(&f, &ins, &szs).expect("interp ok");
        assert!(first.output("y").allclose(serial.output("y"), 1e-4));
        assert_eq!(first.output("top"), serial.output("top"));
    }

    #[test]
    fn unlowered_atomic_reduce_is_rejected_never_pooled() {
        // `compile_program` fed the IR `run_inner` never hands it: the
        // colliding reduction still carries its `atomic` flag. The region
        // is refused by name and compiles as a serial loop.
        let f = Func::new("fser")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("acc", [1], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                64,
                ForProperty::parallel(ParallelScope::OpenMp),
                atomic_reduce("acc", 0.into(), ReduceOp::Add, load("x", [var("i")])),
            ));
        let c = crate::compiled::compile(&f).unwrap();
        let prog = compile_program(&c).expect("typable");
        let log: Vec<_> = prog
            .decisions
            .iter()
            .map(|d| (d.kind, d.accepted, d.detail.as_str()))
            .collect();
        assert_eq!(log, [("vm.parallel", false, "atomic_reduce_unlowered")]);
        assert!(prog.par_sites.is_empty());
    }

    #[test]
    fn parallel_region_rejects_overlap_and_unproven_writes() {
        // Reading a tensor the region also writes is a cross-iteration
        // hazard the analysis cannot rule out.
        let f = Func::new("overlap")
            .param("x", [32], DataType::F32, AccessType::Input)
            .param("y", [32], DataType::F32, AccessType::Output)
            .param("z", [32], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                32,
                ForProperty::parallel(ParallelScope::OpenMp),
                block([
                    store("y", [var("i")], load("x", [var("i")]) * 2.0f32),
                    store("z", [var("i")], load("y", [var("i")]) + 1.0f32),
                ]),
            ));
        assert_eq!(
            decisions_of(&f, "vm.parallel"),
            vec![(false, "read_write_overlap".to_string())]
        );
        let x = TensorVal::from_f32(&[32], (0..32).map(|v| v as f32 * 0.5).collect());
        assert_parity(&f, &[("x", x)], &[]);

        // A non-atomic store whose cell does not depend on the parallel
        // iterator could land anywhere; the region must serialize.
        let g = Func::new("unproven")
            .param("y", [1], DataType::I64, AccessType::Output)
            .body(for_with(
                "i",
                0,
                32,
                ForProperty::parallel(ParallelScope::OpenMp),
                store("y", [0], var("i")),
            ));
        assert_eq!(
            decisions_of(&g, "vm.parallel"),
            vec![(false, "unproven_disjoint_write".to_string())]
        );
        assert_parity(&g, &[], &[]);
    }
}
