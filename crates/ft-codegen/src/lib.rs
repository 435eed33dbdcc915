//! # ft-codegen — source emission for native backends
//!
//! FreeTensor "generates OpenMP or CUDA code from the AST and invokes
//! dedicated backend compilers like gcc or nvcc" (paper §4.3). This crate
//! reproduces the source-emission half:
//!
//! * [`lower::lower_cpu_parallel`] — the IR→IR step every compiled-C path
//!   and the bytecode VM run first: nested parallel marks become serial
//!   loops and `atomic` reductions become chunk-private partial rows with
//!   an ordered merge; [`lower::prove_parallel`], the legality verdict
//!   both engines run once per resolve, makes every mark of that function
//!   the dependence engine cannot prove serial;
//! * [`c::emit_c`] — C99 with OpenMP pragmas (`parallel for`, `simd`) for
//!   lowered CPU schedules; compile-checked against the host C compiler in
//!   the test suite. What the C computes per element is decided here, not
//!   left to the backend compiler: `f32` expressions are spelled in `float`
//!   ([`ft_ir::Expr::dtype`]), and loop-invariant values, repeated values
//!   and reduction targets go into locals (the crate-private `scalar`
//!   analysis; `DESIGN.md` §7 states the numeric contract);
//! * [`cuda::emit_cuda`] — CUDA-flavoured source: one `__global__` kernel per
//!   outermost GPU-parallel nest plus a host launcher.
//!
//! In this repository the measured substrate is the instrumented interpreter
//! (`ft-runtime`), per the substitution rules in `DESIGN.md`; the emitters
//! exist to close the pipeline the way the paper describes and are validated
//! for syntactic well-formedness.

pub mod c;
pub mod cuda;
pub mod lower;
mod scalar;

pub use c::{
    emit_c, emit_c_planned, CodegenError, Mangler, ProfSite, VECTOR_MATH, VECTOR_MATH_MACRO,
};
pub use cuda::emit_cuda;
pub use lower::{lower_cpu_parallel, prove_parallel, Serialized};

use ft_analysis::MemPlan;
use ft_ir::Func;
use ft_trace::TraceSink;
use std::borrow::Cow;
use std::collections::HashMap;

/// The function the C backend compiles and the VM executes for `func`, and
/// the memory plan of *that* function — the single place
/// [`lower_cpu_parallel`] meets [`MemPlan::plan`]. Both engines, the
/// serving admission check and the conformance backend all size, emit and
/// run from this pair, so the partial rows the lowering adds are in the
/// planned peak, come out of the arena and are budgeted. The engines also
/// run [`prove_parallel`] on the function when they resolve a call, so a
/// mark the dependence engine cannot prove runs serially on both; the plan
/// does not depend on marks and stays the plan of that function.
pub fn lower_and_plan<'a>(
    func: &'a Func,
    sizes: &HashMap<String, i64>,
) -> (Cow<'a, Func>, MemPlan) {
    let lowered = lower_cpu_parallel(func);
    let plan = MemPlan::plan(&lowered, sizes);
    (lowered, plan)
}

/// [`lower_cpu_parallel`] then [`emit_c`], with a provenance span on the
/// compile track of `sink`.
///
/// # Panics
///
/// When `func` calls a library kernel the C backend does not provide
/// ([`CodegenError::UnknownLibKernel`]).
pub fn emit_c_traced(func: &Func, sink: Option<&TraceSink>) -> String {
    emit_traced("emit_c", func, sink, |f| {
        emit_c(&lower_cpu_parallel(f))
            .expect("lowered IR calling library kernels the C backend provides")
    })
}

/// [`emit_cuda`] with a provenance span on the compile track of `sink`.
pub fn emit_cuda_traced(func: &Func, sink: Option<&TraceSink>) -> String {
    emit_traced("emit_cuda", func, sink, emit_cuda)
}

fn emit_traced(
    name: &str,
    func: &Func,
    sink: Option<&TraceSink>,
    emit: fn(&Func) -> String,
) -> String {
    let mut span = sink.map(|s| s.span("codegen", name));
    let src = emit(func);
    if let Some(sp) = span.as_mut() {
        sp.arg("func", &func.name);
        sp.arg("bytes", src.len());
    }
    src
}
