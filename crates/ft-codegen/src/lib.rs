//! # ft-codegen — source emission for native backends
//!
//! FreeTensor "generates OpenMP or CUDA code from the AST and invokes
//! dedicated backend compilers like gcc or nvcc" (paper §4.3). This crate
//! reproduces the OpenMP half, the one a host `cc` builds and runs; GPU
//! schedules are priced by the interpreter's device model instead
//! (`ft-runtime`), and no CUDA is printed:
//!
//! * [`lower::lower_cpu_parallel`] — the IR→IR step every compiled-C path
//!   and the bytecode VM run first: nested parallel marks become serial
//!   loops and `atomic` reductions become chunk-private partial rows with
//!   an ordered merge; [`lower::prove_parallel`], the legality verdict
//!   both engines run once per resolve, makes every mark of that function
//!   the dependence engine cannot prove serial;
//! * [`lower_scalar`] — the IR→IR step after it, for both back ends:
//!   loop-invariant values, repeated values and reduction targets become
//!   0-d `CpuStack` registers, and a `vectorize` loop that still carries a
//!   reduction loses its mark (the `scalar` module says what, and why the
//!   interpreter cannot tell the difference);
//! * [`c::emit_c`] — the one C unit: C99 with OpenMP pragmas (`parallel
//!   for`, `simd`) for a lowered CPU schedule under its memory plan, with
//!   the `ft_entry` wrapper the compiled engine calls; `Program::emit_c`
//!   shows it for [`lower_and_plan`] at no sizes. It prints what the IR
//!   says: `f32` expressions are spelled in `float`
//!   ([`ft_ir::Expr::dtype`]), a register is a scalar local, and a
//!   `vectorize` loop's `simd reduction` clause names the registers it
//!   folds into (`DESIGN.md` §7 states the numeric contract).

pub mod c;
pub mod lower;
mod scalar;

pub use c::{emit_c, CodegenError, Mangler, ProfSite, VECTOR_MATH, VECTOR_MATH_MACRO};
pub use lower::{lower_cpu_parallel, prove_parallel, Serialized};
pub use scalar::lower_scalar;

use ft_analysis::MemPlan;
use ft_ir::Func;
use std::borrow::Cow;
use std::collections::HashMap;

/// The function the C backend compiles and the VM executes for `func`, and
/// the memory plan of *that* function — the single place
/// [`lower_cpu_parallel`] and [`lower_scalar`] meet [`MemPlan::plan`]. Both
/// engines, the serving admission check and the conformance backend all
/// size, emit and run from this pair, so the partial rows the lowering adds
/// are in the planned peak, come out of the arena and are budgeted (the
/// registers are defs of the plan too, with no arena slot). A `RunContext`
/// keeps the pair for every warm call. The engines also run
/// [`prove_parallel`] on the function when they resolve a call, so a mark
/// the dependence engine cannot prove runs serially on both; the plan does
/// not depend on marks and stays the plan of that function.
pub fn lower_and_plan<'a>(
    func: &'a Func,
    sizes: &HashMap<String, i64>,
) -> (Cow<'a, Func>, MemPlan) {
    let lowered = then(lower_cpu_parallel(func), lower_scalar);
    let plan = MemPlan::plan(&lowered, sizes);
    (lowered, plan)
}

/// `step` applied to the function `first` holds, owned or borrowed.
fn then<'a>(first: Cow<'a, Func>, step: fn(&Func) -> Cow<'_, Func>) -> Cow<'a, Func> {
    match first {
        Cow::Borrowed(f) => step(f),
        Cow::Owned(f) => match step(&f) {
            Cow::Borrowed(_) => Cow::Owned(f),
            Cow::Owned(g) => Cow::Owned(g),
        },
    }
}
