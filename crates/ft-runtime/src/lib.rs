//! # ft-runtime — the instrumented tensor runtime
//!
//! The FreeTensor paper evaluates generated OpenMP/CUDA code on a 24-core
//! Xeon and a V100. This repository substitutes that testbed (per the
//! substitution rule documented in `DESIGN.md`) with an *instrumented
//! interpreter* over the lowered IR that measures exactly the quantities the
//! paper's analysis (Fig. 17) attributes the speedups to:
//!
//! * **kernel launches** — entries into outermost GPU-parallel loop nests;
//! * **DRAM and L2 traffic** — every heap/global access is routed through a
//!   set-associative cache simulator ([`counters::CacheSim`]);
//! * **FLOPs** — floating-point operations actually evaluated;
//! * **memory footprint** — live bytes per device, with out-of-memory errors
//!   when a device's capacity is exceeded (reproducing the OOM entries of
//!   Figs. 16(b)/18);
//! * **modeled time** — an analytic cost in cycle units where parallel loop
//!   bodies are divided by the mapped hardware width, so CPU/GPU schedules
//!   can be compared on a single-core host.
//!
//! Three execution engines are provided behind the common
//! [`ExecutionEngine`] trait, one per role; [`ExecutionEngine::run`] and
//! [`ExecutionEngine::run_with`] are the only ways to run any of them:
//!
//! * **reference semantics + device model** — the deterministic
//!   instrumented interpreter ([`Runtime`]), the *specification* the
//!   other two are diffed against and the only engine that counts or
//!   models device capacities;
//! * **portable fallback** — a flat bytecode VM ([`VmRuntime`],
//!   [`vm`]): a wall-clock path that needs no C compiler. It is a
//!   second back end of the function the production engine compiles
//!   ([`lower_and_plan`]), runs its `OpenMp` loops as fork-join regions on
//!   the persistent [`pool`] workers, and is bit-identical on outputs to
//!   the interpreter run on that lowered function; like the compiled
//!   engine it models no device;
//! * **production** — the native compiled engine ([`CompiledEngine`],
//!   [`native`]) that emits C with `ft-codegen`, compiles it with the host
//!   `cc` into a content-addressed shared-object cache, and calls it
//!   in-process — the paper's actual execution model (§4.3).
//!
//! Whether a parallel schedule is *legal* is decided by dependence
//! analysis (`ft-analysis`), not by running it on threads; the conformance
//! harness checks the analysis by re-running the interpreter with parallel
//! loops reversed (`ft_conformance::Backend::Reordered`).

pub mod arena;
pub mod bind;
pub mod counters;
pub mod device;
pub mod engine;
pub mod error;
pub mod interp;
pub mod libkernel;
pub mod native;
pub mod pool;
pub mod process;
pub(crate) mod slots;
pub mod value;
pub mod vm;

pub use arena::RunContext;
pub use bind::Resolved;
pub use counters::{CacheGeometryError, CacheSim, PerfCounters};
pub use device::DeviceConfig;
pub use engine::ExecutionEngine;
pub use error::RuntimeError;
pub use interp::{RunResult, Runtime};
pub use vm::VmRuntime;
// The (lowered function, memory plan) pair `CompiledEngine` and `VmRuntime`
// execute — what `ExecutionEngine::resolve` hands out for them; re-exported
// for tests that inspect the pair directly.
pub use ft_codegen::lower_and_plan;
pub use native::{cc_available, cc_flags, CompiledEngine};
pub use pool::{PoolStatsSnapshot, WorkerPool};
pub use process::{output_with_timeout, TimedOutput};
pub use value::{Scalar, TensorVal};
