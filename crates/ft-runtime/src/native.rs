//! The native compiled execution engine.
//!
//! This is the paper's actual execution model (§4.3): emit C for the
//! lowered function with `ft-codegen`, compile it with the host `cc` into a
//! shared object, `dlopen` it, and call it in-process on the caller's
//! tensor buffers — no interpreter dispatch, no child-process
//! stdout-parsing protocol. Compilation cost is paid once per distinct
//! (source, flags) pair: artifacts live in a content-addressed on-disk
//! cache (`target/ft-cache/<hash>.{c,so}`), and loaded objects are
//! additionally memoized in-process, so repeat traffic — conformance
//! sweeps, warm benchmarks, served requests — spawns zero compiler
//! processes.
//!
//! Cache key (`artifact_key`): FNV-1a over the complete translation unit
//! `ft_codegen::emit_c` emits (function and `ft_entry` wrapper; it
//! already embodies the program, its schedule — scheduling rewrites the IR
//! the emitter prints — and its memory plan, whose offsets and peak are
//! literals in the text), the compiler flag string, and an ABI version
//! bumped whenever the entry-point convention changes. A cached `.so` that
//! does not load is moved aside and rebuilt once, under the key's file lock
//! (`build_locked`).
//!
//! Parallelism: the engine compiles `ft_codegen::lower_cpu_parallel(func)`,
//! not `func` — nested parallel marks serialized, `atomic` reductions
//! turned into chunk-private rows merged in a fixed order — and plans,
//! binds contexts to, and caches by that lowered function. Outputs are
//! therefore bit-identical run to run and across `OMP_NUM_THREADS`. On a
//! toolchain where `-fopenmp` does not link, [`cc_flags`] leaves it out and
//! the kernels are serial; either way a build is one `cc`, never an OpenMP
//! attempt followed by a serial retry.
//!
//! Numerics: generated C computes `float` expressions in single precision,
//! while the interpreter widens to `f64` and rounds on store, so results
//! agree to rounding error, not bit-for-bit — the conformance harness
//! compares this backend under its usual tolerances. `-ffp-contract=off`
//! keeps the compiler from fusing multiply-adds so the difference stays
//! bounded by that rounding story.

use crate::arena::RunContext;
use crate::bind::Resolved;
use crate::counters::PerfCounters;
use crate::engine::{Backend, ExecutionEngine};
use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::process::output_with_timeout;
use crate::value::TensorVal;
use ft_analysis::MemPlan;
use ft_codegen::{emit_c, CodegenError, ProfSite};
use ft_ir::{Fnv1a, Func};
use ft_trace::{
    Decision, ProfileNode, RunProfile, StmtCounters, TraceSink, Verdict, TRACK_RUNTIME,
};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ffi::c_void;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Bump when the generated entry-point convention changes, so stale cached
/// `.so` files from older layouts can never be loaded. v2: `ft_entry` gained
/// a trailing `uint64_t *prof` parameter (NULL when profiling is off).
/// v3: an `unsigned char *arena` parameter between `sizes` and `prof` — the
/// preallocated backing block for memory-planned `VarDef`s (NULL made the
/// kernel malloc/free its own). v4: `arena` is never NULL — the engine
/// always passes its context's block, and the kernel has no fallback.
const ABI_VERSION: u32 = 4;

/// Entry-point signature of every generated shared object:
/// `void ft_entry(void **params, const int64_t *sizes, unsigned char *arena,
/// uint64_t *prof)` with tensor parameters in declaration order followed by
/// size parameters in declaration order. `arena` backs planned local defs
/// and is never NULL. `prof` is only read by profiled builds (slot `k`
/// accumulates wall nanoseconds for outermost loop nest `k`); unprofiled
/// builds ignore it and callers pass NULL.
type EntryFn = unsafe extern "C" fn(*mut *mut c_void, *const i64, *mut c_void, *mut u64);

/// Whether a host C compiler is available (memoized per process).
pub fn cc_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        Command::new("cc")
            .arg("--version")
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false)
    })
}

/// A loaded kernel: the shared object plus its resolved entry point. The
/// library handle is held for as long as the function pointer may be
/// called.
struct LoadedKernel {
    entry: EntryFn,
    /// Profiling site table of a profiled build (slot `k` of the prof array
    /// maps to `sites[k]`); empty for unprofiled builds.
    sites: Vec<ProfSite>,
    _lib: libloading::Library,
}

/// Shared state behind [`CompiledEngine`] clones: the in-process memo of
/// loaded kernels.
#[derive(Default)]
struct EngineState {
    loaded: Mutex<HashMap<u64, Arc<LoadedKernel>>>,
}

/// The compiled execution engine. Cheap to clone (clones share the loaded
/// kernel memo); construction does not touch the filesystem — everything
/// is lazy until the first [`ExecutionEngine::run`].
#[derive(Clone)]
pub struct CompiledEngine {
    cache_dir: PathBuf,
    cc_timeout: Duration,
    /// The `cc` flags of this engine's units; `None` is [`cc_flags`]. Only
    /// tests set it, to build what another host would.
    flags: Option<&'static str>,
    sink: Option<TraceSink>,
    /// Emit per-loop-nest timing hooks into generated C and publish a
    /// [`RunProfile`] per run. Defaults from the `FT_PROFILE` env var.
    profile: bool,
    state: Arc<EngineState>,
}

impl std::fmt::Debug for CompiledEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledEngine")
            .field("cache_dir", &self.cache_dir)
            .finish_non_exhaustive()
    }
}

impl Default for CompiledEngine {
    fn default() -> CompiledEngine {
        CompiledEngine::new()
    }
}

/// Resolve the artifact cache directory: `FT_CACHE_DIR` wins, otherwise
/// the nearest ancestor `target/` directory (so unit tests running from
/// crate subdirectories share the workspace cache), otherwise a temp-dir
/// fallback.
fn default_cache_dir() -> PathBuf {
    if let Ok(d) = std::env::var("FT_CACHE_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d);
        }
    }
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            let t = dir.join("target");
            if t.is_dir() {
                return t.join("ft-cache");
            }
            if !dir.pop() {
                break;
            }
        }
    }
    std::env::temp_dir().join("ft-cache")
}

/// Whether the `FT_PROFILE` env var asks for per-loop-nest profiling
/// (set, non-empty, and not `"0"`).
fn profile_env_enabled() -> bool {
    std::env::var("FT_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Total bytes of all regular files in the artifact cache directory.
fn cache_size_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Take an exclusive advisory lock on `file`, blocking until granted. The
/// lock is released when the file handle is dropped (and by the kernel if
/// the process dies — unlike a lock *file*, it cannot leak and wedge the
/// cache). An `flock` belongs to an open file description, so threads of
/// one process that each open the lock file queue on it as processes do:
/// it is the one lock that deduplicates compiles.
#[cfg(unix)]
fn lock_exclusive(file: &std::fs::File) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    const LOCK_EX: i32 = 2;
    loop {
        if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Hold the OpenMP runtime for the life of the process. Kernels are its
/// only other users, so dropping the last engine used to unload libgomp
/// under its own worker threads — a segfault whenever they were still
/// spinning after a parallel region. Kernels stay unloadable; the runtime
/// does not. A toolchain without libgomp builds serial kernels and has
/// nothing to pin.
fn pin_openmp_runtime() {
    static PINNED: OnceLock<Option<libloading::Library>> = OnceLock::new();
    // SAFETY: the same library every `-fopenmp` kernel links and loads;
    // its initializers are the ones the first kernel would run anyway.
    PINNED.get_or_init(|| unsafe { libloading::Library::new("libgomp.so.1") }.ok());
}

/// `dlopen` an artifact and resolve its entry point.
fn load_artifact(so_path: &Path) -> Result<(libloading::Library, EntryFn), RuntimeError> {
    pin_openmp_runtime();
    // SAFETY: the object was produced by our own emitter + cc (or is a
    // cache entry keyed by the full source), and ft_entry's type is
    // fixed by ABI_VERSION which participates in the key.
    let lib = unsafe { libloading::Library::new(so_path) }
        .map_err(|e| RuntimeError::Native(format!("load {}: {e}", so_path.display())))?;
    let entry = *unsafe { lib.get::<EntryFn>(b"ft_entry\0") }
        .map_err(|e| RuntimeError::Native(format!("resolve ft_entry: {e}")))?;
    Ok((lib, entry))
}

/// The artifact-cache key of a translation unit built with `flags`: one
/// FNV-1a streamed over `unit ‖ 0 ‖ flags ‖ 0 ‖ ABI_VERSION` — stable across
/// processes and Rust versions, unlike `DefaultHasher`, so on-disk keys
/// survive toolchain bumps, and a cache shared by hosts of different flags
/// keeps one artifact per host kind.
fn artifact_key(unit: &str, flags: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(unit.as_bytes());
    h.write(&[0]);
    h.write(flags.as_bytes());
    h.write(&[0]);
    h.write(&ABI_VERSION.to_le_bytes());
    h.finish()
}

impl CompiledEngine {
    /// An engine using the default cache directory (see module docs) and a
    /// 60 s compiler deadline.
    pub fn new() -> CompiledEngine {
        CompiledEngine {
            cache_dir: default_cache_dir(),
            cc_timeout: Duration::from_secs(60),
            flags: None,
            sink: None,
            profile: profile_env_enabled(),
            state: Arc::new(EngineState::default()),
        }
    }

    /// An engine with an explicit artifact cache directory.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> CompiledEngine {
        CompiledEngine {
            cache_dir: dir.into(),
            ..CompiledEngine::new()
        }
    }

    /// Enable or disable per-loop-nest profiling (overrides `FT_PROFILE`).
    /// Profiled and unprofiled builds emit different sources, so they cache
    /// under different keys and never collide.
    pub fn with_profiling(mut self, on: bool) -> CompiledEngine {
        self.profile = on;
        self
    }

    /// Whether this engine emits profiled kernels.
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// The artifact cache directory this engine reads and writes.
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    fn note_cache(&self, hash: u64, hit: bool) {
        if let Some(m) = self.registry() {
            m.counter(if hit {
                "compiled.cache.hit"
            } else {
                "compiled.cache.miss"
            })
            .inc();
        }
        if let Some(sink) = self.log() {
            sink.decision(Decision {
                pass: None,
                primitive: "compiled.cache".to_string(),
                args: format!("({hash:016x})"),
                verdict: Verdict::Applied,
                reason: Some(if hit { "hit" } else { "miss" }.to_string()),
                deps: Vec::new(),
                ts_us: sink.now_us(),
            });
        }
    }

    /// Build under the file lock of `hash`: take it, re-check whether
    /// another thread or process published the artifact while we waited,
    /// and compile only if not. Returns whether a compile actually ran
    /// (false = another thread or process published it first, a cache hit).
    /// `retire`: the caller could not load the published artifact. If, under
    /// the lock, it still does not load — nobody has replaced it since — it
    /// is renamed `<key>.so.bad` (`compiled.cache.quarantined`) and rebuilt.
    fn build_locked(
        &self,
        src: &str,
        hash: u64,
        so_path: &Path,
        retire: bool,
    ) -> Result<bool, RuntimeError> {
        std::fs::create_dir_all(&self.cache_dir).map_err(|e| {
            RuntimeError::Native(format!("create {}: {e}", self.cache_dir.display()))
        })?;
        let lock_path = self.cache_dir.join(format!("{hash:016x}.lock"));
        let lock = std::fs::File::create(&lock_path)
            .map_err(|e| RuntimeError::Native(format!("create {}: {e}", lock_path.display())))?;
        lock_exclusive(&lock)
            .map_err(|e| RuntimeError::Native(format!("lock {}: {e}", lock_path.display())))?;
        if retire
            && load_artifact(so_path).is_err()
            && std::fs::rename(so_path, so_path.with_extension("so.bad")).is_ok()
        {
            if let Some(m) = self.registry() {
                m.counter("compiled.cache.quarantined").inc();
            }
        }
        if so_path.is_file() {
            return Ok(false);
        }
        self.compile(src, hash, so_path)?;
        Ok(true)
        // `lock` drops here, releasing the flock.
    }

    /// Compile `src` into `so_path`, writing the source next to it for
    /// inspection: one `cc`, with the flags this host decided once
    /// ([`cc_flags`]; without `-fopenmp` where OpenMP does not link, and
    /// the emitter's pragmas are then ignored). The flags follow the
    /// source, so a `-l` among them links what the unit needs.
    fn compile(&self, src: &str, hash: u64, so_path: &Path) -> Result<(), RuntimeError> {
        let t0 = Instant::now();
        std::fs::create_dir_all(&self.cache_dir).map_err(|e| {
            RuntimeError::Native(format!("create {}: {e}", self.cache_dir.display()))
        })?;
        let c_path = self.cache_dir.join(format!("{hash:016x}.c"));
        std::fs::write(&c_path, src)
            .map_err(|e| RuntimeError::Native(format!("write {}: {e}", c_path.display())))?;
        // Build into a process-unique temp name and rename into place so a
        // concurrent builder of the same key never observes a partial .so.
        let tmp = self
            .cache_dir
            .join(format!("{hash:016x}.so.tmp.{}", std::process::id()));
        let flags = self.flags();
        let mut cmd = Command::new("cc");
        cmd.arg(&c_path)
            .arg("-o")
            .arg(&tmp)
            .args(flags.split_whitespace())
            .arg("-lm");
        let mut span = self.log().map(|s| {
            let mut sp = s.span("compiled.cc", "compiled.cc");
            sp.arg("hash", format!("{hash:016x}"));
            sp.arg("flags", flags);
            sp
        });
        if let Some(m) = self.registry() {
            m.counter("compiled.cc.spawned").inc();
        }
        let out = output_with_timeout(&mut cmd, self.cc_timeout)
            .map_err(|e| RuntimeError::Native(format!("spawn cc: {e}")))?;
        if let Some(sp) = span.as_mut() {
            sp.arg("ok", out.success());
        }
        if out.timed_out {
            let _ = std::fs::remove_file(&tmp);
            return Err(RuntimeError::ChildTimeout {
                what: "cc".to_string(),
                timeout_ms: self.cc_timeout.as_millis() as u64,
            });
        }
        if !out.success() {
            let _ = std::fs::remove_file(&tmp);
            let err = String::from_utf8_lossy(&out.stderr);
            return Err(RuntimeError::Native(format!("cc failed:\n{err}")));
        }
        std::fs::rename(&tmp, so_path)
            .map_err(|e| RuntimeError::Native(format!("rename artifact: {e}")))?;
        if let Some(m) = self.registry() {
            m.histogram("compiled.compile_us")
                .record_duration_us(t0.elapsed());
            m.counter("compiled.cache.publish").inc();
            m.gauge("compiled.cache.size_bytes")
                .set(cache_size_bytes(&self.cache_dir) as i64);
        }
        Ok(())
    }

    /// Emit + (cache-aware) compile + load the kernel for `func` under
    /// `plan`.
    fn kernel_for(&self, func: &Func, plan: &MemPlan) -> Result<Arc<LoadedKernel>, RuntimeError> {
        // The plan was computed with the run's concrete sizes: distinct size
        // bindings emit (and cache) distinct kernels.
        let (src, sites) = emit_c(func, plan, self.profile).map_err(|e| match e {
            // The interpreter's and the VM's error for the same program.
            CodegenError::UnknownLibKernel { kernel } => RuntimeError::UnknownKernel(kernel),
            e => RuntimeError::Native(format!("codegen: {e}")),
        })?;
        let hash = artifact_key(&src, self.flags());
        if let Some(k) = self.state.loaded.lock().get(&hash) {
            self.note_cache(hash, true);
            return Ok(Arc::clone(k));
        }
        let so_path = self.cache_dir.join(format!("{hash:016x}.so"));
        // Miss in the in-memory memo. A published artifact that loads is a
        // hit. Otherwise any number of engines, threads and processes may
        // want this key at once, and exactly one `cc` must run:
        // `build_locked` queues on the key's file lock and builds only if
        // nobody published the artifact while it waited. A published artifact
        // that does not load (truncated by a full disk, written by something
        // else) sends its finder there with `retire` set; an artifact that
        // fails right after its build is the load error.
        let (lib, entry) = match so_path.is_file().then(|| load_artifact(&so_path)) {
            Some(Ok(loaded)) => {
                self.note_cache(hash, true);
                loaded
            }
            published => {
                let built = self.build_locked(&src, hash, &so_path, published.is_some())?;
                self.note_cache(hash, !built);
                load_artifact(&so_path)?
            }
        };
        let kernel = Arc::new(LoadedKernel {
            entry,
            sites,
            _lib: lib,
        });
        self.state.loaded.lock().insert(hash, Arc::clone(&kernel));
        Ok(kernel)
    }
}

// `-fvect-cost-model=dynamic`: gcc's `-O2` vectorizer runs the `very-cheap`
// model, which gives up on any loop that needs a scalar epilogue or a
// runtime alias check — every channel loop over tensors the unit only knows
// as pointers. `dynamic` is the model `-O3` uses, without `-O3`'s compile
// time; the lanes of a vectorized elementwise loop round as the scalar loop
// does, so outputs stay bit-identical to plain `-O2`. It is not probed: a
// `cc` that rejects it fails loudly.
// `-fpeel-loops` is the part of `-O3` that pays here: it completely peels
// a vector loop of a few constant trips (a 64-wide row is 8 AVX2 vectors),
// so the row stays in registers across the loop around it. All of `-O3`
// measured the same kernels for a little more `cc` time (EXPERIMENTS.md,
// "SIMD the schedule asked for").
const BASE_FLAGS: &str =
    "-O2 -fvect-cost-model=dynamic -fpeel-loops -fPIC -shared -ffp-contract=off";

/// The flags this process builds every unit with, decided once: the base
/// flags, then `-fopenmp` where a link probe shows libgomp links (else the
/// kernels are serial), then `-mavx2` where the CPU has AVX2 (8 `float`
/// lanes instead of SSE's 4), then `-fuse-ld=gold` where a probe shows gold
/// links (it links a unit in half of `ld.bfd`'s ≈ 20 ms, gcc 12 on x86-64),
/// then the vector-math macro and `-lmvec` where one shows libmvec provides
/// the variants `ft_codegen::VECTOR_MATH` declares. The string is part of
/// every artifact key, so a cache shared with a host that decided otherwise
/// never serves it the wrong object.
pub fn cc_flags() -> &'static str {
    static FLAGS: OnceLock<String> = OnceLock::new();
    FLAGS.get_or_init(|| host_flags(has_avx2(), "-fopenmp", "mvec"))
}

fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// [`cc_flags`] for a host with or without AVX2 whose OpenMP flags are
/// `openmp` and whose vector-math library is `-l{lib}`: each of OpenMP,
/// the linker and vector math is added only where a probe — a loop over
/// every declared function, built as an executable, so an unresolved
/// variant fails the link — links with it. One probe tries all three; only
/// when it fails is each tried on its own.
fn host_flags(avx2: bool, openmp: &str, lib: &str) -> String {
    let rungs = [
        format!(" {openmp}"),
        " -fuse-ld=gold".to_string(),
        format!(" -D{} -l{lib}", ft_codegen::VECTOR_MATH_MACRO),
    ];
    let with = |on: [bool; 3]| {
        let pick = |k: usize| if on[k] { rungs[k].as_str() } else { "" };
        let avx2 = if avx2 { " -mavx2" } else { "" };
        format!("{BASE_FLAGS}{}{avx2}{}{}", pick(0), pick(1), pick(2))
    };
    if !cc_available() {
        return with([true, false, false]);
    }
    if probe_links(&with([true; 3])) {
        return with([true; 3]);
    }
    with([0, 1, 2].map(|k| probe_links(&with([k == 0, k == 1, k == 2]))))
}

/// Whether a program calling every function of `ft_codegen::VECTOR_MATH`
/// in a vectorizable loop compiles and links as an executable under
/// `flags` (minus `-shared`).
fn probe_links(flags: &str) -> bool {
    static PROBES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = PROBES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ft-cc-probe-{}-{n}", std::process::id()));
    let src = dir.join("probe.c");
    let probe = format!(
        "#include <math.h>\n{}float x[64], y[64];\ndouble u[64], v[64];\n\
         int main(void) {{\n    for (int i = 0; i < 64; ++i) {{\n        \
         x[i] = expf(x[i]) + logf(y[i]) + powf(x[i], y[i]);\n        \
         u[i] = exp(u[i]) + log(v[i]) + pow(u[i], v[i]);\n    }}\n    \
         return (int)(x[1] + u[1]);\n}}\n",
        ft_codegen::VECTOR_MATH
    );
    let linked = std::fs::create_dir_all(&dir).is_ok()
        && std::fs::write(&src, probe).is_ok()
        && output_with_timeout(
            Command::new("cc")
                .arg(&src)
                .arg("-o")
                .arg(dir.join("probe"))
                .args(flags.split_whitespace().filter(|f| *f != "-shared"))
                .arg("-lm"),
            Duration::from_secs(60),
        )
        .is_ok_and(|o| o.success());
    let _ = std::fs::remove_dir_all(&dir);
    linked
}

impl CompiledEngine {
    fn flags(&self) -> &'static str {
        self.flags.unwrap_or_else(cc_flags)
    }
}

impl ExecutionEngine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }
}

impl Backend for CompiledEngine {
    // Plan, context binding, source and kernel are all of the *lowered*
    // function; params and name are the caller's.
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
        let (func, plan) = (resolved.func(), resolved.plan());
        let kernel = self.kernel_for(func, plan)?;
        let mut span = self
            .log()
            .map(|s| s.span_on(TRACK_RUNTIME, "runtime", &format!("compiled {}", func.name)));
        // The kernel reads Input buffers through const pointers; owned
        // InOut/Output tensors keep their storage alive across the call.
        let mut bound = resolved.bind(inputs, rctx);
        let mut ptrs: Vec<*mut c_void> = bound
            .iter_mut()
            .map(|b| match b {
                // The generated signature takes `const T*` for Input
                // params, so handing out a mut-cast of a shared borrow is
                // never written through.
                Cow::Borrowed(t) => t.as_ptr_untyped() as *mut c_void,
                Cow::Owned(t) => t.as_mut_ptr_untyped(),
            })
            .collect();
        let mut prof_buf: Vec<u64> = vec![0; kernel.sites.len()];
        let prof_ptr = if prof_buf.is_empty() {
            std::ptr::null_mut()
        } else {
            prof_buf.as_mut_ptr()
        };
        // The context allocates the plan's arena once and hands the same
        // block to every call.
        let arena_ptr = rctx.native_arena_for(plan).ptr() as *mut c_void;
        let call_t0 = Instant::now();
        // SAFETY: pointer array length and element types match the
        // generated ft_entry (same Func produced both); every buffer has
        // the shape `resolved` computed from the sizes the kernel is handed
        // (inputs: held to it by `check_inputs` before `execute`; the rest:
        // allocated from it above) and outlives the call; size values are
        // passed by const pointer in declaration order; arena_ptr points at
        // planned_peak_bytes of storage for the plan the kernel was emitted
        // from; prof_ptr is NULL or points at
        // sites.len() slots, matching the profiled build.
        unsafe {
            (kernel.entry)(
                ptrs.as_mut_ptr(),
                resolved.sizes().as_ptr(),
                arena_ptr,
                prof_ptr,
            )
        };
        let call_ns = call_t0.elapsed().as_nanos() as u64;
        if let Some(m) = self.registry() {
            m.histogram("engine.compiled.kernel_us")
                .record(call_ns / 1000);
        }
        if !kernel.sites.is_empty() {
            self.publish_profile(func, &kernel.sites, &prof_buf, call_ns);
        }
        let mut owned: Vec<Option<TensorVal>> = bound
            .into_iter()
            .map(|b| match b {
                Cow::Owned(t) => Some(t),
                Cow::Borrowed(_) => None,
            })
            .collect();
        let outputs = resolved.outputs(inputs, |i| owned[i].take().expect("outputs are owned"));
        if let Some(sp) = span.as_mut() {
            sp.arg("params", func.params.len());
        }
        Ok(RunResult {
            outputs,
            counters: PerfCounters::default(),
        })
    }
}

impl CompiledEngine {
    /// Publish the per-loop-nest timings of a profiled run as a
    /// [`RunProfile`], mirroring the interpreter's attribution shape: node 0
    /// is the function root, one child per outermost loop nest, wall
    /// nanoseconds carried in the (exclusive) `cycles` field. The root gets
    /// the out-of-loop remainder, so `totals()` equals the entry-call wall
    /// time. Site times are also summed into the `compiled.prof.site_ns`
    /// counter for metrics-only consumers.
    fn publish_profile(&self, func: &Func, sites: &[ProfSite], times_ns: &[u64], call_ns: u64) {
        let in_loops: u64 = times_ns.iter().sum();
        if let Some(m) = self.registry() {
            m.counter("compiled.prof.site_ns").add(in_loops);
            m.counter("compiled.prof.call_ns").add(call_ns);
        }
        let Some(sink) = self.log() else { return };
        let mut nodes = vec![ProfileNode {
            stmt: None,
            desc: func.name.clone(),
            parent: None,
            counters: StmtCounters {
                cycles: call_ns.saturating_sub(in_loops) as f64,
                ..StmtCounters::default()
            },
        }];
        for (site, &ns) in sites.iter().zip(times_ns) {
            nodes.push(ProfileNode {
                stmt: Some(site.stmt),
                desc: site.desc.clone(),
                parent: Some(0),
                counters: StmtCounters {
                    trips: 1,
                    cycles: ns as f64,
                    ..StmtCounters::default()
                },
            });
        }
        sink.profile(RunProfile {
            func: func.name.clone(),
            nodes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_metrics::Metrics;

    fn tmp_cache(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ft-native-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

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

    /// `axpy`'s inputs (`x` all 1, `y` all `y0`) and size binding at length `n`.
    fn axpy_io(n: usize, y0: f32) -> (HashMap<String, TensorVal>, HashMap<String, i64>) {
        let inputs = HashMap::from([
            ("x".to_string(), TensorVal::from_f32(&[n], vec![1.0; n])),
            ("y".to_string(), TensorVal::from_f32(&[n], vec![y0; n])),
        ]);
        (inputs, HashMap::from([("n".to_string(), n as i64)]))
    }

    #[test]
    fn compiles_and_runs_in_process() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let eng = CompiledEngine::with_cache_dir(tmp_cache("run"));
        let (inputs, sizes) = axpy_io(5, 0.5);
        let r = eng.run(&axpy(), &inputs, &sizes).expect("runs");
        assert_eq!(r.output("y").to_f64_vec(), vec![2.5; 5]);
        // Input buffer untouched.
        assert_eq!(inputs["x"].to_f64_vec(), vec![1.0; 5]);
    }

    #[test]
    fn second_run_hits_the_cache() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let dir = tmp_cache("hit");
        let sink = TraceSink::new();
        let mut eng = CompiledEngine::with_cache_dir(&dir);
        eng.set_sink(Some(sink.clone()));
        let (inputs, sizes) = axpy_io(3, 0.0);
        eng.run(&axpy(), &inputs, &sizes).expect("cold run");
        eng.run(&axpy(), &inputs, &sizes).expect("warm run");
        // A *fresh* engine (empty in-memory memo) against the same dir
        // must also hit via the on-disk artifact.
        let mut eng2 = CompiledEngine::with_cache_dir(&dir);
        eng2.set_sink(Some(sink.clone()));
        eng2.run(&axpy(), &inputs, &sizes).expect("disk-warm run");
        let reasons: Vec<String> = sink
            .decisions()
            .iter()
            .filter(|d| d.primitive == "compiled.cache")
            .map(|d| d.reason.clone().unwrap_or_default())
            .collect();
        assert_eq!(reasons, ["miss", "hit", "hit"], "{reasons:?}");
    }

    #[test]
    fn cache_traffic_is_counted_in_metrics() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let dir = tmp_cache("metrics");
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(&dir);
        eng.set_sink(Some(TraceSink::from(m.clone())));
        let (inputs, sizes) = axpy_io(3, 0.0);
        eng.run(&axpy(), &inputs, &sizes).expect("cold run");
        eng.run(&axpy(), &inputs, &sizes).expect("warm run");
        let s = m.snapshot();
        assert_eq!(s.counter("compiled.cache.miss"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.hit"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
        // One cc invocation compiled the artifact; the warm run adds none.
        let spawned = s.counter("compiled.cc.spawned");
        assert_eq!(spawned, 1, "{s:?}");
        assert!(s.gauge("compiled.cache.size_bytes") > 0, "{s:?}");
        assert_eq!(
            s.histograms.get("engine.compiled.run_us").map(|h| h.count),
            Some(2),
            "{s:?}"
        );
        // Warm runs through a fresh engine spawn no compiler.
        let mut eng2 = CompiledEngine::with_cache_dir(&dir);
        eng2.set_sink(Some(TraceSink::from(m.clone())));
        eng2.run(&axpy(), &inputs, &sizes).expect("disk-warm run");
        let s2 = m.snapshot();
        assert_eq!(s2.counter("compiled.cc.spawned"), spawned, "{s2:?}");
        assert_eq!(s2.counter("compiled.cache.hit"), 2, "{s2:?}");
        // Both engines asked for one key, and it is what the module doc
        // says: FNV-1a of the emitted unit, the flags and ABI version 4 —
        // no plan hash — with the unit itself cached next to the object.
        let f = axpy();
        let (lowered, plan) = ft_codegen::lower_and_plan(&f, &sizes);
        let unit = emit_c(&lowered, &plan, false).unwrap().0;
        let tail = [&[0][..], cc_flags().as_bytes(), &[0], &4u32.to_le_bytes()].concat();
        let key = ft_ir::fnv1a(&[unit.as_bytes(), &tail].concat());
        assert_eq!(artifact_key(&unit, cc_flags()), key);
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{key:016x}.c"))).unwrap(),
            unit
        );
        assert!(dir.join(format!("{key:016x}.so")).is_file());
    }

    /// An artifact that does not load — truncated, or a shared object
    /// without `ft_entry` — is moved to `<key>.so.bad` and rebuilt by the
    /// request that finds it, once however many find it together; the
    /// engine after that is a plain disk hit.
    #[test]
    fn an_unloadable_cached_artifact_is_quarantined_and_rebuilt() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let (inputs, sizes) = axpy_io(3, 0.0);
        // `engines` fresh engines at once, one registry.
        let run = |dir: &Path, engines: usize| {
            let m = Metrics::new();
            let barrier = std::sync::Barrier::new(engines);
            std::thread::scope(|s| {
                for _ in 0..engines {
                    s.spawn(|| {
                        let mut eng = CompiledEngine::with_cache_dir(dir);
                        eng.set_sink(Some(TraceSink::from(m.clone())));
                        barrier.wait();
                        let r = eng.run(&axpy(), &inputs, &sizes).expect("runs");
                        assert_eq!(r.output("y").to_f64_vec(), vec![2.0; 3]);
                    });
                }
            });
            m.snapshot()
        };
        let truncate = |so: &Path| std::fs::File::options().write(true).open(so)?.set_len(100);
        let foreign = |so: &Path| {
            let c = so.with_extension("foreign.c");
            std::fs::write(&c, "int not_ft_entry(void) { return 0; }\n")?;
            Command::new("cc")
                .args(["-shared", "-fPIC", "-o"])
                .arg(so)
                .arg(&c)
                .status()
                .map(drop)
        };
        type Damage<'a> = &'a dyn Fn(&Path) -> std::io::Result<()>;
        for (tag, damage, finders) in [
            ("trunc", &truncate as Damage, 1),
            ("foreign", &foreign, 1),
            ("race", &truncate, 4),
        ] {
            let dir = tmp_cache(&format!("quarantine-{tag}"));
            let per_build = run(&dir, 1).counter("compiled.cc.spawned");
            let mut files = std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.path());
            let so = files
                .find(|p| p.extension().is_some_and(|x| x == "so"))
                .unwrap();
            damage(&so).unwrap();
            let healed = run(&dir, finders);
            assert_eq!(
                healed.counter("compiled.cache.quarantined"),
                1,
                "{tag}: {healed:?}"
            );
            assert_eq!(
                healed.counter("compiled.cc.spawned"),
                per_build,
                "{tag}: {healed:?}"
            );
            assert!(so.with_extension("so.bad").is_file(), "{tag}");
            let warm = run(&dir, 1);
            assert_eq!(
                warm.counter("compiled.cache.quarantined"),
                0,
                "{tag}: {warm:?}"
            );
            assert_eq!(warm.counter("compiled.cc.spawned"), 0, "{tag}: {warm:?}");
            assert_eq!(warm.counter("compiled.cache.hit"), 1, "{tag}: {warm:?}");
        }
    }

    #[test]
    fn profiled_run_attributes_wall_time_to_loop_nests() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let sink = TraceSink::new();
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(tmp_cache("prof")).with_profiling(true);
        eng.set_sink(Some(sink.with_metrics(m.clone())));
        let (inputs, sizes) = axpy_io(1 << 16, 0.0);
        let r = eng.run(&axpy(), &inputs, &sizes).expect("profiled run");
        assert_eq!(r.output("y").to_f64_vec()[0], 2.0);
        let profiles = sink.profiles();
        assert_eq!(profiles.len(), 1, "{profiles:?}");
        let p = &profiles[0];
        assert_eq!(p.func, "axpy");
        assert_eq!(p.nodes.len(), 2, "{:?}", p.nodes);
        assert_eq!(p.nodes[1].desc, "for i");
        assert_eq!(p.nodes[1].parent, Some(0));
        assert!(p.nodes[1].stmt.is_some());
        // The loop did real work, so its measured time is non-zero and the
        // attribution sums to the entry-call wall time recorded in metrics.
        assert!(p.nodes[1].counters.cycles > 0.0, "{:?}", p.nodes);
        let s = m.snapshot();
        assert!(s.counter("compiled.prof.site_ns") > 0, "{s:?}");
        assert!(
            s.counter("compiled.prof.site_ns") <= s.counter("compiled.prof.call_ns"),
            "{s:?}"
        );
        assert_eq!(
            p.totals().cycles as u64,
            s.counter("compiled.prof.call_ns"),
            "{s:?}"
        );
    }

    #[test]
    fn profiled_and_unprofiled_builds_cache_separately() {
        let f = axpy();
        let plan = MemPlan::plan(&f, &HashMap::from([("n".to_string(), 8i64)]));
        let (src_plain, sites_plain) = emit_c(&f, &plan, false).unwrap();
        let (src_prof, sites_prof) = emit_c(&f, &plan, true).unwrap();
        assert_ne!(
            artifact_key(&src_plain, cc_flags()),
            artifact_key(&src_prof, cc_flags())
        );
        assert!(sites_plain.is_empty());
        assert_eq!(sites_prof.len(), 1);
        assert!(src_prof.contains("__ft_prof"), "{src_prof}");
        assert!(!src_plain.contains("__ft_prof"), "{src_plain}");
    }

    /// A compile-once/run-many loop with a [`RunContext`]: after the first
    /// iteration primes the arena and staging buffers, re-runs perform zero
    /// tensor heap allocations — the `mem.arena.alloc_calls` counter stays
    /// flat while `mem.arena.reuse_hits` climbs — and results stay correct.
    #[test]
    fn warm_run_context_reaches_zero_allocations() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let f = Func::new("smooth")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(var_def(
                "t",
                [var("n")],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    for_(
                        "i",
                        0,
                        var("n"),
                        store("t", [var("i")], load("x", [var("i")]) * 2.0f32),
                    ),
                    for_(
                        "i",
                        0,
                        var("n"),
                        store("y", [var("i")], load("t", [var("i")]) + 1.0f32),
                    ),
                ]),
            ));
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(tmp_cache("warm"));
        eng.set_sink(Some(TraceSink::from(m.clone())));
        let n = 256usize;
        let inputs = HashMap::from([("x".to_string(), TensorVal::from_f32(&[n], vec![1.0; n]))]);
        let sizes = HashMap::from([("n".to_string(), n as i64)]);
        let mut ctx = crate::arena::RunContext::new();
        let r1 = eng.run_with(&f, &inputs, &sizes, &mut ctx).expect("cold");
        assert_eq!(r1.output("y").to_f64_vec(), vec![3.0; n]);
        ctx.recycle(r1).unwrap();
        let cold = m.snapshot();
        assert!(cold.counter("mem.arena.alloc_calls") > 0, "{cold:?}");
        for _ in 0..3 {
            let r = eng.run_with(&f, &inputs, &sizes, &mut ctx).expect("warm");
            assert_eq!(r.output("y").to_f64_vec(), vec![3.0; n]);
            ctx.recycle(r).unwrap();
        }
        let warm = m.snapshot();
        assert_eq!(
            warm.counter("mem.arena.alloc_calls"),
            cold.counter("mem.arena.alloc_calls"),
            "warm iterations must not allocate: {warm:?}"
        );
        assert!(
            warm.counter("mem.arena.reuse_hits") > cold.counter("mem.arena.reuse_hits"),
            "{warm:?}"
        );
        // The arena is the bound plan's: another plan is refused before the
        // arena is consulted, and `reset()` drops it for the next binding.
        let bytes = ctx.native_arena.as_ref().expect("allocated").bytes();
        let sizes2 = HashMap::from([("n".to_string(), 2 * n as i64)]);
        let inputs2 = HashMap::from([(
            "x".to_string(),
            TensorVal::from_f32(&[2 * n], vec![1.0; 2 * n]),
        )]);
        let err = eng.run_with(&f, &inputs2, &sizes2, &mut ctx).unwrap_err();
        assert!(matches!(err, RuntimeError::ContextMismatch { .. }), "{err}");
        assert_eq!(ctx.native_arena.as_ref().expect("kept").bytes(), bytes);
        ctx.reset();
        assert!(ctx.native_arena.is_none());
        eng.run_with(&f, &inputs2, &sizes2, &mut ctx)
            .expect("rebound");
        assert!(ctx.native_arena.as_ref().expect("re-allocated").bytes() > bytes);
    }

    #[test]
    fn output_params_are_zero_initialized() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let f = Func::new("fill_one")
            .param("o", [4], DataType::F64, AccessType::Output)
            .body(store("o", [1], 7.0f64));
        let eng = CompiledEngine::with_cache_dir(tmp_cache("zero"));
        let r = eng.run(&f, &HashMap::new(), &HashMap::new()).expect("runs");
        assert_eq!(r.output("o").to_f64_vec(), vec![0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn two_flag_strings_give_two_artifact_keys() {
        let f = axpy();
        let unit = emit_c(&f, &MemPlan::plan(&f, &HashMap::new()), false)
            .unwrap()
            .0;
        let avx2 = format!("{BASE_FLAGS} -mavx2");
        assert_ne!(artifact_key(&unit, BASE_FLAGS), artifact_key(&unit, &avx2));
        assert!(cc_flags().starts_with(BASE_FLAGS), "{}", cc_flags());
    }

    /// `exp` in a `vectorize` loop: the unit the vector-math flags call
    /// libmvec's variant from.
    fn exp_rows() -> Func {
        let body = store("y", [var("i")], intrin::exp(load("x", [var("i")])));
        let vectorized = ForProperty {
            vectorize: true,
            ..ForProperty::serial()
        };
        Func::new("exp_rows")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(for_with("i", 0, 64, vectorized, body))
    }

    /// A host whose probe fails — here a vector-math library that does not
    /// exist — builds with this host's flags minus vector math, and one
    /// without AVX2 minus `-mavx2` too; a unit built with either spawns `cc`
    /// as often, and as successfully, as one built with this host's own
    /// flags.
    #[test]
    fn a_failed_probe_builds_with_the_base_flags() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let vector_math = format!(" -D{} -lmvec", ft_codegen::VECTOR_MATH_MACRO);
        let without = cc_flags().replace(&vector_math, "");
        let fallbacks = [false, has_avx2()].map(|avx2| {
            let fallback = host_flags(avx2, "-fopenmp", "ft-no-such-library");
            let want = if avx2 {
                without.clone()
            } else {
                without.replace(" -mavx2", "")
            };
            assert_eq!(fallback, want, "AVX2: {avx2}");
            &*Box::leak(fallback.into_boxed_str())
        });
        let x: Vec<f32> = (0..64).map(|i| i as f32 / 8.0 - 4.0).collect();
        let inputs = HashMap::from([("x".to_string(), TensorVal::from_f32(&[64], x.clone()))]);
        let spawns = [fallbacks[0], fallbacks[1], cc_flags()].map(|flags| {
            let sink = TraceSink::new();
            let mut eng = CompiledEngine::with_cache_dir(tmp_cache(&format!(
                "flags-{:016x}",
                ft_ir::fnv1a(flags.as_bytes())
            )));
            eng.flags = Some(flags);
            eng.set_sink(Some(sink.clone()));
            let r = eng
                .run(&exp_rows(), &inputs, &HashMap::new())
                .expect("builds and runs");
            for (got, x) in r.output("y").to_f64_vec().iter().zip(&x) {
                let want = f64::from(x.exp());
                assert!(
                    (got - want).abs() <= 1e-6 * want,
                    "{flags}: exp({x}) = {got}"
                );
            }
            let ok: Vec<String> = sink
                .events()
                .iter()
                .filter(|e| e.name == "compiled.cc")
                .flat_map(|e| {
                    e.args
                        .iter()
                        .filter(|(k, _)| k == "ok")
                        .map(|(_, v)| v.clone())
                })
                .collect();
            ok
        });
        assert!(spawns.iter().all(|s| *s == spawns[2]), "{spawns:?}");
        assert_eq!(
            spawns[2].last().map(String::as_str),
            Some("true"),
            "{spawns:?}"
        );
    }

    /// A host where OpenMP does not link — here its flags name a library
    /// that does not exist — keeps gold and vector math and builds a unit
    /// with one `cc` (not an OpenMP attempt and a serial retry), whose
    /// outputs are right.
    #[test]
    fn a_host_without_openmp_builds_serial_kernels_with_one_cc() {
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let flags = host_flags(has_avx2(), "-fopenmp -lft-no-such-library", "mvec");
        assert_eq!(flags, cc_flags().replace(" -fopenmp", ""));
        let m = Metrics::new();
        let mut eng = CompiledEngine::with_cache_dir(tmp_cache("no-openmp"));
        eng.flags = Some(Box::leak(flags.into_boxed_str()));
        eng.set_sink(Some(TraceSink::from(m.clone())));
        let x: Vec<f32> = (0..64).map(|i| i as f32 / 8.0 - 4.0).collect();
        let inputs = HashMap::from([("x".to_string(), TensorVal::from_f32(&[64], x.clone()))]);
        let r = eng
            .run(&exp_rows(), &inputs, &HashMap::new())
            .expect("builds and runs");
        for (got, x) in r.output("y").to_f64_vec().iter().zip(&x) {
            let want = f64::from(x.exp());
            assert!((got - want).abs() <= 1e-6 * want, "exp({x}) = {got}");
        }
        assert_eq!(m.snapshot().counter("compiled.cc.spawned"), 1);
    }

    #[test]
    fn concurrent_identical_requests_compile_once() {
        // The thundering-herd regression: 8 engines (each with an empty
        // in-memory memo, as 8 serving threads would have) racing the same
        // kernel against a fresh cache dir must spawn `cc` once, for one
        // build, not eight.
        if !cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let (inputs, sizes) = axpy_io(16, 0.0);
        let dir = tmp_cache("herd");
        let m = Metrics::new();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let mut eng = CompiledEngine::with_cache_dir(&dir);
                    eng.set_sink(Some(TraceSink::from(m.clone())));
                    let (inputs, sizes, barrier) = (&inputs, &sizes, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        eng.run(&axpy(), inputs, sizes).expect("stampede run")
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results {
                assert_eq!(r.output("y").to_f64_vec(), vec![2.0; 16]);
            }
        });
        let s = m.snapshot();
        assert_eq!(s.counter("compiled.cc.spawned"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.miss"), 1, "{s:?}");
        assert_eq!(s.counter("compiled.cache.hit"), 7, "{s:?}");
    }
}
