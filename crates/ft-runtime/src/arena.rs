//! Arena-backed buffer reuse driven by [`ft_analysis::MemPlan`].
//!
//! A memory plan assigns every statically-sized `VarDef` of a lowered
//! function to an interference class; defs in one class never overlap in
//! program pre-order (loop-carried defs widened to their enclosing loop), so
//! they can share one backing buffer. This module realizes those classes as
//! per-engine free-lists and the [`RunContext`] every run draws on (`run`
//! on a fresh one):
//!
//! * `TensorPool` — [`TensorVal`] buffers for the interpreter's executor
//!   (`crate::slots::ExecCtx`) and the VM's (`crate::vm`);
//! * `NativeArena` — the single flat allocation handed to generated C
//!   (`unsigned char* __ft_arena`) by the compiled engine;
//! * [`RunContext`] — owns all of the above plus converted input/output
//!   staging buffers, keyed by the plan hash, and keeps the call it last
//!   resolved, so compile-once/run-many steady state performs zero tensor
//!   heap allocations and no lowering or planning.
//!
//! Reuse is observable, not asserted: every pool counts fresh heap
//! allocations (`mem.arena.alloc_calls`) and free-list hits
//! (`mem.arena.reuse_hits`), and the planner's verdict is published as a
//! `mem.plan` runtime span plus a decision-log entry with the
//! planned-vs-naive peak bytes.

use crate::bind::Resolved;
use crate::error::RuntimeError;
use crate::interp::RunResult;
use crate::value::TensorVal;
use ft_analysis::{MemPlan, ARENA_ALIGN};
use ft_ir::{AccessType, DataType, Func, Param, StmtId};
use ft_metrics::Metrics;
use ft_trace::{Decision, TraceSink, Verdict, TRACK_RUNTIME};
use std::collections::HashMap;
use std::sync::Arc;

/// Allocation-behavior counters of one pool (or of the staging layer).
///
/// `alloc_calls` counts genuine heap allocations performed while the pool
/// was active — the quantity a warm [`RunContext`] loop drives to zero.
/// `reuse_hits` counts requests served from a free-list without touching
/// the allocator. Byte fields track the high-water mark of pooled storage.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ArenaStats {
    /// Fresh heap allocations (pool misses, growth reallocations, staging
    /// misses).
    pub(crate) alloc_calls: u64,
    /// Requests served entirely from pooled storage.
    pub(crate) reuse_hits: u64,
    /// Bytes currently held by pooled storage.
    pub(crate) bytes_held: u64,
    /// High-water mark of `bytes_held`.
    pub(crate) bytes_peak: u64,
    /// Times a poisoned context (a run errored mid-way) was reset to a
    /// clean slate before its next run.
    pub(crate) poison_resets: u64,
}

impl ArenaStats {
    pub(crate) fn hit(&mut self) {
        self.reuse_hits += 1;
    }

    pub(crate) fn miss(&mut self, bytes: u64) {
        self.alloc_calls += 1;
        self.bytes_held += bytes;
        self.bytes_peak = self.bytes_peak.max(self.bytes_held);
    }

    /// Flush into the `mem.arena.*` metrics family and reset the per-run
    /// counters (byte high-water marks are monotone and survive).
    fn flush(&mut self, m: &Metrics) {
        m.counter("mem.arena.alloc_calls").add(self.alloc_calls);
        m.counter("mem.arena.reuse_hits").add(self.reuse_hits);
        m.counter("mem.arena.poison_resets").add(self.poison_resets);
        m.gauge("mem.arena.bytes_peak")
            .fetch_max(self.bytes_peak as i64);
        self.alloc_calls = 0;
        self.reuse_hits = 0;
        self.poison_resets = 0;
    }
}

/// Record the resolve's verdicts: a `mem.plan` span on the runtime track,
/// a decision-log entry with planned-vs-naive peak bytes, the
/// `mem.arena.bytes_planned` gauge, and a rejected `lower.parallel`
/// decision per parallel mark the prover made serial, with its reason and
/// dependence.
pub(crate) fn publish_plan(handle: Option<&TraceSink>, resolved: &Resolved<'_>) {
    let Some(s) = handle else { return };
    let (func, plan) = (&resolved.func().name, resolved.plan());
    if s.logs() {
        for r in resolved.serialized() {
            s.decision(Decision {
                pass: None,
                primitive: "lower.parallel".to_string(),
                args: format!("({func}, {})", r.loop_id),
                verdict: Verdict::Rejected,
                reason: Some(r.reason.clone()),
                deps: r.dep.iter().cloned().collect(),
                ts_us: s.now_us(),
            });
        }
        let mut sp = s.span_on(TRACK_RUNTIME, "mem", "mem.plan");
        sp.arg("target", func);
        sp.arg("planned_peak_bytes", plan.planned_peak_bytes);
        sp.arg("naive_peak_bytes", plan.naive_peak_bytes);
        sp.arg("classes", plan.classes.len());
        sp.arg("defs_planned", plan.n_planned());
        sp.arg("zero_elided", plan.n_zero_elided());
        s.decision(Decision {
            pass: Some("memplan".to_string()),
            primitive: "mem.plan".to_string(),
            args: format!("({func})"),
            verdict: Verdict::Applied,
            reason: Some(format!(
                "planned_peak={}B naive_peak={}B classes={} defs={} zero_elided={}",
                plan.planned_peak_bytes,
                plan.naive_peak_bytes,
                plan.classes.len(),
                plan.n_planned(),
                plan.n_zero_elided(),
            )),
            deps: Vec::new(),
            ts_us: s.now_us(),
        });
    }
    s.metrics()
        .gauge("mem.arena.bytes_planned")
        .fetch_max(plan.planned_peak_bytes as i64);
}

/// Class-keyed free-lists of [`TensorVal`] buffers for the interpreter and
/// the VM.
#[derive(Debug)]
pub(crate) struct TensorPool {
    /// The plan the pool realizes: a def's class is its entry's.
    plan: MemPlan,
    free: Vec<Vec<TensorVal>>,
    pub(crate) stats: ArenaStats,
}

impl TensorPool {
    pub(crate) fn new(plan: &MemPlan) -> TensorPool {
        TensorPool {
            free: (0..plan.classes.len()).map(|_| Vec::new()).collect(),
            plan: plan.clone(),
            stats: ArenaStats::default(),
        }
    }

    /// The class the def `def` was packed into, its size, and whether a
    /// reused buffer needs the zero-fill; `None` for an unplanned def.
    fn class(&self, def: StmtId) -> Option<(usize, u64, bool)> {
        let e = self.plan.entry(def)?;
        let class = e.class?;
        Some((class, self.plan.classes[class].bytes, e.must_zero))
    }

    /// A buffer for the `VarDef` statement `def`. Pool hits
    /// skip the zero-fill when the plan proved every element is written
    /// before it is read; misses (and unplanned defs) allocate fresh
    /// zeroed storage.
    pub(crate) fn take_slot(&mut self, def: StmtId, dtype: DataType, shape: &[usize]) -> TensorVal {
        if let Some((class, class_bytes, must_zero)) = self.class(def) {
            while let Some(mut t) = self.free[class].pop() {
                match t.reuse_for(dtype, shape) {
                    Some(grew) => {
                        if must_zero {
                            t.fill_zero();
                        }
                        if grew {
                            self.stats.miss(0);
                        } else {
                            self.stats.hit();
                        }
                        return t;
                    }
                    // dtype mismatch within the class: this buffer cannot
                    // serve the request; drop it and try the next.
                    None => {
                        self.stats.bytes_held = self.stats.bytes_held.saturating_sub(class_bytes);
                    }
                }
            }
            self.stats.miss(class_bytes);
        } else {
            self.stats.miss(0);
        }
        TensorVal::zeros(dtype, shape)
    }

    /// Return a scope-exited def's buffer to its class free-list.
    pub(crate) fn put_slot(&mut self, def: StmtId, t: TensorVal) {
        if let Some((class, _, _)) = self.class(def) {
            self.free[class].push(t);
        }
    }
}

/// The flat backing allocation handed to generated C as
/// `unsigned char* __ft_arena`. Offsets inside are the plan's class
/// offsets; the base pointer is aligned to [`ARENA_ALIGN`].
#[derive(Debug)]
pub(crate) struct NativeArena {
    buf: Vec<u8>,
    pad: usize,
}

impl NativeArena {
    pub(crate) fn new(plan: &MemPlan) -> NativeArena {
        let bytes = plan.planned_peak_bytes as usize;
        let buf = vec![0u8; bytes + ARENA_ALIGN as usize];
        let pad = buf.as_ptr().align_offset(ARENA_ALIGN as usize);
        NativeArena { buf, pad }
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    pub(crate) fn ptr(&mut self) -> *mut u8 {
        // SAFETY: `pad` was computed by `align_offset` on this buffer and
        // the buffer over-allocates by ARENA_ALIGN, so the offset pointer
        // stays in bounds.
        unsafe { self.buf.as_mut_ptr().add(self.pad) }
    }
}

/// What a [`RunContext`] is bound to: the call it last resolved — the
/// caller's function and sizes, which kind of engine resolved them, and the
/// [`Resolved`] itself. Its memory-plan hash, shape signature and output set
/// are the facts every later run and recycle must match; a later call of
/// the same function at the same sizes on the same kind of engine runs it
/// as kept, without resolving again.
#[derive(Debug)]
pub(crate) struct CtxBinding {
    /// The caller's function when the engine executes another one (the
    /// lowering changed it); `None` when it is `resolved.func()` itself.
    source: Option<Func>,
    sizes: HashMap<String, i64>,
    lowers: bool,
    resolved: Resolved<'static>,
}

impl CtxBinding {
    /// The kept call.
    pub(crate) fn resolved(&self) -> &Resolved<'static> {
        &self.resolved
    }

    fn func_name(&self) -> &str {
        &self.resolved.func().name
    }

    fn plan_hash(&self) -> u64 {
        self.resolved.plan().plan_hash()
    }

    /// Whether `func` at `sizes` on an engine that `lowers` resolves to
    /// the kept call: the same engine kind, equal size maps, and a source
    /// function equal in full (`Func ==`), so a call is never served
    /// another body's lowering.
    fn is(&self, func: &Func, sizes: &HashMap<String, i64>, lowers: bool) -> bool {
        self.lowers == lowers
            && self.sizes == *sizes
            && self.source.as_ref().unwrap_or_else(|| self.resolved.func()) == func
    }

    /// Output/InOut parameters with their resolved shapes, for the
    /// recycle-time signature check.
    fn outputs(&self) -> impl Iterator<Item = (&Param, &[usize])> {
        let outs = self.resolved.params();
        outs.filter(|(p, _)| matches!(p.atype, AccessType::Output | AccessType::InOut))
    }
}

/// The state every run draws on, reusable across runs by
/// [`ExecutionEngine::run_with`](crate::ExecutionEngine::run_with):
/// per-engine buffer pools keyed by the memory-plan hash, named staging
/// buffers that keep converted inputs and returned outputs alive between
/// runs, and the call it last resolved.
///
/// A context binds to the first *plan* it runs (memory-plan hash +
/// parameter shape signature), and each engine plans the function it
/// executes: the interpreter `func` as given, the VM and the compiled
/// engine the lowered function of `ft_codegen::lower_and_plan`. Those two
/// can therefore share a context; the interpreter can join them only on a
/// program the lowering leaves untouched. Feed finished results back with
/// [`recycle`](RunContext::recycle) so output buffers return to the
/// staging area instead of being dropped.
///
/// The binding is the resolved call itself — lowered function, memory
/// plan, sizes and shapes — kept with the caller's function and size map.
/// A later call whose function is equal to it in full (`Func ==`, not a
/// name or a hash), whose size map is equal, and whose engine lowers as the
/// one that resolved it runs the kept call without lowering or planning
/// again (`engine.<name>.resolve_reused`); any other call resolves from
/// scratch (`engine.<name>.resolves`) and, when its plan and shapes match
/// the binding, replaces the kept call. A function the lowering leaves
/// untouched is held once.
///
/// Running a bound context against a different program, another engine's
/// plan of the same program, or different shapes is a
/// [`RuntimeError::ContextMismatch`], and recycling
/// a result whose outputs do not match the bound program's output set is a
/// [`RuntimeError::RecycleMismatch`] — both guard the serving path, where
/// contexts are pooled per program key and a crossed wire would seed one
/// program's staging buffers with another's. [`reset`](RunContext::reset)
/// repurposes a context intentionally. A run that fails mid-way *poisons*
/// the context (pools may have lost or half-written buffers); the next
/// `run_with` detects the poison and resets to a clean slate instead of
/// reusing suspect storage, counted as `mem.arena.poison_resets`. A call
/// refused before the run — a missing size, a missing or ill-shaped input,
/// a `ContextMismatch` — neither binds nor poisons: the context stays as
/// warm as it was.
#[derive(Debug, Default)]
pub struct RunContext {
    pub(crate) tensor_pool: Option<TensorPool>,
    pub(crate) native_arena: Option<NativeArena>,
    pub(crate) staging: HashMap<String, TensorVal>,
    /// Staging-layer stats (pools carry their own).
    pub(crate) stats: ArenaStats,
    binding: Option<Arc<CtxBinding>>,
    poisoned: bool,
}

impl RunContext {
    /// An empty context; pools materialize lazily on first planned run.
    pub fn new() -> RunContext {
        RunContext::default()
    }

    /// Hand a finished run's outputs back to the context so their buffers
    /// are reused by the next run instead of freed.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RecycleMismatch`] when the outputs do not belong to
    /// the program this context is bound to (nothing is recycled then).
    pub fn recycle(&mut self, result: RunResult) -> Result<(), RuntimeError> {
        self.recycle_outputs(result.outputs)
    }

    /// As [`recycle`](RunContext::recycle), for a bare output map.
    ///
    /// # Errors
    ///
    /// As [`recycle`](RunContext::recycle).
    pub fn recycle_outputs(
        &mut self,
        outputs: HashMap<String, TensorVal>,
    ) -> Result<(), RuntimeError> {
        if let Some(b) = &self.binding {
            for (name, t) in &outputs {
                let expected = b.outputs().find(|(p, _)| p.name == *name);
                if expected.is_none_or(|(_, shape)| shape != t.shape()) {
                    return Err(RuntimeError::RecycleMismatch {
                        bound_func: b.func_name().to_string(),
                        output: name.clone(),
                        expected_shape: expected.map(|(_, shape)| shape.to_vec()),
                        actual_shape: t.shape().to_vec(),
                    });
                }
            }
        }
        for (name, t) in outputs {
            self.stats.bytes_held += t.size_bytes() as u64;
            self.staging.insert(name, t);
        }
        self.stats.bytes_peak = self.stats.bytes_peak.max(self.stats.bytes_held);
        Ok(())
    }

    /// Drop all pooled storage, staging buffers, and the program binding
    /// with its kept call, returning the context to its freshly-constructed
    /// state (stats survive — they are observability, not state).
    pub fn reset(&mut self) {
        self.tensor_pool = None;
        self.native_arena = None;
        self.staging.clear();
        self.stats.bytes_held = 0;
        self.binding = None;
        self.poisoned = false;
    }

    /// Mark the context suspect: a run using it failed mid-way, so pooled
    /// buffers may be lost or half-written. The next `run_with` resets it
    /// to a clean slate before reuse.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the context is awaiting a poison reset.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The function name this context is bound to, if any.
    pub fn bound_func(&self) -> Option<&str> {
        self.binding.as_ref().map(|b| b.func_name())
    }

    /// The kept call, when `func` at `sizes` on an engine that `lowers`
    /// resolves to it and the context is not poisoned (a poisoned context
    /// resolves afresh, and `ensure_bound` heals it).
    pub(crate) fn kept(
        &self,
        func: &Func,
        sizes: &HashMap<String, i64>,
        lowers: bool,
    ) -> Option<Arc<CtxBinding>> {
        let b = self.binding.as_ref()?;
        (!self.poisoned && b.is(func, sizes, lowers)).then(|| Arc::clone(b))
    }

    /// Run by the engine shell once a fresh call of `func` at `sizes` has
    /// resolved and validated, before the engine draws on the context: heal
    /// a poisoned context (full reset, counted), verify an existing binding
    /// matches, then keep the call as the binding.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ContextMismatch`] when bound to a different
    /// program/plan/shape set; the kept call stays as it was.
    pub(crate) fn ensure_bound(
        &mut self,
        resolved: Resolved<'_>,
        func: &Func,
        sizes: &HashMap<String, i64>,
        lowers: bool,
    ) -> Result<Arc<CtxBinding>, RuntimeError> {
        if self.poisoned {
            self.reset();
            self.stats.poison_resets += 1;
        }
        let plan_hash = resolved.plan().plan_hash();
        if let Some(b) = &self.binding {
            if b.plan_hash() != plan_hash || b.resolved.shape_sig() != resolved.shape_sig() {
                return Err(RuntimeError::ContextMismatch {
                    bound_func: b.func_name().to_string(),
                    bound_plan_hash: b.plan_hash(),
                    requested_func: resolved.func().name.clone(),
                    requested_plan_hash: plan_hash,
                });
            }
        }
        let (resolved, callers) = resolved.into_owned();
        let b = Arc::new(CtxBinding {
            source: (!callers).then(|| func.clone()),
            sizes: sizes.clone(),
            lowers,
            resolved,
        });
        self.binding = Some(Arc::clone(&b));
        Ok(b)
    }

    /// Lend the interpreter or the VM the pool for `plan` — the plan this
    /// context is bound to — for one run; the engine puts it back in
    /// `tensor_pool` when the run ends, successful or not.
    pub(crate) fn take_tensor_pool(&mut self, plan: &MemPlan) -> TensorPool {
        self.tensor_pool
            .take()
            .unwrap_or_else(|| TensorPool::new(plan))
    }

    /// End of a run, successful or not: flush the allocation counters of
    /// the context's pool and of its staging layer into the registry of
    /// `handle`.
    pub(crate) fn end_run(&mut self, handle: Option<&TraceSink>) {
        let Some(m) = handle.map(TraceSink::metrics) else {
            return;
        };
        if let Some(pool) = &mut self.tensor_pool {
            pool.stats.flush(m);
        }
        self.stats.flush(m);
    }

    /// The compiled engine's flat arena for `plan` — the plan this context
    /// is bound to (`ensure_bound` refused any other earlier in the call),
    /// so an arena that exists is this plan's. Counts a fresh allocation (vs
    /// a reuse hit) in the staging stats.
    pub(crate) fn native_arena_for(&mut self, plan: &MemPlan) -> &mut NativeArena {
        match self.native_arena {
            Some(_) => self.stats.hit(),
            None => {
                let a = NativeArena::new(plan);
                self.stats.miss(a.bytes());
                self.native_arena = Some(a);
            }
        }
        self.native_arena.as_mut().expect("just filled")
    }

    /// A staged owned buffer named `name`, retargeted at `(dtype, shape)`.
    /// Zero-fills on reuse when `zeroed` (fresh allocations are already
    /// zeroed). A staging hit with matching dtype performs no heap
    /// allocation. The buffer leaves the staging area, so a miss adds no
    /// held bytes: only [`recycle`](RunContext::recycle) does.
    pub(crate) fn staged_zeros(
        &mut self,
        name: &str,
        dtype: DataType,
        shape: &[usize],
        zeroed: bool,
    ) -> TensorVal {
        if let Some(mut t) = self.staging.remove(name) {
            self.stats.bytes_held = self.stats.bytes_held.saturating_sub(t.size_bytes() as u64);
            if let Some(grew) = t.reuse_for(dtype, shape) {
                if zeroed {
                    t.fill_zero();
                }
                if grew {
                    self.stats.miss(0);
                } else {
                    self.stats.hit();
                }
                return t;
            }
        }
        self.stats.miss(0);
        TensorVal::zeros(dtype, shape)
    }

    /// A staged owned copy of `src` named `name` (used for dtype-converted
    /// or in/out params). Reuses the staged buffer when dtypes match.
    pub(crate) fn staged_copy(&mut self, name: &str, src: &TensorVal) -> TensorVal {
        if let Some(mut t) = self.staging.remove(name) {
            self.stats.bytes_held = self.stats.bytes_held.saturating_sub(t.size_bytes() as u64);
            if let Some(grew) = t.copy_from(src) {
                if grew {
                    self.stats.miss(0);
                } else {
                    self.stats.hit();
                }
                return t;
            }
        }
        self.stats.miss(0);
        src.clone()
    }
}
