//! A compile-once/run-many serving front door over the compiled engine.
//!
//! The paper's Table 2 amortization argument — compilation cost is paid
//! once because one compiled program serves many executions — only holds
//! under concurrent traffic if the machinery around the compiler is safe to
//! share. [`Server`] is that front door: it accepts `(program, sizes,
//! inputs)` jobs keyed by content hash and runs them on a persistent
//! worker pool over one shared [`CompiledEngine`], with four serving
//! policies layered on top:
//!
//! * **In-flight dedup** — requests for a key whose first (cold)
//!   compilation is still in flight don't start another; they queue behind
//!   it and are counted as `serve.inflight_dedup_hits`. The compile itself
//!   is additionally deduplicated process-wide (singleflight) and
//!   machine-wide (a file lock on cache publishes) inside the engine, so a
//!   64-request stampede on a cold key spawns exactly one `cc`.
//! * **Fairness** — jobs queue per client and are drained round-robin, so
//!   one chatty client cannot starve the rest. The queue is bounded;
//!   overflow is a structured [`ServeError::Overloaded`], not unbounded
//!   growth.
//! * **Context pooling** — each program key keeps a small pool of recycled
//!   [`RunContext`]s. A warm request draws a context whose arena, pools and
//!   staging buffers are already sized for its plan, so steady state
//!   performs zero tensor heap allocations (`mem.arena.warm_alloc_calls`).
//!   Digest-mode requests ([`Request::digest_only`]) let the server keep
//!   the output buffers too, completing the zero-alloc loop.
//! * **Memory budget** — admission is gated on the call's
//!   [`run_peak_bytes`](ft_runtime::Resolved::run_peak_bytes) as the engine
//!   resolves it ([`ExecutionEngine::resolve`]): when the sum over
//!   admitted (queued + executing) jobs would exceed the configured
//!   budget, the request is rejected with the numbers that said no
//!   ([`ServeError::OverBudget`]). A server without a budget does not plan
//!   at admission at all.
//!
//! Everything is observable through ft-metrics: `serve.requests`,
//! `serve.ok`/`serve.errors`, the rejection counters, a
//! `serve.queue_depth` gauge, and `serve.latency_us`/`serve.exec_us`
//! histograms (p50/p99 via `Histogram::quantile`).
//!
//! The implementation is plain threads + channels — no async executor, no
//! external dependencies — matching the rest of the workspace.

use ft_ir::Func;
use ft_metrics::Metrics;
use ft_runtime::{
    CompiledEngine, ExecutionEngine, RunContext, RunResult, RuntimeError, Scalar, TensorVal,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Serving policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs. `0` starts no threads — jobs are
    /// driven manually with [`Server::pump_one`], which makes scheduling
    /// deterministic for tests.
    pub workers: usize,
    /// Maximum queued (admitted, not yet executing) jobs across all
    /// clients; submissions beyond it get [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Per-server memory budget over the planned peak bytes of admitted
    /// jobs; `None` = unbounded.
    pub mem_budget_bytes: Option<u64>,
    /// Recycled `RunContext`s kept per program key. More contexts let more
    /// workers run the same key warm concurrently; each holds the key's
    /// full arena + staging footprint.
    pub ctx_pool_per_key: usize,
    /// Artifact cache directory for the compiled engine (`None` = the
    /// engine's default resolution, honoring `FT_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 256,
            mem_budget_bytes: None,
            ctx_pool_per_key: 4,
            cache_dir: None,
        }
    }
}

/// Why the server refused or failed a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded queue is full — retry later (structured backpressure
    /// instead of unbounded queue growth).
    Overloaded {
        /// Jobs queued at rejection time.
        depth: usize,
        /// The configured queue capacity.
        cap: usize,
    },
    /// Admitting the job would push the planned-peak memory of admitted
    /// jobs over the server's budget.
    OverBudget {
        /// The job's planned peak bytes (arena + parameter buffers).
        requested_bytes: u64,
        /// Planned peak bytes of already-admitted jobs.
        admitted_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// The run itself failed.
    Runtime(RuntimeError),
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, cap } => {
                write!(f, "overloaded: {depth} jobs queued (cap {cap}); retry later")
            }
            ServeError::OverBudget {
                requested_bytes,
                admitted_bytes,
                budget_bytes,
            } => write!(
                f,
                "over_budget: job needs {requested_bytes} planned-peak bytes but \
                 {admitted_bytes} of {budget_bytes} are already admitted"
            ),
            ServeError::Runtime(e) => write!(f, "runtime: {e}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> ServeError {
        ServeError::Runtime(e)
    }
}

/// One serving job: a program, its concrete sizes, and input tensors.
#[derive(Debug, Clone)]
pub struct Request {
    /// The lowered program to run. `Arc` so a stampede of identical
    /// requests shares one copy.
    pub func: Arc<Func>,
    /// Input tensors by parameter name.
    pub inputs: HashMap<String, TensorVal>,
    /// Size-parameter bindings.
    pub sizes: HashMap<String, i64>,
    /// Return an FNV-1a digest of the outputs instead of the tensors.
    /// The server then recycles the output buffers into the key's context
    /// pool, so warm requests allocate nothing at all.
    pub digest_only: bool,
}

impl Request {
    /// A tensor-returning request.
    pub fn new(
        func: Arc<Func>,
        inputs: HashMap<String, TensorVal>,
        sizes: HashMap<String, i64>,
    ) -> Request {
        Request {
            func,
            inputs,
            sizes,
            digest_only: false,
        }
    }

    /// Switch to digest-only responses (zero-alloc warm path).
    pub fn digest(mut self) -> Request {
        self.digest_only = true;
        self
    }
}

/// What a completed job returns.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The output tensors (ownership transferred to the caller).
    Tensors(HashMap<String, TensorVal>),
    /// Content digest of the outputs (buffers stayed in the server's
    /// context pool).
    Digest(u64),
}

/// A completed job with its timing breakdown.
#[derive(Debug, Clone)]
pub struct Response {
    /// Outputs or their digest, per [`Request::digest_only`].
    pub payload: Payload,
    /// Whether the program key had completed at least once before this job
    /// started (i.e. the compile was already amortized).
    pub warm: bool,
    /// Microseconds from admission to execution start.
    pub queue_us: u64,
    /// Microseconds executing (includes the compile on cold keys).
    pub exec_us: u64,
}

impl Response {
    /// The digest value, for digest-mode responses.
    pub fn digest(&self) -> Option<u64> {
        match self.payload {
            Payload::Digest(d) => Some(d),
            Payload::Tensors(_) => None,
        }
    }
}

struct Job {
    key: u64,
    func: Arc<Func>,
    inputs: HashMap<String, TensorVal>,
    sizes: HashMap<String, i64>,
    digest_only: bool,
    peak_bytes: u64,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

/// All mutable scheduling state, behind one mutex: the per-client queues
/// with their round-robin ring, admission accounting, and the key
/// lifecycle sets.
#[derive(Default)]
struct QueueState {
    clients: HashMap<String, VecDeque<Job>>,
    /// Client ids in first-seen order; the drain cursor walks this ring.
    ring: Vec<String>,
    cursor: usize,
    queued: usize,
    /// Planned-peak bytes of admitted (queued + executing) jobs; stays 0
    /// on a server without a budget, which plans nothing at admission.
    admitted_bytes: u64,
    /// Keys submitted whose first completion hasn't happened yet; a second
    /// submission while a key is here is an in-flight dedup hit.
    compiling: HashSet<u64>,
    /// Keys that have completed at least once (artifact + contexts exist).
    warm: HashSet<u64>,
    shutdown: bool,
}

struct Inner {
    cfg: ServeConfig,
    engine: CompiledEngine,
    metrics: Metrics,
    q: Mutex<QueueState>,
    work: Condvar,
    /// Recycled per-key contexts. Separate from the queue mutex so a long
    /// run never blocks admission.
    ctxs: Mutex<HashMap<u64, Vec<RunContext>>>,
}

/// The serving front door. Construct with [`Server::new`], submit with
/// [`Server::submit`] (async, returns a receiver) or [`Server::call`]
/// (blocking). Dropping the server drains nothing: queued jobs get
/// [`ServeError::ShuttingDown`] replies.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Content key of a request: FNV-1a over the printed program (streamed
/// into the hasher, never held as a `String`) and the sorted size bindings.
/// Everything that changes generated code or buffer geometry is in one of
/// the two.
fn content_key(func: &Func, sizes: &HashMap<String, i64>) -> u64 {
    let mut h = ft_ir::Fnv1a::new();
    let _ = write!(h, "{func}");
    let mut kv: Vec<(&String, &i64)> = sizes.iter().collect();
    kv.sort();
    for (k, v) in kv {
        h.write(b"|");
        h.write(k.as_bytes());
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

/// FNV-1a digest over output names, shapes and elements — no allocation,
/// so digest-mode warm requests stay allocation-free end to end.
fn digest_outputs(outputs: &HashMap<String, TensorVal>) -> u64 {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut h = ft_ir::Fnv1a::new();
    for name in names {
        h.write(name.as_bytes());
        let t = &outputs[name];
        for &d in t.shape() {
            h.write(&(d as u64).to_le_bytes());
        }
        for i in 0..t.numel() {
            let v = match t.get_flat(i) {
                Scalar::Int(v) => v as u64,
                Scalar::Float(v) => v.to_bits(),
                Scalar::Bool(v) => v as u64,
            };
            h.write(&v.to_le_bytes());
        }
    }
    h.finish()
}

impl Server {
    /// Start a server: builds the shared compiled engine (metrics
    /// attached) and spawns `cfg.workers` worker threads.
    pub fn new(cfg: ServeConfig, metrics: Metrics) -> Server {
        let mut engine = match &cfg.cache_dir {
            Some(d) => CompiledEngine::with_cache_dir(d.clone()),
            None => CompiledEngine::new(),
        };
        engine.set_metrics(Some(metrics.clone()));
        let inner = Arc::new(Inner {
            cfg,
            engine,
            metrics,
            q: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            ctxs: Mutex::new(HashMap::new()),
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ft-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Submit a job for `client`. Admission control runs synchronously —
    /// backpressure and budget rejections are returned here, not through
    /// the channel. On admission, the result arrives on the returned
    /// receiver once a worker finishes the job.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::OverBudget`], or
    /// [`ServeError::ShuttingDown`]; execution errors arrive through the
    /// receiver as [`ServeError::Runtime`].
    pub fn submit(
        &self,
        client: &str,
        req: Request,
    ) -> Result<mpsc::Receiver<Result<Response, ServeError>>, ServeError> {
        let m = &self.inner.metrics;
        m.counter("serve.requests").inc();
        let key = content_key(&req.func, &req.sizes);
        // The footprint the engine itself resolves for this call: of the
        // function it executes, so partial rows of privatized reductions
        // are budgeted too. Nothing reads the figure without a budget, and
        // resolving is a good part of a small request. A call that does not
        // resolve occupies nothing — the engine refuses it before it binds
        // or allocates, and that error is the reply.
        let peak_bytes = self.inner.cfg.mem_budget_bytes.map_or(0, |_| {
            let resolved = self.inner.engine.resolve(&req.func, &req.sizes);
            resolved.map_or(0, |r| r.run_peak_bytes())
        });
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.inner.q.lock().unwrap();
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if q.queued >= self.inner.cfg.queue_cap {
                m.counter("serve.rejected.backpressure").inc();
                return Err(ServeError::Overloaded {
                    depth: q.queued,
                    cap: self.inner.cfg.queue_cap,
                });
            }
            if let Some(budget) = self.inner.cfg.mem_budget_bytes {
                if q.admitted_bytes.saturating_add(peak_bytes) > budget {
                    m.counter("serve.rejected.budget").inc();
                    return Err(ServeError::OverBudget {
                        requested_bytes: peak_bytes,
                        admitted_bytes: q.admitted_bytes,
                        budget_bytes: budget,
                    });
                }
            }
            if !q.warm.contains(&key) && !q.compiling.insert(key) {
                m.counter("serve.inflight_dedup_hits").inc();
            }
            q.admitted_bytes += peak_bytes;
            if !q.clients.contains_key(client) {
                q.ring.push(client.to_string());
            }
            q.clients
                .entry(client.to_string())
                .or_default()
                .push_back(Job {
                    key,
                    func: req.func,
                    inputs: req.inputs,
                    sizes: req.sizes,
                    digest_only: req.digest_only,
                    peak_bytes,
                    enqueued: Instant::now(),
                    reply: tx,
                });
            q.queued += 1;
            m.gauge("serve.queue_depth").set(q.queued as i64);
        }
        self.inner.work.notify_one();
        Ok(rx)
    }

    /// Submit and wait for the result — the closed-loop client shape.
    ///
    /// # Errors
    ///
    /// As [`submit`](Server::submit), plus any execution error.
    pub fn call(&self, client: &str, req: Request) -> Result<Response, ServeError> {
        let rx = self.submit(client, req)?;
        rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Execute the next queued job on the calling thread (round-robin
    /// order). Returns whether a job was run. This is the `workers: 0`
    /// test harness — scheduling becomes fully deterministic.
    pub fn pump_one(&self) -> bool {
        let job = {
            let mut q = self.inner.q.lock().unwrap();
            pop_round_robin(&mut q, &self.inner.metrics)
        };
        match job {
            Some(j) => {
                execute(&self.inner, j);
                true
            }
            None => false,
        }
    }

    /// Jobs currently queued (admitted, not yet started).
    pub fn queue_depth(&self) -> usize {
        self.inner.q.lock().unwrap().queued
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut q = self.inner.q.lock().unwrap();
            q.shutdown = true;
            // Fail queued jobs instead of silently dropping their reply
            // channels.
            for (_, jobs) in q.clients.iter_mut() {
                for j in jobs.drain(..) {
                    let _ = j.reply.send(Err(ServeError::ShuttingDown));
                }
            }
            q.queued = 0;
        }
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Pop the next job in round-robin client order. Caller holds the queue
/// lock.
fn pop_round_robin(q: &mut QueueState, m: &Metrics) -> Option<Job> {
    if q.queued == 0 || q.ring.is_empty() {
        return None;
    }
    let n = q.ring.len();
    for step in 0..n {
        let idx = (q.cursor + step) % n;
        let client = &q.ring[idx];
        if let Some(job) = q.clients.get_mut(client).and_then(VecDeque::pop_front) {
            q.cursor = (idx + 1) % n;
            q.queued -= 1;
            m.gauge("serve.queue_depth").set(q.queued as i64);
            return Some(job);
        }
    }
    None
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.q.lock().unwrap();
            loop {
                if let Some(j) = pop_round_robin(&mut q, &inner.metrics) {
                    break Some(j);
                }
                if q.shutdown {
                    break None;
                }
                q = inner.work.wait(q).unwrap();
            }
        };
        match job {
            Some(j) => execute(inner, j),
            None => return,
        }
    }
}

/// Run one job to completion and reply. Contexts are drawn from and
/// returned to the key's pool; a failed run poisons its context, which the
/// context itself heals (reset) on next use.
fn execute(inner: &Inner, job: Job) {
    let m = &inner.metrics;
    let queue_us = job.enqueued.elapsed().as_micros() as u64;
    let warm = {
        let q = inner.q.lock().unwrap();
        q.warm.contains(&job.key)
    };
    let mut ctx = inner
        .ctxs
        .lock()
        .unwrap()
        .get_mut(&job.key)
        .and_then(Vec::pop)
        .unwrap_or_default();
    let t0 = Instant::now();
    let r = inner
        .engine
        .run_with(&job.func, &job.inputs, &job.sizes, &mut ctx);
    let exec_us = t0.elapsed().as_micros() as u64;
    let reply = match r {
        Ok(result) => {
            m.counter("serve.ok").inc();
            m.counter(if warm { "serve.warm" } else { "serve.cold" }).inc();
            let payload = if job.digest_only {
                let d = digest_outputs(&result.outputs);
                if ctx.recycle(result).is_err() {
                    // Can't happen for a context the run just bound, but
                    // never let a bad recycle seed the pool.
                    ctx.reset();
                }
                Payload::Digest(d)
            } else {
                let RunResult { outputs, .. } = result;
                Payload::Tensors(outputs)
            };
            Ok(Response {
                payload,
                warm,
                queue_us,
                exec_us,
            })
        }
        Err(e) => {
            m.counter("serve.errors").inc();
            Err(ServeError::Runtime(e))
        }
    };
    let ok = reply.is_ok();
    m.histogram("serve.exec_us").record(exec_us);
    m.histogram("serve.latency_us").record(queue_us + exec_us);
    {
        let mut q = inner.q.lock().unwrap();
        q.admitted_bytes = q.admitted_bytes.saturating_sub(job.peak_bytes);
        q.compiling.remove(&job.key);
        if ok {
            q.warm.insert(job.key);
        }
    }
    {
        let mut pools = inner.ctxs.lock().unwrap();
        let pool = pools.entry(job.key).or_default();
        if pool.len() < inner.cfg.ctx_pool_per_key {
            pool.push(ctx);
        }
    }
    // The caller may have dropped the receiver (fire-and-forget); that's
    // their business.
    let _ = job.reply.send(reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::builder::*;
    use ft_ir::{AccessType, DataType};

    fn fill(name: &str, n: i64, v: f32) -> Arc<Func> {
        Arc::new(
            Func::new(name)
                .param("y", [n], DataType::F32, AccessType::Output)
                .body(for_("i", 0, n, store("y", [var("i")], v))),
        )
    }

    fn req(f: &Arc<Func>) -> Request {
        Request::new(Arc::clone(f), HashMap::new(), HashMap::new())
    }

    /// `y = x` over four elements.
    fn needs_x() -> Arc<Func> {
        Arc::new(
            Func::new("needs_x")
                .param("x", [4], DataType::F32, AccessType::Input)
                .param("y", [4], DataType::F32, AccessType::Output)
                .body(for_("i", 0, 4, store("y", [var("i")], load("x", [var("i")])))),
        )
    }

    /// Streaming the program into the hasher left request keys where they
    /// were: the literal is what the `to_string()` version gave this fixture.
    #[test]
    fn content_key_is_fnv1a_of_the_printed_program_and_sorted_sizes() {
        let sizes = HashMap::from([("n".to_string(), 8i64), ("m".to_string(), -3i64)]);
        let mut bytes = needs_x().to_string().into_bytes();
        bytes.extend([&b"|m"[..], &(-3i64).to_le_bytes(), b"|n", &8i64.to_le_bytes()].concat());
        assert_eq!(content_key(&needs_x(), &sizes), ft_ir::fnv1a(&bytes));
        assert_eq!(ft_ir::fnv1a(&bytes), 0xed26_f631_3aef_ccbf);
    }

    fn manual_server(cfg: ServeConfig) -> Server {
        let dir = std::env::temp_dir().join(format!(
            "ft-serve-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Server::new(
            ServeConfig {
                cache_dir: Some(dir),
                ..cfg
            },
            Metrics::new(),
        )
    }

    #[test]
    fn round_robin_interleaves_clients() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = fill("rr", 4, 1.0);
        // Client a floods 3 jobs, then b and c submit one each. Round-robin
        // drains a, b, c, a, a — not a, a, a, b, c.
        let rxs: Vec<_> = [("a"), ("a"), ("a"), ("b"), ("c")]
            .iter()
            .map(|cl| srv.submit(cl, req(&f)).expect("admitted"))
            .collect();
        assert_eq!(srv.queue_depth(), 5);
        // Tag completion order by draining one at a time.
        let mut order = Vec::new();
        while srv.pump_one() {
            order.push(());
        }
        assert_eq!(order.len(), 5);
        for rx in rxs {
            rx.recv().unwrap().expect("job ok");
        }
        // Fairness is directly visible in queue state transitions; the
        // stronger ordering assertion lives in the integration tests where
        // jobs carry distinguishable outputs.
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.requests"), 5);
        assert_eq!(s.counter("serve.ok"), 5);
    }

    #[test]
    fn backpressure_is_a_structured_error() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            queue_cap: 2,
            ..ServeConfig::default()
        });
        let f = fill("bp", 4, 1.0);
        srv.submit("a", req(&f)).expect("1st admitted");
        srv.submit("a", req(&f)).expect("2nd admitted");
        let err = srv.submit("a", req(&f)).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { depth: 2, cap: 2 });
        // Draining one frees a slot.
        assert!(srv.pump_one());
        srv.submit("a", req(&f)).expect("readmitted");
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.rejected.backpressure"), 1);
    }

    #[test]
    fn memory_budget_rejects_with_reason() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        // y: [1024] f32 = 4 KiB of parameter footprint per job.
        let f = fill("budget", 1024, 1.0);
        let srv = manual_server(ServeConfig {
            workers: 0,
            mem_budget_bytes: Some(6 * 1024),
            ..ServeConfig::default()
        });
        srv.submit("a", req(&f)).expect("first fits");
        let err = srv.submit("a", req(&f)).unwrap_err();
        match err {
            ServeError::OverBudget {
                requested_bytes,
                admitted_bytes,
                budget_bytes,
            } => {
                assert_eq!(budget_bytes, 6 * 1024);
                assert!(requested_bytes >= 4096, "{requested_bytes}");
                assert_eq!(admitted_bytes, requested_bytes);
            }
            other => panic!("want OverBudget, got {other:?}"),
        }
        // Completion releases the admitted bytes.
        assert!(srv.pump_one());
        srv.submit("a", req(&f)).expect("fits after release");
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.rejected.budget"), 1);
    }

    #[test]
    fn inflight_dedup_is_counted_and_warm_keys_are_not() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = fill("dedup", 4, 1.0);
        // Three submissions of one cold key: 1 leader + 2 dedup hits.
        let _r1 = srv.submit("a", req(&f)).unwrap();
        let _r2 = srv.submit("b", req(&f)).unwrap();
        let _r3 = srv.submit("c", req(&f)).unwrap();
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.inflight_dedup_hits"), 2, "{s:?}");
        while srv.pump_one() {}
        // Now the key is warm: more submissions are not "dedup hits" (there
        // is nothing in flight to dedup against).
        srv.submit("a", req(&f)).unwrap();
        while srv.pump_one() {}
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.inflight_dedup_hits"), 2, "{s:?}");
        // Serial draining: the first job is the only cold one — its two
        // piggybackers (and the later submission) all start after the key
        // completed once.
        assert_eq!(s.counter("serve.cold"), 1, "{s:?}");
        assert_eq!(s.counter("serve.warm"), 3, "{s:?}");
        // One compile served all four requests.
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
    }

    #[test]
    fn digest_mode_recycles_outputs_server_side() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = fill("digest", 8, 2.5);
        let rx1 = srv.submit("a", req(&f).digest()).unwrap();
        assert!(srv.pump_one());
        let d1 = rx1.recv().unwrap().unwrap().digest().expect("digest");
        let rx2 = srv.submit("a", req(&f).digest()).unwrap();
        assert!(srv.pump_one());
        let r2 = rx2.recv().unwrap().unwrap();
        assert_eq!(r2.digest(), Some(d1), "deterministic program, same digest");
        assert!(r2.warm);
        // And the digest matches a tensor-mode response's content.
        let rx3 = srv.submit("a", req(&f)).unwrap();
        assert!(srv.pump_one());
        let r3 = rx3.recv().unwrap().unwrap();
        match r3.payload {
            Payload::Tensors(ref outs) => {
                assert_eq!(outs["y"].to_f64_vec(), vec![2.5; 8]);
                assert_eq!(digest_outputs(outs), d1);
            }
            Payload::Digest(_) => panic!("asked for tensors"),
        }
    }

    #[test]
    fn errors_flow_through_the_reply_channel() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        // Missing input tensor: admission passes (it budgets the call's
        // footprint, it does not see the tensors), the engine refuses.
        let f = needs_x();
        let rx = srv
            .submit("a", Request::new(f, HashMap::new(), HashMap::new()))
            .unwrap();
        assert!(srv.pump_one());
        let err = rx.recv().unwrap().unwrap_err();
        assert_eq!(
            err,
            ServeError::Runtime(RuntimeError::MissingInput("x".to_string()))
        );
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.errors"), 1);
        // Refused before anything was compiled for it.
        assert_eq!(s.counter("compiled.cc.spawned"), 0, "{s:?}");
        // The key never became warm; the next attempt is cold again and is
        // the new compile leader (no deadlock on the failed flight).
        assert_eq!(s.counter("serve.warm"), 0);
    }

    #[test]
    fn a_malformed_request_leaves_the_keys_pooled_context_warm() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let f = needs_x();
        let x = TensorVal::from_f32(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let call = |inputs: HashMap<String, TensorVal>| {
            let req = Request::new(Arc::clone(&f), inputs, HashMap::new()).digest();
            let rx = srv.submit("a", req).unwrap();
            assert!(srv.pump_one());
            (rx.recv().unwrap(), srv.metrics().snapshot())
        };
        let good = || HashMap::from([("x".to_string(), x.clone())]);
        call(good()).0.expect("cold request");
        let (reply, warm) = call(good());
        assert!(reply.expect("warm request").warm);
        // Same program, same sizes — same key, same pooled context — but
        // the tensor is missing.
        let (reply, _) = call(HashMap::new());
        assert_eq!(
            reply.unwrap_err(),
            ServeError::Runtime(RuntimeError::MissingInput("x".to_string()))
        );
        let (reply, after) = call(good());
        reply.expect("the request after the malformed one");
        assert_eq!(after.counter("mem.arena.poison_resets"), 0, "{after:?}");
        for flat in ["mem.arena.alloc_calls", "compiled.cc.spawned"] {
            assert_eq!(after.counter(flat), warm.counter(flat), "{flat}: {after:?}");
        }
    }

    #[test]
    fn worker_pool_drains_concurrent_traffic() {
        if !ft_runtime::cc_available() {
            eprintln!("cc unavailable; skipping");
            return;
        }
        let srv = manual_server(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let f = fill("pool", 16, 1.0);
        let rxs: Vec<_> = (0..16)
            .map(|i| srv.submit(&format!("client-{}", i % 4), req(&f)).unwrap())
            .collect();
        for rx in rxs {
            let resp = rx.recv().expect("worker replied").expect("job ok");
            match resp.payload {
                Payload::Tensors(ref outs) => {
                    assert_eq!(outs["y"].to_f64_vec(), vec![1.0; 16]);
                }
                Payload::Digest(_) => panic!("tensor mode"),
            }
        }
        let s = srv.metrics().snapshot();
        assert_eq!(s.counter("serve.ok"), 16);
        assert_eq!(s.counter("compiled.cache.publish"), 1, "{s:?}");
    }
}
