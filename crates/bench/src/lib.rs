//! # bench — harnesses regenerating every figure and table of the paper
//!
//! Binaries (each prints the rows/series of one exhibit; see EXPERIMENTS.md
//! for recorded paper-vs-measured comparisons):
//!
//! | binary | paper exhibit |
//! |---|---|
//! | `fig16` | Fig. 16(a) end-to-end w/o differentiation; `--grad` for 16(b) |
//! | `fig17` | Fig. 17 speedup analysis (kernels / DRAM / L2 / FLOPs) |
//! | `fig18` | Fig. 18 selective-materialization ablation (FT(-) vs FT(+)) |
//! | `table2` | Table 2 compile time: rule-based vs search-based tuning |
//!
//! Measurement note (documented substitution): each FreeTensor case runs on
//! two engines with one job each. The *instrumented interpreter* — the
//! semantic reference, which both systems charge identically — produces the
//! hardware-independent counters and the modeled cycle time, the paper's
//! axis. The *native compiled engine* (`ft_runtime::CompiledEngine`: C →
//! `cc` → shared object called in-process, compile time amortized away by
//! the artifact cache) produces the wall-clock, [`CaseResult::wall_ms`], on
//! CPU cases; the GPU axis is modeled only. The baseline operators execute
//! native Rust kernels, so cross-system wall-clock is only indicative. The
//! compiled engine reads the caller's tensors in place, so no wall includes
//! a copy of the inputs.

use ft_autodiff::{GradOptions, TapePolicy};
use ft_autoschedule::search::{
    prepare_candidate, Measured, SavedSchedule, SearchConfig, SearchOutcome,
};
use ft_autoschedule::Target;
use ft_ir::{Device, Func};
use ft_metrics::Metrics;
use ft_opbase::{OpError, Session};
use ft_runtime::{
    cc_available, CompiledEngine, DeviceConfig, ExecutionEngine, PerfCounters, RunContext, Runtime,
    RuntimeError, TensorVal,
};
use ft_schedule::trace::ScheduleOp;
use ft_trace::JsonVal;
use ft_workloads::{Inputs, Instance};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which system executes a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Operator-based baseline (PyTorch/JAX/DGL stand-in).
    OpBase,
    /// FreeTensor program, unscheduled (the fine-grained "Julia-style" run).
    FtNaive,
    /// FreeTensor program after rule-based auto-scheduling.
    FtOptimized,
    /// FreeTensor program replaying a search-found schedule trace
    /// (`ft-autoschedule --search`), loaded from `results/schedules/`.
    FtSearched,
}

impl System {
    /// Display label used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            System::OpBase => "operator-based",
            System::FtNaive => "fine-grained (naive)",
            System::FtOptimized => "FreeTensor",
            System::FtSearched => "FreeTensor (searched)",
        }
    }

    /// Stable machine-readable key used in `BENCH.json`.
    pub fn key(self) -> &'static str {
        match self {
            System::OpBase => "opbase",
            System::FtNaive => "ft-naive",
            System::FtOptimized => "ft-optimized",
            System::FtSearched => "ft-searched",
        }
    }
}

pub use ft_workloads::{Scale, Workload};

/// Outcome of one measured case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Wall-clock milliseconds: for FreeTensor systems the best warm
    /// operation of the native compiled engine, compilation excluded (the
    /// first run pays it through the artifact cache), and `None` on GPU cases
    /// and on hosts without a C compiler; for the operator baseline its
    /// native kernels (see the crate-level measurement note). On failure
    /// this is the elapsed time of the failing stage.
    pub wall_ms: Option<f64>,
    /// Wall-clock milliseconds the *search* that produced this schedule
    /// spent, carried over from the replayed [`SavedSchedule`] — the
    /// tuning cost axis. `None` for every non-searched system.
    pub search_wall_ms: Option<f64>,
    /// Modeled execution time in cycle units.
    pub cycles: f64,
    /// Full counter set.
    pub counters: PerfCounters,
    /// `None` = ran; `Some(reason)` = failed (e.g. "OOM").
    pub failure: Option<String>,
    /// Pipeline stage a failure occurred in (`"grad"`, `"run"`,
    /// `"compiled"`, `"schedule"`),
    /// `None` when the case ran.
    pub failed_stage: Option<&'static str>,
    /// Peak temporary (`VarDef`) bytes live at once under naive
    /// stack-discipline allocation — what every engine allocated before the
    /// static memory planner (`None` for the operator baseline, which has
    /// no IR to plan).
    pub peak_naive_bytes: Option<u64>,
    /// Peak arena bytes under the liveness-packed memory plan
    /// (`ft_analysis::MemPlan`). Deterministic for a given schedule, and
    /// never legitimately above `peak_naive_bytes` — `bench_check` blocks
    /// on both that and regressions against the committed baseline.
    pub peak_planned_bytes: Option<u64>,
    /// Arena/staging allocation calls observed during the *warm* compiled
    /// runs through a reused `RunContext` that time `wall_ms` (every run
    /// after the first). The memory
    /// planner's steady-state claim is that this is 0 — `bench_check
    /// --expect-warm` gates on the aggregated `mem.arena.warm_alloc_calls`
    /// counter. `None` off-CPU, without a C compiler, or on failures.
    pub warm_alloc_calls: Option<u64>,
    /// Total temporary bytes the pre-planner regime heap-allocated per run:
    /// every `VarDef` incarnation counted once per enclosing-loop iteration
    /// (the fresh-zeroed-buffer-per-entry behaviour the arena replaced).
    /// `bench_check` requires the planned peak to beat this strictly
    /// whenever loop reallocation made it exceed the stack peak.
    pub naive_alloc_bytes: Option<u64>,
}

impl CaseResult {
    /// A case that produced no measurement: skipped, or failed in `stage`
    /// after `elapsed_ms`. No cycle count, no counters, no memory axes.
    pub fn not_run(stage: &'static str, reason: String, elapsed_ms: f64) -> CaseResult {
        CaseResult {
            wall_ms: Some(elapsed_ms),
            search_wall_ms: None,
            cycles: f64::NAN,
            counters: PerfCounters::default(),
            failure: Some(reason),
            failed_stage: Some(stage),
            peak_naive_bytes: None,
            peak_planned_bytes: None,
            warm_alloc_calls: None,
            naive_alloc_bytes: None,
        }
    }
}

/// The process-wide metrics registry shared by every engine a bench sweep
/// touches (interpreter, compiled). One registry per process means a
/// `fig16 --metrics` run exports the whole sweep's telemetry — engine run
/// histograms, compile counts, cache hit/miss, pool stats — as one
/// `results/METRICS.json` document.
pub fn bench_metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(Metrics::new)
}

/// The process-wide compiled engine behind the wall-clock axis: one
/// instance keeps the in-memory kernel memo warm across every case in a
/// sweep, on top of the on-disk artifact cache.
fn bench_compiled_engine() -> &'static CompiledEngine {
    static ENGINE: OnceLock<CompiledEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut e = CompiledEngine::new();
        e.set_metrics(Some(bench_metrics().clone()));
        e
    })
}

/// Workload inputs + compiled programs for one (workload, scale) pair.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The scale these inputs were built at (selects the saved-schedule
    /// shape class for [`System::FtSearched`]).
    pub scale: Scale,
    /// Inputs by name.
    pub inputs: Inputs,
    /// Unscheduled FreeTensor program.
    pub naive: freetensor_core::Program,
    instance: Instance,
}

/// Build inputs and the base program for a workload at a scale.
pub fn prepare(workload: Workload, scale: Scale) -> Prepared {
    let instance = workload.at(scale);
    Prepared {
        workload,
        scale,
        inputs: instance.inputs(2022),
        naive: instance.program(),
        instance,
    }
}

fn target_for(device: Device) -> Target {
    match device {
        Device::Cpu => Target::cpu(),
        Device::Gpu => Target::gpu(),
    }
}

/// Run the forward pass of one (workload, system, device) case.
pub fn run_forward(prep: &Prepared, system: System, device: Device) -> CaseResult {
    run_forward_capped(prep, system, device, None)
}

/// Like [`run_forward`], with an optional GPU memory capacity override
/// (reproduces the OOM columns of the paper's Fig. 16(b)).
pub fn run_forward_capped(
    prep: &Prepared,
    system: System,
    device: Device,
    gpu_capacity: Option<usize>,
) -> CaseResult {
    run_forward_inner(prep, system, device, gpu_capacity, None)
}

/// Like [`run_forward`], but with provenance + profiling recorded into
/// `sink`: for FreeTensor systems the sink is installed on the program, so
/// auto-schedule decisions, pass spans, and the per-statement run profile
/// all land in one trace; for the operator baseline a single runtime span
/// wraps the session (op-base has no per-statement attribution).
pub fn run_forward_traced(
    prep: &Prepared,
    system: System,
    device: Device,
    sink: &ft_trace::TraceSink,
) -> CaseResult {
    run_forward_inner(prep, system, device, None, Some(sink))
}

fn run_forward_inner(
    prep: &Prepared,
    system: System,
    device: Device,
    gpu_capacity: Option<usize>,
    sink: Option<&ft_trace::TraceSink>,
) -> CaseResult {
    let mut config = DeviceConfig::default();
    if let Some(cap) = gpu_capacity {
        config.gpu_mem_capacity = cap;
    }
    match system {
        System::OpBase => {
            let span = sink.map(|s| {
                let mut sp = s.span_on(ft_trace::TRACK_RUNTIME, "runtime", "opbase forward");
                sp.arg("workload", prep.workload.display());
                sp.arg("device", device);
                sp
            });
            let r = run_opbase_forward(prep, device, config);
            if let Some(mut sp) = span {
                sp.arg("modeled_cycles", format!("{:.0}", r.cycles));
                sp.arg("flops", r.counters.flops);
            }
            r
        }
        System::FtNaive | System::FtOptimized => {
            let base = match sink {
                Some(s) => prep.naive.clone().with_sink(s.clone()),
                None => prep.naive.clone(),
            };
            let prog = if system == System::FtOptimized {
                base.optimize(&target_for(device))
            } else {
                // A naive program still has to live in GPU memory; keep it
                // as-is (CPU-memory naive run stands in for Julia).
                base
            };
            run_ft_both_engines(&prog, &prep.inputs, config, device)
        }
        System::FtSearched => run_searched_forward(prep, device, config, sink),
    }
}

/// A structured non-run: the case could not start (no saved schedule, wrong
/// device), reported the same way grad exclusions are.
fn schedule_skip(reason: String) -> CaseResult {
    CaseResult::not_run("schedule", reason, 0.0)
}

/// Replay the saved best-of-search schedule for `(prep.workload,
/// prep.scale)` on `device`, through the same engines every other
/// FreeTensor system is measured on. Missing schedule files and non-CPU
/// devices report a structured `schedule`-stage failure rather than
/// panicking, so sweeps stay total.
fn run_searched_forward(
    prep: &Prepared,
    device: Device,
    config: DeviceConfig,
    sink: Option<&ft_trace::TraceSink>,
) -> CaseResult {
    if device != Device::Cpu {
        return schedule_skip("skipped: searched schedules are CPU-only".to_string());
    }
    let saved = match load_saved_schedule(prep.workload, prep.scale) {
        Some(s) => s,
        None => {
            return schedule_skip(format!(
                "no saved schedule ({})",
                saved_schedule_path(prep.workload, prep.scale).display()
            ))
        }
    };
    let mut prog = replay_program(&prep.naive, device, &saved.trace);
    if let Some(s) = sink {
        prog.set_sink(Some(s.clone()));
    }
    let mut r = run_ft_both_engines(&prog, &prep.inputs, config, device);
    r.search_wall_ms = Some(saved.search_wall_ms);
    // A searched trace may carry marks the CPU lowering serializes or
    // privatizes; its modeled columns are those of the program the kernel
    // executes, the score the search recorded.
    if r.failure.is_none() {
        if let Some(c) = modeled_counters(prog.func(), &prep.inputs) {
            r.cycles = c.modeled_cycles;
            r.counters = c;
        }
    }
    r
}

/// Directory the searched schedules live in: `results/schedules/` relative
/// to the working directory, overridable with `FT_SCHEDULES_DIR` (the
/// workspace tests point it at a temp dir).
pub fn schedules_dir() -> PathBuf {
    std::env::var_os("FT_SCHEDULES_DIR")
        .map_or_else(|| PathBuf::from("results/schedules"), PathBuf::from)
}

/// Path of the saved schedule for a (workload, scale) pair on CPU.
pub fn saved_schedule_path(workload: Workload, scale: Scale) -> PathBuf {
    schedules_dir().join(SavedSchedule::file_name(
        workload.name(),
        "cpu",
        scale.name(),
    ))
}

/// Load the committed best-of-search schedule for a (workload, scale)
/// pair, if one exists. Malformed files are reported to stderr and treated
/// as absent (the bench degrades to a structured skip, not a crash).
pub fn load_saved_schedule(workload: Workload, scale: Scale) -> Option<SavedSchedule> {
    let path = saved_schedule_path(workload, scale);
    let text = std::fs::read_to_string(&path).ok()?;
    match SavedSchedule::from_json(&text) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("ignoring malformed schedule {}: {e}", path.display());
            None
        }
    }
}

/// Build the runnable program for a schedule trace, exactly the way the
/// search scored it (`prepare_candidate`: param placement → trace →
/// simplify) — no further transformation, so the replayed counters equal
/// the recorded ones.
pub fn replay_program(
    base: &freetensor_core::Program,
    device: Device,
    trace: &[ScheduleOp],
) -> freetensor_core::Program {
    let (func, _) = prepare_candidate(base.func(), device, trace);
    freetensor_core::Program::from_schedule(ft_schedule::Schedule::new(func))
}

/// The cost model's counters for `func` as the CPU engines execute it: the
/// instrumented interpreter on `lower_cpu_parallel(func)`, so a nested mark
/// the lowering serializes earns no parallel credit and a privatized
/// reduction pays for its rows and its merge. The one definition of a
/// schedule's modeled score — the search evaluator, `ft-autoschedule
/// --replay`, `fig16`'s searched rows and the committed-schedule test all
/// call it. `None` when the interpreter cannot run the program.
pub fn modeled_counters(func: &Func, inputs: &HashMap<String, TensorVal>) -> Option<PerfCounters> {
    Runtime::new()
        .run(
            &ft_codegen::lower_cpu_parallel(func),
            inputs,
            &HashMap::new(),
        )
        .ok()
        .map(|r| r.counters)
}

/// [`modeled_counters`] of `trace` replayed on `prep`'s program: what a
/// saved schedule's `searched_cycles` / `searched_dram` must reproduce.
pub fn replayed_counters(prep: &Prepared, trace: &[ScheduleOp]) -> Option<PerfCounters> {
    let prog = replay_program(&prep.naive, Device::Cpu, trace);
    modeled_counters(prog.func(), &prep.inputs)
}

/// Median of a sample (mean of the middle two for even counts).
fn median(mut v: Vec<f64>) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The lowest of the slices' medians (`None` when every slice is empty).
fn lowest_median(slices: Vec<Vec<f64>>) -> Option<f64> {
    slices.into_iter().filter_map(median).min_by(f64::total_cmp)
}

/// Spearman rank correlation of `(x, y)` pairs, ties sharing their mean
/// rank. `None` for fewer than three pairs or when either side is constant.
pub fn spearman(pairs: &[(f64, f64)]) -> Option<f64> {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        let mut r = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            for &k in &idx[i..=j] {
                r[k] = (i + j) as f64 / 2.0;
            }
            i = j + 1;
        }
        r
    }
    if pairs.len() < 3 {
        return None;
    }
    let rx = ranks(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let ry = ranks(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    let mean = (pairs.len() - 1) as f64 / 2.0;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in rx.iter().zip(&ry) {
        sxy += (x - mean) * (y - mean);
        sxx += (x - mean) * (x - mean);
        syy += (y - mean) * (y - mean);
    }
    (sxx > 0.0 && syy > 0.0).then(|| sxy / (sxx * syy).sqrt())
}

/// OpenMP team size compiled kernels run with in this process:
/// `OMP_NUM_THREADS` (its first level) when set, else one per hardware
/// thread — libgomp's own default.
fn omp_threads(nproc: u64) -> u64 {
    std::env::var("OMP_NUM_THREADS")
        .ok()
        .and_then(|v| v.split(',').next()?.trim().parse().ok())
        .unwrap_or(nproc)
}

/// First line of `cc --version`, or empty when it cannot be asked.
fn cc_version() -> String {
    std::process::Command::new("cc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| {
            Some(
                String::from_utf8(o.stdout)
                    .ok()?
                    .lines()
                    .next()?
                    .to_string(),
            )
        })
        .unwrap_or_default()
}

/// Times search candidates as compiled kernels, each against the
/// rule-scheduled kernel of the same program run alternately with it.
///
/// A kernel on the 2-vCPU guests this runs on has no one wall time: over
/// seconds the same Longformer kernel drifts between 430 and 870 us (the
/// host lending or taking the second core, by the look of it), and ten
/// interleaved 120 ms slices of four contenders read 320/360/250 us
/// *together*. Readings of two candidates taken a second apart therefore
/// rank them by when they ran. What does repeat is a ratio: bursts of a few
/// milliseconds, candidate then yardstick then candidate, see the same
/// host, and a stalled libgomp barrier that hits both cancels. A reading is
/// the median burst ratio times the yardstick's wall at set-up — the wall
/// the candidate would have had then — so readings are comparable across a
/// whole search, and what the rule trace reads against itself is the noise
/// of the method.
struct WallMeasurer<'a> {
    engine: CompiledEngine,
    inputs: &'a HashMap<String, TensorVal>,
    /// The one context candidates run on, re-bound per candidate.
    ctx: RunContext,
    yardstick: Func,
    yardstick_ctx: RunContext,
    /// Wall of the yardstick at set-up, in us: the lowest median of
    /// [`Self::SLICES`] slices of its operations.
    yardstick_us: f64,
}

impl<'a> WallMeasurer<'a> {
    /// Candidate/yardstick burst pairs behind one reading, at least; more
    /// while they fit in [`Self::READING`].
    const MIN_PAIRS: usize = 3;
    /// How long one reading keeps alternating bursts: two `ftbench` slices
    /// (12 s over 25 rounds of 4 programs), one per kernel.
    const READING: std::time::Duration = std::time::Duration::from_millis(240);
    const BURST: std::time::Duration = std::time::Duration::from_millis(10);
    /// A yardstick burst this many times over its set-up wall means the
    /// OpenMP team has lost a core (below): the pair is not a reading. The
    /// stall is 4 ms a region, 7x the slowest yardstick here; the drift
    /// that is not a stall stays under 2x.
    const STALLED: f64 = 3.0;
    /// How long a reading waits for [`Self::MIN_PAIRS`] clean pairs before
    /// it gives up; a stall lasts about a second.
    const GIVE_UP: std::time::Duration = std::time::Duration::from_secs(3);
    /// Slices of half a reading the set-up times the yardstick in. Every
    /// reading of a search is scaled by its wall, and one slice beside a
    /// busy host read 7 217 us against 132 us quiet; a stall only adds
    /// time, so the lowest slice median is the wall.
    const SLICES: usize = 3;

    /// Compile the yardstick and run it until the process's OpenMP team is
    /// in place, then take its wall. A team's first hundred-odd regions —
    /// and now and then a second of them mid-run — find it on one core,
    /// and every barrier then costs a 4 ms spin (EXPERIMENTS.md, "A hazard
    /// this does not fix"): parallel kernels read 10–70x their wall and
    /// serial ones do not, so a search that timed through it would learn
    /// that threads are slow. `None` when the yardstick does not build or
    /// run.
    fn new(
        cache_dir: &std::path::Path,
        yardstick: Func,
        inputs: &'a HashMap<String, TensorVal>,
    ) -> Option<WallMeasurer<'a>> {
        let engine = CompiledEngine::with_cache_dir(cache_dir);
        let mut yardstick_ctx = RunContext::new();
        let spin_up = std::time::Duration::from_secs(2);
        let ctx = &mut yardstick_ctx;
        warm_compiled_ops(&engine, &yardstick, inputs, ctx, 256, spin_up).ok()?;
        let slice = Self::READING / 2;
        let slices = (0..Self::SLICES)
            .map(|_| timed_compiled_ops(&engine, &yardstick, inputs, ctx, usize::MAX, slice))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        Some(WallMeasurer {
            engine,
            inputs,
            ctx: RunContext::new(),
            yardstick,
            yardstick_ctx,
            yardstick_us: lowest_median(slices)? * 1e3,
        })
    }

    /// Median operation of one burst of `func`, in us: the first operation
    /// after the switch re-warms the caches and is not counted.
    fn burst(
        engine: &CompiledEngine,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        ctx: &mut RunContext,
    ) -> Option<f64> {
        compiled_op_ms(engine, func, inputs, ctx).ok()?;
        let ops = timed_compiled_ops(engine, func, inputs, ctx, usize::MAX, Self::BURST).ok()?;
        Some(median(ops)? * 1e3)
    }

    /// One reading of `func` in microseconds. `None` when it does not build
    /// or run, or when the host would not give [`Self::MIN_PAIRS`] clean
    /// burst pairs in [`Self::GIVE_UP`].
    fn measure(&mut self, func: &Func) -> Option<f64> {
        // Candidates differ in their memory plans; the context is one
        // program's at a time.
        self.ctx.reset();
        warm_up_compiled(&self.engine, func, self.inputs, &mut self.ctx).ok()?;
        let start = Instant::now();
        let mut ratios = Vec::new();
        while ratios.len() < Self::MIN_PAIRS || start.elapsed() < Self::READING {
            if start.elapsed() > Self::GIVE_UP {
                return None;
            }
            let candidate = Self::burst(&self.engine, func, self.inputs, &mut self.ctx)?;
            let yardstick = Self::burst(
                &self.engine,
                &self.yardstick,
                self.inputs,
                &mut self.yardstick_ctx,
            )?;
            if yardstick <= Self::STALLED * self.yardstick_us {
                ratios.push(candidate / yardstick);
            }
        }
        Some(self.yardstick_us * median(ratios)?)
    }
}

/// Run the evolutionary schedule search for a prepared workload on CPU and
/// package the result as the [`SavedSchedule`] the bench replay path
/// consumes. Returns the saved schedule and the raw [`SearchOutcome`]
/// (history, payoff, measurements).
///
/// The evaluator is [`modeled_counters`] over the workload's real inputs.
/// When a C compiler is available the search also gets a measurer — a
/// `WallMeasurer` on an engine of its own, with a temporary artifact
/// cache that is removed afterwards — and the model only decides which
/// candidates it times. Without one (tier-1 on a `cc`-less host) the model
/// decides alone and `measured` is `None`.
pub fn search_schedule(
    prep: &Prepared,
    config: &SearchConfig,
    sink: Option<&ft_trace::TraceSink>,
    metrics: Option<&Metrics>,
) -> (SavedSchedule, SearchOutcome) {
    static SEARCHES: AtomicU64 = AtomicU64::new(0);
    let inputs = &prep.inputs;
    // Privatizing (or caching) a whole tensor inside a serial loop makes a
    // kernel that zero-fills and merges it once per iteration: hundreds of
    // times the work — SubdivNet with its three-trip `j` loop parallelized
    // re-materializes 256 MiB of rows, measures 35 ms against 0.09 and takes
    // the interpreter 16 s to score. Such a candidate is turned away
    // unscored: more than `OVERSIZED` times the temporaries of the
    // unscheduled program (or its inputs, if those are larger) per run.
    const OVERSIZED: u64 = 64;
    let no_sizes = HashMap::new();
    let temporaries = |f: &Func| ft_codegen::lower_and_plan(f, &no_sizes).1.naive_alloc_bytes;
    let input_bytes: usize = inputs.values().map(TensorVal::size_bytes).sum();
    let limit = OVERSIZED * temporaries(prep.naive.func()).max(input_bytes as u64);
    let evaluator = |f: &Func| {
        if temporaries(f) > limit {
            return None;
        }
        modeled_counters(f, inputs)
    };
    let target = Target::cpu();
    let start = Instant::now();
    let cache_dir = std::env::temp_dir().join(format!(
        "ft-search-cache-{}-{}",
        std::process::id(),
        SEARCHES.fetch_add(1, Ordering::Relaxed)
    ));
    let wall = if cc_available() {
        let rules = ft_autoschedule::search::rule_trace(prep.naive.func(), &target);
        let (yardstick, _) = prepare_candidate(prep.naive.func(), target.device, &rules);
        WallMeasurer::new(&cache_dir, yardstick, inputs).map(RefCell::new)
    } else {
        None
    };
    let measurer = wall
        .as_ref()
        .map(|w| move |f: &Func| w.borrow_mut().measure(f));
    let set_up_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut outcome = ft_autoschedule::search::search(
        prep.naive.func(),
        &target,
        config,
        &evaluator,
        measurer
            .as_ref()
            .map(|m| m as &ft_autoschedule::search::Measurer),
        sink,
        metrics,
    );
    let search_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if wall.is_some() {
        // Building and spinning up the yardstick is measuring cost too.
        outcome.measure_wall_ms += set_up_ms;
    }
    // The kernels stay mapped for as long as the engine lives; their files
    // are not needed for that.
    let _ = std::fs::remove_dir_all(&cache_dir);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let saved = SavedSchedule {
        workload: prep.workload.name().to_string(),
        device: "cpu".to_string(),
        scale: prep.scale.name().to_string(),
        seed: config.seed,
        budget: config.budget as u64,
        search_wall_ms,
        searched_cycles: outcome.best_counters.modeled_cycles,
        searched_dram: outcome.best_counters.dram_bytes,
        rule_cycles: outcome.rule_score.cycles(),
        rule_dram: outcome.rule_score.dram_bytes,
        trace: outcome.best_trace.clone(),
        payoff: outcome.payoff.clone(),
        measured: outcome.measured.clone().ok().map(|m| Measured {
            omp_threads: omp_threads(nproc),
            nproc,
            cc: cc_version(),
            ..m
        }),
    };
    (saved, outcome)
}

/// Run a FreeTensor program on its two engines: the instrumented
/// interpreter for counters and modeled cycles, and — on CPU cases with a C
/// compiler on `PATH` — the native compiled engine for the wall-clock
/// ([`time_compiled`]). A program the interpreter ran and the compiled
/// engine fails on is a `"compiled"`-stage failure: a real engine
/// divergence worth surfacing, not an axis to leave blank.
fn run_ft_both_engines(
    prog: &freetensor_core::Program,
    inputs: &Inputs,
    config: DeviceConfig,
    device: Device,
) -> CaseResult {
    let sizes = HashMap::new();
    // The static memory plan is a pure function of the schedule (bench
    // programs have constant shapes), so the peak-bytes axis is computed
    // once here rather than measured per engine.
    let plan = ft_analysis::MemPlan::plan(prog.func(), &sizes);
    let peak_naive_bytes = Some(plan.naive_peak_bytes);
    let peak_planned_bytes = Some(plan.planned_peak_bytes);
    let naive_alloc_bytes = Some(plan.naive_alloc_bytes);
    let mut rt = Runtime::with_config(config);
    rt.set_metrics(Some(bench_metrics().clone()));
    let start = Instant::now();
    let counters = match prog.run(&rt, inputs, &sizes) {
        Ok(r) => r.counters,
        Err(e) => {
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            return CaseResult {
                peak_naive_bytes,
                peak_planned_bytes,
                naive_alloc_bytes,
                ..CaseResult::not_run("run", short_error(&e.to_string()), elapsed_ms)
            };
        }
    };
    let start = Instant::now();
    let timed = (device == Device::Cpu && cc_available()).then(|| time_compiled(prog, inputs));
    let (wall_ms, warm_alloc_calls, failure) = match timed {
        None => (None, None, None),
        Some(Ok((wall, warm))) => (Some(wall), Some(warm), None),
        Some(Err(e)) => {
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            (Some(elapsed_ms), None, Some(short_error(&e.to_string())))
        }
    };
    CaseResult {
        wall_ms,
        search_wall_ms: None,
        cycles: counters.modeled_cycles,
        counters,
        failed_stage: failure.is_some().then_some("compiled"),
        failure,
        peak_naive_bytes,
        peak_planned_bytes,
        warm_alloc_calls,
        naive_alloc_bytes,
    }
}

/// Time `prog` on the process's compiled engine: one `run_with` loop
/// through one [`RunContext`], every output recycled into it. Returns the
/// best of five timed operations in milliseconds (these kernels are short
/// enough that fewer samples leave scheduler noise in a sub-millisecond
/// row, and `bench_check` gates on ratios of them) and the arena/staging
/// allocation calls of the warm runs.
///
/// The first run resolves the call and pays compilation through the
/// artifact cache. It reports into the sweep's registry, and into the
/// program's trace sink, so a traced case keeps the resolve's
/// `lower.parallel` decisions. Every run after it reports into a registry
/// of the case's own on the same engine clone (clones share the kernel
/// memo), so the steady state is read apart from the sweep: its allocation
/// calls — 0 is the memory planner's claim — and its fresh resolves (0: the
/// context kept the lowered function and its plan) are added to the sweep's
/// `mem.arena.warm_alloc_calls` and `mem.arena.warm_resolve_calls`, with
/// one `mem.arena.warm_probe_runs` per case, which `bench_check
/// --expect-warm` gates on.
fn time_compiled(
    prog: &freetensor_core::Program,
    inputs: &Inputs,
) -> Result<(f64, u64), RuntimeError> {
    let mut engine = bench_compiled_engine().clone();
    engine.set_sink(prog.sink().cloned());
    let mut ctx = RunContext::new();
    compiled_op_ms(&engine, prog.func(), inputs, &mut ctx)?;
    let warm = Metrics::new();
    engine.set_sink(None);
    engine.set_metrics(Some(warm.clone()));
    let ops = warm_compiled_ops(
        &engine,
        prog.func(),
        inputs,
        &mut ctx,
        5,
        std::time::Duration::MAX,
    )?;
    let warm = warm.snapshot();
    let allocs = warm.counter("mem.arena.alloc_calls");
    let sweep = bench_metrics();
    sweep.counter("mem.arena.warm_alloc_calls").add(allocs);
    sweep
        .counter("mem.arena.warm_resolve_calls")
        .add(warm.counter("engine.compiled.resolves"));
    sweep.counter("mem.arena.warm_probe_runs").inc();
    Ok((ops.into_iter().fold(f64::INFINITY, f64::min), allocs))
}

/// One `run_with` of `func` through `ctx`, timed in milliseconds (the
/// recycle that follows is not). Runs go through one recycled context, the
/// compile-once/run-many path: a fresh context per call allocates and
/// faults in a new arena and new outputs, and resolves the call again,
/// which is most of a sub-millisecond kernel's wall.
fn compiled_op_ms(
    engine: &CompiledEngine,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    ctx: &mut RunContext,
) -> Result<f64, RuntimeError> {
    let start = Instant::now();
    let r = engine.run_with(func, inputs, &HashMap::new(), ctx)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    ctx.recycle(r)?;
    Ok(ms)
}

/// Warm `func` up on `engine`: the first run pays compilation through the
/// artifact cache on a cold start, and it takes up to 20 runs or 0.3 s, not
/// one run, because the first OpenMP kernel of a process starts its team on
/// the submitting thread's core, and until the scheduler spreads it every
/// barrier costs a time slice (a 0.3 ms kernel measures 16–24 ms for the
/// first few hundred milliseconds on a 2-vCPU guest).
fn warm_up_compiled(
    engine: &CompiledEngine,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    ctx: &mut RunContext,
) -> Result<(), RuntimeError> {
    let warm = Instant::now();
    for _ in 0..20 {
        compiled_op_ms(engine, func, inputs, ctx)?;
        if warm.elapsed().as_secs_f64() > 0.3 {
            break;
        }
    }
    Ok(())
}

/// Fewest operations [`timed_compiled_ops`] times before its `cap` applies.
const MIN_TIMED_OPS: usize = 4;

/// Up to `n` back-to-back [`compiled_op_ms`] readings of a warm `func`,
/// stopping early once they have taken `cap` together and there are
/// [`MIN_TIMED_OPS`] of them.
fn timed_compiled_ops(
    engine: &CompiledEngine,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    ctx: &mut RunContext,
    n: usize,
    cap: std::time::Duration,
) -> Result<Vec<f64>, RuntimeError> {
    let timed = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < n && (ops.len() < MIN_TIMED_OPS || timed.elapsed() < cap) {
        ops.push(compiled_op_ms(engine, func, inputs, ctx)?);
    }
    Ok(ops)
}

/// [`warm_up_compiled`], then [`timed_compiled_ops`].
fn warm_compiled_ops(
    engine: &CompiledEngine,
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    ctx: &mut RunContext,
    n: usize,
    cap: std::time::Duration,
) -> Result<Vec<f64>, RuntimeError> {
    warm_up_compiled(engine, func, inputs, ctx)?;
    timed_compiled_ops(engine, func, inputs, ctx, n, cap)
}

/// The operator baseline's row: what `session` counted while `run` ran.
fn run_opbase(session: &Session, run: impl FnOnce() -> Result<(), OpError>) -> CaseResult {
    let start = Instant::now();
    let result = run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let counters = session.counters();
    let failure = result.err().map(|e| short_error(&e.to_string()));
    CaseResult {
        wall_ms: Some(wall_ms),
        search_wall_ms: None,
        cycles: counters.modeled_cycles,
        counters,
        failed_stage: failure.is_some().then_some("run"),
        failure,
        peak_naive_bytes: None,
        peak_planned_bytes: None,
        warm_alloc_calls: None,
        naive_alloc_bytes: None,
    }
}

fn run_opbase_forward(prep: &Prepared, device: Device, config: DeviceConfig) -> CaseResult {
    let s = Session::new(device, config);
    run_opbase(&s, || prep.instance.opbase(&s, &prep.inputs).map(drop))
}

/// Run forward+backward of one case (GAT excluded, as in the paper).
pub fn run_grad(prep: &Prepared, system: System, device: Device, policy: TapePolicy) -> CaseResult {
    run_grad_capped(prep, system, device, policy, None)
}

/// Like [`run_grad`], with an optional GPU memory capacity override.
pub fn run_grad_capped(
    prep: &Prepared,
    system: System,
    device: Device,
    policy: TapePolicy,
    gpu_capacity: Option<usize>,
) -> CaseResult {
    let mut config = DeviceConfig::default();
    if let Some(cap) = gpu_capacity {
        config.gpu_mem_capacity = cap;
    }
    // GAT gradients are excluded from the paper's study (§6.2): the
    // operator baseline has no backward for the CSR gather. Report a
    // structured skip instead of panicking so sweeps over `Workload::ALL`
    // stay total.
    if !prep.workload.differentiable() {
        let why = "skipped: GAT gradients are excluded (paper §6.2)";
        return CaseResult::not_run("grad", why.to_string(), 0.0);
    }
    let seed_shape = prep.instance.output_shape();
    let seed = TensorVal::from_f32(&seed_shape, vec![1.0; seed_shape.iter().product()]);
    match system {
        // Searched schedules are tuned (and legality-checked) against the
        // forward program; replaying a forward trace on the differentiated
        // IR would be positional nonsense. Report a structured skip.
        System::FtSearched => {
            schedule_skip("skipped: searched schedules cover forward only".to_string())
        }
        System::OpBase => {
            let s = Session::new(device, config);
            s.set_grad_mode(true);
            run_opbase(&s, || {
                let y = prep.instance.opbase(&s, &prep.inputs)?;
                s.backward(&y, seed).map(drop)
            })
        }
        System::FtNaive | System::FtOptimized => {
            let opts = GradOptions {
                policy,
                ..Default::default()
            };
            let grad_start = Instant::now();
            let grad = match prep.naive.grad(&opts) {
                Ok(g) => g,
                // Differentiation itself failed: report how long the attempt
                // took and attribute the failure to the compile stage rather
                // than pretending the case ran in 0 ms.
                Err(e) => {
                    let elapsed_ms = grad_start.elapsed().as_secs_f64() * 1e3;
                    return CaseResult::not_run("grad", short_error(&e.to_string()), elapsed_ms);
                }
            };
            let prog = if system == System::FtOptimized {
                grad.optimize(&target_for(device))
            } else {
                grad
            };
            let mut inputs = prep.inputs.clone();
            inputs.insert(format!("{}.grad", prep.workload.output()), seed);
            run_ft_both_engines(&prog, &inputs, config, device)
        }
    }
}

fn short_error(e: &str) -> String {
    if e.contains("out of memory") {
        "OOM".to_string()
    } else {
        e.chars().take(40).collect()
    }
}

/// Format a cycle count compactly.
pub fn fmt_cycles(c: f64) -> String {
    if c.is_nan() {
        return "-".to_string();
    }
    if c >= 1e9 {
        format!("{:.2}G", c / 1e9)
    } else if c >= 1e6 {
        format!("{:.2}M", c / 1e6)
    } else if c >= 1e3 {
        format!("{:.1}k", c / 1e3)
    } else {
        format!("{c:.0}")
    }
}

/// Format a byte count compactly.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// One machine-readable benchmark record — a row of `results/BENCH.json`.
pub fn json_record(
    workload: Workload,
    system: System,
    device: Device,
    kind: &str,
    scale: Scale,
    r: &CaseResult,
) -> JsonVal {
    // NaN (a case that did not run has no cycle count) is `null`.
    let num = |v: Option<f64>| {
        v.filter(|v| !v.is_nan())
            .map_or(JsonVal::Null, JsonVal::Num)
    };
    let count = |v: Option<u64>| v.map_or(JsonVal::Null, |n| JsonVal::Int(n.into()));
    let text = |s: &str| JsonVal::Str(s.to_string());
    let fields = [
        ("workload", text(workload.display())),
        ("system", text(system.key())),
        ("device", text(&device.to_string())),
        ("kind", text(kind)),
        ("scale", text(scale.name())),
        ("wall_ms", num(r.wall_ms)),
        ("search_wall_ms", num(r.search_wall_ms)),
        ("cycles", num(Some(r.cycles))),
        ("peak_live_bytes_naive", count(r.peak_naive_bytes)),
        ("peak_live_bytes_planned", count(r.peak_planned_bytes)),
        ("warm_alloc_calls", count(r.warm_alloc_calls)),
        ("naive_alloc_bytes", count(r.naive_alloc_bytes)),
        ("flops", count(Some(r.counters.flops))),
        ("dram_bytes", count(Some(r.counters.dram_bytes))),
        ("failure", r.failure.as_deref().map_or(JsonVal::Null, text)),
        ("failed_stage", r.failed_stage.map_or(JsonVal::Null, text)),
    ];
    JsonVal::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Write `records` into the BENCH.json at `path`, merging with an existing
/// file: records whose `kind` differs from `kind` are kept, so a Fig. 16(a)
/// run followed by a `--grad` run accumulates both sets in one file.
///
/// # Errors
///
/// Propagates filesystem errors; a pre-existing file that does not parse is
/// replaced rather than merged.
pub fn write_bench_json(
    path: &std::path::Path,
    kind: &str,
    records: Vec<JsonVal>,
) -> std::io::Result<()> {
    write_merged(path, records, |old| {
        old.get("kind").and_then(JsonVal::as_str) == Some(kind)
    })
}

/// `{"version": 1, "records": [...]}` at `path`: the records already there
/// that `replaced` does not claim, then `records`.
fn write_merged(
    path: &std::path::Path,
    records: Vec<JsonVal>,
    replaced: impl Fn(&JsonVal) -> bool,
) -> std::io::Result<()> {
    let mut kept: Vec<JsonVal> = Vec::new();
    if let Ok(prev) = std::fs::read_to_string(path) {
        if let Ok(doc) = JsonVal::parse(&prev) {
            if let Some(old) = doc.get("records").and_then(JsonVal::as_arr) {
                kept.extend(old.iter().filter(|r| !replaced(r)).cloned());
            }
        }
    }
    kept.extend(records);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = JsonVal::Obj(vec![
        ("version".to_string(), JsonVal::Num(1.0)),
        ("records".to_string(), JsonVal::Arr(kept)),
    ]);
    std::fs::write(path, format!("{doc}\n"))
}

/// One record of `results/CALIBRATION.json`: every candidate a measured
/// search timed for `(workload, scale)`, as `[modeled cycles on the lowered
/// function, wall µs]` pairs in measurement order, with their Spearman ρ —
/// how far the cost model can be trusted to pick what gets measured.
/// `None` when the search measured nothing.
pub fn calibration_record(saved: &SavedSchedule, outcome: &SearchOutcome) -> Option<JsonVal> {
    if outcome.measurements.is_empty() {
        return None;
    }
    let pairs: Vec<(f64, f64)> = outcome
        .measurements
        .iter()
        .filter_map(|m| Some((m.cycles, m.wall_us?)))
        .collect();
    let host = saved.measured.clone().unwrap_or_default();
    Some(JsonVal::Obj(vec![
        ("workload".to_string(), JsonVal::Str(saved.workload.clone())),
        ("scale".to_string(), JsonVal::Str(saved.scale.clone())),
        ("seed".to_string(), JsonVal::Num(saved.seed as f64)),
        ("budget".to_string(), JsonVal::Num(saved.budget as f64)),
        (
            "omp_threads".to_string(),
            JsonVal::Num(host.omp_threads as f64),
        ),
        ("nproc".to_string(), JsonVal::Num(host.nproc as f64)),
        ("cc".to_string(), JsonVal::Str(host.cc)),
        ("count".to_string(), JsonVal::Num(pairs.len() as f64)),
        (
            "failed".to_string(),
            JsonVal::Num((outcome.measurements.len() - pairs.len()) as f64),
        ),
        (
            "spearman".to_string(),
            spearman(&pairs).map_or(JsonVal::Null, JsonVal::Num),
        ),
        (
            "pairs".to_string(),
            JsonVal::Arr(
                pairs
                    .iter()
                    .map(|(c, w)| JsonVal::Arr(vec![JsonVal::Num(*c), JsonVal::Num(*w)]))
                    .collect(),
            ),
        ),
    ]))
}

/// Write [`calibration_record`]s into the CALIBRATION.json at `path`,
/// replacing the records of the same `(workload, scale)` and keeping the
/// rest, so per-workload and per-scale search runs accumulate in one file.
///
/// # Errors
///
/// As [`write_bench_json`].
pub fn write_calibration(path: &std::path::Path, records: Vec<JsonVal>) -> std::io::Result<()> {
    let id = |r: &JsonVal| {
        let field = |k| r.get(k).and_then(JsonVal::as_str).map(str::to_string);
        (field("workload"), field("scale"))
    };
    let new: Vec<_> = records.iter().map(id).collect();
    write_merged(path, records, |old| new.contains(&id(old)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gat_grad_is_a_structured_skip_not_a_panic() {
        // Paper §6.2 excludes GAT from the gradient study; the bench must
        // report that as a skipped record, not crash the whole sweep.
        let prep = prepare(Workload::Gat, Scale::Small);
        for system in [System::OpBase, System::FtNaive, System::FtOptimized] {
            let r = run_grad(&prep, system, Device::Cpu, TapePolicy::Selective);
            assert_eq!(r.failed_stage, Some("grad"), "{system:?}");
            let why = r.failure.as_deref().unwrap_or_default();
            assert!(why.contains("skipped"), "{system:?}: {why}");
            assert!(r.cycles.is_nan(), "no cycle count for a skipped case");
        }
    }

    #[test]
    fn baseline_ooms_on_capped_gpu_but_freetensor_fits() {
        // Fig. 16(b)'s OOM column: on a memory-capped GPU the baseline's
        // retained, window-materialized intermediates exhaust memory while
        // FreeTensor's selective tapes fit.
        let prep = prepare(Workload::Longformer, Scale::Small);
        let cap = Some(128 << 10); // 128 KiB: between the two systems' peaks
        let ob = run_grad_capped(
            &prep,
            System::OpBase,
            Device::Gpu,
            ft_autodiff::TapePolicy::Selective,
            cap,
        );
        assert_eq!(ob.failure.as_deref(), Some("OOM"), "{:?}", ob.failure);
        let ft = run_grad_capped(
            &prep,
            System::FtOptimized,
            Device::Gpu,
            ft_autodiff::TapePolicy::Selective,
            cap,
        );
        assert!(ft.failure.is_none(), "{:?}", ft.failure);
    }

    #[test]
    fn forward_cases_run_at_small_scale() {
        for w in Workload::ALL {
            let prep = prepare(w, Scale::Small);
            for sys in [System::OpBase, System::FtNaive, System::FtOptimized] {
                for dev in [Device::Cpu, Device::Gpu] {
                    let r = run_forward(&prep, sys, dev);
                    assert!(
                        r.failure.is_none(),
                        "{} / {:?} / {dev} failed: {:?}",
                        w.display(),
                        sys,
                        r.failure
                    );
                    assert!(r.cycles > 0.0);
                    // The memory planner's steady state, wherever the probe
                    // ran (CPU, with a C compiler): warm compiled runs
                    // through a recycled context allocate nothing.
                    assert_eq!(r.warm_alloc_calls.unwrap_or(0), 0, "{}", w.display());
                }
            }
        }
    }

    #[test]
    fn grad_cases_run_at_small_scale() {
        // Fig. 16(b)'s two systems, and Fig. 18's FT(-) beside FT(+).
        for w in Workload::ALL.into_iter().filter(|w| w.differentiable()) {
            let prep = prepare(w, Scale::Small);
            for (sys, policy) in [
                (System::OpBase, TapePolicy::Selective),
                (System::FtOptimized, TapePolicy::Selective),
                (System::FtOptimized, TapePolicy::All),
            ] {
                let r = run_grad(&prep, sys, Device::Cpu, policy);
                assert!(
                    r.failure.is_none(),
                    "{} / {sys:?} / {policy:?} grad failed: {:?}",
                    w.display(),
                    r.failure
                );
            }
        }
    }

    #[test]
    fn cpu_ft_cases_report_the_compiled_axis() {
        // On CPU cases with a C compiler available, a FreeTensor row's wall
        // is the native compiled engine's, and its warm runs allocated
        // nothing; without one, and on every GPU case (the compiled engine
        // is CPU-only), the row has no wall. The operator baseline times its
        // own kernels on either device.
        let prep = prepare(Workload::Subdivnet, Scale::Small);
        let cpu = run_forward(&prep, System::FtOptimized, Device::Cpu);
        assert!(cpu.failure.is_none(), "{:?}", cpu.failure);
        assert_eq!(cpu.wall_ms.is_some(), cc_available(), "{:?}", cpu.wall_ms);
        assert_eq!(cpu.warm_alloc_calls, cc_available().then_some(0));
        let gpu = run_forward(&prep, System::FtOptimized, Device::Gpu);
        assert!(gpu.failure.is_none(), "{:?}", gpu.failure);
        assert_eq!(gpu.wall_ms, None, "compiled axis leaked to GPU");
        let ob = run_forward(&prep, System::OpBase, Device::Gpu);
        assert!(ob.wall_ms.is_some_and(|w| w > 0.0), "{:?}", ob.wall_ms);
    }

    #[test]
    fn grad_oom_reports_elapsed_time_and_stage() {
        // Regression: a failing grad case used to report wall_ms = 0.0.
        let prep = prepare(Workload::Longformer, Scale::Small);
        let r = run_grad_capped(
            &prep,
            System::FtOptimized,
            Device::Gpu,
            TapePolicy::All,
            Some(16 << 10),
        );
        assert!(r.failure.is_some());
        let elapsed = r.wall_ms.unwrap_or_default();
        assert!(elapsed > 0.0, "failure must still report elapsed time");
        assert!(r.failed_stage.is_some());
    }

    #[test]
    fn bench_json_merges_across_kinds() {
        let path =
            std::env::temp_dir().join(format!("ft-bench-json-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let prep = prepare(Workload::Gat, Scale::Small);
        let r = run_forward(&prep, System::FtOptimized, Device::Cpu);
        let rec = |kind: &str| {
            json_record(
                Workload::Gat,
                System::FtOptimized,
                Device::Cpu,
                kind,
                Scale::Small,
                &r,
            )
        };
        write_bench_json(&path, "forward", vec![rec("forward")]).unwrap();
        write_bench_json(&path, "grad", vec![rec("grad")]).unwrap();
        // Re-writing one kind replaces that kind only.
        write_bench_json(&path, "forward", vec![rec("forward")]).unwrap();
        let doc = JsonVal::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let records = doc.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records.len(), 2);
        let kinds: Vec<_> = records
            .iter()
            .map(|r| r.get("kind").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(kinds.contains(&"forward".to_string()));
        assert!(kinds.contains(&"grad".to_string()));
        let wall = records[0].get("wall_ms").unwrap();
        assert_eq!(wall.as_f64().is_some(), cc_available(), "{wall}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn traced_forward_records_provenance_and_matching_profile() {
        // The fig17 `--trace` path: one sink sees schedule decisions, pass
        // spans, and a per-statement profile whose totals equal the
        // whole-run counters; the Chrome export validates.
        let prep = prepare(Workload::Subdivnet, Scale::Small);
        let sink = ft_trace::TraceSink::new();
        let ft = run_forward_traced(&prep, System::FtOptimized, Device::Gpu, &sink);
        assert!(ft.failure.is_none(), "{:?}", ft.failure);
        let ob = run_forward_traced(&prep, System::OpBase, Device::Gpu, &sink);
        assert!(ob.failure.is_none(), "{:?}", ob.failure);
        assert!(!sink.decisions().is_empty(), "no schedule decisions traced");
        let profiles = sink.profiles();
        assert_eq!(profiles.len(), 1, "expected exactly one run profile");
        let totals = profiles[0].totals();
        assert_eq!(totals.flops, ft.counters.flops);
        assert_eq!(totals.dram_bytes, ft.counters.dram_bytes);
        assert_eq!(totals.l2_bytes, ft.counters.l2_bytes);
        let events = sink.events();
        assert!(events.iter().any(|e| e.name == "opbase forward"));
        ft_trace::validate_chrome_trace(&ft_trace::chrome_trace(&sink)).unwrap();
    }

    #[test]
    fn searched_system_without_a_schedule_is_a_structured_skip() {
        // `FT_SCHEDULES_DIR` is unset and the test cwd has no
        // results/schedules for the small GAT shape class, so the searched
        // system must degrade to a schedule-stage skip, not a panic — and
        // never run at all on GPU.
        let prep = prepare(Workload::Gat, Scale::Small);
        let gpu = run_forward(&prep, System::FtSearched, Device::Gpu);
        assert_eq!(gpu.failed_stage, Some("schedule"));
        assert!(gpu
            .failure
            .as_deref()
            .unwrap_or_default()
            .contains("CPU-only"));
        // (GAT grads are excluded before the schedule skip can fire, so use
        // a workload that reaches the searched-grad guard.)
        let prep = prepare(Workload::Subdivnet, Scale::Small);
        let grad = run_grad(
            &prep,
            System::FtSearched,
            Device::Cpu,
            TapePolicy::Selective,
        );
        assert_eq!(grad.failed_stage, Some("schedule"));
        assert!(grad.cycles.is_nan());
    }

    #[test]
    fn searched_schedule_roundtrips_through_search_save_and_replay() {
        // The full tentpole loop at toy scale: search a few evaluations on
        // small GAT (measuring, when this host has a C compiler), persist
        // the winner, replay it through the bench path, and require the
        // replayed modeled score to equal the recorded one (the memoized
        // score was produced by the very same prepare → lower → interpret
        // pipeline).
        let prep = prepare(Workload::Gat, Scale::Small);
        let config = SearchConfig {
            budget: 12,
            seed: 2022,
            workers: 2,
            ..SearchConfig::default()
        };
        let (saved, outcome) = search_schedule(&prep, &config, None, None);
        assert!(outcome.evaluations <= 12);
        assert_eq!(saved.measured.is_some(), outcome.measured.is_ok());
        // Never worse than the rule trace on the axis the run optimized.
        match (&saved.measured, &outcome.measured) {
            (Some(m), _) => {
                assert!(m.wall_us <= m.rule_wall_us + m.noise_us, "{m:?}");
                assert!(m.runs >= 10 && m.nproc >= 1 && m.omp_threads >= 1, "{m:?}");
                assert!(outcome.measurements.len() >= 2, "both seeds are measured");
            }
            // With `cc` there is a measurer, and the rule trace is its
            // yardstick, which built and ran: a reading of it fails only
            // when the host gives no clean burst pairs in
            // `WallMeasurer::GIVE_UP` (it did beside a concurrent `cargo
            // build`). Then there is no verdict to check.
            (None, Err(why)) if cc_available() => {
                let rule_failed = why.starts_with("the measurer failed on the rule trace");
                assert!(rule_failed, "{why}");
            }
            (None, why) => {
                assert_eq!(why, &Err("no measurer".to_string()));
                assert!(saved.searched_cycles <= saved.rule_cycles * (1.0 + 1e-6));
            }
        }
        let back = SavedSchedule::from_json(&saved.to_json()).unwrap();
        assert_eq!(saved, back);
        let replayed = replayed_counters(&prep, &back.trace).unwrap();
        assert!(
            replayed.score_eq(&outcome.best_counters),
            "replayed counters diverged: {} vs recorded {}",
            replayed.modeled_cycles,
            saved.searched_cycles
        );
        // A calibration record exists exactly when something was timed.
        let record = calibration_record(&saved, &outcome);
        assert_eq!(record.is_some(), cc_available());
        if let Some(r) = record {
            let pairs = r.get("pairs").and_then(JsonVal::as_arr).unwrap().len();
            assert_eq!(r.get("count").and_then(JsonVal::as_u64), Some(pairs as u64));
            assert!(pairs <= outcome.measurements.len());
        }
    }

    #[test]
    fn spearman_ranks_with_ties_and_refuses_degenerate_samples() {
        let rho = |p: &[(f64, f64)]| spearman(p);
        assert_eq!(rho(&[(1.0, 10.0), (2.0, 20.0), (3.0, 90.0)]), Some(1.0));
        assert_eq!(rho(&[(1.0, 9.0), (2.0, 5.0), (3.0, 1.0)]), Some(-1.0));
        // Ties share their mean rank: x ranks 0.5, 0.5, 2, 3 against 0..3.
        let tied = rho(&[(5.0, 1.0), (5.0, 2.0), (7.0, 3.0), (9.0, 4.0)]).unwrap();
        assert!((tied - 4.5 / (4.5f64 * 5.0).sqrt()).abs() < 1e-12, "{tied}");
        assert_eq!(rho(&[(1.0, 1.0), (2.0, 2.0)]), None, "two pairs");
        assert_eq!(
            rho(&[(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]),
            None,
            "constant side"
        );
    }

    #[test]
    fn the_yardstick_is_the_lowest_slice_median() {
        // One slice beside a busy host read 50x the quiet wall; a stall only
        // adds time, so the yardstick keeps the lowest median.
        let slices = vec![
            vec![7217.0, 7100.0, 7300.0],
            vec![131.0, 132.0, 500.0],
            vec![135.0],
        ];
        assert_eq!(lowest_median(slices), Some(132.0));
        assert_eq!(lowest_median(vec![Vec::new(), Vec::new()]), None);
    }

    #[test]
    fn calibration_file_merges_by_workload_and_scale() {
        let path =
            std::env::temp_dir().join(format!("ft-calibration-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let rec = |w: &str, scale: &str, count: f64| {
            JsonVal::Obj(vec![
                ("workload".to_string(), JsonVal::Str(w.to_string())),
                ("scale".to_string(), JsonVal::Str(scale.to_string())),
                ("count".to_string(), JsonVal::Num(count)),
            ])
        };
        write_calibration(
            &path,
            vec![rec("gat", "small", 1.0), rec("gat", "full", 2.0)],
        )
        .unwrap();
        write_calibration(
            &path,
            vec![rec("gat", "small", 3.0), rec("softras", "small", 4.0)],
        )
        .unwrap();
        let doc = JsonVal::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let counts: Vec<u64> = doc
            .get("records")
            .and_then(JsonVal::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.get("count").and_then(JsonVal::as_u64).unwrap())
            .collect();
        assert_eq!(counts, [2, 3, 4], "gat/small replaced, gat/full kept");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn freetensor_wins_on_modeled_time_forward() {
        // The headline Fig. 16(a) shape at small scale: optimized FreeTensor
        // beats the operator baseline on modeled cycles for every workload.
        for w in Workload::ALL {
            let prep = prepare(w, Scale::Small);
            for dev in [Device::Cpu, Device::Gpu] {
                let ft = run_forward(&prep, System::FtOptimized, dev);
                let ob = run_forward(&prep, System::OpBase, dev);
                assert!(
                    ft.cycles < ob.cycles,
                    "{} on {dev}: FreeTensor {} !< baseline {}",
                    w.display(),
                    fmt_cycles(ft.cycles),
                    fmt_cycles(ob.cycles)
                );
            }
        }
    }
}
