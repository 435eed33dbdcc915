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
use ft_autoschedule::Target;
use ft_ir::{Device, Func};
use ft_metrics::Metrics;
use ft_opbase::{OpError, Session};
use ft_runtime::{
    cc_available, CompiledEngine, DeviceConfig, ExecutionEngine, PerfCounters, RunContext, Runtime,
    RuntimeError, TensorVal,
};
use ft_trace::{JsonVal, TraceSink};
use ft_workloads::{Inputs, Instance};
use std::collections::HashMap;
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
}

impl System {
    /// Display label used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            System::OpBase => "operator-based",
            System::FtNaive => "fine-grained (naive)",
            System::FtOptimized => "FreeTensor",
        }
    }

    /// Stable machine-readable key used in `BENCH.json`.
    pub fn key(self) -> &'static str {
        match self {
            System::OpBase => "opbase",
            System::FtNaive => "ft-naive",
            System::FtOptimized => "ft-optimized",
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
        e.set_sink(Some(TraceSink::from(bench_metrics().clone())));
        e
    })
}

/// Workload inputs + compiled programs for one (workload, scale) pair.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
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

/// Run the forward pass of one (workload, system, device) case. With a
/// `sink`, provenance and profiling are recorded into it: for FreeTensor
/// systems the sink is installed on the program, so auto-schedule
/// decisions, pass spans, and the per-statement run profile all land in one
/// trace; for the operator baseline a single runtime span wraps the session
/// (op-base has no per-statement attribution).
pub fn run_forward(
    prep: &Prepared,
    system: System,
    device: Device,
    sink: Option<&TraceSink>,
) -> CaseResult {
    run_forward_inner(prep, system, device, None, sink)
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

fn run_forward_inner(
    prep: &Prepared,
    system: System,
    device: Device,
    gpu_capacity: Option<usize>,
    sink: Option<&TraceSink>,
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
            let mut base = prep.naive.clone();
            base.set_sink(sink.cloned());
            let prog = if system == System::FtOptimized {
                base.optimize(&target_for(device))
            } else {
                // A naive program still has to live in GPU memory; keep it
                // as-is (CPU-memory naive run stands in for Julia).
                base
            };
            run_ft_both_engines(&prog, &prep.inputs, config, device)
        }
    }
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
    rt.set_sink(Some(TraceSink::from(bench_metrics().clone())));
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
    if let Some(s) = prog.sink() {
        engine.set_sink(Some(s.with_metrics(bench_metrics().clone())));
    }
    let mut ctx = RunContext::new();
    compiled_op_ms(&engine, prog.func(), inputs, &mut ctx)?;
    let warm = Metrics::new();
    engine.set_sink(Some(TraceSink::from(warm.clone())));
    warm_up_compiled(&engine, prog.func(), inputs, &mut ctx)?;
    let ops = (0..5)
        .map(|_| compiled_op_ms(&engine, prog.func(), inputs, &mut ctx))
        .collect::<Result<Vec<_>, _>>()?;
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

/// The operator baseline's row: what `session` counted while `run` ran.
fn run_opbase(session: &Session, run: impl FnOnce() -> Result<(), OpError>) -> CaseResult {
    let start = Instant::now();
    let result = run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let counters = session.counters();
    let failure = result.err().map(|e| short_error(&e.to_string()));
    CaseResult {
        wall_ms: Some(wall_ms),
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

/// Write `records` into the BENCH.json at `path` as `{"version": 1,
/// "records": [...]}`, merging with an existing file: records whose `kind`
/// differs from `kind` are kept, so a Fig. 16(a) run followed by a `--grad`
/// run accumulates both sets in one file.
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
    let mut kept: Vec<JsonVal> = Vec::new();
    if let Ok(prev) = std::fs::read_to_string(path) {
        if let Ok(doc) = JsonVal::parse(&prev) {
            if let Some(old) = doc.get("records").and_then(JsonVal::as_arr) {
                let other_kind =
                    |r: &&JsonVal| r.get("kind").and_then(JsonVal::as_str) != Some(kind);
                kept.extend(old.iter().filter(other_kind).cloned());
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
                    let r = run_forward(&prep, sys, dev, None);
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
        let cpu = run_forward(&prep, System::FtOptimized, Device::Cpu, None);
        assert!(cpu.failure.is_none(), "{:?}", cpu.failure);
        assert_eq!(cpu.wall_ms.is_some(), cc_available(), "{:?}", cpu.wall_ms);
        assert_eq!(cpu.warm_alloc_calls, cc_available().then_some(0));
        let gpu = run_forward(&prep, System::FtOptimized, Device::Gpu, None);
        assert!(gpu.failure.is_none(), "{:?}", gpu.failure);
        assert_eq!(gpu.wall_ms, None, "compiled axis leaked to GPU");
        let ob = run_forward(&prep, System::OpBase, Device::Gpu, None);
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
        let r = run_forward(&prep, System::FtOptimized, Device::Cpu, None);
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
        let ft = run_forward(&prep, System::FtOptimized, Device::Gpu, Some(&sink));
        assert!(ft.failure.is_none(), "{:?}", ft.failure);
        let ob = run_forward(&prep, System::OpBase, Device::Gpu, Some(&sink));
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
    fn freetensor_wins_on_modeled_time_forward() {
        // The headline Fig. 16(a) shape at small scale: optimized FreeTensor
        // beats the operator baseline on modeled cycles for every workload.
        for w in Workload::ALL {
            let prep = prepare(w, Scale::Small);
            for dev in [Device::Cpu, Device::Gpu] {
                let ft = run_forward(&prep, System::FtOptimized, dev, None);
                let ob = run_forward(&prep, System::OpBase, dev, None);
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
