//! `kernel-fwd`, `kernel-grad`, `kernel-searched`: warm compiled kernels,
//! driven from one thread through the documented compile-once/run-many loop
//! (`engine.run_with` + `ctx.recycle` on one long-lived `RunContext`).

use crate::harness::{
    self, Ctl, Outcome, Prepared, Round, Tally, Value, ROUNDS, SETUP_REPS, WARMUP_OPS,
};
use crate::programs::{self, Case, Prog, Sched, PROGS};
use crate::stats;
use crate::trace::Recorder;
use ft_metrics::Metrics;
use ft_runtime::{CompiledEngine, ExecutionEngine, RunContext, VmRuntime};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The programs of a kernel workload and how they are scheduled.
fn cases(workload: &str) -> (Vec<Case>, Sched) {
    match workload {
        "kernel-grad" => (
            // GAT's gradient is excluded, as in the paper's §6.2.
            [Prog::Subdivnet, Prog::Longformer, Prog::Softras]
                .map(Case::grad)
                .to_vec(),
            Sched::Rules,
        ),
        "kernel-searched" => (PROGS.map(Case::fwd).to_vec(), Sched::Searched),
        _ => (PROGS.map(Case::fwd).to_vec(), Sched::Rules),
    }
}

/// A program bound to its run context, warm.
struct Ready {
    prep: Prepared,
    ctx: RunContext,
}

struct Setup {
    engine: CompiledEngine,
    cache_dir: PathBuf,
    /// One entry per case, in order; `Err` carries why it cannot run.
    ready: Vec<Result<Ready, String>>,
}

/// One operation: run, (check outside the timed interval), recycle.
/// Returns the timed microseconds, or `None` when the operation failed.
fn operate(
    engine: &impl ExecutionEngine,
    r: &mut Ready,
    rec: &mut Recorder,
    op: u64,
    check: bool,
    tally: &mut Tally,
    hashes: Option<&mut HashSet<u64>>,
) -> Option<f64> {
    let sizes = HashMap::new();
    tally.attempted += 1;
    let o = rec.begin("run_with", op);
    let res = engine.run_with(r.prep.program.func(), &r.prep.inputs, &sizes, &mut r.ctx);
    let run_us = rec.end(o);
    let result = match res {
        Ok(result) => result,
        Err(e) => {
            tally.fail(format!("{}: {e}", r.prep.case.label()));
            return None;
        }
    };
    let mut ok = true;
    if check {
        tally.checked += 1;
        if let Err(e) = programs::check(&result.outputs, &r.prep.want) {
            tally.fail(format!("{}: {e}", r.prep.case.label()));
            ok = false;
        }
    }
    if let Some(h) = hashes {
        h.insert(programs::bits_hash(&result.outputs));
    }
    let o = rec.begin("recycle", op);
    let recycled = r.ctx.recycle(result);
    let recycle_us = rec.end(o);
    if let Err(e) = recycled {
        tally.fail(format!("{}: recycle: {e}", r.prep.case.label()));
        ok = false;
    }
    ok.then_some(run_us + recycle_us)
}

fn warm_up(
    engine: &impl ExecutionEngine,
    r: &mut Ready,
    rec: &mut Recorder,
    key: u64,
    tally: &mut Tally,
) {
    let start = Instant::now();
    for _ in 0..WARMUP_OPS {
        operate(engine, r, rec, key, false, tally, None);
        if start.elapsed() >= harness::WARMUP_CAP {
            break;
        }
    }
}

/// Operations back to back for `slice`; the first, the last and every
/// sixteenth are checked against the oracle.
fn run_slice(
    engine: &impl ExecutionEngine,
    r: &mut Ready,
    rec: &mut Recorder,
    slice: Duration,
    key: u64,
    tally: &mut Tally,
    mut hashes: Option<&mut HashSet<u64>>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut failures = 0u32;
    for i in 0u64.. {
        let last = start.elapsed() >= slice;
        let check = harness::is_checked(i, last);
        match operate(engine, r, rec, key, check, tally, hashes.as_deref_mut()) {
            Some(us) => samples.push(us),
            None => failures += 1,
        }
        // A program that keeps failing has told us what it can; stop
        // spending the slice on it.
        if last || failures >= 8 {
            break;
        }
    }
    samples
}

/// Everything before timing: inputs, pipeline, `cc` build on a fresh cache
/// directory, oracle, first (checked) run, warm-up.
fn setup(
    cases: &[Case],
    sched: Sched,
    ctl: &Ctl,
    rec: &mut Recorder,
    metrics: Option<&Metrics>,
    tally: &mut Tally,
) -> Setup {
    let cache_dir = harness::fresh_cache_dir();
    let engine = harness::new_engine(&cache_dir, metrics);
    let ready = cases
        .iter()
        .enumerate()
        .map(|(k, case)| setup_one(&engine, *case, sched, ctl, rec, k as u64, tally))
        .collect();
    Setup {
        engine,
        cache_dir,
        ready,
    }
}

fn setup_one(
    engine: &CompiledEngine,
    case: Case,
    sched: Sched,
    ctl: &Ctl,
    rec: &mut Recorder,
    key: u64,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let prep = harness::prepare(case, sched, ctl.seed, rec, key).inspect_err(|e| {
        tally.attempted += 1;
        tally.fail(e.clone());
    })?;
    let mut r = Ready {
        prep,
        ctx: RunContext::new(),
    };
    let o = rec.begin("cold_run", key);
    let first = operate(engine, &mut r, rec, key, true, tally, None);
    rec.end(o);
    if first.is_none() {
        return Err(format!("{}: first run failed", case.label()));
    }
    let o = rec.begin("warmup", key);
    warm_up(engine, &mut r, rec, key, tally);
    rec.end(o);
    Ok(r)
}

fn kernel_hist(m: &Metrics) -> (u64, u64) {
    m.snapshot()
        .histograms
        .get("engine.compiled.kernel_us")
        .map_or((0, 0), |h| (h.sum, h.count))
}

/// What the timed phase of a traced run collected besides the samples.
struct Observed {
    /// Distinct output bit patterns per program.
    hashes: Vec<HashSet<u64>>,
    /// `engine.compiled.kernel_us` (sum, count) per program.
    kernel_us: Vec<(u64, u64)>,
    /// `mem.arena.alloc_calls` across the timed phase.
    alloc_calls: u64,
}

pub fn run(workload: &str, ctl: &Ctl) -> Outcome {
    let (cases, sched) = cases(workload);
    let mut out = Outcome::default();
    let mut rec = Recorder::new(ctl.traced, Instant::now(), 0);
    let root = rec.begin("ftbench", 0);
    let metrics = ctl.traced.then(Metrics::new);
    // Every set-up (its own fresh cache directory, engine, buffers) is timed
    // for an equal share of the rounds, so that no single set-up — its buffer
    // addresses, the seconds it ran in — decides the run: timing only the
    // last one left about one run in twenty 30-45 % slow throughout.
    // A traced run spends the first half of its rounds with the recorder
    // off, so it can say what recording costs.
    let slice = Duration::from_secs_f64(ctl.seconds / (ROUNDS * cases.len()) as f64);
    let mut rounds: Vec<Round> = Vec::new();
    let mut seen = Observed {
        hashes: vec![HashSet::new(); cases.len()],
        kernel_us: vec![(0, 0); cases.len()],
        alloc_calls: 0,
    };
    let allocs = |m: &Option<Metrics>| {
        m.as_ref()
            .map_or(0, |m| m.snapshot().counter("mem.arena.alloc_calls"))
    };
    let mut setup_s = Vec::new();
    let mut last: Option<Setup> = None;
    for round in 0..ROUNDS {
        if round % (ROUNDS / SETUP_REPS) == 0 {
            drop(last.take());
            rec.set_on(ctl.traced);
            let o = rec.begin("setup", (round / (ROUNDS / SETUP_REPS)) as u64);
            last = Some(setup(
                &cases,
                sched,
                ctl,
                &mut rec,
                metrics.as_ref(),
                &mut out.tally,
            ));
            setup_s.push(rec.end(o) / 1e6);
        }
        let su = last.as_mut().expect("set up at round 0");
        let allocs_before = allocs(&metrics);
        let recording = ctl.traced && round >= ROUNDS / 2;
        rec.set_on(recording);
        let mut r = Round::default();
        for (k, ready) in su.ready.iter_mut().enumerate() {
            let mut samples = Vec::new();
            if let Ok(ready) = ready {
                let before = metrics.as_ref().map(kernel_hist);
                samples = run_slice(
                    &su.engine,
                    ready,
                    &mut rec,
                    slice,
                    k as u64,
                    &mut out.tally,
                    recording.then_some(&mut seen.hashes[k]),
                );
                if let (Some(m), Some(b), true) = (&metrics, before, recording) {
                    let a = kernel_hist(m);
                    seen.kernel_us[k].0 += a.0 - b.0;
                    seen.kernel_us[k].1 += a.1 - b.1;
                }
            }
            r.op_us.push(samples);
        }
        rounds.push(r);
        seen.alloc_calls += allocs(&metrics) - allocs_before;
    }
    rec.set_on(ctl.traced);
    let mut su = last.expect("ROUNDS > 0");
    out.e2e
        .insert("setup_s".into(), harness::quickest(&setup_s));

    if let Some(metrics) = &metrics {
        layers(
            workload, &cases, ctl, &mut su, &mut rec, &rounds, &seen, metrics, &mut out,
        );
    } else {
        out.e2e.insert("op_p50_us".into(), harness::op_p50(&rounds));
        for (k, case) in cases.iter().enumerate() {
            out.detail.insert(
                format!("run_us.{}", case.prog.name()),
                (harness::quiet_median(&rounds, k), "us"),
            );
        }
        out.detail
            .insert("run_geomean_us".into(), (out.e2e["op_p50_us"], "us"));
    }
    rec.end(root);
    out.recorders.push(rec);
    out
}

/// Median warm operation time of `r` over one short slice, recorded as a
/// single span (its thousands of operations would drown the trace).
fn probe(
    name: &'static str,
    engine: &impl ExecutionEngine,
    r: &mut Ready,
    rec: &mut Recorder,
    ctl: &Ctl,
    tally: &mut Tally,
) -> Value {
    let o = rec.begin(name, 0);
    rec.set_on(false);
    warm_up(engine, r, rec, 0, tally);
    let slice = Duration::from_secs_f64(ctl.seconds / 40.0);
    let s = run_slice(engine, r, rec, slice, 0, tally, None);
    rec.set_on(true);
    rec.end(o);
    Value::new(
        stats::quiet_median(std::slice::from_ref(&s)),
        s.len() as u64,
    )
}

/// The traced run's per-layer numbers for a kernel workload.
#[allow(clippy::too_many_arguments)]
fn layers(
    workload: &str,
    cases: &[Case],
    ctl: &Ctl,
    su: &mut Setup,
    rec: &mut Recorder,
    rounds: &[Round],
    seen: &Observed,
    metrics: &Metrics,
    out: &mut Outcome,
) {
    let l = &mut out.layers;
    let (plain, traced) = rounds.split_at(ROUNDS / 2);
    let traced_ops: u64 = traced
        .iter()
        .flat_map(|r| &r.op_us)
        .map(|s| s.len() as u64)
        .sum();
    harness::trace_overhead_layer(plain, traced, l);

    // Set-up stages, from the spans of the set-ups.
    harness::pipeline_layers(rec, l);
    let emitted: Vec<_> = su.ready.iter().flatten().map(|r| r.prep.emitted).collect();
    harness::emitted_layers(&emitted, l);
    let cold = harness::sum_of_quiet_medians(rec, "cold_run");
    let warm_sum: f64 = (0..cases.len())
        .map(|k| harness::quiet_median(traced, k).value)
        .sum();
    harness::cc_layers(
        cold,
        warm_sum,
        &su.cache_dir,
        cases.len() as u64,
        metrics,
        l,
    );
    l.insert(
        "ft-runtime.arena.warm_alloc_calls".into(),
        Value::new(seen.alloc_calls as f64, traced_ops),
    );
    let mut recycle: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (key, us) in rec.durations("recycle") {
        recycle.entry(key).or_default().push(us);
    }
    l.insert(
        "ft-runtime.arena.recycle_us".into(),
        Value {
            value: stats::geomean(
                &recycle
                    .values()
                    .map(|v| stats::quiet_median(std::slice::from_ref(v)))
                    .collect::<Vec<_>>(),
            ),
            n: recycle.values().map(|v| v.len() as u64).sum(),
        },
    );

    // A process restart: a new engine on the populated cache directory.
    let restarted = harness::new_engine(&su.cache_dir, None);
    let mut disk_hit_us = 0.0;
    let mut noctx = Vec::new();
    for (k, ready) in su.ready.iter_mut().enumerate() {
        let Ok(ready) = ready else { continue };
        let key = k as u64;
        let name = cases[k].prog.name();
        let run = harness::quiet_median(traced, k).value;
        let mut fresh = Ready {
            prep: ready.prep.clone(),
            ctx: RunContext::new(),
        };
        let o = rec.begin("disk_hit", key);
        operate(&restarted, &mut fresh, rec, key, true, &mut out.tally, None);
        disk_hit_us += rec.end(o);

        // The registry only has a mean of the kernel time, so the dispatch
        // share is taken against the mean operation time of the same slices.
        let (sum, count) = seen.kernel_us[k];
        let kern = sum as f64 / count.max(1) as f64;
        let ops: Vec<f64> = traced.iter().flat_map(|r| r.op_us[k].clone()).collect();
        let mean_op = ops.iter().sum::<f64>() / ops.len().max(1) as f64;
        l.insert(
            format!("ft-runtime.native.kernel_us.{name}"),
            Value::new(kern, count),
        );
        l.insert(
            format!("ft-runtime.native.dispatch_us.{name}"),
            Value::new((mean_op - kern).max(0.0), count),
        );
        l.insert(
            format!("ft-codegen.distinct_outputs.{name}"),
            Value::new(
                seen.hashes[k].len() as f64,
                traced.iter().map(|r| r.op_us[k].len() as u64).sum(),
            ),
        );

        // The context-free use of the same layer (malloc path).
        let sizes = HashMap::new();
        let start = Instant::now();
        let mut s = Vec::new();
        let o = rec.begin("probe_noctx", key);
        while start.elapsed().as_secs_f64() < ctl.seconds / 60.0 || s.len() < 3 {
            out.tally.attempted += 1;
            let t = Instant::now();
            match su
                .engine
                .run(ready.prep.program.func(), &ready.prep.inputs, &sizes)
            {
                Ok(_) => s.push(t.elapsed().as_nanos() as f64 / 1e3),
                Err(e) => {
                    out.tally.fail(format!("{name}: run: {e}"));
                    break;
                }
            }
        }
        rec.end(o);
        noctx.push(stats::quiet_median(&[s]));

        // What the schedule bought over its baseline, timed in this run.
        let (base_sched, metric) = if workload == "kernel-searched" {
            (Sched::Rules, "ft-autoschedule.search.gain_vs_rules")
        } else {
            (Sched::Naive, "ft-autoschedule.gain_vs_naive")
        };
        match harness::prepare(cases[k], base_sched, ctl.seed, rec, key) {
            Ok(prep) => {
                let mut base = Ready {
                    prep,
                    ctx: RunContext::new(),
                };
                let v = probe(
                    "probe_baseline",
                    &su.engine,
                    &mut base,
                    rec,
                    ctl,
                    &mut out.tally,
                );
                if run > 0.0 {
                    l.insert(format!("{metric}.{name}"), Value::new(v.value / run, v.n));
                }
            }
            Err(e) => {
                out.tally.attempted += 1;
                out.tally.fail(e);
            }
        }

        // The portable fallback engine on the same forward programs.
        if workload == "kernel-fwd" {
            let mut on_vm = Ready {
                prep: ready.prep.clone(),
                ctx: RunContext::new(),
            };
            let v = probe(
                "probe_vm",
                &VmRuntime::new(),
                &mut on_vm,
                rec,
                ctl,
                &mut out.tally,
            );
            l.insert(format!("ft-runtime.vm.run_us.{name}"), v);
        }
    }
    l.insert(
        "ft-runtime.native.disk_hit_ms".into(),
        Value::new(disk_hit_us / 1e3, cases.len() as u64),
    );
    l.insert(
        "ft-runtime.native.run_noctx_geomean_us".into(),
        Value::new(stats::geomean(&noctx), noctx.len() as u64),
    );
}
