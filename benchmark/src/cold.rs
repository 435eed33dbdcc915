//! `cold-compile` and `compile-pipeline`: what the first request of a
//! process pays. A cold start is DSL source text → `Program` → (`grad`) →
//! `optimize` → first `run_with` on a fresh cache directory and a fresh
//! engine; the pipeline alone stops at scheduled IR + C text, before `cc`.

use crate::harness::{self, Ctl, Outcome, Round, Tally, Value, ROUNDS, SETUP_REPS};
use crate::programs::{self, Case, Emitted, Prog, Sched, PROGS};
use crate::trace::Recorder;
use ft_metrics::Metrics;
use ft_runtime::{ExecutionEngine, RunContext};
use ft_workloads::Inputs;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The seven programs: four forward, three differentiated.
fn cases() -> Vec<Case> {
    let mut v: Vec<Case> = PROGS.map(Case::fwd).to_vec();
    v.extend([Prog::Subdivnet, Prog::Longformer, Prog::Softras].map(Case::grad));
    v
}

struct Target {
    case: Case,
    inputs: Inputs,
    want: Inputs,
}

/// One cold start. Returns source-text-to-checked-outputs microseconds.
fn cold_start(
    t: &Target,
    key: u64,
    rec: &mut Recorder,
    metrics: Option<&Metrics>,
    tally: &mut Tally,
) -> Option<f64> {
    let sizes = HashMap::new();
    let dir = harness::fresh_cache_dir();
    let engine = harness::new_engine(&dir, metrics);
    let mut ctx = RunContext::new();
    tally.attempted += 1;
    let o = rec.begin("cold_start", key);
    let program = programs::schedule_program(&t.case, Sched::Rules, rec, key);
    let result = program.and_then(|p| {
        let o = rec.begin("cold_run", key);
        let r = engine.run_with(p.func(), &t.inputs, &sizes, &mut ctx);
        rec.end(o);
        r.map(|r| (p, r)).map_err(|e| e.to_string())
    });
    let us = rec.end(o);
    let (program, result) = match result {
        Ok(pr) => pr,
        Err(e) => {
            tally.fail(format!("{}: {e}", t.case.label()));
            return None;
        }
    };
    tally.checked += 1;
    if let Err(e) = programs::check(&result.outputs, &t.want) {
        tally.fail(format!("{}: {e}", t.case.label()));
        return None;
    }
    if rec.on() {
        // What of the first run was the build: the same call again, warm;
        // and what a restarted process pays on the populated directory.
        let _ = ctx.recycle(result);
        let o = rec.begin("warm_run", key);
        let _ = engine.run_with(program.func(), &t.inputs, &sizes, &mut ctx);
        rec.end(o);
        let restarted = harness::new_engine(&dir, None);
        let o = rec.begin("disk_hit", key);
        let _ = restarted.run_with(program.func(), &t.inputs, &sizes, &mut RunContext::new());
        rec.end(o);
    }
    Some(us)
}

pub fn run_cold(ctl: &Ctl) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(ctl.traced, Instant::now(), 0);
    let root = rec.begin("ftbench", 0);
    let metrics = ctl.traced.then(Metrics::new);

    // Set-up: inputs, oracles, and one untimed cold start of every program
    // (so the compiler binary and this process's code are paged in).
    let mut targets = Vec::new();
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let o = rec.begin("setup", rep as u64);
        rec.set_on(false);
        targets = cases()
            .into_iter()
            .map(|case| {
                let inputs = case.inputs(ctl.seed);
                let want = case.oracle(&inputs);
                Target { case, inputs, want }
            })
            .collect();
        for (k, t) in targets.iter().enumerate() {
            cold_start(t, k as u64, &mut rec, None, &mut out.tally);
        }
        rec.set_on(ctl.traced);
        setup_s.push(rec.end(o) / 1e6);
    }
    out.e2e
        .insert("setup_s".into(), harness::quickest(&setup_s));

    // Timed phase: sweeps over the seven programs; a sweep is a round. A
    // traced run records every other sweep.
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut recorded: Vec<bool> = Vec::new();
    let mut dirs_so_bytes = 0u64;
    while start.elapsed().as_secs_f64() < ctl.seconds || rounds.len() < 3 {
        let recording = ctl.traced && rounds.len() % 2 == 1;
        rec.set_on(recording);
        let spawned_dirs = harness::cache_dirs_made();
        let mut r = Round::default();
        for (k, t) in targets.iter().enumerate() {
            let us = cold_start(t, k as u64, &mut rec, metrics.as_ref(), &mut out.tally);
            r.op_us.push(us.into_iter().collect());
        }
        if recording {
            dirs_so_bytes = harness::so_bytes_since(spawned_dirs);
        }
        rounds.push(r);
        recorded.push(recording);
        // With no compiler every start fails at once; three sweeps say so.
        if out.tally.failed == out.tally.attempted && rounds.len() >= 3 {
            break;
        }
    }
    rec.set_on(ctl.traced);

    let labels: Vec<String> = cases().iter().map(Case::label).collect();
    if let Some(metrics) = &metrics {
        let pick = |want: bool| -> Vec<Round> {
            rounds
                .iter()
                .zip(&recorded)
                .filter(|(_, r)| **r == want)
                .map(|(r, _)| r.clone())
                .collect()
        };
        let l = &mut out.layers;
        harness::trace_overhead_layer(&pick(false), &pick(true), l);
        harness::pipeline_layers(&rec, l);
        let cold = harness::sum_of_quiet_medians(&rec, "cold_run");
        let warm = harness::sum_of_quiet_medians(&rec, "warm_run");
        l.insert(
            "cc.build_ms".into(),
            Value::new(((cold.value - warm.value) / 1e3).max(0.0), cold.n),
        );
        l.insert(
            "cc.so_bytes".into(),
            Value::new(dirs_so_bytes as f64, labels.len() as u64),
        );
        l.insert(
            "ft-runtime.native.cc_spawned".into(),
            Value {
                value: metrics.snapshot().counter("compiled.cc.spawned") as f64
                    / rounds.len().max(1) as f64,
                n: rounds.len() as u64,
            },
        );
        l.insert(
            "ft-runtime.native.disk_hit_ms".into(),
            harness::sum_of_quiet_medians(&rec, "disk_hit").scaled(1e-3),
        );
    } else {
        out.e2e.insert("op_p50_us".into(), harness::op_p50(&rounds));
        for (k, label) in labels.iter().enumerate() {
            out.detail.insert(
                format!("cold_start_ms.{label}"),
                (harness::quiet_median(&rounds, k).scaled(1e-3), "ms"),
            );
        }
        out.detail.insert(
            "cold_start_geomean_ms".into(),
            (out.e2e["op_p50_us"].scaled(1e-3), "ms"),
        );
    }
    rec.end(root);
    out.recorders.push(rec);
    out
}

/// A verified pipeline product: the C text of a program whose compiled
/// outputs matched the oracle, by hash.
struct Verified {
    case: Case,
    emitted: Emitted,
}

/// One pipeline operation: source text → scheduled IR → plan + C text.
fn pipeline_op(
    v: &Verified,
    key: u64,
    check: bool,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Option<f64> {
    tally.attempted += 1;
    let o = rec.begin("pipeline", key);
    let program = programs::schedule_program(&v.case, Sched::Rules, rec, key);
    let c_text = program.map(|p| programs::emit(&p, rec, key).1);
    let us = rec.end(o);
    match c_text {
        Ok(c) => {
            if check {
                tally.checked += 1;
                if programs::fnv64(c.as_bytes()) != v.emitted.c_hash {
                    tally.fail(format!(
                        "{}: C text differs from the verified build",
                        v.case.label()
                    ));
                    return None;
                }
            }
            Some(us)
        }
        Err(e) => {
            tally.fail(format!("{}: {e}", v.case.label()));
            None
        }
    }
}

pub fn run_pipeline(ctl: &Ctl) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(ctl.traced, Instant::now(), 0);
    let root = rec.begin("ftbench", 0);

    // Set-up: build every program once for real and check its outputs, so
    // the C text the timed phase compares against is known to be right.
    let mut verified: Vec<Verified> = Vec::new();
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let o = rec.begin("setup", rep as u64);
        rec.set_on(false);
        verified.clear();
        let dir = harness::fresh_cache_dir();
        let engine = harness::new_engine(&dir, None);
        for (k, case) in cases().into_iter().enumerate() {
            out.tally.attempted += 1;
            let built = harness::prepare(case, Sched::Rules, ctl.seed, &mut rec, k as u64)
                .and_then(|prep| {
                    let r = engine
                        .run(prep.program.func(), &prep.inputs, &HashMap::new())
                        .map_err(|e| e.to_string())?;
                    programs::check(&r.outputs, &prep.want)?;
                    Ok(Verified {
                        case,
                        emitted: prep.emitted,
                    })
                });
            match built {
                Ok(v) => verified.push(v),
                Err(e) => out.tally.fail(format!("{}: {e}", case.label())),
            }
        }
        rec.set_on(ctl.traced);
        setup_s.push(rec.end(o) / 1e6);
    }
    out.e2e
        .insert("setup_s".into(), harness::quickest(&setup_s));

    let slice = Duration::from_secs_f64(ctl.seconds / (ROUNDS * verified.len().max(1)) as f64);
    let mut rounds: Vec<Round> = Vec::new();
    for round in 0..ROUNDS {
        rec.set_on(ctl.traced && round >= ROUNDS / 2);
        let mut r = Round::default();
        for (k, v) in verified.iter().enumerate() {
            let start = Instant::now();
            let mut samples = Vec::new();
            for i in 0u64.. {
                let last = start.elapsed() >= slice;
                let check = harness::is_checked(i, last);
                samples.extend(pipeline_op(v, k as u64, check, &mut rec, &mut out.tally));
                if last {
                    break;
                }
            }
            r.op_us.push(samples);
        }
        rounds.push(r);
    }
    rec.set_on(ctl.traced);

    if ctl.traced {
        let (plain, traced) = rounds.split_at(ROUNDS / 2);
        harness::trace_overhead_layer(plain, traced, &mut out.layers);
        harness::pipeline_layers(&rec, &mut out.layers);
        let emitted: Vec<Emitted> = verified.iter().map(|v| v.emitted).collect();
        harness::emitted_layers(&emitted, &mut out.layers);
    } else {
        out.e2e.insert("op_p50_us".into(), harness::op_p50(&rounds));
        for (k, v) in verified.iter().enumerate() {
            out.detail.insert(
                format!("pipeline_ms.{}", v.case.label()),
                (harness::quiet_median(&rounds, k).scaled(1e-3), "ms"),
            );
        }
        out.detail.insert(
            "pipeline_geomean_ms".into(),
            (out.e2e["op_p50_us"].scaled(1e-3), "ms"),
        );
    }
    rec.end(root);
    out.recorders.push(rec);
    out
}
