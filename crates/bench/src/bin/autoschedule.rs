//! `ft-autoschedule` — search-based auto-scheduling over the paper's four
//! workloads (the Ansor-style counterpart to the rule-based §4.3 passes).
//!
//! ```text
//! ft-autoschedule --search [--workload W|all] [--scale small|full]
//!                 [--budget N] [--seed N] [--workers N] [--out DIR]
//!                 [--warm-start] [--require-win] [--metrics [PATH]]
//! ft-autoschedule --replay [--workload W|all] [--scale small|full]
//!                 [--out DIR]
//! ```
//!
//! `--search` runs the evolutionary trace search (`ft_autoschedule::search`)
//! for each selected workload on CPU. Every candidate is scored by the cost
//! model — the instrumented interpreter on the CPU-lowered function over the
//! workload's real inputs (deterministic `modeled_cycles`, `dram_bytes`
//! tiebreak). On a host with a C compiler the model only picks which
//! candidates get timed: a few per generation run as compiled kernels, the
//! measured wall decides survivors, and the trace that is saved won a final
//! interleaved A/B against the rule trace (see `bench::search_schedule`).
//! The result is persisted as `DIR/<workload>-cpu-<scale>.json` plus a
//! `.history.json` with the per-generation progress, and a measured run
//! merges every `(modeled cycles, wall)` pair it took and their Spearman ρ
//! into `CALIBRATION.json` next to `DIR` (`results/CALIBRATION.json` for
//! the default `DIR`). `--warm-start` seeds the mutation payoff table from
//! an existing saved schedule. `--require-win` exits non-zero unless every
//! searched schedule is no worse than the rule trace on the axis the run
//! optimized — measured wall within the rule trace's own noise when
//! measuring, a strict modeled-cycles win otherwise — the CI smoke gate.
//!
//! `--replay` re-applies every committed schedule and verifies the replayed
//! modeled score equals the recorded one (exit non-zero on any mismatch or
//! missing file): the committed JSONs stay honest.

use bench::{
    bench_metrics, calibration_record, fmt_cycles, prepare, replayed_counters, search_schedule,
    write_calibration, Scale, Workload,
};
use ft_runtime::ScheduleScore;
use ft_trace::JsonVal;
use std::path::PathBuf;
use std::process::ExitCode;

fn opt_val<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let replay = args.iter().any(|a| a == "--replay");
    let budget: usize = opt_val(&args, "--budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let seed: u64 = opt_val(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2022);
    let workers: usize = opt_val(&args, "--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)));
    let scale = match opt_val(&args, "--scale").map(String::as_str) {
        Some("small") => Scale::Small,
        _ => Scale::Full,
    };
    let out_dir: PathBuf = opt_val(&args, "--out").map_or_else(bench::schedules_dir, PathBuf::from);
    let warm_start = args.iter().any(|a| a == "--warm-start");
    let require_win = args.iter().any(|a| a == "--require-win");
    let metrics_path: Option<PathBuf> = args.iter().position(|a| a == "--metrics").map(|i| {
        args.get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .map_or_else(|| "results/METRICS-search.json".into(), |p| p.into())
    });
    let workloads: Vec<Workload> = match opt_val(&args, "--workload").map(String::as_str) {
        None | Some("all") => Workload::ALL.to_vec(),
        Some(key) => match Workload::from_name(key) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "unknown workload `{key}` (expected one of \
                     subdivnet/longformer/softras/gat/all)"
                );
                return ExitCode::from(2);
            }
        },
    };

    let code = if replay {
        replay_all(&workloads, scale, &out_dir)
    } else {
        search_all(
            &workloads,
            scale,
            budget,
            seed,
            workers,
            &out_dir,
            warm_start,
            require_win,
        )
    };
    if let Some(path) = metrics_path {
        let snap = bench_metrics().snapshot();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, format!("{}\n", ft_trace::metrics_to_json(&snap)))
            .expect("write metrics");
        eprintln!(
            "wrote {} (evaluations {}, memo hits {}, illegal rejected {})",
            path.display(),
            snap.counter("search.evaluations"),
            snap.counter("search.memo.hit"),
            snap.counter("search.illegal_rejected"),
        );
    }
    code
}

#[allow(clippy::too_many_arguments)]
fn search_all(
    workloads: &[Workload],
    scale: Scale,
    budget: usize,
    seed: u64,
    workers: usize,
    out_dir: &std::path::Path,
    warm_start: bool,
    require_win: bool,
) -> ExitCode {
    println!(
        "# search-based auto-scheduling: budget {budget} evaluations, seed {seed}, \
         {workers} worker(s), scale {}",
        scale.name()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>9} {:>7} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "workload",
        "rule cycles",
        "searched",
        "rule us",
        "srch us",
        "noise",
        "evals",
        "timed",
        "rho",
        "model s",
        "cc s"
    );
    let mut losses = 0usize;
    let mut calibration = Vec::new();
    for &w in workloads {
        let prep = prepare(w, scale);
        let warm_payoff = if warm_start {
            bench::load_saved_schedule(w, scale).map(|s| s.payoff)
        } else {
            None
        };
        let config = ft_autoschedule::search::SearchConfig {
            budget,
            seed,
            workers,
            warm_payoff,
        };
        let (saved, outcome) = search_schedule(&prep, &config, None, Some(bench_metrics()));
        // Never worse than the rule trace on the axis this run optimized.
        let win = match &saved.measured {
            Some(m) => m.wall_us <= m.rule_wall_us + m.noise_us,
            None => outcome.best_score < outcome.rule_score,
        };
        if !win {
            losses += 1;
        }
        let record = calibration_record(&saved, &outcome);
        let us = |pick: fn(&ft_autoschedule::search::Measured) -> f64| {
            saved
                .measured
                .as_ref()
                .map_or_else(|| "-".to_string(), |m| format!("{:.1}", pick(m)))
        };
        let rho = record
            .as_ref()
            .and_then(|r| r.get("spearman")?.as_f64())
            .map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
        println!(
            "{:<12} {:>12} {:>12} {:>9} {:>9} {:>7} {:>6} {:>6} {:>6} {:>8.1} {:>8.1}{}",
            w.display(),
            fmt_cycles(saved.rule_cycles),
            fmt_cycles(saved.searched_cycles),
            us(|m| m.rule_wall_us),
            us(|m| m.wall_us),
            us(|m| m.noise_us),
            outcome.evaluations,
            outcome.measurements.len(),
            rho,
            (saved.search_wall_ms - outcome.measure_wall_ms) / 1e3,
            outcome.measure_wall_ms / 1e3,
            if win { "" } else { "   NO WIN" }
        );
        calibration.extend(record);
        if let Err(e) = std::fs::create_dir_all(out_dir) {
            eprintln!("cannot create {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
        let path = out_dir.join(ft_autoschedule::search::SavedSchedule::file_name(
            &saved.workload,
            &saved.device,
            &saved.scale,
        ));
        std::fs::write(&path, format!("{}\n", saved.to_json())).expect("write schedule");
        let hist_path = path.with_extension("history.json");
        std::fs::write(&hist_path, format!("{}\n", history_json(&outcome))).expect("write history");
        eprintln!("wrote {} and {}", path.display(), hist_path.display());
    }
    if !calibration.is_empty() {
        let path = out_dir.parent().unwrap_or(out_dir).join("CALIBRATION.json");
        write_calibration(&path, calibration).expect("write calibration");
        eprintln!("merged into {}", path.display());
    }
    if require_win && losses > 0 {
        eprintln!("FAIL: {losses} workload(s) lost to the rule-based schedule");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn history_json(outcome: &ft_autoschedule::search::SearchOutcome) -> JsonVal {
    JsonVal::Obj(vec![
        (
            "generations".to_string(),
            JsonVal::Arr(
                outcome
                    .history
                    .iter()
                    .map(|g| {
                        JsonVal::Obj(vec![
                            ("generation".to_string(), JsonVal::Num(g.generation as f64)),
                            (
                                "evaluations".to_string(),
                                JsonVal::Num(g.evaluations as f64),
                            ),
                            ("memo_hits".to_string(), JsonVal::Num(g.memo_hits as f64)),
                            ("measured".to_string(), JsonVal::Num(g.measured as f64)),
                            ("best_cycles".to_string(), JsonVal::Num(g.best_cycles)),
                            ("best_dram".to_string(), JsonVal::Num(g.best_dram as f64)),
                            (
                                "best_wall_us".to_string(),
                                g.best_wall_us.map_or(JsonVal::Null, JsonVal::Num),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "illegal_rejected".to_string(),
            JsonVal::Num(outcome.illegal_rejected as f64),
        ),
        (
            "measure_wall_ms".to_string(),
            JsonVal::Num(outcome.measure_wall_ms),
        ),
        ("payoff".to_string(), outcome.payoff.to_json()),
    ])
}

fn replay_all(workloads: &[Workload], scale: Scale, out_dir: &std::path::Path) -> ExitCode {
    println!(
        "# replaying committed schedules from {} (scale {})",
        out_dir.display(),
        scale.name()
    );
    let mut failures = 0usize;
    for &w in workloads {
        let path = out_dir.join(ft_autoschedule::search::SavedSchedule::file_name(
            w.name(),
            "cpu",
            scale.name(),
        ));
        let saved = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| ft_autoschedule::search::SavedSchedule::from_json(&t))
        {
            Ok(s) => s,
            Err(e) => {
                println!("MISSING    {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let prep = prepare(w, scale);
        let Some(counters) = replayed_counters(&prep, &saved.trace) else {
            println!("FAIL       {}: replay run failed", w.display());
            failures += 1;
            continue;
        };
        let recorded = ScheduleScore::new(saved.searched_cycles, saved.searched_dram);
        if counters.score() == recorded {
            println!(
                "ok         {}: {} cycles, {} ops replayed deterministically",
                w.display(),
                fmt_cycles(counters.modeled_cycles),
                saved.trace.len()
            );
        } else {
            println!(
                "MISMATCH   {}: replayed {} cycles vs recorded {}",
                w.display(),
                fmt_cycles(counters.modeled_cycles),
                fmt_cycles(saved.searched_cycles)
            );
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("FAIL: {failures} schedule(s) missing or diverged");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
