//! ftbench — the repository's benchmark.
//!
//! ```text
//! ftbench --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//! ftbench --all    [--seed ..] [--seconds ..] [--trace ..]   every workload, one child process each
//! ftbench --agree  [--runs <n>] [--seed ..] [--seconds ..]   two sets of runs, compared against the bounds
//! ftbench --print-contract                                   BENCHMARK.json, from src/spec.rs
//! ```
//!
//! One run prints two lines on standard output: the full report (host,
//! every metric with unit and sample count, failure reasons, span totals)
//! and, last, the result line `{"correct", "attempted", "failed",
//! "metrics"}`. It measures the product path from outside, through public
//! functions only; see README.md.

mod cold;
mod harness;
mod kernel;
mod programs;
mod serve;
mod spec;
mod stats;
mod trace;

use ft_trace::JsonVal;
use harness::{Ctl, Outcome, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 2022;
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<String>,
    ctl: Ctl,
    all: bool,
    agree: bool,
    runs: usize,
    print_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        ctl: Ctl {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
        },
        all: false,
        agree: false,
        runs: 1,
        print_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.ctl.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.ctl.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.ctl.traced = value("0 or 1")? == "1",
            "--runs" => {
                a.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--all" => a.all = true,
            "--agree" => a.agree = true,
            "--print-contract" => a.print_contract = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.ctl.seconds > 0.0 && a.ctl.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if let Some(w) = &a.workload {
        if !spec::is_workload(w) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn first_line_of(cmd: &str, arg: &str) -> String {
    Command::new(cmd)
        .arg(arg)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(programs::repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "{{\"nproc\":{},\"omp_num_threads\":{},\"cc_version\":{},\"rustc\":{},\"commit\":{}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(&std::env::var("OMP_NUM_THREADS").unwrap_or_else(|_| "default".into())),
        quote(&first_line_of("cc", "--version")),
        quote(&first_line_of("rustc", "--version")),
        quote(&commit),
    )
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(rows: &[(String, &str, Value)], with_n: bool) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, unit, v)| {
            let n = if with_n {
                format!(",\"n\":{}", v.n)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{n}}}",
                quote(name),
                num(v.value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run_workload(workload: &str, ctl: &Ctl) -> Outcome {
    match workload {
        "kernel-fwd" | "kernel-grad" | "kernel-searched" => kernel::run(workload, ctl),
        "cold-compile" => cold::run_cold(ctl),
        "compile-pipeline" => cold::run_pipeline(ctl),
        _ => serve::run(workload, ctl),
    }
}

/// The rows a run must print: every end-to-end metric (untraced) or every
/// per-layer metric (traced; 0 for a layer the workload never entered).
fn contract_rows(
    out: &Outcome,
    traced: bool,
) -> Result<Vec<(String, &'static str, Value)>, String> {
    const ZERO: Value = Value { value: 0.0, n: 0 };
    if traced {
        let specs = spec::layers();
        if let Some(stray) = out
            .layers
            .keys()
            .find(|k| !specs.iter().any(|s| s.name == **k))
        {
            return Err(format!("per-layer metric `{stray}` is not in src/spec.rs"));
        }
        Ok(specs
            .into_iter()
            .map(|s| {
                let v = out.layers.get(&s.name).copied().unwrap_or(ZERO);
                (s.name, s.unit, v)
            })
            .collect())
    } else {
        if let Some(stray) = out
            .e2e
            .keys()
            .find(|k| !spec::E2E.iter().any(|s| s.name == *k))
        {
            return Err(format!("end-to-end metric `{stray}` is not in src/spec.rs"));
        }
        Ok(spec::E2E
            .iter()
            .map(|s| {
                let v = out.e2e.get(s.name).copied().unwrap_or(ZERO);
                (s.name.to_string(), s.unit, v)
            })
            .collect())
    }
}

/// Calls, total and self time per span name, over every thread's recorder;
/// `_roots` is the traced wall (the spans without a parent), which the self
/// times add up to.
fn span_totals_json(recs: &[&trace::Recorder]) -> String {
    let mut totals: BTreeMap<&str, trace::LayerTime> = BTreeMap::new();
    for r in recs {
        for (name, t) in trace::by_name(&r.spans) {
            let e = totals.entry(name).or_default();
            e.calls += t.calls;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
        let roots = totals.entry("_roots").or_default();
        for s in r.spans.iter().filter(|s| s.parent.is_none()) {
            roots.calls += 1;
            roots.total_ns += s.end_ns - s.start_ns;
        }
    }
    let self_ns: u64 = totals.values().map(|t| t.self_ns).sum();
    totals.entry("_roots").or_default().self_ns = self_ns;
    let body: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "{}:{{\"calls\":{},\"total_ms\":{},\"self_ms\":{}}}",
                quote(name),
                t.calls,
                num(t.total_ns as f64 / 1e6),
                num(t.self_ns as f64 / 1e6)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn single(workload: &str, ctl: &Ctl) -> ExitCode {
    let _ = std::fs::create_dir_all(programs::out_dir());
    let mut out = run_workload(workload, ctl);
    harness::remove_cache_dirs();
    let rss = harness::peak_rss_mb();
    if !ctl.traced {
        out.e2e.insert("peak_rss_mb".into(), Value::new(rss, 1));
    }
    let rows = match contract_rows(&out, ctl.traced) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("ftbench: {e}");
            return ExitCode::from(3);
        }
    };

    // Span totals and the Chrome trace of a traced run.
    let mut spans = String::from("{}");
    if ctl.traced {
        let recs: Vec<&trace::Recorder> = out.recorders.iter().collect();
        let path = programs::out_dir().join(format!("{workload}.trace.json"));
        if let Err(e) = std::fs::write(&path, trace::chrome_trace(&recs)) {
            eprintln!("ftbench: cannot write {}: {e}", path.display());
            return ExitCode::from(3);
        }
        spans = span_totals_json(&recs);
    }

    let detail: Vec<(String, &str, Value)> = out
        .detail
        .iter()
        .map(|(k, (v, unit))| (k.clone(), *unit, *v))
        .collect();
    let reasons: Vec<String> = out
        .tally
        .reasons
        .iter()
        .map(|(r, n)| format!("{}:{n}", quote(r)))
        .collect();
    let failed_share = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    let (e2e, layers) = if ctl.traced {
        ("{}".to_string(), metrics_json(&rows, true))
    } else {
        (metrics_json(&rows, true), "{}".to_string())
    };
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"host\":{},\"e2e\":{e2e},\"detail\":{},\"layers\":{layers},\"spans\":{spans},\"attempted\":{},\"failed\":{},\"checked\":{},\"failed_share\":{},\"peak_rss_mb\":{},\"reasons\":{{{}}}}}",
        quote(workload),
        ctl.seed,
        num(ctl.seconds),
        ctl.traced,
        host_json(),
        metrics_json(&detail, true),
        out.tally.attempted,
        out.tally.failed,
        out.tally.checked,
        num(failed_share),
        num(rss),
        reasons.join(","),
    );
    let layer_specs = spec::layers();
    // A layer this workload never entered has nothing to show a reader.
    for (name, unit, v) in rows.iter().chain(&detail).filter(|(_, _, v)| v.n > 0) {
        // Next to a layer's number, the end-to-end metric it should move.
        let moves = layer_specs
            .iter()
            .find(|s| s.name == *name)
            .map_or(String::new(), |s| format!("  -> {}", s.moves));
        eprintln!("{name:<48} {:>16.4} {unit:<6} n={:<8}{moves}", v.value, v.n);
    }
    for (reason, n) in &out.tally.reasons {
        eprintln!("failed x{n}: {reason}");
    }
    let correct = out.tally.failed == 0 && out.tally.checked > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics_json(&rows, false)
    );
    ExitCode::SUCCESS
}

/// Run one workload in a child process (own `peak_rss_mb`, own caches) and
/// return its standard output.
fn child(workload: &str, ctl: &Ctl) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &ctl.seed.to_string()])
        .args(["--seconds", &ctl.seconds.to_string()])
        .args(["--trace", if ctl.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

fn all(ctl: &Ctl) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for w in &spec::WORKLOADS {
        eprintln!("# {}", w.name);
        match child(w.name, ctl) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("ftbench: {e}");
                code = ExitCode::from(3);
            }
        }
    }
    code
}

/// The result line of a child run: failed operations and metric values.
fn result_of(text: &str) -> Result<(u64, BTreeMap<String, f64>), String> {
    let line = text.lines().last().ok_or("no output")?;
    let v = JsonVal::parse(line)?;
    let failed = v
        .get("failed")
        .and_then(JsonVal::as_u64)
        .ok_or("no `failed`")?;
    let metrics = v
        .get("metrics")
        .and_then(JsonVal::as_obj)
        .ok_or("no `metrics`")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((failed, metrics))
}

/// Two sets of untraced runs of this build, back to back. A pair disagrees
/// when the second set's median is worse than the first's by more than the
/// metric's bound, or (with `--runs` ≥ 4) when a set's quartile spread
/// exceeds the bound (`setup_s` excepted, as in the acceptance check).
fn agree(ctl: &Ctl, runs: usize) -> ExitCode {
    let mut bad = 0;
    let mut sets: Vec<BTreeMap<(String, String), Vec<f64>>> = Vec::new();
    for set in 0..2 {
        let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for w in &spec::WORKLOADS {
            for i in 0..runs.max(1) {
                let ctl = Ctl {
                    seed: ctl.seed + i as u64,
                    traced: false,
                    ..*ctl
                };
                eprintln!("# set {set} {} seed {}", w.name, ctl.seed);
                match child(w.name, &ctl).and_then(|t| result_of(&t)) {
                    Ok((failed, metrics)) => {
                        if failed > 0 {
                            eprintln!("ftbench: {}: {failed} failed operations", w.name);
                            bad += 1;
                        }
                        for (k, v) in metrics {
                            values.entry((w.name.to_string(), k)).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("ftbench: {}: {e}", w.name);
                        return ExitCode::from(3);
                    }
                }
            }
        }
        sets.push(values);
    }
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse", "spread1", "spread2", "bound"
    );
    for ((workload, metric), a) in &sets[0] {
        let Some(m) = spec::E2E.iter().find(|m| m.name == metric) else {
            continue;
        };
        let b = &sets[1][&(workload.clone(), metric.clone())];
        let (ma, mb) = (stats::median(a), stats::median(b));
        let worse = match m.better {
            spec::Better::Lower => (mb - ma) / ma,
            spec::Better::Higher => (ma - mb) / ma,
        };
        let (sa, sb) = (stats::quartile_spread(a), stats::quartile_spread(b));
        let spread_ok = metric == "setup_s" || a.len() < 4 || (sa <= m.bound && sb <= m.bound);
        let ok = worse <= m.bound && spread_ok;
        if !ok {
            bad += 1;
        }
        println!(
            "{workload:<18} {metric:<12} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
            worse * 100.0,
            sa * 100.0,
            sb * 100.0,
            m.bound * 100.0,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `BENCHMARK.json`, generated from `src/spec.rs`.
fn print_contract() {
    let workloads: Vec<String> = spec::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = spec::E2E
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = spec::layers()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    println!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        DEFAULT_SECONDS as u64,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print_contract();
        ExitCode::SUCCESS
    } else if args.agree {
        agree(&args.ctl, args.runs)
    } else if args.all {
        all(&args.ctl)
    } else if let Some(w) = &args.workload {
        single(w, &args.ctl)
    } else {
        eprintln!("ftbench: give --workload <name>, --all or --agree");
        ExitCode::from(2)
    }
}
