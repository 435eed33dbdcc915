//! What every workload shares: run controls, failure accounting, fresh
//! artifact-cache directories, engine lifetime, and the result record.

use crate::programs::{self, Case, Emitted, Sched};
use crate::stats;
use crate::trace::Recorder;
use freetensor_core::Program;
use ft_metrics::Metrics;
use ft_runtime::{CompiledEngine, ExecutionEngine};
use ft_workloads::Inputs;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rounds of the timed phase: every program gets a slice of each, so its
/// samples span the whole run.
pub const ROUNDS: usize = 25;
/// Set-ups per run; `setup_s` is the quickest of them.
pub const SETUP_REPS: usize = 5;
const _: () = assert!(ROUNDS.is_multiple_of(SETUP_REPS));
/// Warm operations per program before anything is timed (fewer when they
/// take longer than [`WARMUP_CAP`] together: four 70 ms operations warm a
/// kernel as well as twenty).
pub const WARMUP_OPS: usize = 20;
pub const WARMUP_CAP: std::time::Duration = std::time::Duration::from_millis(300);
/// Every sixteenth operation (the first included) is compared with the
/// oracle, besides the last of each round.
const CHECK_EVERY: u64 = 16;

/// Whether operation `i` of a slice (`last`: the deadline has passed, this is
/// its final one) gets its output checked.
pub fn is_checked(i: u64, last: bool) -> bool {
    last || i.is_multiple_of(CHECK_EVERY)
}

/// Command-line controls of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctl {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Operations attempted and failed. Every `Err`, every checked output that
/// misses the oracle and every refused request is a failed operation with a
/// reason; nothing is unwrapped, skipped or retried.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        // Keep the report readable when thousands of operations fail alike.
        let mut r: String = reason.into();
        if r.len() > 160 {
            r = r.chars().take(160).collect();
        }
        *self.reasons.entry(r).or_default() += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        for (k, v) in other.reasons {
            *self.reasons.entry(k).or_default() += v;
        }
    }
}

/// A measured value with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: u64,
}

impl Value {
    pub fn new(value: f64, n: u64) -> Value {
        Value { value, n }
    }

    /// The same measurement in another unit (µs → ms: `scaled(1e-3)`).
    pub fn scaled(self, factor: f64) -> Value {
        Value::new(self.value * factor, self.n)
    }
}

/// What one run of one workload produced. `e2e` holds the untraced run's
/// end-to-end metrics (without `peak_rss_mb`, which `main` reads at exit),
/// `detail` the per-program numbers behind them (with their unit), `layers`
/// the traced run's per-layer metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub e2e: BTreeMap<String, Value>,
    pub detail: BTreeMap<String, (Value, &'static str)>,
    pub layers: BTreeMap<String, Value>,
    pub recorders: Vec<Recorder>,
}

/// Timed samples of one round: per series (a program, a request key), the
/// operation times of one uninterrupted slice, in the order they ran.
#[derive(Debug, Default, Clone)]
pub struct Round {
    pub op_us: Vec<Vec<f64>>,
}

/// `op_p50_us`: per series, the median of the quietest window of consecutive
/// operations; then the geometric mean over series.
pub fn op_p50(rounds: &[Round]) -> Value {
    let series = rounds.iter().map(|r| r.op_us.len()).max().unwrap_or(0);
    let per_series: Vec<f64> = (0..series).map(|s| quiet_median(rounds, s).value).collect();
    Value {
        value: stats::geomean(&per_series),
        n: rounds
            .iter()
            .flat_map(|r| r.op_us.iter())
            .map(|s| s.len() as u64)
            .sum(),
    }
}

/// Median of the quietest window of series `s`.
pub fn quiet_median(rounds: &[Round], s: usize) -> Value {
    let slices: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.op_us.get(s).cloned().unwrap_or_default())
        .collect();
    Value::new(
        stats::quiet_median(&slices),
        slices.iter().map(|s| s.len() as u64).sum(),
    )
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A cache directory no earlier build has touched, under `benchmark/out/`.
pub fn fresh_cache_dir() -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = programs::out_dir().join(format!("cache-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How many cache directories this process has handed out.
pub fn cache_dirs_made() -> u64 {
    NEXT_DIR.load(Ordering::Relaxed)
}

/// Bytes of shared objects in the cache directories handed out since
/// `cache_dirs_made()` read `since`.
pub fn so_bytes_since(since: u64) -> u64 {
    (since..cache_dirs_made())
        .map(|n| so_bytes(&programs::out_dir().join(format!("cache-{}-{n}", std::process::id()))))
        .sum()
}

/// Remove this process's cache directories (called once, at exit).
pub fn remove_cache_dirs() {
    for n in 0..NEXT_DIR.load(Ordering::Relaxed) {
        let dir = programs::out_dir().join(format!("cache-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A compiled engine on `dir` that is never dropped. Dropping the last
/// engine that ran an OpenMP kernel unloads libgomp under its live worker
/// threads and the next kernel call crashes (see README, known findings);
/// one leaked clone per engine keeps every loaded kernel, and with it
/// libgomp, mapped until the process exits.
pub fn new_engine(dir: &std::path::Path, metrics: Option<&Metrics>) -> CompiledEngine {
    let mut e = CompiledEngine::with_cache_dir(dir);
    e.set_metrics(metrics.cloned());
    std::mem::forget(e.clone());
    e
}

/// A program ready to run: scheduled, with its inputs and oracle outputs.
#[derive(Clone)]
pub struct Prepared {
    pub case: Case,
    pub program: Program,
    pub inputs: Inputs,
    pub want: Inputs,
    pub emitted: Emitted,
}

/// Inputs from the seed, the compile pipeline, and the oracle.
pub fn prepare(
    case: Case,
    sched: Sched,
    seed: u64,
    rec: &mut Recorder,
    op: u64,
) -> Result<Prepared, String> {
    let inputs = case.inputs(seed);
    let program = programs::schedule_program(&case, sched, rec, op)?;
    let (planned_peak, c_text) = programs::emit(&program, rec, op);
    let emitted = Emitted::of(&program, planned_peak, &c_text);
    let o = rec.begin("oracle", op);
    let want = case.oracle(&inputs);
    rec.end(o);
    Ok(Prepared {
        case,
        program,
        inputs,
        want,
        emitted,
    })
}

/// Bytes of shared objects in a cache directory.
pub fn so_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "so"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `setup_s`: the quickest of a run's set-ups, in seconds.
pub fn quickest(setup_s: &[f64]) -> Value {
    Value::new(
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.len() as u64,
    )
}

/// Sum over operation ids of the quiet-window median span time (µs) of
/// `name` — "sum over the programs" when spans are keyed by program index.
/// The same estimator as `op_p50_us`, so stage times add up to it.
pub fn sum_of_quiet_medians(rec: &Recorder, name: &str) -> Value {
    let mut by_op: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (op, us) in rec.durations(name) {
        by_op.entry(op).or_default().push(us);
    }
    Value {
        value: by_op.values().fold(0.0, |acc, v| {
            acc + stats::quiet_median(std::slice::from_ref(v))
        }),
        n: by_op.values().map(|v| v.len() as u64).sum(),
    }
}

/// `bench.trace_overhead_share`: (traced − untraced) ÷ untraced on
/// `op_p50_us`, from the two halves of a traced run's rounds.
pub fn trace_overhead_layer(plain: &[Round], traced: &[Round], l: &mut BTreeMap<String, Value>) {
    let (plain, traced) = (op_p50(plain), op_p50(traced));
    if plain.value > 0.0 {
        l.insert(
            "bench.trace_overhead_share".into(),
            Value::new((traced.value - plain.value) / plain.value, traced.n),
        );
    }
}

/// The build's share of set-up, for a workload that set up `SETUP_REPS`
/// times with `metrics` on its engines: `cc.build_ms` (cold first runs minus
/// the same runs warm, summed over programs), the size of the shared objects
/// in the last set-up's cache, and compiler processes spawned per set-up.
pub fn cc_layers(
    cold_us: Value,
    warm_sum_us: f64,
    cache_dir: &std::path::Path,
    programs: u64,
    metrics: &Metrics,
    l: &mut BTreeMap<String, Value>,
) {
    l.insert(
        "cc.build_ms".into(),
        Value::new(((cold_us.value - warm_sum_us) / 1e3).max(0.0), cold_us.n),
    );
    l.insert(
        "cc.so_bytes".into(),
        Value::new(so_bytes(cache_dir) as f64, programs),
    );
    l.insert(
        "ft-runtime.native.cc_spawned".into(),
        Value::new(
            metrics.snapshot().counter("compiled.cc.spawned") as f64 / SETUP_REPS as f64,
            SETUP_REPS as u64,
        ),
    );
}

/// Per-layer pipeline metrics from stage spans keyed by program index: the
/// sum over programs of each stage's median time.
pub fn pipeline_layers(rec: &Recorder, l: &mut BTreeMap<String, Value>) {
    let ms = |name: &str| {
        let v = sum_of_quiet_medians(rec, name);
        Value::new(v.value / 1e3, v.n)
    };
    l.insert("ft-frontend.compile_ms".into(), ms("frontend"));
    l.insert("ft-passes.simplify_ms".into(), ms("simplify"));
    l.insert("ft-autodiff.grad_ms".into(), ms("grad"));
    l.insert("ft-autoschedule.optimize_ms".into(), ms("optimize"));
    l.insert("ft-autoschedule.replay_ms".into(), ms("replay"));
    l.insert(
        "ft-analysis.memplan_us".into(),
        sum_of_quiet_medians(rec, "memplan"),
    );
    l.insert(
        "ft-codegen.emit_c_us".into(),
        sum_of_quiet_medians(rec, "emit_c"),
    );
}

/// Exact sizes of what the pipeline produced, summed over the programs.
pub fn emitted_layers(emitted: &[Emitted], l: &mut BTreeMap<String, Value>) {
    let n = emitted.len() as u64;
    let sum = |f: fn(&Emitted) -> u64| Value {
        value: emitted.iter().map(f).sum::<u64>() as f64,
        n,
    };
    l.insert(
        "ft-analysis.memplan.planned_peak_bytes".into(),
        sum(|e| e.planned_peak_bytes),
    );
    l.insert("ft-codegen.c_bytes".into(), sum(|e| e.c_bytes));
    l.insert("ft-ir.ir_bytes.scheduled".into(), sum(|e| e.ir_bytes));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_p50_is_quiet_window_median_then_geomean_over_programs() {
        let round = |a: f64, b: f64| Round {
            op_us: vec![vec![a; 3], vec![b; 3]],
        };
        // Noisy rounds, and a round that was noisy for one program only,
        // must not move the result.
        let rounds = vec![
            round(90.0, 9000.0),
            round(10.0, 5000.0),
            round(30.0, 1000.0),
        ];
        let v = op_p50(&rounds);
        assert!((v.value - 100.0).abs() < 1e-9);
        assert_eq!(v.n, 18);
        assert_eq!(quiet_median(&rounds, 1).value, 1000.0);
    }

    #[test]
    fn tally_counts_and_groups_reasons() {
        let mut t = Tally {
            attempted: 3,
            ..Tally::default()
        };
        t.fail("cc: not found");
        t.fail("cc: not found");
        let mut u = Tally {
            attempted: 1,
            ..Tally::default()
        };
        u.fail("x".repeat(500));
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(t.reasons["cc: not found"], 2);
        assert!(t.reasons.keys().all(|k| k.len() <= 160));
    }
}
