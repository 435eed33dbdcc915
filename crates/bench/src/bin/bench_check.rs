//! Benchmark regression and schedule-payoff gate.
//!
//! ```text
//! bench_check <baseline.json> <current.json> [--threshold 2.0]
//!             [--det-threshold 1.10] [--strict-wall]
//!             [--metrics METRICS.json [--expect-warm] [--min-hit-rate 0.99]]
//! ```
//!
//! Two independent checks, with different teeth:
//!
//! 1. **Baseline regressions** — rows matched on (workload, system,
//!    device, kind, scale) against a committed baseline. The
//!    *deterministic* metrics (`cycles`, `dram_bytes`, from the modeled
//!    cost counters — identical on every host) are **blocking** when they
//!    grow past `--det-threshold`. Wall-clock is **advisory** (printed,
//!    never fails the run) since absolute time varies across runner
//!    hardware; `--threshold` controls when it is flagged.
//!
//! 2. **Inversions** — within the *current* file, for every
//!    (workload, device, kind, scale) that has both an `ft-naive` and an
//!    `ft-optimized` row, the optimized schedule must actually pay off.
//!    A higher optimized `cycles` count is **blocking**; a higher
//!    optimized wall time is advisory unless `--strict-wall` promotes it
//!    (used on the committed full-scale results, where the VM's SIMD and
//!    privatized-reduction lowering is expected to win outright). On
//!    `grad` rows the *compiled* wall (`compiled_wall_ms`) must also stay
//!    within 1.10x of `ft-naive`'s: **blocking** at full scale, advisory
//!    at small scale.
//!
//! 3. **Searched schedules** — within the *current* file, every
//!    `ft-searched` row (a committed `results/schedules/` trace replayed by
//!    `fig16`) is held to the axis the search optimizes: its
//!    `compiled_wall_ms` must stay within 1.10x of its `ft-optimized`
//!    counterpart's — **blocking** at full scale, advisory at small scale,
//!    as for `grad` rows in check 2. Its modeled `cycles` (of the
//!    CPU-lowered program) are reported against `ft-optimized`'s and only
//!    ever advise: the cost model picks what the search measures, it does
//!    not decide what wins. A *failed* `ft-searched` row is itself
//!    **blocking**: a committed schedule that no longer replays is a broken
//!    artifact, not a skippable case. Rows are only checked when present —
//!    repos without committed schedules pass vacuously.
//!
//! 4. **Memory plans** — every current row carrying both peak-bytes
//!    fields must satisfy `peak_live_bytes_planned <=
//!    peak_live_bytes_naive` (the liveness packing can never *lose* to
//!    stack-discipline allocation; equality means nothing was reusable),
//!    and whenever `naive_alloc_bytes` — the pre-planner regime's per-run
//!    allocation traffic, one fresh zeroed buffer per def incarnation per
//!    loop iteration — exceeds the stack peak, the planned peak must beat
//!    it *strictly* (the arena's reuse claim with teeth).
//!    **Blocking**. The planned peak is also a deterministic metric in
//!    check 1: any growth over the committed baseline blocks (rows whose
//!    baseline predates the field are skipped).
//!
//! An optional check reads a `fig16 --metrics` telemetry snapshot
//! (`--metrics METRICS.json`):
//!
//! 5. **Warm-cache gates** — with `--expect-warm`, the run is asserted to
//!    have executed against a fully populated artifact cache:
//!    `compiled.cc.spawned` must be exactly 0 (every kernel served without
//!    a compiler spawn) and the `compiled.cache` hit rate
//!    (`hit / (hit + miss)`) must reach `--min-hit-rate` (default 0.99).
//!    The arena steady state is gated the same way:
//!    `mem.arena.warm_probe_runs` must be non-zero (the warm `RunContext`
//!    loop actually ran) and `mem.arena.warm_alloc_calls` must be exactly
//!    0 (after the first iteration, repeated runs through a reused context
//!    perform zero tensor heap allocations). All four are **blocking**.
//!    Without `--expect-warm` the counters are printed informationally.
//!
//! Exits 0 when clean, 1 on any blocking finding, 2 on usage/IO errors.

use ft_trace::JsonVal;
use std::process::ExitCode;

/// Noise margin of the compiled-wall inversion checks (gradient rows
/// against `ft-naive`, searched rows against `ft-optimized`): best-of-5
/// timings of sub-millisecond kernels repeat within a few percent.
const WALL_MARGIN: f64 = 1.10;

fn field(r: &JsonVal, k: &str) -> Option<String> {
    r.get(k).and_then(JsonVal::as_str).map(str::to_string)
}

fn key(r: &JsonVal) -> Option<String> {
    Some(format!(
        "{}/{}/{}/{}/{}",
        field(r, "workload")?,
        field(r, "system")?,
        field(r, "device")?,
        field(r, "kind")?,
        field(r, "scale")?
    ))
}

/// Grouping key with the system dropped — rows that should be compared
/// against each other in the inversion check.
fn case_key(r: &JsonVal) -> Option<String> {
    Some(format!(
        "{}/{}/{}/{}",
        field(r, "workload")?,
        field(r, "device")?,
        field(r, "kind")?,
        field(r, "scale")?
    ))
}

fn num(r: &JsonVal, k: &str) -> Option<f64> {
    r.get(k).and_then(JsonVal::as_f64)
}

fn failed(r: &JsonVal) -> bool {
    r.get("failure").and_then(JsonVal::as_str).is_some()
}

/// Count a compiled-wall inversion on row `r` and return its label: it
/// blocks at full scale; at small scale a kernel of a few microseconds is
/// all fork/join, so the row only advises.
fn wall_finding(r: &JsonVal, blocking: &mut usize, advisories: &mut usize) -> &'static str {
    if field(r, "scale").as_deref() == Some("full") {
        *blocking += 1;
        "BLOCKING"
    } else {
        *advisories += 1;
        "ADVISORY"
    }
}

fn load(path: &str) -> Result<Vec<JsonVal>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonVal::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("records")
        .and_then(JsonVal::as_arr)
        .ok_or_else(|| format!("{path}: no `records` array"))?
        .to_vec())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let positional: Vec<&String> = args[1..]
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(
                    args[1..].get(i.wrapping_sub(1)).map(String::as_str),
                    Some("--threshold")
                        | Some("--det-threshold")
                        | Some("--metrics")
                        | Some("--min-hit-rate")
                )
        })
        .map(|(_, a)| a)
        .collect();
    let [baseline_path, current_path] = positional[..] else {
        eprintln!(
            "usage: bench_check <baseline.json> <current.json> \
             [--threshold X] [--det-threshold Y] [--strict-wall] \
             [--metrics METRICS.json [--expect-warm] [--min-hit-rate R]]"
        );
        return ExitCode::from(2);
    };
    let opt = |name: &str, default: f64| -> f64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let wall_threshold = opt("--threshold", 2.0);
    let det_threshold = opt("--det-threshold", 1.10);
    let strict_wall = args.iter().any(|a| a == "--strict-wall");
    let metrics_path: Option<&String> = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1));
    let expect_warm = args.iter().any(|a| a == "--expect-warm");
    let min_hit_rate = opt("--min-hit-rate", 0.99);

    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };

    let mut blocking = 0usize;
    let mut advisories = 0usize;
    let mut compared = 0usize;

    // --- Check 1: regressions against the committed baseline. ---
    for cur in &current {
        let Some(k) = key(cur) else { continue };
        let Some(base) = baseline.iter().find(|b| key(b).as_deref() == Some(&k)) else {
            continue;
        };
        if failed(cur) || failed(base) {
            continue;
        }
        compared += 1;
        for metric in ["cycles", "dram_bytes"] {
            let (Some(bv), Some(cv)) = (num(base, metric), num(cur, metric)) else {
                continue;
            };
            if bv > 0.0 && cv > det_threshold * bv {
                blocking += 1;
                println!(
                    "BLOCKING   {k}: {metric} {cv:.0} vs baseline {bv:.0} \
                     (>{det_threshold}x, deterministic)"
                );
            }
        }
        // The planned arena peak is deterministic (a pure function of the
        // schedule), so *any* growth over the committed baseline blocks.
        // Baselines written before the field existed skip silently.
        if let (Some(bv), Some(cv)) = (
            num(base, "peak_live_bytes_planned"),
            num(cur, "peak_live_bytes_planned"),
        ) {
            if cv > bv {
                blocking += 1;
                println!(
                    "BLOCKING   {k}: planned peak {cv:.0}B vs baseline {bv:.0}B \
                     (memory plan regressed)"
                );
            }
        }
        if let (Some(bw), Some(cw)) = (num(base, "wall_ms"), num(cur, "wall_ms")) {
            if cw > wall_threshold * bw {
                advisories += 1;
                println!(
                    "ADVISORY   {k}: wall {cw:.2}ms vs baseline {bw:.2}ms (>{wall_threshold}x)"
                );
            } else {
                println!("ok         {k}: wall {cw:.2}ms vs baseline {bw:.2}ms");
            }
        }
    }

    // --- Check 2: ft-optimized must not lose to ft-naive. ---
    let mut inversions_checked = 0usize;
    for cur in &current {
        if field(cur, "system").as_deref() != Some("ft-optimized") || failed(cur) {
            continue;
        }
        let Some(ck) = case_key(cur) else { continue };
        let Some(naive) = current.iter().find(|r| {
            field(r, "system").as_deref() == Some("ft-naive")
                && case_key(r).as_deref() == Some(&ck)
                && !failed(r)
        }) else {
            continue;
        };
        inversions_checked += 1;
        if let (Some(nc), Some(oc)) = (num(naive, "cycles"), num(cur, "cycles")) {
            if oc > nc {
                blocking += 1;
                println!(
                    "BLOCKING   {ck}: ft-optimized cycles {oc:.0} > ft-naive {nc:.0} \
                     (schedule does not pay off)"
                );
            }
        }
        if let (Some(nw), Some(ow)) = (num(naive, "wall_ms"), num(cur, "wall_ms")) {
            if ow > nw {
                let label = if strict_wall { "BLOCKING" } else { "ADVISORY" };
                if strict_wall {
                    blocking += 1;
                } else {
                    advisories += 1;
                }
                println!(
                    "{label}   {ck}: ft-optimized wall {ow:.3}ms > ft-naive {nw:.3}ms (inversion)"
                );
            } else {
                println!(
                    "ok         {ck}: ft-optimized wall {ow:.3}ms <= ft-naive {nw:.3}ms"
                );
            }
        }
        // The product path on differentiated programs: rule-scheduled
        // gradients carry parallel reductions, and before those were
        // privatized the compiled kernel lost to the unscheduled one.
        // Blocking at full scale; at small scale a kernel of a few
        // microseconds is all fork/join, so the row only advises.
        if field(cur, "kind").as_deref() == Some("grad") {
            if let (Some(nw), Some(ow)) = (
                num(naive, "compiled_wall_ms"),
                num(cur, "compiled_wall_ms"),
            ) {
                if ow <= WALL_MARGIN * nw {
                    println!(
                        "ok         {ck}: ft-optimized compiled wall {ow:.3}ms <= \
                         {WALL_MARGIN} x ft-naive {nw:.3}ms"
                    );
                } else {
                    let label = wall_finding(cur, &mut blocking, &mut advisories);
                    println!(
                        "{label}   {ck}: ft-optimized compiled wall {ow:.3}ms > \
                         {WALL_MARGIN} x ft-naive {nw:.3}ms (inversion)"
                    );
                }
            }
        }
    }

    // --- Check 3: ft-searched must not lose to ft-optimized on wall. ---
    let mut searched_checked = 0usize;
    for cur in &current {
        if field(cur, "system").as_deref() != Some("ft-searched") {
            continue;
        }
        let Some(ck) = case_key(cur) else { continue };
        if failed(cur) {
            // A committed schedule that fails to replay is a broken
            // artifact: blocking, unlike ordinary failed rows.
            blocking += 1;
            let why = field(cur, "failure").unwrap_or_default();
            println!("BLOCKING   {ck}: ft-searched row failed ({why})");
            continue;
        }
        let Some(opt) = current.iter().find(|r| {
            field(r, "system").as_deref() == Some("ft-optimized")
                && case_key(r).as_deref() == Some(&ck)
                && !failed(r)
        }) else {
            continue;
        };
        searched_checked += 1;
        if let (Some(ow), Some(sw)) = (
            num(opt, "compiled_wall_ms"),
            num(cur, "compiled_wall_ms"),
        ) {
            if sw <= WALL_MARGIN * ow {
                println!(
                    "ok         {ck}: ft-searched compiled wall {sw:.3}ms <= \
                     {WALL_MARGIN} x ft-optimized {ow:.3}ms"
                );
            } else {
                let label = wall_finding(cur, &mut blocking, &mut advisories);
                println!(
                    "{label}   {ck}: ft-searched compiled wall {sw:.3}ms > \
                     {WALL_MARGIN} x ft-optimized {ow:.3}ms (search loses to the rules)"
                );
            }
        }
        if let (Some(oc), Some(sc)) = (num(opt, "cycles"), num(cur, "cycles")) {
            if sc > oc {
                advisories += 1;
                println!(
                    "ADVISORY   {ck}: ft-searched modeled cycles {sc:.0} > ft-optimized {oc:.0} \
                     (the model disagrees with the measurement)"
                );
            } else {
                println!(
                    "ok         {ck}: ft-searched modeled cycles {sc:.0} <= ft-optimized {oc:.0}"
                );
            }
        }
    }

    // --- Check 4: memory plans must never exceed naive allocation. ---
    let mut plans_checked = 0usize;
    for cur in &current {
        let (Some(n), Some(p)) = (
            num(cur, "peak_live_bytes_naive"),
            num(cur, "peak_live_bytes_planned"),
        ) else {
            continue;
        };
        plans_checked += 1;
        let Some(k) = key(cur) else { continue };
        if p > n {
            blocking += 1;
            println!(
                "BLOCKING   {k}: planned peak {p:.0}B > naive {n:.0}B \
                 (liveness packing must never lose)"
            );
        }
        // Against the pre-planner regime (a fresh zeroed buffer per def
        // incarnation, per loop iteration) the win must be strict whenever
        // loop reallocation actually inflated that regime past the stack
        // peak — equality there means the arena reused nothing.
        if let Some(a) = num(cur, "naive_alloc_bytes") {
            if a > n && p >= a {
                blocking += 1;
                println!(
                    "BLOCKING   {k}: planned peak {p:.0}B >= per-run naive \
                     allocation {a:.0}B (arena reuse claim is vacuous)"
                );
            }
        }
    }

    // --- Check 5: runtime-telemetry warm-cache gates. ---
    if let Some(path) = metrics_path {
        let snap = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| JsonVal::parse(&t).and_then(|v| ft_trace::metrics_from_json(&v)))
            .map_err(|e| format!("{path}: {e}"))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let spawned = snap.counter("compiled.cc.spawned");
        let hit = snap.counter("compiled.cache.hit");
        let miss = snap.counter("compiled.cache.miss");
        let lookups = hit + miss;
        let hit_rate = if lookups == 0 {
            f64::NAN
        } else {
            hit as f64 / lookups as f64
        };
        if expect_warm {
            if spawned != 0 {
                blocking += 1;
                println!(
                    "BLOCKING   metrics: warm run spawned the compiler {spawned} time(s) \
                     (compiled.cc.spawned must be 0)"
                );
            } else {
                println!("ok         metrics: compiled.cc.spawned = 0 (no compiler spawns)");
            }
            if lookups == 0 {
                blocking += 1;
                println!(
                    "BLOCKING   metrics: no compiled.cache lookups recorded — the compiled \
                     engine never ran, so the warm-cache gate is vacuous"
                );
            } else if hit_rate < min_hit_rate {
                blocking += 1;
                println!(
                    "BLOCKING   metrics: cache hit rate {hit_rate:.3} ({hit}/{lookups}) \
                     below --min-hit-rate {min_hit_rate}"
                );
            } else {
                println!(
                    "ok         metrics: cache hit rate {hit_rate:.3} ({hit}/{lookups})"
                );
            }
            let warm_allocs = snap.counter("mem.arena.warm_alloc_calls");
            let probes = snap.counter("mem.arena.warm_probe_runs");
            if probes == 0 {
                blocking += 1;
                println!(
                    "BLOCKING   metrics: no warm arena probes recorded — the reused-RunContext \
                     loop never ran, so the zero-allocation gate is vacuous"
                );
            } else if warm_allocs != 0 {
                blocking += 1;
                println!(
                    "BLOCKING   metrics: warm RunContext iterations performed {warm_allocs} \
                     arena/staging allocation(s) (mem.arena.warm_alloc_calls must be 0)"
                );
            } else {
                println!(
                    "ok         metrics: {probes} warm arena probe(s), 0 allocations in steady state"
                );
            }
        } else {
            println!(
                "info       metrics: compiled.cc.spawned {spawned}, cache {hit} hit / {miss} miss, \
                 arena warm allocs {} over {} probe(s)",
                snap.counter("mem.arena.warm_alloc_calls"),
                snap.counter("mem.arena.warm_probe_runs"),
            );
        }
    }

    println!(
        "{compared} baseline rows compared, {inversions_checked} optimized/naive pairs, \
         {searched_checked} searched/optimized pairs and {plans_checked} memory plans checked: \
         {blocking} blocking, {advisories} advisory"
    );
    if blocking > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
