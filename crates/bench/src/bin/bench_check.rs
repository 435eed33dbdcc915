//! Benchmark regression and schedule-payoff gate.
//!
//! ```text
//! bench_check <baseline.json> <current.json>
//!             [--metrics METRICS.json [--expect-warm]]
//! ```
//!
//! Three checks on the records, with different teeth:
//!
//! 1. **Baseline regressions** — rows matched on (workload, system,
//!    device, kind, scale) against a committed baseline. The
//!    *deterministic* metrics (`cycles`, `dram_bytes`, from the modeled
//!    cost counters — identical on every host) are **blocking** when they
//!    grow past 1.10x the baseline (`DET_THRESHOLD`). Wall-clock is
//!    **advisory** (printed, never fails the run) since absolute time varies
//!    across runner hardware; it is flagged past 2x (`WALL_THRESHOLD`).
//!
//! 2. **Inversions** — within the *current* file, for every
//!    (workload, device, kind, scale) that has both an `ft-naive` and an
//!    `ft-optimized` row, the optimized schedule must actually pay off.
//!    A higher optimized `cycles` count is **blocking**. The wall
//!    (`wall_ms`, the compiled engine's) is held by kind: on `forward`
//!    rows a higher optimized wall is advisory; on `grad` rows it must stay
//!    within 1.10x of `ft-naive`'s, **blocking** at full scale and advisory
//!    at small scale.
//!
//! 3. **Memory plans** — every current row carrying both peak-bytes
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
//! 4. **Warm-cache gates** — with `--expect-warm`, the run is asserted to
//!    have executed against a fully populated artifact cache:
//!    `compiled.cc.spawned` must be exactly 0 (every kernel served without
//!    a compiler spawn) and the `compiled.cache` hit rate
//!    (`hit / (hit + miss)`) must reach `MIN_HIT_RATE` (0.99).
//!    The arena steady state is gated the same way:
//!    `mem.arena.warm_probe_runs` must be non-zero (the warm `RunContext`
//!    loop actually ran), `mem.arena.warm_alloc_calls` must be exactly
//!    0 (after the first iteration, repeated runs through a reused context
//!    perform zero tensor heap allocations), and so must
//!    `mem.arena.warm_resolve_calls` (those runs reuse the call the context
//!    kept: no lowering, no memory plan). All five are **blocking**.
//!    Without `--expect-warm` the counters are printed informationally.
//!
//! Exits 0 when clean, 1 on any blocking finding, 2 on usage/IO errors.

use ft_metrics::MetricsSnapshot;
use ft_trace::JsonVal;
use std::process::ExitCode;

/// Noise margin of the gradient rows' wall inversion check against
/// `ft-naive`: best-of-5 timings of sub-millisecond kernels repeat within a
/// few percent.
const WALL_MARGIN: f64 = 1.10;

/// Growth of a deterministic metric over the baseline that blocks.
const DET_THRESHOLD: f64 = 1.10;

/// Growth of wall-clock over the baseline that is flagged (advisory).
const WALL_THRESHOLD: f64 = 2.0;

/// Lowest `compiled.cache` hit rate a warm run may have.
const MIN_HIT_RATE: f64 = 0.99;

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

/// Count a wall inversion on row `r` and return its label: it
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

/// Check 4's findings on a telemetry snapshot, in print order: whether
/// each blocks, and what it says.
fn warm_gates(snap: &MetricsSnapshot) -> Vec<(bool, String)> {
    let spawned = snap.counter("compiled.cc.spawned");
    let hit = snap.counter("compiled.cache.hit");
    let lookups = hit + snap.counter("compiled.cache.miss");
    let hit_rate = hit as f64 / lookups as f64;
    let warm_allocs = snap.counter("mem.arena.warm_alloc_calls");
    let warm_resolves = snap.counter("mem.arena.warm_resolve_calls");
    let probes = snap.counter("mem.arena.warm_probe_runs");
    let mut out = vec![if spawned != 0 {
        (
            true,
            format!(
                "warm run spawned the compiler {spawned} time(s) \
                 (compiled.cc.spawned must be 0)"
            ),
        )
    } else {
        (
            false,
            "compiled.cc.spawned = 0 (no compiler spawns)".to_string(),
        )
    }];
    out.push(if lookups == 0 {
        (
            true,
            "no compiled.cache lookups recorded — the compiled engine never ran, \
             so the warm-cache gate is vacuous"
                .to_string(),
        )
    } else if hit_rate < MIN_HIT_RATE {
        (
            true,
            format!("cache hit rate {hit_rate:.3} ({hit}/{lookups}) below {MIN_HIT_RATE}"),
        )
    } else {
        (
            false,
            format!("cache hit rate {hit_rate:.3} ({hit}/{lookups})"),
        )
    });
    if probes == 0 {
        out.push((
            true,
            "no warm arena probes recorded — the reused-RunContext loop never ran, \
             so the zero-allocation and zero-resolve gates are vacuous"
                .to_string(),
        ));
        return out;
    }
    out.push(if warm_allocs != 0 {
        (
            true,
            format!(
                "warm RunContext iterations performed {warm_allocs} arena/staging \
                 allocation(s) (mem.arena.warm_alloc_calls must be 0)"
            ),
        )
    } else {
        (
            false,
            format!("{probes} warm arena probe(s), 0 allocations in steady state"),
        )
    });
    out.push(if warm_resolves != 0 {
        (
            true,
            format!(
                "warm RunContext iterations resolved {warm_resolves} call(s) afresh \
                 (mem.arena.warm_resolve_calls must be 0)"
            ),
        )
    } else {
        (
            false,
            format!("{probes} warm arena probe(s), 0 fresh resolves in steady state"),
        )
    });
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let positional: Vec<&String> = args[1..]
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && args[1..].get(i.wrapping_sub(1)).map(String::as_str) != Some("--metrics")
        })
        .map(|(_, a)| a)
        .collect();
    let [baseline_path, current_path] = positional[..] else {
        eprintln!(
            "usage: bench_check <baseline.json> <current.json> \
             [--metrics METRICS.json [--expect-warm]]"
        );
        return ExitCode::from(2);
    };
    let metrics_path: Option<&String> = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1));
    let expect_warm = args.iter().any(|a| a == "--expect-warm");

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
            if bv > 0.0 && cv > DET_THRESHOLD * bv {
                blocking += 1;
                println!(
                    "BLOCKING   {k}: {metric} {cv:.0} vs baseline {bv:.0} \
                     (>{DET_THRESHOLD}x, deterministic)"
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
            if cw > WALL_THRESHOLD * bw {
                advisories += 1;
                println!(
                    "ADVISORY   {k}: wall {cw:.2}ms vs baseline {bw:.2}ms (>{WALL_THRESHOLD}x)"
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
        let (Some(nw), Some(ow)) = (num(naive, "wall_ms"), num(cur, "wall_ms")) else {
            continue;
        };
        // The product path on differentiated programs: rule-scheduled
        // gradients carry parallel reductions, and before those were
        // privatized the compiled kernel lost to the unscheduled one.
        // Blocking at full scale; at small scale a kernel of a few
        // microseconds is all fork/join, so the row only advises.
        if field(cur, "kind").as_deref() == Some("grad") {
            if ow <= WALL_MARGIN * nw {
                println!(
                    "ok         {ck}: ft-optimized wall {ow:.3}ms <= \
                     {WALL_MARGIN} x ft-naive {nw:.3}ms"
                );
            } else {
                let label = wall_finding(cur, &mut blocking, &mut advisories);
                println!(
                    "{label}   {ck}: ft-optimized wall {ow:.3}ms > \
                     {WALL_MARGIN} x ft-naive {nw:.3}ms (inversion)"
                );
            }
        } else if ow > nw {
            advisories += 1;
            println!(
                "ADVISORY   {ck}: ft-optimized wall {ow:.3}ms > ft-naive {nw:.3}ms (inversion)"
            );
        } else {
            println!("ok         {ck}: ft-optimized wall {ow:.3}ms <= ft-naive {nw:.3}ms");
        }
    }

    // --- Check 3: memory plans must never exceed naive allocation. ---
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

    // --- Check 4: runtime-telemetry warm-cache gates. ---
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
        if expect_warm {
            for (blocks, finding) in warm_gates(&snap) {
                if blocks {
                    blocking += 1;
                    println!("BLOCKING   metrics: {finding}");
                } else {
                    println!("ok         metrics: {finding}");
                }
            }
        } else {
            println!(
                "info       metrics: compiled.cc.spawned {}, cache {} hit / {} miss, \
                 arena warm allocs {} and resolves {} over {} probe(s)",
                snap.counter("compiled.cc.spawned"),
                snap.counter("compiled.cache.hit"),
                snap.counter("compiled.cache.miss"),
                snap.counter("mem.arena.warm_alloc_calls"),
                snap.counter("mem.arena.warm_resolve_calls"),
                snap.counter("mem.arena.warm_probe_runs"),
            );
        }
    }

    println!(
        "{compared} baseline rows compared, {inversions_checked} optimized/naive pairs \
         and {plans_checked} memory plans checked: {blocking} blocking, {advisories} advisory"
    );
    if blocking > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of a warm sweep with `resolves` fresh resolves in its
    /// warm probe iterations.
    fn warm_sweep(resolves: u64) -> MetricsSnapshot {
        let m = ft_metrics::Metrics::new();
        m.counter("compiled.cache.hit").add(12);
        m.counter("mem.arena.warm_probe_runs").add(3);
        m.counter("mem.arena.warm_alloc_calls").add(0);
        m.counter("mem.arena.warm_resolve_calls").add(resolves);
        m.snapshot()
    }

    fn blocking(snap: &MetricsSnapshot) -> Vec<String> {
        let gates = warm_gates(snap).into_iter();
        gates.filter(|(b, _)| *b).map(|(_, f)| f).collect()
    }

    #[test]
    fn a_warm_probe_that_resolves_afresh_blocks() {
        assert_eq!(blocking(&warm_sweep(0)), Vec::<String>::new());
        let found = blocking(&warm_sweep(2));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("resolved 2 call(s)"), "{found:?}");
        // No probe at all: the zero-resolve gate is vacuous, and says so.
        let found = blocking(&ft_metrics::Metrics::new().snapshot());
        assert!(
            found.iter().any(|f| f.contains("zero-resolve")),
            "{found:?}"
        );
    }
}
