//! Regenerates paper Fig. 16: end-to-end time per workload × device ×
//! system. Default is Fig. 16(a) (no differentiation); `--grad` produces
//! Fig. 16(b) (forward + backward, GAT excluded, OOM reported as in the
//! paper). `--small` uses the reduced shapes (`Scale::Small`).
//!
//! A FreeTensor cell's cycles come from the instrumented interpreter and
//! its wall from the native compiled engine (best warm operation, CPU rows
//! only; the GPU axis is modeled only), which reads the workload's input
//! map in place: no copy of the inputs is inside the timed window.
//!
//! Each run also writes the machine-readable `results/BENCH.json`
//! (override with `--json PATH`, suppress with `--no-json`); a plain run
//! followed by a `--grad` run accumulates both record kinds in one file.
//!
//! `--metrics [PATH]` additionally exports the process-wide runtime
//! telemetry registry (engine run/kernel histograms, compile counts,
//! `compiled.cache` hit/miss, pool stats) as a `ft-metrics` JSON snapshot,
//! default `results/METRICS.json`. On a warm artifact cache the snapshot
//! must show `compiled.cc.spawned == 0` — `bench_check --metrics
//! --expect-warm` gates on exactly that.

use bench::{
    bench_metrics, fmt_bytes, fmt_cycles, json_record, prepare, run_forward_capped,
    run_forward_traced, run_grad_capped, write_bench_json, Scale, System, Workload,
};
use ft_autodiff::TapePolicy;
use ft_ir::Device;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let grad = args.iter().any(|a| a == "--grad");
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Full
    };
    // Optional GPU capacity cap in MiB (reproduces the OOM columns).
    let capacity: Option<usize> = args
        .iter()
        .position(|a| a == "--capacity")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .map(|mib| mib << 20);
    // Optional compilation-provenance trace of the optimized CPU runs
    // (`--trace PATH`): a Chrome-format artifact with every schedule
    // decision, the memory plan, and each parallel mark the compiled
    // engine's resolve made serial (`lower.parallel`).
    let trace_path: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(|p| p.into());
    // Optional metrics export (`--metrics [PATH]`): the shared telemetry
    // registry, frozen after the sweep.
    let metrics_path: Option<std::path::PathBuf> =
        args.iter().position(|a| a == "--metrics").map(|i| {
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .map_or_else(|| "results/METRICS.json".into(), |p| p.into())
        });
    let json_path: Option<std::path::PathBuf> = if args.iter().any(|a| a == "--no-json") {
        None
    } else {
        Some(
            args.iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1))
                .map_or_else(|| "results/BENCH.json".into(), |p| p.into()),
        )
    };
    let systems = [System::OpBase, System::FtNaive, System::FtOptimized];
    println!(
        "# Fig. 16({}) — end-to-end {}",
        if grad { "b" } else { "a" },
        if grad {
            "with differentiation (fwd + bwd)"
        } else {
            "without differentiation"
        }
    );
    println!("# Cells: modeled cycles (wall ms). Modeled cycles come from the");
    println!("# instrumented interpreter and are the paper's reproduced quantity.");
    println!("# For FreeTensor systems wall ms is the best warm operation of the");
    println!("# native compiled engine (C -> cc -> shared object called");
    println!("# in-process; compile time amortized by the artifact cache), on CPU");
    println!("# rows only: the GPU axis is modeled. For the operator baseline it");
    println!("# is its native kernels. No wall includes a copy of the inputs.");
    println!("# `arena peak` = planned/naive peak temporary bytes of the optimized");
    println!("# schedule under the static memory plan (liveness-packed arena vs");
    println!("# stack-discipline allocation).");
    println!(
        "{:<12} {:<5} {:>24} {:>24} {:>24}",
        "workload",
        "dev",
        systems[0].label(),
        systems[1].label(),
        systems[2].label()
    );
    let mut workloads = Workload::ALL.to_vec();
    if grad {
        workloads.retain(|w| w.differentiable());
    }
    let kind = if grad { "grad" } else { "forward" };
    let mut records = Vec::new();
    for &w in &workloads {
        let prep = prepare(w, scale);
        for dev in [Device::Cpu, Device::Gpu] {
            let mut cells = Vec::new();
            let mut best_baseline = f64::INFINITY;
            let mut ft_cycles = f64::NAN;
            let mut ft_peaks = None;
            for sys in systems {
                let r = if grad {
                    run_grad_capped(&prep, sys, dev, TapePolicy::Selective, capacity)
                } else {
                    run_forward_capped(&prep, sys, dev, capacity)
                };
                let cell = match &r.failure {
                    Some(f) => match r.failed_stage {
                        Some(stage) => format!("{f} [{stage}]"),
                        None => f.clone(),
                    },
                    None => match r.wall_ms {
                        Some(ms) => format!("{} ({ms:.3}ms)", fmt_cycles(r.cycles)),
                        None => fmt_cycles(r.cycles),
                    },
                };
                if r.failure.is_none() {
                    match sys {
                        System::FtOptimized => {
                            ft_cycles = r.cycles;
                            ft_peaks = r.peak_planned_bytes.zip(r.peak_naive_bytes);
                        }
                        _ => best_baseline = best_baseline.min(r.cycles),
                    }
                }
                records.push(json_record(w, sys, dev, kind, scale, &r));
                cells.push(cell);
            }
            let speedup = if ft_cycles.is_nan() || best_baseline.is_infinite() {
                "-".to_string()
            } else {
                format!("{:.2}x", best_baseline / ft_cycles)
            };
            let arena_col = ft_peaks.map_or_else(
                || "-".to_string(),
                |(p, n)| format!("{}/{}", fmt_bytes(p), fmt_bytes(n)),
            );
            println!(
                "{:<12} {:<5} {:>24} {:>24} {:>24}   speedup vs best other: {:<8} arena peak: {}",
                w.display(),
                dev.to_string(),
                cells[0],
                cells[1],
                cells[2],
                speedup,
                arena_col
            );
        }
    }
    if let Some(path) = json_path {
        match write_bench_json(&path, kind, records) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = trace_path {
        let sink = ft_trace::TraceSink::new();
        for &w in &workloads {
            let prep = prepare(w, scale);
            let r = run_forward_traced(&prep, System::FtOptimized, Device::Cpu, &sink);
            if let Some(f) = r.failure {
                eprintln!("trace run failed on {}: {f}", w.display());
            }
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        // Stamp the cumulative bench metrics into the trace as Chrome "C"
        // counter events, so the exported artifact carries the registry
        // state alongside the decisions.
        sink.metrics_sample(&bench_metrics().snapshot());
        ft_trace::write_chrome_trace(&sink, &path).expect("write trace");
        let decisions = sink.decisions();
        let serialized = decisions
            .iter()
            .filter(|d| d.primitive == "lower.parallel")
            .count();
        eprintln!(
            "wrote {} ({} decisions, {serialized} parallel marks made serial)",
            path.display(),
            decisions.len(),
        );
    }
    if let Some(path) = metrics_path {
        let snap = bench_metrics().snapshot();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, format!("{}\n", ft_trace::metrics_to_json(&snap)))
            .expect("write metrics");
        eprintln!(
            "wrote {} (cc spawned {}, cache {} hit / {} miss, {} cold compiled runs, \
             arena warm allocs {} and resolves {} over {} probe(s))",
            path.display(),
            snap.counter("compiled.cc.spawned"),
            snap.counter("compiled.cache.hit"),
            snap.counter("compiled.cache.miss"),
            snap.histograms
                .get("engine.compiled.run_us")
                .map_or(0, |h| h.count),
            snap.counter("mem.arena.warm_alloc_calls"),
            snap.counter("mem.arena.warm_resolve_calls"),
            snap.counter("mem.arena.warm_probe_runs"),
        );
    }
}
