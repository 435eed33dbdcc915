//! Regenerates paper Fig. 17 — analysis of the SubdivNet GPU speedup:
//! kernel invocations, DRAM bytes, L2 bytes, and FLOP count, FreeTensor
//! relative to the operator baseline.
//!
//! `--trace` additionally records full compilation provenance (pass spans,
//! auto-schedule decisions) and the per-statement runtime profile into a
//! Chrome trace-event JSON under `results/trace/` (load it in Perfetto or
//! `chrome://tracing`), plus a human-readable provenance report.

use bench::{fmt_bytes, prepare, run_forward, Scale, System, Workload};
use ft_ir::Device;
use std::path::Path;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let trace = std::env::args().any(|a| a == "--trace");
    let prep = prepare(
        Workload::Subdivnet,
        if small { Scale::Small } else { Scale::Full },
    );
    let sink = trace.then(ft_trace::TraceSink::new);
    let ft = run_forward(&prep, System::FtOptimized, Device::Gpu, sink.as_ref());
    let ob = run_forward(&prep, System::OpBase, Device::Gpu, sink.as_ref());
    println!("# Fig. 17 — analysis of the SubdivNet GPU speedup");
    println!(
        "{:<22} {:>16} {:>16} {:>12}",
        "metric", "baseline", "FreeTensor", "FT/baseline"
    );
    let rows: [(&str, f64, f64, bool); 4] = [
        (
            "kernel invocations",
            ob.counters.kernel_launches as f64,
            ft.counters.kernel_launches as f64,
            false,
        ),
        (
            "DRAM bytes",
            ob.counters.dram_bytes as f64,
            ft.counters.dram_bytes as f64,
            true,
        ),
        (
            "L2 bytes",
            ob.counters.l2_bytes as f64,
            ft.counters.l2_bytes as f64,
            true,
        ),
        (
            "FLOPs",
            ob.counters.flops as f64,
            ft.counters.flops as f64,
            false,
        ),
    ];
    for (name, base, ours, bytes) in rows {
        let fmt = |v: f64| {
            if bytes {
                fmt_bytes(v as u64)
            } else {
                format!("{v:.0}")
            }
        };
        println!(
            "{:<22} {:>16} {:>16} {:>11.2}%",
            name,
            fmt(base),
            fmt(ours),
            100.0 * ours / base
        );
    }
    println!(
        "\nmodel note: the op-base baseline charges every bulk-kernel byte to \
         both L2 and DRAM (no cache simulation between kernels), so its L2 \
         row equals its DRAM row by construction; FreeTensor's L2 traffic \
         comes from the per-access cache simulator."
    );
    println!("paper reference: 1 kernel vs >=6; DRAM 3.31%; L2 18.38%; FLOPs 79.72%");
    if let Some(sink) = sink {
        let scale = if small { "small" } else { "full" };
        let dir = Path::new("results/trace");
        let json_path = dir.join(format!("fig17-{scale}.trace.json"));
        let report_path = dir.join(format!("fig17-{scale}.report.txt"));
        ft_trace::write_chrome_trace(&sink, &json_path).expect("write trace");
        let stats = ft_trace::validate_chrome_trace(
            &std::fs::read_to_string(&json_path).expect("read back trace"),
        )
        .expect("emitted trace must validate");
        std::fs::write(&report_path, ft_trace::provenance_report(&sink)).expect("write report");
        println!(
            "\ntrace: {} ({} events, {} tracks) — load in Perfetto / chrome://tracing",
            json_path.display(),
            stats.events,
            stats.tracks
        );
        println!("report: {}", report_path.display());
    }
}
