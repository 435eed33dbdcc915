//! Regenerates paper Fig. 18 — the selective-materialization ablation:
//! gradient time with every intermediate materialized, FT(-)
//! (`TapePolicy::All`), vs the selective strategy, FT(+)
//! (`TapePolicy::Selective`), with forward/backward breakdown and peak
//! memory (OOM reported where FT(-) exceeds device capacity).

use bench::{fmt_bytes, fmt_cycles, prepare, run_forward, run_grad, Scale, System, Workload};
use ft_autodiff::TapePolicy;
use ft_ir::Device;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { Scale::Small } else { Scale::Full };
    println!("# Fig. 18 — selective intermediate tensor materialization");
    println!(
        "{:<12} {:<5} {:>14} {:>14} {:>14} {:>10} {:>12} {:>12}",
        "workload", "dev", "FT(-) total", "FT(+) total", "speedup", "fwd-only", "FT(-) peak", "FT(+) peak"
    );
    for w in Workload::ALL.into_iter().filter(|w| w.differentiable()) {
        let prep = prepare(w, scale);
        for dev in [Device::Cpu, Device::Gpu] {
            let fwd = run_forward(&prep, System::FtOptimized, dev);
            let minus = run_grad(&prep, System::FtOptimized, dev, TapePolicy::All);
            let plus = run_grad(&prep, System::FtOptimized, dev, TapePolicy::Selective);
            let peak = |r: &bench::CaseResult| {
                r.counters
                    .peak_bytes
                    .get(&dev.to_string())
                    .copied()
                    .map(fmt_bytes)
                    .unwrap_or_else(|| "-".to_string())
            };
            let cell = |r: &bench::CaseResult| match &r.failure {
                Some(f) => f.clone(),
                None => fmt_cycles(r.cycles),
            };
            let speedup = match (&minus.failure, &plus.failure) {
                (None, None) => format!("{:.2}x", minus.cycles / plus.cycles),
                _ => "-".to_string(),
            };
            println!(
                "{:<12} {:<5} {:>14} {:>14} {:>14} {:>10} {:>12} {:>12}",
                w.display(),
                dev.to_string(),
                cell(&minus),
                cell(&plus),
                speedup,
                fmt_cycles(fwd.cycles),
                peak(&minus),
                peak(&plus),
            );
        }
    }
    // OOM rescue (the paper's Longformer-style case): on a memory-capped
    // GPU, the all-materialized tape set exceeds capacity while the
    // selective one fits.
    oom_demo(small);
    println!("\npaper reference: FT(+) is 1.21x–6.83x over FT(-), and rescues one OOM case");
}

fn oom_demo(small: bool) {
    use ft_workloads::{input_pairs, longformer};
    let p = if small {
        longformer::Params {
            seq_len: 256,
            w: 32,
            feat_len: 16,
        }
    } else {
        longformer::Params {
            seq_len: 1024,
            w: 64,
            feat_len: 32,
        }
    };
    let ins = longformer::inputs(&p, 2022);
    let prog = longformer::program(&p);
    // Capacity chosen between the selective and all-materialized footprints.
    let l = 2 * p.w + 1;
    let tape_bytes = p.seq_len * l * 4; // dot.tape (needed by both)
    let input_bytes = 4 * p.seq_len * p.feat_len * 4;
    let config = ft_runtime::DeviceConfig {
        gpu_mem_capacity: input_bytes + 2 * tape_bytes + tape_bytes / 2,
        ..Default::default()
    };
    let rt = ft_runtime::Runtime::with_config(config);
    let seed = ft_runtime::TensorVal::from_f32(
        &[p.seq_len, p.feat_len],
        vec![1.0; p.seq_len * p.feat_len],
    );
    println!("\n## OOM rescue on a memory-capped GPU (Longformer, n={}, w={})", p.seq_len, p.w);
    for (name, policy) in [("FT(-)", TapePolicy::All), ("FT(+)", TapePolicy::Selective)] {
        let grad = prog
            .grad(&ft_autodiff::GradOptions {
                policy,
                ..Default::default()
            })
            .expect("grad transform")
            .optimize(&ft_autoschedule::Target::gpu());
        let mut pairs = input_pairs(&ins);
        pairs.push(("y.grad", seed.clone()));
        match grad.run(&rt, &pairs, &[]) {
            Ok(r) => println!(
                "{name}: OK, peak {} of capacity {}",
                fmt_bytes(r.counters.peak_bytes.get("gpu").copied().unwrap_or(0)),
                fmt_bytes(rt.config.gpu_mem_capacity as u64)
            ),
            Err(e) => println!("{name}: {e}"),
        }
    }
}
