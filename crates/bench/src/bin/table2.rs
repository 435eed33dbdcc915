//! Regenerates paper Table 2 — compiling time: FreeTensor's one-shot
//! rule-based auto-transforming pass vs a search-based auto-tuner (the
//! TVM/Ansor stand-in: random schedule search with per-round measurement).
//! A second table splits the rule passes' time by pass for the seven
//! benchmark programs (four forward, three differentiated), read from the
//! spans each `auto_*` pass records on a trace sink.

use bench::{prepare, Scale, Workload};
use ft_autoschedule::Target;
use ft_ir::{Device, StmtKind};
use ft_runtime::Runtime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ft_trace::TraceSink;
use std::collections::HashMap;
use std::time::Instant;

/// The rule passes in the order `Program::optimize` runs them.
const PASSES: [&str; 7] = [
    "auto_fuse",
    "auto_use_lib",
    "auto_parallelize",
    "auto_separate_tail",
    "auto_unroll",
    "auto_vectorize",
    "auto_mem_type",
];

/// Median µs per `auto_*` pass of `optimize(&Target::cpu())` on each of
/// the seven benchmark programs at `scale`, over `reps` traced calls.
/// Tracing also formats every decision-log entry, which the passes pay for
/// here and not in an untraced `optimize`.
fn pass_table(scale: Scale, reps: usize) {
    println!("\n# Rule passes, median us per pass over {reps} traced optimize calls (CPU)");
    let names = PASSES.map(|p| p.trim_start_matches("auto_"));
    print!("{:<18}", "program");
    for name in names {
        print!(" {name:>8}");
    }
    println!(" {:>8}", "total");
    for w in Workload::ALL {
        let naive = prepare(w, scale).naive;
        let mut programs = vec![(w.display().to_string(), naive.clone())];
        // GAT's gradient is not a benchmark program (paper Fig. 16(b)).
        if w != Workload::Gat {
            let grad = naive.grad(&ft_autodiff::GradOptions::default());
            programs.push((format!("{}.grad", w.display()), grad.expect("differentiable")));
        }
        for (label, p) in programs {
            let mut samples: Vec<[u64; PASSES.len()]> = (0..reps)
                .map(|_| {
                    let sink = TraceSink::new();
                    let _ = p.clone().with_sink(sink.clone()).optimize(&Target::cpu());
                    let mut us = [0; PASSES.len()];
                    for ev in sink.events().iter().filter(|e| e.cat == "autoschedule") {
                        if let Some(k) = PASSES.iter().position(|p| *p == ev.name) {
                            us[k] += ev.dur_us;
                        }
                    }
                    us
                })
                .collect();
            print!("{label:<18}");
            let mut total = 0;
            for k in 0..PASSES.len() {
                samples.sort_by_key(|s| s[k]);
                let median = samples[reps / 2][k];
                total += median;
                print!(" {median:>w$}", w = names[k].len().max(8));
            }
            println!(" {total:>8}");
        }
    }
}

/// One random schedule candidate: a few random transformations applied to
/// random loops (illegal ones are simply rejected by the legality checks —
/// the search pays for trying them, as a real tuner does).
fn random_candidate(
    base: &freetensor_core::Program,
    rng: &mut StdRng,
    device: Device,
) -> freetensor_core::Program {
    let mut sched = base.schedule();
    let n_moves = rng.gen_range(1..5);
    for _ in 0..n_moves {
        let loops: Vec<ft_ir::StmtId> =
            ft_ir::find::find_stmts(&sched.func().body, &|s| {
                matches!(s.kind, StmtKind::For { .. })
            })
            .iter()
            .map(|s| s.id)
            .collect();
        if loops.is_empty() {
            break;
        }
        let target = loops[rng.gen_range(0..loops.len())];
        match rng.gen_range(0..5) {
            0 => {
                let factor = [2, 4, 8, 16, 32][rng.gen_range(0..5usize)];
                let _ = sched.split(target, factor);
            }
            1 => {
                let scope = match device {
                    Device::Cpu => ft_ir::ParallelScope::OpenMp,
                    Device::Gpu => ft_ir::ParallelScope::CudaBlockX,
                };
                let _ = sched.parallelize(target, scope);
            }
            2 => {
                let _ = sched.vectorize(target);
            }
            3 => {
                let _ = sched.unroll(target);
            }
            _ => {
                if loops.len() >= 2 {
                    let other = loops[rng.gen_range(0..loops.len())];
                    let _ = sched.fuse(target, other);
                }
            }
        }
    }
    freetensor_core::Program::from_schedule(sched)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let rounds: usize = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if small { 8 } else { 32 });
    let scale = if small { Scale::Small } else { Scale::Full };
    println!("# Table 2 — compiling time: rule-based vs search-based tuning");
    println!(
        "{:<12} {:<5} {:>16} {:>28} {:>10}",
        "workload", "dev", "FreeTensor", "tuner (rounds x each)", "ratio"
    );
    let mut rng = StdRng::seed_from_u64(42);
    for w in Workload::ALL {
        for dev in [Device::Cpu, Device::Gpu] {
            let prep = prepare(w, scale);
            // FreeTensor: the whole one-shot pipeline (parse + inline +
            // partial-evaluate + rule-based auto-transform).
            let src_prog = prep.naive.clone();
            let t0 = Instant::now();
            let tuned = src_prog.optimize(&match dev {
                Device::Cpu => Target::cpu(),
                Device::Gpu => Target::gpu(),
            });
            let ft_time = t0.elapsed().as_secs_f64();
            let _ = &tuned;
            // Search-based tuner: `rounds` random candidates, each measured.
            let rt = Runtime::new();
            let t1 = Instant::now();
            let mut best = f64::INFINITY;
            for _ in 0..rounds {
                let cand = random_candidate(&prep.naive, &mut rng, dev);
                if let Ok(r) = cand.run(&rt, &prep.inputs, &HashMap::new()) {
                    best = best.min(r.counters.modeled_cycles);
                }
            }
            let tuner_time = t1.elapsed().as_secs_f64();
            println!(
                "{:<12} {:<5} {:>13.1}ms {:>17} ({}x{:.2}s) {:>9.2}%",
                w.display(),
                dev.to_string(),
                ft_time * 1e3,
                format!("{tuner_time:.2}s"),
                rounds,
                tuner_time / rounds as f64,
                100.0 * ft_time / tuner_time
            );
            let _ = best;
        }
    }
    println!("\npaper reference: FreeTensor compiles in 0.13%–22.92% of TVM's tuning time");
    pass_table(scale, 21);
}
