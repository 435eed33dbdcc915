//! The benchmark's contract: workloads and metrics by name. `BENCHMARK.json`
//! at the repository root states the same lists; a unit test keeps the two
//! equal, and `main` refuses to print a metric that is not listed here.

use crate::programs::PROGS;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "kernel-fwd",
        why: "Fig. 16(a) on the production engine: 4 full-scale forward programs, rule-optimized, warm; 3 are kernel-bound, SubdivNet is dispatch-bound, so it separates a faster kernel from a cheaper call",
    },
    WorkloadSpec {
        name: "kernel-grad",
        why: "Fig. 16(b)/18: 3 differentiated programs (GAT excluded as in the paper); ft-autodiff tape/recompute choices and parallel float reductions dominate, dispatch is under 10 %",
    },
    WorkloadSpec {
        name: "kernel-searched",
        why: "same engine and programs as kernel-fwd under the committed searched schedules: only ft-autoschedule::search output moves it (Longformer loses 50x to the rules today)",
    },
    WorkloadSpec {
        name: "cold-compile",
        why: "Table 2 and every process's first request: source text to first checked outputs on a fresh cache and engine, 7 programs; cc is ~90 % of it, so compile-time-for-speed trades show here",
    },
    WorkloadSpec {
        name: "compile-pipeline",
        why: "the same 7 programs from source text to scheduled IR and C text, no cc: the 1-17 ms of Rust that later passes change and that cc noise hides inside cold-compile",
    },
    WorkloadSpec {
        name: "serve-hot",
        why: "one small SubdivNet key, digest replies, closed loop, clients = workers = min(nproc, 4): the kernel is ~2 us of a ~130 us request, so only ft-serve and engine dispatch can move it",
    },
    WorkloadSpec {
        name: "serve-mixed",
        why: "8 keys (4 programs x small/full), tensor replies, seeded per-client key order: output ownership leaves the server and kernels are half a request, the path serve-hot bypasses",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these (untraced run).
pub const E2E: [E2eSpec; 3] = [
    E2eSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    E2eSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

pub struct LayerSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this layer metric should move.
    pub moves: &'static str,
}

/// Every per-layer metric a traced run reports. A layer a workload never
/// enters reports 0 (no time spent, nothing counted).
pub fn layers() -> Vec<LayerSpec> {
    use Better::{Higher, Lower};
    let mut v: Vec<LayerSpec> = Vec::new();
    let mut one = |name: &str, unit, better, moves| {
        v.push(LayerSpec {
            name: name.to_string(),
            unit,
            better,
            moves,
        });
    };
    let pipeline = "op_p50_us on compile-pipeline and cold-compile; setup_s everywhere";
    one("ft-frontend.compile_ms", "ms", Lower, pipeline);
    one("ft-passes.simplify_ms", "ms", Lower, pipeline);
    one(
        "ft-autodiff.grad_ms",
        "ms",
        Lower,
        "op_p50_us on compile-pipeline; its decisions move op_p50_us on kernel-grad only",
    );
    one("ft-autoschedule.optimize_ms", "ms", Lower, pipeline);
    one(
        "ft-autoschedule.replay_ms",
        "ms",
        Lower,
        "setup_s on kernel-searched",
    );
    one("ft-analysis.memplan_us", "us", Lower, pipeline);
    one(
        "ft-analysis.memplan.planned_peak_bytes",
        "bytes",
        Lower,
        "peak_rss_mb",
    );
    one("ft-codegen.emit_c_us", "us", Lower, pipeline);
    one(
        "ft-codegen.c_bytes",
        "bytes",
        Lower,
        "cc.build_ms, and through it op_p50_us on cold-compile",
    );
    one(
        "ft-ir.ir_bytes.scheduled",
        "bytes",
        Lower,
        "ft-codegen.emit_c_us and ft-serve.submit_us (the request key prints the IR)",
    );
    one(
        "cc.build_ms",
        "ms",
        Lower,
        "op_p50_us on cold-compile (~90 % of it); setup_s everywhere",
    );
    one(
        "cc.so_bytes",
        "bytes",
        Lower,
        "ft-runtime.native.disk_hit_ms",
    );
    one(
        "ft-runtime.native.cc_spawned",
        "count",
        Lower,
        "op_p50_us on cold-compile; setup_s",
    );
    one(
        "ft-runtime.native.disk_hit_ms",
        "ms",
        Lower,
        "process-restart cost; setup_s if set-up ever reuses a cache",
    );
    one(
        "ft-runtime.arena.recycle_us",
        "us",
        Lower,
        "op_p50_us on kernel-*",
    );
    one(
        "ft-runtime.arena.warm_alloc_calls",
        "count",
        Lower,
        "op_p50_us on kernel-*, peak_rss_mb (expect 0)",
    );
    one(
        "ft-runtime.native.run_noctx_geomean_us",
        "us",
        Lower,
        "guard: the context-free use of the engine; moves no end-to-end metric",
    );
    one("ft-serve.submit_us", "us", Lower, "op_p50_us on serve-hot");
    one(
        "ft-serve.pump_us",
        "us",
        Lower,
        "ft-serve.served_rps on serve-hot; small share on serve-mixed",
    );
    one(
        "ft-serve.run_with_us",
        "us",
        Lower,
        "ft-serve.served_rps on serve-hot and serve-mixed",
    );
    one(
        "ft-serve.overhead_us",
        "us",
        Lower,
        "ft-serve.served_rps on serve-hot",
    );
    one("ft-serve.queue_p50_us", "us", Lower, "op_p50_us and ft-serve.latency_p99_us on serve-*; rises before ft-serve.served_rps stops rising");
    one("ft-serve.exec_p50_us", "us", Lower, "op_p50_us on serve-*");
    one(
        "ft-serve.handoff_p50_us",
        "us",
        Lower,
        "op_p50_us on serve-hot (reply + wake-up)",
    );
    one("ft-serve.served_rps", "1/s", Higher, "replies per second over all clients, best round; in a closed loop it follows op_p50_us on serve-*");
    one(
        "ft-serve.latency_p99_us",
        "us",
        Lower,
        "what a caller sees beyond op_p50_us on serve-*; set by Longformer-full on serve-mixed",
    );
    one(
        "ft-serve.client_clone_us",
        "us",
        Lower,
        "ft-serve.served_rps on serve-* only (outside the latency interval)",
    );
    one(
        "ft-serve.warm_share",
        "ratio",
        Higher,
        "ft-serve.latency_p99_us: a cold key in the timed phase is a tail spike",
    );
    one(
        "ft-serve.cc_spawned_warm",
        "count",
        Lower,
        "ft-serve.latency_p99_us (expect 0)",
    );
    one(
        "ft-serve.rejected",
        "count",
        Lower,
        "failed operations on serve-* (expect 0)",
    );
    one(
        "ft-serve.digest_distinct",
        "count",
        Lower,
        "failed operations on serve-hot (expect 1)",
    );
    one(
        "bench.trace_overhead_share",
        "ratio",
        Lower,
        "how far to trust the layer numbers of this run",
    );
    for p in PROGS {
        let n = p.name();
        one(
            &format!("ft-runtime.native.kernel_us.{n}"),
            "us",
            Lower,
            "op_p50_us on kernel-*; ft-serve.served_rps on serve-mixed; not serve-hot",
        );
        one(&format!("ft-runtime.native.dispatch_us.{n}"), "us", Lower, "op_p50_us on kernel-fwd (SubdivNet) and serve-hot; under 10 % of Longformer and of kernel-grad");
        one(
            &format!("ft-runtime.vm.run_us.{n}"),
            "us",
            Lower,
            "guard for the portable fallback engine; moves no end-to-end metric",
        );
        one(
            &format!("ft-autoschedule.gain_vs_naive.{n}"),
            "ratio",
            Higher,
            "op_p50_us on kernel-fwd and kernel-grad (< 1: the rules lose to no schedule)",
        );
        one(
            &format!("ft-autoschedule.search.gain_vs_rules.{n}"),
            "ratio",
            Higher,
            "op_p50_us on kernel-searched only (< 1: search loses to the rules)",
        );
        one(
            &format!("ft-codegen.distinct_outputs.{n}"),
            "count",
            Lower,
            "1 = bit-deterministic; the fix may raise kernel_us on kernel-grad",
        );
    }
    v
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_trace::JsonVal;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_alphabet_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "{}", w.name);
        }
        for m in &E2E {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "{}", m.name);
        }
        let layers = layers();
        assert!((1..=128).contains(&layers.len()));
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{}", m.name);
        }
        assert!(E2E.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && E2E.iter().all(|o| o.bound <= m.bound)));
    }

    /// `BENCHMARK.json` and this file list the same things, in both
    /// directions, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_this_file() {
        let path = crate::programs::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = JsonVal::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |v: &JsonVal, k: &str| v.get(k).and_then(JsonVal::as_str).unwrap_or("").to_string();
        let rows = |k: &str| doc.get(k).and_then(JsonVal::as_arr).expect(k).to_vec();

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, String)> = rows("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(JsonVal::as_f64).expect("bound");
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    format!("{bound:.3}"),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, String)> = E2E
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    format!("{:.3}", m.bound),
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: BTreeSet<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: BTreeSet<(String, String, String)> = layers()
            .iter()
            .map(|m| (m.name.clone(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, ours);
    }
}
