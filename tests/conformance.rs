//! Cross-backend differential conformance driver (see `EXPERIMENTS.md`).
//!
//! * `conformance_sweep` — samples random legality-checked schedule traces
//!   for every workload and executes each variant on all available backends
//!   (interpreter, reversed-parallel-loop interpreter, VM, compiled C),
//!   comparing against the plain-Rust oracle. Budget:
//!   `FT_CONFORMANCE_SAMPLES` variants per workload (default 16 → 64 total
//!   ≥ the 50-variant CI floor).
//! * `injected_dependence_bug_is_caught_and_minimized` — proves the harness
//!   has teeth: a parallelization with the dependence check deliberately
//!   dropped must be detected, shrunk to the single culprit op, and
//!   round-trip through its JSON repro.

use ft_conformance::ops::apply_trace;
use ft_conformance::{
    check_variant, minimize, run_conformance, Backend, Case, Config, Repro, ScheduleOp,
};
use ft_runtime::TensorVal;
use std::collections::HashMap;

#[test]
fn conformance_sweep() {
    let samples = std::env::var("FT_CONFORMANCE_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let cfg = Config {
        samples_per_workload: samples,
        ..Config::default()
    };
    let summary = run_conformance(&cfg);
    eprintln!("{}", summary.render());
    assert_eq!(summary.variants.len(), 4 * samples);
    // The sweep is vacuous if sampling never gets past the legality checks.
    let accepted: usize = summary.variants.iter().map(|v| v.trace.len()).sum();
    assert!(
        accepted > summary.variants.len(),
        "too few accepted schedule ops ({accepted}) — sampler is broken"
    );
    let splits = summary
        .variants
        .iter()
        .filter(|v| {
            v.trace
                .iter()
                .any(|op| matches!(op, ScheduleOp::SeparateTail { .. }))
        })
        .count();
    eprintln!("{splits} variants split a guarded loop (separate_tail)");
    summary.assert_clean();
}

/// A program whose single loop carries a recurrence: `y[i]` reads
/// `y[i - 1]`, so parallelizing the loop is illegal. With `x = 1…`,
/// `y[i] = i + 1` (a prefix count); run last-to-first every iteration reads
/// a stale 0 and `y[i] = 1` — divergence is large and deterministic.
fn recurrence_case() -> Case {
    const N: usize = 2048;
    let func = freetensor_core::Program::compile(
        &format!(
            r#"
def rec(x: f32[{N}] in, y: f32[{N}] out):
  for i in range({N}):
    y[i] = x[i]
    if i > 0:
      y[i] = y[i - 1] + x[i]
"#
        ),
        "rec",
    )
    .unwrap()
    .func()
    .clone();
    let x = TensorVal::from_f32(&[N], vec![1.0; N]);
    let oracle = TensorVal::from_f32(&[N], (0..N).map(|i| (i + 1) as f32).collect());
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
    Case::custom("recurrence", func, inputs, oracle, "y")
}

#[test]
fn legality_check_blocks_the_recurrence() {
    // Sanity: the *checked* parallelize refuses this loop, so only the
    // fault-injected variant below can break it.
    let case = recurrence_case();
    let (func, accepted) =
        apply_trace(&case.func, &[ScheduleOp::Parallelize { loop_idx: 0 }], None);
    assert!(accepted.is_empty(), "dependence check failed to block");
    assert!(check_variant(&case, &func, &[Backend::Interp, Backend::Reordered], 1e-4).is_none());
}

#[test]
fn injected_dependence_bug_is_caught_and_minimized() {
    let case = recurrence_case();
    let backends = [Backend::Reordered];
    let tol = 1e-3;
    // The injected bug — parallelize with its dependence check dropped —
    // buried between benign ops, as a buggy sampler run would produce it.
    let trace = vec![
        ScheduleOp::Vectorize { loop_idx: 0 },
        ScheduleOp::ParallelizeUnchecked { loop_idx: 0 },
        ScheduleOp::Vectorize { loop_idx: 0 },
    ];
    let fails = |t: &[ScheduleOp]| {
        let (f, _) = apply_trace(&case.func, t, None);
        check_variant(&case, &f, &backends, tol).is_some()
    };
    assert!(fails(&trace), "injected dependence bug was not caught");
    let minimized = minimize(&trace, fails);
    assert_eq!(
        minimized,
        vec![ScheduleOp::ParallelizeUnchecked { loop_idx: 0 }],
        "shrinker did not isolate the injected op"
    );
    // Reconstruct the divergence and push it through the repro pipeline.
    let (f, _) = apply_trace(&case.func, &minimized, None);
    let d = check_variant(&case, &f, &backends, tol).expect("minimized trace no longer diverges");
    assert!(d.max_abs_err > 1.0, "divergence suspiciously small: {d:?}");
    let repro = Repro {
        workload: case.name.clone(),
        input_seed: 0,
        backend: d.backend.name().to_string(),
        output: d.output.clone(),
        max_abs_err: d.max_abs_err,
        tol,
        trace: minimized,
        decision_log: Vec::new(),
        grad: None,
        tol_rel: None,
        metrics: Some(ft_conformance::run_backend_telemetry(
            d.backend,
            &f,
            &case.inputs,
        )),
        flaky: None,
    };
    let dir = std::env::temp_dir().join(format!("ftconf-injected-{}", std::process::id()));
    let path = repro.write(&dir).unwrap();
    let parsed = Repro::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(parsed, repro);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_repros_stay_fixed() {
    // Every forward bug the sweep has found lives on as a shrunk JSON repro
    // under `tests/repros/`; replaying each on its backend must be clean.
    //
    // `gat-seed59181` and `softras-seed35329` (found at the CI budget, the
    // second once `separate_tail` was drawn more often): a `vectorize` loop
    // holding a `parallelize`d one printed `#pragma omp parallel for` inside
    // `#pragma omp simd`, which `cc` refuses. `lower_scalar` now clears such
    // a loop's mark.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repros");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("repro corpus dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let repro = Repro::from_json(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let available = Backend::available()
            .iter()
            .any(|b| b.name() == repro.backend);
        if !available {
            continue;
        }
        n += 1;
        let d = repro
            .replay()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(d.map(|d| d.message), None, "{}", path.display());
    }
    eprintln!("{n} committed repros replayed clean");
}

#[test]
fn repro_files_replay() {
    // A known-good (legal) trace on a real workload must replay cleanly end
    // to end through the JSON pipeline — the reproduction path CI failures
    // rely on.
    let repro = Repro {
        workload: "subdivnet".to_string(),
        input_seed: 5,
        backend: "reordered".to_string(),
        output: "y".to_string(),
        max_abs_err: 0.0,
        tol: 5e-4,
        trace: vec![
            ScheduleOp::Split {
                loop_idx: 0,
                factor: 4,
            },
            ScheduleOp::Parallelize { loop_idx: 0 },
        ],
        decision_log: Vec::new(),
        grad: None,
        tol_rel: None,
        metrics: None,
        flaky: None,
    };
    let parsed = Repro::from_json(&repro.to_json()).unwrap();
    assert_eq!(parsed.replay().unwrap().map(|d| d.message), None);
}
