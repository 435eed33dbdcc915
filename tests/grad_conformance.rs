//! Gradient differential conformance driver (see `EXPERIMENTS.md`).
//!
//! * `grad_conformance_sweep` — differentiates every sampled schedule trace
//!   under both tape policies (sweeping `recompute_threshold` across the
//!   def-cost boundary) and both grad/schedule composition orders, executes
//!   the backward pass on every available backend, and judges `.grad`
//!   outputs against the plain-Rust oracle gradients plus central finite
//!   differences. Budget: `FT_GRAD_SAMPLES` traces per workload (default 4
//!   → 4 workloads × 4 traces × {All, Selective} × {grad-then-opt,
//!   opt-then-grad} = 64 grad variants, the CI floor).
//! * `injected_ad_fault_is_caught_shrunk_and_replays` — proves the harness
//!   has teeth: an AD transform with the tape version bump deliberately
//!   dropped must be detected, shrunk to the empty trace (the bug is
//!   schedule-independent), and replay deterministically from its JSON
//!   repro.

use ft_autodiff::{AdFault, TapePolicy};
use ft_conformance::grad::{build_grad_func, grad_setup};
use ft_conformance::{
    check_grad_variant, minimize, run_grad_conformance, Backend, Case, GradConfig, GradOrder,
    GradSpec, GradTol, Repro, Workload,
};

#[test]
fn grad_conformance_sweep() {
    let samples = std::env::var("FT_GRAD_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let cfg = GradConfig {
        samples_per_workload: samples,
        ..GradConfig::default()
    };
    let summary = run_grad_conformance(&cfg);
    eprintln!("{}", summary.render());
    // 4 workloads × samples × {All, Selective} × {grad-then-opt,
    // opt-then-grad}.
    assert_eq!(summary.variants.len(), 4 * samples * 4);
    // The sweep is vacuous if scheduling pushes most variants outside the
    // differentiable fragment: the vast majority must actually execute.
    assert!(
        summary.n_ok() + summary.n_diverged() >= summary.variants.len() * 3 / 4,
        "too many skipped grad variants ({} of {})",
        summary.n_skipped(),
        summary.variants.len()
    );
    summary.assert_clean();
}

#[test]
fn injected_ad_fault_is_caught_shrunk_and_replays() {
    // SubdivNet's scalar temporary `d` lives under the (i, j) loop nest, so
    // under `TapePolicy::All` its tape carries version subscripts; dropping
    // the version bump makes every backward read hit slot (0, 0).
    let w = Workload::Subdivnet;
    let case = Case::build(w, 13);
    let (inputs, oracle) = grad_setup(w, &case);
    let spec = GradSpec {
        policy: TapePolicy::All,
        recompute_threshold: 16,
        order: GradOrder::GradThenOpt,
        fault: Some(AdFault::DropTapeVersionBump),
    };
    let tol = GradTol::default();
    let backends = [Backend::Interp];
    // The fault buried under benign schedule ops, as a real AD regression
    // would surface mid-sweep.
    let trace = vec![
        ft_conformance::ScheduleOp::Split {
            loop_idx: 0,
            factor: 4,
        },
        ft_conformance::ScheduleOp::Unroll { loop_idx: 1 },
    ];
    let fails = |t: &[ft_conformance::ScheduleOp]| {
        build_grad_func(&case.func, t, &spec, None)
            .map(|(f, _)| check_grad_variant(&f, &inputs, &oracle, &backends, &tol).is_some())
            .unwrap_or(false)
    };
    assert!(fails(&trace), "injected AD fault was not caught");
    let minimized = minimize(&trace, fails);
    assert!(
        minimized.is_empty(),
        "the fault is schedule-independent, so the minimal repro is the empty trace: {minimized:?}"
    );
    // Reconstruct the divergence and push it through the repro pipeline.
    let (f, _) = build_grad_func(&case.func, &minimized, &spec, None).unwrap();
    let d = check_grad_variant(&f, &inputs, &oracle, &backends, &tol)
        .expect("minimized trace no longer diverges");
    assert_eq!(d.output, "e.grad", "the miscompiled gradient is e's");
    let repro = Repro {
        workload: case.name.clone(),
        input_seed: case.input_seed,
        backend: d.backend.name().to_string(),
        output: d.output.clone(),
        max_abs_err: d.max_abs_err,
        tol: tol.abs,
        trace: minimized,
        decision_log: Vec::new(),
        grad: Some(spec),
        tol_rel: Some(tol.rel),
        metrics: Some(ft_conformance::run_backend_telemetry(
            d.backend, &f, &inputs,
        )),
        flaky: None,
    };
    // JSON roundtrip, then replay from the parsed artifact alone: the
    // interpreter is deterministic, so the replay reproduces the exact
    // divergence.
    let dir = std::env::temp_dir().join(format!("ftconf-adfault-{}", std::process::id()));
    let path = repro.write(&dir).unwrap();
    let parsed = Repro::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(parsed, repro);
    let replayed = parsed
        .replay()
        .unwrap()
        .expect("replayed repro must still diverge");
    assert_eq!(replayed.output, d.output);
    assert_eq!(
        replayed.max_abs_err, d.max_abs_err,
        "interp replay must be bit-deterministic"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_grad_repros_stay_fixed() {
    // Every gradient bug the sweep has ever found lives on as a shrunk JSON
    // repro under `tests/repros/grad/`; replaying them must stay clean.
    //
    // The current corpus is the double-`cache` bug: two `cache` schedule
    // ops on the same parameter produced two `VarDef`s both named
    // `Q.cache`, and autodiff's name-keyed tape bookkeeping merged them —
    // the tape was allocated with one def's version structure and indexed
    // with the other's (`IndexOutOfBounds` on `Q.cache.tape`). Fixed by
    // alpha-renaming duplicate defs before differentiation
    // (`ft_passes::uniquify_defs`).
    //
    // `longformer-seed63815` (found when PR 22 re-drew the sample): `cache`
    // of `V` inside the window loop gives `V.cache` a shape over the loop
    // iterators, and taping it under `TapePolicy::All` declared
    // `V.cache.tape` at function scope with `j` in its shape — `undefined
    // name` on every backend. Autodiff now refuses such a tape
    // (`AdError::Unsupported`), which the sweep counts as a skip. That one
    // file is pinned to exactly this refusal; every other repro must replay.
    const REFUSED: &str = "longformer-seed63815-interp-grad-all-t64-opt-then-grad.json";
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repros/grad");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("repro corpus dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        n += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let repro = Repro::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(repro.grad.is_some(), "{}: not a grad repro", path.display());
        if path.file_name().and_then(|f| f.to_str()) == Some(REFUSED) {
            let e = repro
                .replay()
                .expect_err("the iterator-shaped tape must be refused");
            assert!(
                e.starts_with("autodiff unsupported: tape for `V.cache`"),
                "{}: {e}",
                path.display()
            );
            continue;
        }
        let replayed = repro
            .replay()
            .unwrap_or_else(|e| panic!("{}: replay setup failed: {e}", path.display()));
        assert!(
            replayed.is_none(),
            "{}: regressed: {replayed:?}",
            path.display()
        );
    }
    assert!(n >= 3, "repro corpus went missing ({n} files)");
}

#[test]
fn sound_ad_passes_where_the_fault_fails() {
    // Control for the fault-injection test: the identical sweep point with
    // the fault removed is clean on every backend.
    let w = Workload::Subdivnet;
    let case = Case::build(w, 13);
    let (inputs, oracle) = grad_setup(w, &case);
    let spec = GradSpec {
        policy: TapePolicy::All,
        recompute_threshold: 16,
        order: GradOrder::GradThenOpt,
        fault: None,
    };
    let (f, _) = build_grad_func(&case.func, &[], &spec, None).unwrap();
    let d = check_grad_variant(
        &f,
        &inputs,
        &oracle,
        &Backend::available(),
        &GradTol::default(),
    );
    assert!(d.is_none(), "{d:?}");
}
