//! Concurrency smoke tests for the serving path (see `EXPERIMENTS.md`,
//! "Serving"): a shared [`CompiledEngine`] must be safe to hammer from
//! multiple threads, and a recycled [`RunContext`] must refuse — with a
//! structured error, not a corrupt run — to be reused across programs.
//!
//! * `four_thread_replay_is_bit_identical_to_sequential` — sampled
//!   schedule variants of two conformance workloads are executed once
//!   sequentially (the reference bits), then replayed by 4 threads at once
//!   through the *same* engine instance. Every concurrent result must be
//!   bit-identical to the sequential one: the kernel memo, artifact cache,
//!   and its file locks are shared mutable state, and this is the test that
//!   they never bleed between concurrent runs.
//! * `subdivnet_context_is_rejected_on_longformer` — the regression the
//!   serving front door exposed: a context warmed on one program being
//!   handed a different program. Must fail with
//!   [`RuntimeError::ContextMismatch`] *before* touching the arena, and
//!   [`RunContext::reset`] must make the context reusable.
//! * `server_keys_contexts_per_program` — the same two workloads served
//!   concurrently through one `ft-serve` server: per-key context pools
//!   mean no mismatch ever escapes to a client. On a host without `cc` the
//!   server runs the VM, whose outputs must be the interpreter's bits.
//! * `a_cold_stampede_compiles_once_and_the_warm_loop_allocates_nothing` —
//!   the blocking serving invariants: 64 identical cold requests agree
//!   (and, with `cc`, pay one deduplicated build), and a warm key serves
//!   with no tensor allocation (with `cc`: no `cc` and a pure cache hit
//!   stream). Latency is `ftbench serve-*`'s.

use freetensor::autoschedule::Target;
use freetensor::runtime::{
    cc_available, CompiledEngine, ExecutionEngine, RunContext, Runtime, RuntimeError, Scalar,
    TensorVal, TraceSink,
};
use freetensor::serve::{Payload, Request, ServeConfig, Server};
use freetensor::workloads::{longformer, subdivnet};
use ft_conformance::ops::{apply_trace, sample_trace};
use ft_conformance::{Case, Workload};
use ft_metrics::Metrics;
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Exact bit pattern of a run's outputs: sorted names, shapes, and every
/// element's raw bits. Two runs are "bit-identical" iff these are equal.
fn output_bits(outputs: &HashMap<String, TensorVal>) -> Vec<(String, Vec<usize>, Vec<u64>)> {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let t = &outputs[name];
            let bits = (0..t.numel())
                .map(|i| match t.get_flat(i) {
                    Scalar::Float(f) => f.to_bits(),
                    Scalar::Int(v) => v as u64,
                    Scalar::Bool(b) => b as u64,
                })
                .collect();
            (name.clone(), t.shape().to_vec(), bits)
        })
        .collect()
}

fn fresh_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ft-serve-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn four_thread_replay_is_bit_identical_to_sequential() {
    if !cc_available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    // Sampled schedule variants of two workloads (seeded — deterministic).
    let mut variants = Vec::new();
    for (w, seed) in [(Workload::Subdivnet, 11u64), (Workload::Gat, 12u64)] {
        let case = Case::build(w, seed);
        let mut rng = TestRng::from_seed_u64(seed);
        for _ in 0..3 {
            let raw = sample_trace(&mut rng, 5);
            let (func, _accepted) = apply_trace(&case.func, &raw, None);
            variants.push((func, case.inputs.clone()));
        }
    }

    let cache = fresh_cache("replay");
    let engine = Arc::new(CompiledEngine::with_cache_dir(&cache));
    let none: HashMap<String, i64> = HashMap::new();

    // Sequential reference pass (pays every compile through the cache).
    let reference: Vec<_> = variants
        .iter()
        .map(|(func, inputs)| {
            let r = engine.run(func, inputs, &none).expect("sequential run");
            output_bits(&r.outputs)
        })
        .collect();

    // 4 threads replay the full variant list through the same engine.
    std::thread::scope(|s| {
        for t in 0..4 {
            let engine = Arc::clone(&engine);
            let variants = &variants;
            let reference = &reference;
            let none = &none;
            s.spawn(move || {
                for (i, (func, inputs)) in variants.iter().enumerate() {
                    let r = engine
                        .run(func, inputs, none)
                        .unwrap_or_else(|e| panic!("thread {t} variant {i}: {e}"));
                    assert_eq!(
                        output_bits(&r.outputs),
                        reference[i],
                        "thread {t} variant {i} diverged from the sequential bits"
                    );
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn subdivnet_context_is_rejected_on_longformer() {
    let sub_p = subdivnet::Params {
        n_faces: 64,
        in_feats: 8,
    };
    let lf_p = longformer::Params {
        seq_len: 48,
        w: 4,
        feat_len: 8,
    };
    let sub = subdivnet::program(&sub_p);
    let lf = longformer::program(&lf_p);
    let sub_in = subdivnet::inputs(&sub_p, 7);
    let lf_in = longformer::inputs(&lf_p, 7);
    let none: HashMap<String, i64> = HashMap::new();

    let engine = Runtime::new();
    let mut ctx = RunContext::new();
    let warm = engine
        .run_with(sub.func(), &sub_in, &none, &mut ctx)
        .expect("subdivnet run");
    ctx.recycle(warm).expect("recycle subdivnet outputs");
    assert_eq!(ctx.bound_func(), Some("subdivnet"));

    // A SubdivNet-warmed context handed the Longformer program: structured
    // refusal, and the context is *not* poisoned (nothing ran).
    let err = engine
        .run_with(lf.func(), &lf_in, &none, &mut ctx)
        .expect_err("a foreign program must be rejected");
    match err {
        RuntimeError::ContextMismatch {
            bound_func,
            requested_func,
            ..
        } => {
            assert_eq!(bound_func, "subdivnet");
            assert_eq!(requested_func, "longformer");
        }
        other => panic!("expected ContextMismatch, got {other}"),
    }
    assert!(!ctx.is_poisoned());

    // reset() repurposes the same context for the new program.
    ctx.reset();
    engine
        .run_with(lf.func(), &lf_in, &none, &mut ctx)
        .expect("longformer runs in the reset context");
    assert_eq!(ctx.bound_func(), Some("longformer"));
}

#[test]
fn server_keys_contexts_per_program() {
    let sub_p = subdivnet::Params {
        n_faces: 64,
        in_feats: 8,
    };
    let lf_p = longformer::Params {
        seq_len: 48,
        w: 4,
        feat_len: 8,
    };
    let sub = subdivnet::program(&sub_p).optimize(&Target::cpu());
    let lf = longformer::program(&lf_p).optimize(&Target::cpu());
    let (sub, lf) = (Arc::new(sub.func().clone()), Arc::new(lf.func().clone()));
    let sub_in = subdivnet::inputs(&sub_p, 7);
    let lf_in = longformer::inputs(&lf_p, 7);
    let none: HashMap<String, i64> = HashMap::new();

    let cache = fresh_cache("server-keys");
    let metrics = Metrics::new();
    let server = Server::new(
        ServeConfig {
            workers: 2,
            cache_dir: Some(cache.clone()),
            ..ServeConfig::default()
        },
        metrics.clone(),
    );

    // Interleave the two programs from two clients, twice around: every
    // request must succeed — contexts are pooled per program key, so a
    // SubdivNet context can never be handed the Longformer job — and every
    // reply of one program must carry the same digest.
    let mut digests = [None, None];
    for round in 0..2 {
        let mut replies = Vec::new();
        for _ in 0..2 {
            replies.push(
                server
                    .submit(
                        "a",
                        Request::new(sub.clone(), sub_in.clone(), none.clone()).digest(),
                    )
                    .expect("submit subdivnet"),
            );
            replies.push(
                server
                    .submit(
                        "b",
                        Request::new(lf.clone(), lf_in.clone(), none.clone()).digest(),
                    )
                    .expect("submit longformer"),
            );
        }
        for (i, rx) in replies.into_iter().enumerate() {
            let resp = rx.recv().expect("reply").unwrap_or_else(|e| {
                panic!("round {round} request {i} failed: {e}");
            });
            let d = resp.digest().expect("digest-mode response");
            assert_eq!(*digests[i % 2].get_or_insert(d), d, "replies disagree");
        }
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serve.ok"), 8);
    assert_eq!(snap.counter("serve.errors"), 0);
    if cc_available() {
        assert_eq!(snap.counter("compiled.cache.publish"), 2, "{snap:?}");
    } else {
        // The VM's contract: the interpreter's bits, reductions included.
        for (func, inputs) in [(&sub, &sub_in), (&lf, &lf_in)] {
            let req = Request::new(func.clone(), inputs.clone(), none.clone());
            let Payload::Tensors(served) = server.call("check", req).expect("served").payload
            else {
                panic!("asked for tensors");
            };
            let interp = Runtime::new()
                .run(func, inputs, &none)
                .expect("interpreter");
            assert_eq!(
                output_bits(&served),
                output_bits(&interp.outputs),
                "{}",
                func.name
            );
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_cold_stampede_compiles_once_and_the_warm_loop_allocates_nothing() {
    let p = subdivnet::Params {
        n_faces: 128,
        in_feats: 8,
    };
    let program = subdivnet::program(&p).optimize(&Target::cpu());
    let func = Arc::new(program.func().clone());
    let inputs = subdivnet::inputs(&p, 2022);
    let none: HashMap<String, i64> = HashMap::new();
    let req = || Request::new(func.clone(), inputs.clone(), none.clone()).digest();

    // What one build of this program costs in `cc` spawns on this toolchain
    // (1, or 2 where the OpenMP build fails over to the serial one); the
    // server builds nothing on a host without `cc`.
    let solo_cache = fresh_cache("stampede-solo");
    let per_build = cc_available().then(|| {
        let solo_metrics = Metrics::new();
        let mut solo = CompiledEngine::with_cache_dir(&solo_cache);
        solo.set_sink(Some(TraceSink::from(solo_metrics.clone())));
        solo.run(&func, &inputs, &none).expect("solo cold run");
        let per_build = solo_metrics.snapshot().counter("compiled.cc.spawned");
        assert!((1..=2).contains(&per_build), "{per_build}");
        per_build
    });

    let (clients, workers) = (4usize, 2usize);
    let cache = fresh_cache("stampede");
    let metrics = Metrics::new();
    let server = Server::new(
        ServeConfig {
            workers,
            ctx_pool_per_key: workers + 1,
            cache_dir: Some(cache.clone()),
            ..ServeConfig::default()
        },
        metrics.clone(),
    );

    // 64 identical requests on a cold key, submitted at once: the key's
    // publish lock collapses every concurrent miss onto one build.
    let pending: Vec<_> = (0..64)
        .map(|i| {
            server
                .submit(&format!("client-{}", i % clients), req())
                .expect("admitted")
        })
        .collect();
    let digests: Vec<u64> = pending
        .into_iter()
        .map(|rx| {
            let resp = rx.recv().expect("reply").expect("cold request");
            resp.digest().expect("digest-mode response")
        })
        .collect();
    assert!(digests.iter().all(|d| *d == digests[0]), "replies disagree");
    let cold = metrics.snapshot();
    if let Some(per_build) = per_build {
        assert_eq!(cold.counter("compiled.cc.spawned"), per_build, "{cold:?}");
        assert_eq!(cold.counter("compiled.cache.publish"), 1, "{cold:?}");
    }

    // Warm closed loop: each client submits its next request when the
    // previous reply arrives.
    std::thread::scope(|s| {
        for c in 0..clients {
            let (server, req, want) = (&server, &req, digests[0]);
            s.spawn(move || {
                for _ in 0..16 {
                    let resp = server
                        .call(&format!("client-{c}"), req())
                        .expect("warm request");
                    assert_eq!(resp.digest(), Some(want));
                    assert!(resp.warm);
                }
            });
        }
    });
    // Two more, one after the other, on contexts the loop left warm.
    let before_probe = metrics.snapshot();
    for _ in 0..2 {
        server.call("probe", req()).expect("probe request");
    }
    let warm = metrics.snapshot();
    assert_eq!(
        warm.counter("mem.arena.alloc_calls"),
        before_probe.counter("mem.arena.alloc_calls"),
        "a warm request allocated: {warm:?}"
    );
    if let Some(per_build) = per_build {
        assert_eq!(warm.counter("compiled.cc.spawned"), per_build, "{warm:?}");
        let (hit, miss) = (
            warm.counter("compiled.cache.hit") as f64,
            warm.counter("compiled.cache.miss") as f64,
        );
        assert!(hit / (hit + miss) >= 0.99, "{warm:?}");
    }
    assert_eq!(warm.counter("serve.errors"), 0, "{warm:?}");
    assert_eq!(warm.counter("serve.ok"), 64 + 64 + 2, "{warm:?}");
    drop(server);
    for dir in [cache, solo_cache] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
