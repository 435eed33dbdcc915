//! Differential fuzz of the bytecode VM against the instrumented
//! interpreter.
//!
//! The interpreter is the semantic specification; the VM promises
//! bit-identical outputs with [`PerfCounters`] left defaulted, which this
//! test checks on randomly *scheduled* variants of all four paper workloads
//! (the same variant generator the cross-backend conformance sweep uses).

use ft_conformance::{ops, Workload};
use ft_ir::prelude::*;
use ft_runtime::{PerfCounters, Runtime, TensorVal, VmRuntime};
use proptest::test_runner::TestRng;
use std::collections::HashMap;

#[test]
fn vm_matches_interp_on_random_scheduled_workloads() {
    let sizes = HashMap::new();
    let mut variants = 0usize;
    for w in Workload::ALL {
        for k in 0..10u64 {
            // Mirrors the conformance sweep's per-variant seed derivation.
            let stream = ft_ir::fnv1a_p44(w.name().as_bytes())
                ^ 0xF0DD_u64
                ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let case = w.build(stream & 0xFFFF);
            let mut rng = TestRng::from_seed_u64(stream);
            let raw = ops::sample_trace(&mut rng, 6);
            let (func, trace) = ops::apply_trace(&case.func, &raw);
            let ctx = format!("workload {} variant {k} trace {trace:?}", w.name());

            let ri = Runtime::new()
                .run(&func, &case.inputs, &sizes)
                .unwrap_or_else(|e| panic!("interp failed on {ctx}: {e:?}"));
            let rv = VmRuntime::new()
                .run(&func, &case.inputs, &sizes)
                .unwrap_or_else(|e| panic!("vm failed on {ctx}: {e:?}"));

            assert_eq!(ri.outputs, rv.outputs, "vm outputs differ on {ctx}");
            assert_eq!(
                rv.counters,
                PerfCounters::default(),
                "the vm must not count on {ctx}"
            );
            variants += 1;
        }
    }
    assert_eq!(variants, 4 * 10);
}

/// Run interpreter vs fast VM (with a trace sink) and return the fast
/// VM's `vm.lower` decision spans as `(kind, accepted, detail)`. Outputs
/// must be bit-identical and every span well-formed.
fn diff_with_decisions(
    func: &ft_ir::Func,
    inputs: &HashMap<String, TensorVal>,
    ctx: &str,
) -> Vec<(String, bool, String)> {
    let sizes = HashMap::new();
    let ri = Runtime::new()
        .run(func, inputs, &sizes)
        .unwrap_or_else(|e| panic!("interp failed on {ctx}: {e:?}"));
    let sink = ft_trace::TraceSink::new();
    let mut vm = VmRuntime::new();
    vm.set_sink(Some(sink.clone()));
    let rf = vm
        .run(func, inputs, &sizes)
        .unwrap_or_else(|e| panic!("fast vm failed on {ctx}: {e:?}"));
    assert_eq!(ri.outputs, rf.outputs, "fast-mode outputs differ on {ctx}");
    sink.events()
        .iter()
        .filter(|e| e.cat == "vm.lower")
        .map(|e| {
            let accepted = e
                .args
                .iter()
                .any(|(k, v)| k == "accepted" && v == "true");
            let detail_key = if accepted { "how" } else { "reason" };
            let detail = e
                .args
                .iter()
                .find(|(k, _)| k == detail_key)
                .unwrap_or_else(|| panic!("span {} missing `{detail_key}` on {ctx}", e.name))
                .1
                .clone();
            assert!(
                e.args.iter().any(|(k, _)| k == "target"),
                "span {} missing `target` on {ctx}",
                e.name
            );
            (e.name.clone(), accepted, detail)
        })
        .collect()
}

/// Directed schedules: parallelize then vectorize *every* loop of every
/// workload (the legality checker keeps what is sound), and diff the fast
/// VM bit-exactly against the interpreter on the result. This saturates
/// the vectorize/parallel lowering paths far beyond what the uniform
/// random traces above reach.
#[test]
fn vm_matches_interp_on_directed_vectorize_parallel_schedules() {
    let mut spans = 0usize;
    for w in Workload::ALL {
        let case = w.build(11);
        let nloops = ops::loops_of(&case.func).len();
        let mut raw = Vec::new();
        for i in 0..nloops {
            raw.push(ops::ScheduleOp::Parallelize { loop_idx: i });
        }
        for i in 0..nloops {
            raw.push(ops::ScheduleOp::Vectorize { loop_idx: i });
        }
        let (func, trace) = ops::apply_trace(&case.func, &raw);
        let ctx = format!("workload {} directed trace {trace:?}", w.name());
        spans += diff_with_decisions(&func, &case.inputs, &ctx).len();
    }
    assert!(spans > 0, "directed schedules produced no lowering attempts");
}

/// A `vectorize`-marked dot product and a parallel integer histogram:
/// the corpus must demonstrably engage both the fused SIMD kernels and
/// the privatized parallel reduction, bit-exactly.
#[test]
fn vm_engages_simd_and_privatized_reductions_bit_exactly() {
    let vec = ForProperty {
        vectorize: true,
        ..ForProperty::serial()
    };
    let dot = Func::new("dot")
        .param("x", [257], DataType::F32, AccessType::Input)
        .param("w", [257], DataType::F32, AccessType::Input)
        .param("d", [1], DataType::F32, AccessType::Output)
        .body(for_with(
            "i",
            0,
            257,
            vec,
            reduce(
                "d",
                [0],
                ReduceOp::Add,
                load("x", [var("i")]) * load("w", [var("i")]),
            ),
        ));
    let x = TensorVal::from_f32(&[257], (0..257).map(|v| (v as f32).sin()).collect());
    let w = TensorVal::from_f32(&[257], (0..257).map(|v| 1.0 / (v as f32 + 0.7)).collect());
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x), ("w".to_string(), w)]
        .into_iter()
        .collect();
    let ds = diff_with_decisions(&dot, &inputs, "vectorized dot");
    assert!(
        ds.iter()
            .any(|(k, acc, how)| k == "vm.simd" && *acc && how == "dot"),
        "dot kernel did not engage: {ds:?}"
    );

    let hist = Func::new("hist")
        .param("x", [1024], DataType::I32, AccessType::Input)
        .param("h", [16], DataType::I64, AccessType::Output)
        .body(for_with(
            "i",
            0,
            1024,
            ForProperty::parallel(ParallelScope::OpenMp),
            Stmt::new(StmtKind::ReduceTo {
                var: "h".to_string(),
                indices: vec![Expr::cast(DataType::I64, load("x", [var("i")]).rem(16))],
                op: ReduceOp::Add,
                value: Expr::IntConst(1),
                atomic: true,
            }),
        ));
    let x = TensorVal::from_i32(&[1024], (0..1024).map(|v| (v * 31 + 7) % 113).collect());
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
    let ds = diff_with_decisions(&hist, &inputs, "parallel histogram");
    assert!(
        ds.iter()
            .any(|(k, acc, how)| k == "vm.reduce.privatize" && *acc && how == "Add"),
        "histogram reduction was not privatized: {ds:?}"
    );
    assert!(
        ds.iter()
            .any(|(k, acc, _)| k == "vm.parallel" && *acc),
        "histogram region was not parallelized: {ds:?}"
    );
}

/// Directed grad-program schedules: differentiate every workload under both
/// tape policies, aggressively schedule the resulting *gradient* function,
/// and diff the fast VM bit-exactly against the interpreter. In fast mode
/// every backward-pass program must either lower onto the VM or emit a
/// structured `vm.fallback` span naming the reason — never silently drop to
/// the interpreter.
#[test]
fn vm_matches_interp_on_directed_grad_program_schedules() {
    use ft_autodiff::TapePolicy;
    use ft_conformance::grad::{build_grad_func, grad_run_inputs, ones_seed};
    use ft_conformance::{GradOrder, GradSpec};

    let sizes = HashMap::new();
    let mut taped_programs = 0usize;
    let mut lowering_attempts = 0usize;
    for w in Workload::ALL {
        let case = w.build(11);
        for policy in [TapePolicy::All, TapePolicy::Selective] {
            let spec = GradSpec {
                policy,
                recompute_threshold: 16,
                order: GradOrder::GradThenOpt,
                fault: None,
            };
            // Build once unscheduled to count the gradient function's
            // loops, then parallelize and vectorize every one of them (the
            // legality checker keeps what is sound) — this drives tape
            // loads/stores through the vectorize/parallel lowering paths.
            let (plain, _) = build_grad_func(&case.func, &[], &spec).expect("grad builds");
            let nloops = ops::loops_of(&plain).len();
            let mut raw = Vec::new();
            for i in 0..nloops {
                raw.push(ops::ScheduleOp::Parallelize { loop_idx: i });
            }
            for i in 0..nloops {
                raw.push(ops::ScheduleOp::Vectorize { loop_idx: i });
            }
            let (func, trace) =
                build_grad_func(&case.func, &raw, &spec).expect("scheduled grad builds");
            taped_programs += format!("{func}").contains(".tape") as usize;
            let seed = ones_seed(&case);
            let inputs = grad_run_inputs(&case, &seed);
            let ctx = format!(
                "grad of {} ({policy:?}, {} sched ops)",
                w.name(),
                trace.len()
            );

            let ri = Runtime::new()
                .run(&func, &inputs, &sizes)
                .unwrap_or_else(|e| panic!("interp failed on {ctx}: {e:?}"));
            let sink = ft_trace::TraceSink::new();
            let mut vm = VmRuntime::new();
            vm.set_sink(Some(sink.clone()));
            let rf = vm
                .run(&func, &inputs, &sizes)
                .unwrap_or_else(|e| panic!("fast vm failed on {ctx}: {e:?}"));
            assert_eq!(ri.outputs, rf.outputs, "fast-mode outputs differ on {ctx}");

            let events = sink.events();
            let lowered = events.iter().filter(|e| e.cat == "vm.lower").count();
            let fallbacks: Vec<String> = events
                .iter()
                .filter(|e| e.name == "vm.fallback")
                .map(|e| {
                    let reason = &e
                        .args
                        .iter()
                        .find(|(k, _)| k == "reason")
                        .unwrap_or_else(|| panic!("vm.fallback without a reason on {ctx}"))
                        .1;
                    assert!(!reason.is_empty(), "empty fallback reason on {ctx}");
                    reason.clone()
                })
                .collect();
            assert!(
                lowered > 0 || !fallbacks.is_empty(),
                "backward pass neither lowered nor named a fallback on {ctx}"
            );
            lowering_attempts += lowered;
        }
    }
    assert!(
        taped_programs > 0,
        "no gradient program carried a tape — the directed corpus is vacuous"
    );
    assert!(
        lowering_attempts > 0,
        "no backward-pass statement reached the VM lowering paths"
    );
}
