//! Differential fuzz of the bytecode VM against the instrumented
//! interpreter.
//!
//! The interpreter is the semantic specification, and the VM is a back end
//! of `lower_cpu_parallel`: it promises outputs bit-identical to the
//! interpreter's *on the lowered function*, with [`PerfCounters`] left
//! defaulted ([`assert_vm_contract`]). This test checks that on randomly
//! *scheduled* variants of all four paper workloads (the same variant
//! generator the cross-backend conformance sweep uses), on directed
//! schedules, and on the benchmark's seven rule-scheduled programs.

use ft_codegen::lower_cpu_parallel;
use ft_conformance::diff::{grad_close, reduction_depth};
use ft_conformance::{ops, Case, GradTol, Workload};
use ft_ir::prelude::*;
use ft_runtime::{ExecutionEngine, PerfCounters, RunResult, Runtime, TensorVal, VmRuntime};
use proptest::test_runner::TestRng;
use std::borrow::Cow;
use std::collections::HashMap;

/// The VM's contract on one program it ran. `vm` must equal, bit for bit,
/// what the interpreter computes on `lower_cpu_parallel(func)` — the
/// function the VM executes. Where the lowering rewrote the program it only
/// re-associated reductions, so `vm` must also sit within the conformance
/// tolerance of the interpreter on `func` itself.
fn assert_vm_contract(
    func: &ft_ir::Func,
    inputs: &HashMap<String, TensorVal>,
    vm: &RunResult,
    ctx: &str,
) {
    let sizes = HashMap::new();
    let lowered = lower_cpu_parallel(func);
    let on_lowered = Runtime::new()
        .run(&lowered, inputs, &sizes)
        .unwrap_or_else(|e| panic!("interp failed on lowered {ctx}: {e:?}"));
    assert_eq!(on_lowered.outputs, vm.outputs, "vm outputs differ on {ctx}");
    assert_eq!(
        vm.counters,
        PerfCounters::default(),
        "the vm must not count on {ctx}"
    );
    if let Cow::Owned(_) = lowered {
        let original = Runtime::new()
            .run(func, inputs, &sizes)
            .unwrap_or_else(|e| panic!("interp failed on {ctx}: {e:?}"));
        let scale = (1 + reduction_depth(func)) as f64;
        for (name, want) in &original.outputs {
            grad_close(&vm.outputs[name], want, &GradTol::default(), scale).unwrap_or_else(|d| {
                panic!("vm is {d:e} off the unlowered interpreter on `{name}` of {ctx}")
            });
        }
    }
}

#[test]
fn vm_matches_interp_on_random_scheduled_workloads() {
    let sizes = HashMap::new();
    let mut variants = 0usize;
    for w in Workload::ALL {
        for k in 0..10u64 {
            // Mirrors the conformance sweep's per-variant seed derivation.
            let stream = ft_ir::fnv1a(w.name().as_bytes())
                ^ 0xF0DD_u64
                ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let case = Case::build(w, stream & 0xFFFF);
            let mut rng = TestRng::from_seed_u64(stream);
            let raw = ops::sample_trace(&mut rng, 6);
            let (func, trace) = ops::apply_trace(&case.func, &raw);
            let ctx = format!("workload {} variant {k} trace {trace:?}", w.name());

            let rv = VmRuntime::new()
                .run(&func, &case.inputs, &sizes)
                .unwrap_or_else(|e| panic!("vm failed on {ctx}: {e:?}"));
            assert_vm_contract(&func, &case.inputs, &rv, &ctx);
            variants += 1;
        }
    }
    assert_eq!(variants, 4 * 10);
}

/// Run the VM (with a trace sink), hold it to [`assert_vm_contract`], and
/// return its outputs with its `vm.lower` decision spans as `(kind,
/// accepted, detail)`. Every span must be well-formed.
fn diff_with_decisions(
    func: &ft_ir::Func,
    inputs: &HashMap<String, TensorVal>,
    ctx: &str,
) -> (RunResult, Vec<(String, bool, String)>) {
    let sink = ft_trace::TraceSink::new();
    let mut vm = VmRuntime::new();
    vm.set_sink(Some(sink.clone()));
    let rv = vm
        .run(func, inputs, &HashMap::new())
        .unwrap_or_else(|e| panic!("vm failed on {ctx}: {e:?}"));
    assert_vm_contract(func, inputs, &rv, ctx);
    let decisions = sink
        .events()
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
        .collect();
    (rv, decisions)
}

/// Directed schedules: parallelize then vectorize *every* loop of every
/// workload (the legality checker keeps what is sound), and hold the VM to
/// its contract on the result. This saturates
/// the vectorize/parallel lowering paths far beyond what the uniform
/// random traces above reach.
#[test]
fn vm_matches_interp_on_directed_vectorize_parallel_schedules() {
    let mut spans = 0usize;
    for w in Workload::ALL {
        let case = Case::build(w, 11);
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
        spans += diff_with_decisions(&func, &case.inputs, &ctx).1.len();
    }
    assert!(spans > 0, "directed schedules produced no lowering attempts");
}

/// A `vectorize`-marked axpy and dot product and a parallel integer
/// histogram: the corpus must demonstrably engage both fused SIMD kernels
/// and — on the chunk rows `lower_cpu_parallel` privatizes the histogram
/// into — the pool regions, bit-exactly.
#[test]
fn vm_engages_simd_and_privatized_reductions_bit_exactly() {
    let vec = ForProperty {
        vectorize: true,
        ..ForProperty::serial()
    };
    let simd = Func::new("axpy_dot")
        .param("x", [257], DataType::F32, AccessType::Input)
        .param("w", [257], DataType::F32, AccessType::Input)
        .param("y", [257], DataType::F32, AccessType::Output)
        .param("d", [1], DataType::F32, AccessType::Output)
        .body(block([
            for_with(
                "i",
                0,
                257,
                vec.clone(),
                reduce(
                    "y",
                    [var("i")],
                    ReduceOp::Add,
                    load("x", [var("i")]) * 0.3f32,
                ),
            ),
            for_with(
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
            ),
        ]));
    let x = TensorVal::from_f32(&[257], (0..257).map(|v| (v as f32).sin()).collect());
    let w = TensorVal::from_f32(&[257], (0..257).map(|v| 1.0 / (v as f32 + 0.7)).collect());
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x), ("w".to_string(), w)]
        .into_iter()
        .collect();
    let (_, ds) = diff_with_decisions(&simd, &inputs, "vectorized axpy and dot");
    for kernel in ["axpy", "dot"] {
        assert!(
            ds.iter()
                .any(|(k, acc, how)| k == "vm.simd" && *acc && how == kernel),
            "{kernel} kernel did not engage: {ds:?}"
        );
    }

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
    let xs: Vec<i32> = (0..1024).map(|v| (v * 31 + 7) % 113).collect();
    let x = TensorVal::from_i32(&[1024], xs.clone());
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
    let (out, ds) = diff_with_decisions(&hist, &inputs, "parallel histogram");
    // The lowered nest is a chunk loop filling `h.part` and a merge nest
    // folding it into `h`; the dependence engine must prove both. A traced
    // run asks every region, forked or not, so this holds on one core too.
    let regions: Vec<bool> = ds
        .iter()
        .filter(|(k, _, _)| k == "vm.parallel")
        .map(|(_, acc, _)| *acc)
        .collect();
    assert_eq!(regions, [true, true], "chunk loop and merge nest: {ds:?}");
    let mut serial = [0.0f64; 16];
    xs.iter().for_each(|v| serial[(*v % 16) as usize] += 1.0);
    assert_eq!(out.output("h").to_f64_vec(), serial);
}

/// The programs whose VM lowering the kernel set decides: the benchmark's
/// four forward programs and three gradients under the rule passes, at
/// small scale. Each runs on the VM bit-identical to the interpreter on
/// `lower_and_plan`'s function, and every `vectorize` loop of that function
/// has one `vm.simd` span, naming its kernel (`axpy`, `dot`) or why it has
/// none. Both kernels engage somewhere among them.
#[test]
fn vm_matches_interp_on_rule_scheduled_benchmark_programs() {
    use freetensor::autodiff::GradOptions;
    use freetensor::autoschedule::Target;
    use freetensor::workloads::{data, Scale};

    let sizes = HashMap::new();
    let mut engaged = std::collections::BTreeSet::new();
    for w in Workload::ALL {
        let inst = w.at(Scale::Small);
        let forward = inst.program();
        let mut programs = vec![(
            w.name().to_string(),
            forward.optimize(&Target::cpu()),
            inst.inputs(7),
        )];
        if w.differentiable() {
            let grad = forward
                .grad(&GradOptions::default())
                .expect("differentiable");
            let mut inputs = inst.inputs(7);
            let seed = data::features(&inst.output_shape(), 99);
            inputs.insert(format!("{}.grad", w.output()), seed);
            programs.push((
                format!("{}.grad", w.name()),
                grad.optimize(&Target::cpu()),
                inputs,
            ));
        }
        for (label, program, inputs) in programs {
            let (lowered, _) = ft_codegen::lower_and_plan(program.func(), &sizes);
            let want = Runtime::new()
                .run(&lowered, &inputs, &sizes)
                .unwrap_or_else(|e| panic!("interp failed on lowered {label}: {e:?}"));
            let sink = ft_trace::TraceSink::new();
            let mut vm = VmRuntime::new();
            vm.set_sink(Some(sink.clone()));
            let got = vm
                .run(program.func(), &inputs, &sizes)
                .unwrap_or_else(|e| panic!("vm failed on {label}: {e:?}"));
            assert_eq!(got.outputs, want.outputs, "vm outputs differ on {label}");

            let mut marked = 0;
            lowered.body.walk(&mut |s| {
                if matches!(&s.kind, StmtKind::For { property, .. } if property.vectorize) {
                    marked += 1;
                }
            });
            let arg = |e: &ft_trace::SpanEvent, key: &str| {
                e.args
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            let simd: Vec<(Option<String>, Option<String>)> = sink
                .events()
                .iter()
                .filter(|e| e.name == "vm.simd")
                .map(|e| (arg(e, "how"), arg(e, "reason")))
                .collect();
            assert_eq!(
                simd.len(),
                marked,
                "{label}: one span per vectorize loop: {simd:?}"
            );
            for span in &simd {
                match span {
                    (Some(how), None) => {
                        engaged.insert(how.clone());
                    }
                    (None, Some(reason)) => assert!(!reason.is_empty(), "{label}: {span:?}"),
                    _ => panic!("{label}: a span with neither `how` nor `reason`: {span:?}"),
                }
            }
        }
    }
    // Accepted spans name the two kernels, and nothing else.
    assert_eq!(engaged, ["axpy", "dot"].map(String::from).into());
}

/// Directed grad-program schedules: differentiate every workload under both
/// tape policies, aggressively schedule the resulting *gradient* function,
/// and hold the VM to its contract on it.
#[test]
fn vm_matches_interp_on_directed_grad_program_schedules() {
    use ft_autodiff::TapePolicy;
    use ft_conformance::grad::{build_grad_func, grad_setup};
    use ft_conformance::{GradOrder, GradSpec};

    let mut taped_programs = 0usize;
    let mut lowering_attempts = 0usize;
    for w in Workload::ALL {
        let case = Case::build(w, 11);
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
            let (inputs, _) = grad_setup(w, &case);
            let ctx = format!(
                "grad of {} ({policy:?}, {} sched ops)",
                w.name(),
                trace.len()
            );

            let sink = ft_trace::TraceSink::new();
            let mut vm = VmRuntime::new();
            vm.set_sink(Some(sink.clone()));
            let rv = vm
                .run(&func, &inputs, &HashMap::new())
                .unwrap_or_else(|e| panic!("vm failed on {ctx}: {e:?}"));
            assert_vm_contract(&func, &inputs, &rv, &ctx);

            let lowered = sink.events().iter().filter(|e| e.cat == "vm.lower").count();
            assert!(lowered > 0, "no loop of the backward pass reached the lowering on {ctx}");
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
