//! Randomized cross-crate property: any sequence of schedule
//! transformations that the legality checks accept must preserve program
//! semantics under the interpreter.

use freetensor::ir::{find, ParallelScope, StmtId, StmtKind};
use freetensor::runtime::{ExecutionEngine, Runtime, TensorVal, VmRuntime};
use freetensor::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A program with enough structure to make random scheduling interesting:
/// guards, reductions, a local tensor, and a recurrence (which must block
/// some transformations).
fn subject() -> freetensor::ir::Func {
    freetensor::core::Program::compile(
        r#"
def subject(x: f32[40] in, y: f32[40] out, acc: f32[] out):
  for i in range(40):
    t = create_var((), "f32", "cpu")
    for k in range(-2, 3):
      if i + k >= 0 and i + k < 40:
        t += x[i + k]
    y[i] = t * 0.2
  for j in range(40):
    acc += y[j] * y[j]
"#,
        "subject",
    )
    .unwrap()
    .func()
    .clone()
}

fn run(func: &freetensor::ir::Func) -> (Vec<f64>, Vec<f64>) {
    let x = TensorVal::from_f32(&[40], (0..40).map(|i| (i as f32 * 0.3).cos()).collect());
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
    let r = Runtime::new().run(func, &inputs, &HashMap::new()).unwrap();
    (r.output("y").to_f64_vec(), r.output("acc").to_f64_vec())
}

fn loops_of(func: &freetensor::ir::Func) -> Vec<StmtId> {
    find::find_stmts(&func.body, &|s| matches!(s.kind, StmtKind::For { .. }))
        .iter()
        .map(|s| s.id)
        .collect()
}

#[test]
fn random_accepted_schedules_preserve_semantics() {
    let base = subject();
    let (y0, acc0) = run(&base);
    let mut rng = StdRng::seed_from_u64(20_220_613);
    let mut accepted_total = 0;
    for trial in 0..40 {
        let mut sched = Schedule::new(base.clone());
        for _ in 0..6 {
            let loops = loops_of(sched.func());
            if loops.is_empty() {
                break;
            }
            let target = loops[rng.gen_range(0..loops.len())];
            let accepted = match rng.gen_range(0..7) {
                0 => sched
                    .split(target, [2, 3, 8][rng.gen_range(0..3usize)])
                    .is_ok(),
                1 => sched.parallelize(target, ParallelScope::OpenMp).is_ok(),
                2 => sched.vectorize(target).is_ok(),
                3 => sched.unroll(target).is_ok(),
                4 => {
                    let other = loops[rng.gen_range(0..loops.len())];
                    sched.fuse(target, other).is_ok()
                }
                5 => sched
                    .cache(target, "x", freetensor::ir::MemType::CpuStack)
                    .is_ok(),
                _ => sched.separate_tail(target).is_ok(),
            };
            accepted_total += accepted as usize;
        }
        let (y1, acc1) = run(sched.func());
        for (a, b) in y0.iter().zip(&y1) {
            assert!(
                (a - b).abs() < 1e-4,
                "trial {trial}: y diverged\n{}",
                sched.func()
            );
        }
        assert!(
            (acc0[0] - acc1[0]).abs() < 1e-3 * (1.0 + acc0[0].abs()),
            "trial {trial}: acc diverged\n{}",
            sched.func()
        );
    }
    assert!(
        accepted_total > 30,
        "too few transformations accepted ({accepted_total}) — the property is vacuous"
    );
}

#[test]
fn parallel_marks_preserve_semantics_reordered_and_on_the_vm() {
    // Parallelize what the checker allows, then execute the marked loops
    // in reverse iteration order (interpreter) and as VM pool regions.
    let base = subject();
    let mut sched = Schedule::new(base.clone());
    let loops = loops_of(sched.func());
    for l in loops {
        let _ = sched.parallelize(l, ParallelScope::OpenMp);
    }
    let func = sched.into_func();
    let (y0, acc0) = run(&func);
    let x = TensorVal::from_f32(&[40], (0..40).map(|i| (i as f32 * 0.3).cos()).collect());
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
    let reversed = ft_conformance::backend::reverse_parallel_loops(&func);
    assert_ne!(
        reversed.to_string(),
        func.to_string(),
        "no loop was parallelized"
    );
    let reordered = Runtime::new()
        .run(&reversed, &inputs, &HashMap::new())
        .unwrap();
    let vm = VmRuntime::new()
        .run(&func, &inputs, &HashMap::new())
        .unwrap();
    for out in [&reordered.outputs, &vm.outputs] {
        for (a, b) in y0.iter().zip(out["y"].to_f64_vec()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!((acc0[0] - out["acc"].to_f64_vec()[0]).abs() < 1e-3);
    }
}

#[test]
fn double_cache_of_the_same_tensor_preserves_semantics() {
    // Regression: `cache` always named its staging buffer `{var}.cache` and
    // its fill iterators `{var}.c{d}`. Applying it twice to the same tensor
    // with the second scope inside the first cache's region produced a
    // shadowing def whose copy statements resolved against the wrong
    // buffer, and fill iterators that captured the enclosing fill's — a
    // silent forward miscompile (found by the gradient conformance sweep on
    // longformer, repro
    // `tests/repros/grad/longformer-seed29958-interp-grad-*.json`).
    let base = freetensor::core::Program::compile(
        r#"
def dbl(x: f32[8] in, y: f32[8] out):
  for i in range(8):
    for k in range(8):
      y[i] += x[k] * x[k]
"#,
        "dbl",
    )
    .unwrap()
    .func()
    .clone();
    let run_dbl = |func: &freetensor::ir::Func| -> Vec<f64> {
        let x = TensorVal::from_f32(&[8], (0..8).map(|i| (i as f32 * 0.7).sin()).collect());
        let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
        Runtime::new()
            .run(func, &inputs, &HashMap::new())
            .unwrap()
            .output("y")
            .to_f64_vec()
    };
    let y0 = run_dbl(&base);
    let mut sched = Schedule::new(base);
    let loops = loops_of(sched.func());
    let first = sched
        .cache(loops[1], "x", freetensor::ir::MemType::CpuStack)
        .expect("first cache applies");
    // Second cache of `x`: the only remaining reads of `x` are the first
    // cache's own fill loop, so its scope sits inside the first def.
    let loops = loops_of(sched.func());
    let mut second = None;
    for l in loops {
        if let Ok(name) = sched.cache(l, "x", freetensor::ir::MemType::CpuStack) {
            second = Some(name);
            break;
        }
    }
    let second = second.expect("second cache applies somewhere");
    assert_ne!(
        first, second,
        "re-caching the same tensor must pick a fresh buffer name"
    );
    // All defs and loop iterators in the scheduled program are distinct.
    let mut names: Vec<String> = Vec::new();
    sched.func().body.walk(&mut |s| match &s.kind {
        StmtKind::VarDef { name, .. } => names.push(name.clone()),
        StmtKind::For { iter, .. } => names.push(iter.clone()),
        _ => {}
    });
    let mut deduped = names.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped.len(), names.len(), "colliding binders: {names:?}");
    let y1 = run_dbl(sched.func());
    for (a, b) in y0.iter().zip(&y1) {
        assert!((a - b).abs() < 1e-4, "y diverged\n{}", sched.func());
    }
}
