//! Property test: every transformation sequence the legality checks accept
//! preserves interpreter semantics — "aggressively try transformations
//! without worrying about their correctness" (paper §4.3).

use ft_ir::prelude::*;
use ft_ir::{find, StmtId};
use ft_runtime::{ExecutionEngine, Runtime, TensorVal};
use ft_schedule::Schedule;
use proptest::prelude::*;
use std::collections::HashMap;

/// Base program mixing guards, a local, a reduction and a recurrence.
fn subject() -> Func {
    Func::new("subject")
        .param("x", [24], DataType::F32, AccessType::Input)
        .param("y", [24], DataType::F32, AccessType::Output)
        .param("acc", Vec::<Expr>::new(), DataType::F32, AccessType::Output)
        .param("rec", [25], DataType::F32, AccessType::InOut)
        .body(block([
            for_(
                "i",
                0,
                24,
                var_def(
                    "t",
                    scalar(),
                    DataType::F32,
                    MemType::CpuStack,
                    block([
                        for_(
                            "k",
                            -1,
                            2,
                            if_(
                                (var("i") + var("k"))
                                    .ge(0)
                                    .and((var("i") + var("k")).lt(24)),
                                reduce(
                                    "t",
                                    scalar(),
                                    ReduceOp::Add,
                                    load("x", ft_ir::idx![var("i") + var("k")]),
                                ),
                            ),
                        ),
                        store("y", [var("i")], load("t", scalar()) * 0.5f32),
                    ]),
                ),
            ),
            for_(
                "j",
                0,
                24,
                reduce("acc", scalar(), ReduceOp::Add, load("y", [var("j")])),
            ),
            for_(
                "r",
                1,
                25,
                store(
                    "rec",
                    [var("r")],
                    load("rec", ft_ir::idx![var("r") - 1]) * 0.9f32 + 0.1f32,
                ),
            ),
        ]))
}

fn run(func: &Func) -> (Vec<f64>, f64, Vec<f64>) {
    let x = TensorVal::from_f32(&[24], (0..24).map(|k| (k as f32 * 0.41).cos()).collect());
    let rec = TensorVal::from_f32(&[25], vec![0.3; 25]);
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x), ("rec".to_string(), rec)]
        .into_iter()
        .collect();
    let r = Runtime::new()
        .run(func, &inputs, &HashMap::new())
        .unwrap_or_else(|e| panic!("run failed: {e}\n{func}"));
    (
        r.output("y").to_f64_vec(),
        r.output("acc").to_f64_vec()[0],
        r.output("rec").to_f64_vec(),
    )
}

fn loops_of(func: &Func) -> Vec<StmtId> {
    find::find_stmts(&func.body, &|s| matches!(s.kind, StmtKind::For { .. }))
        .iter()
        .map(|s| s.id)
        .collect()
}

#[derive(Debug, Clone)]
enum Move {
    Split(usize, i64),
    Parallelize(usize),
    Vectorize(usize),
    Unroll(usize),
    Fuse(usize, usize),
    Cache(usize),
    CacheReduce(usize),
    SeparateTail(usize),
    Blend(usize),
    Merge(usize, usize),
}

fn arb_move() -> impl Strategy<Value = Move> {
    let idx = 0usize..64;
    prop_oneof![
        (
            idx.clone(),
            prop_oneof![Just(2i64), Just(3), Just(5), Just(8)]
        )
            .prop_map(|(l, f)| Move::Split(l, f)),
        idx.clone().prop_map(Move::Parallelize),
        idx.clone().prop_map(Move::Vectorize),
        idx.clone().prop_map(Move::Unroll),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Move::Fuse(a, b)),
        idx.clone().prop_map(Move::Cache),
        idx.clone().prop_map(Move::CacheReduce),
        idx.clone().prop_map(Move::SeparateTail),
        idx.clone().prop_map(Move::Blend),
        (idx.clone(), idx).prop_map(|(a, b)| Move::Merge(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accepted_sequences_preserve_semantics(moves in proptest::collection::vec(arb_move(), 1..7)) {
        let base = subject();
        let (y0, acc0, rec0) = run(&base);
        let mut sched = Schedule::new(base);
        for m in &moves {
            let loops = loops_of(sched.func());
            if loops.is_empty() { break; }
            let pick = |k: usize| loops[k % loops.len()];
            let _ = match m {
                Move::Split(l, f) => sched.split(pick(*l), *f).map(|_| ()),
                Move::Parallelize(l) => sched.parallelize(pick(*l), ParallelScope::OpenMp),
                Move::Vectorize(l) => sched.vectorize(pick(*l)),
                Move::Unroll(l) => sched.unroll(pick(*l)),
                Move::Fuse(a, b) => sched.fuse(pick(*a), pick(*b)).map(|_| ()),
                Move::Cache(l) => sched.cache(pick(*l), "x", MemType::CpuStack).map(|_| ()),
                Move::CacheReduce(l) => sched
                    .cache_reduce(pick(*l), "acc", MemType::CpuStack)
                    .map(|_| ()),
                Move::SeparateTail(l) => sched.separate_tail(pick(*l)).map(|_| ()),
                Move::Blend(l) => sched.blend(pick(*l)),
                Move::Merge(a, b) => sched.merge(pick(*a), pick(*b)).map(|_| ()),
            };
        }
        let (y1, acc1, rec1) = run(sched.func());
        for (a, b) in y0.iter().zip(&y1) {
            prop_assert!((a - b).abs() < 1e-4, "y diverged after {moves:?}\n{}", sched.func());
        }
        prop_assert!((acc0 - acc1).abs() < 1e-3 * (1.0 + acc0.abs()), "acc diverged after {moves:?}");
        for (a, b) in rec0.iter().zip(&rec1) {
            prop_assert!((a - b).abs() < 1e-4, "rec diverged after {moves:?}\n{}", sched.func());
        }
    }
}
