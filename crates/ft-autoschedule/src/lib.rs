//! # ft-autoschedule — the rule-based auto-transforming strategy
//!
//! The paper's §4.3: six heuristic passes that *try* transformations,
//! relying on the dependence-checked primitives of `ft-schedule` to reject
//! anything unsafe — "we can aggressively try transformations without
//! worrying about their correctness":
//!
//! 1. [`auto_fuse`] — fuse adjacent equal-extent loops for locality;
//! 2. [`auto_vectorize`] — vectorize innermost dependence-free loops;
//! 3. [`auto_parallelize`] — bind outer loops to OpenMP threads or the CUDA
//!    grid/block hierarchy (splitting when a single loop must feed both);
//! 4. [`auto_mem_type`] — move small tensors toward the processor
//!    (registers ≻ scratch-pad ≻ main memory);
//! 5. [`auto_use_lib`] — replace compute-intensive nests with vendor-library
//!    calls (`as_lib`);
//! 6. [`auto_unroll`] — unroll very short loops.
//!
//! A seventh, [`auto_separate_tail`], runs between `auto_parallelize` and
//! `auto_vectorize`: it splits every loop whose body is one affine guard on
//! its own iterator into head, guard-free interior and tail, so interiors
//! reach `auto_vectorize` without a branch. `auto_unroll` runs in front of
//! `auto_vectorize` too, so a loop around a short one is offered to
//! `vectorize` once the short one is unrolled.
//!
//! [`auto_schedule`] runs all seven for a target device.
//!
//! The [`search`] module is the alternative strategy: evolutionary search
//! over schedule traces scored by the deterministic cost model, warm-started
//! from (and required to beat) the rule-based result.

pub mod search;

use ft_ir::{Device, Func, MemType, ParallelScope, Stmt, StmtId, StmtKind};
use ft_schedule::Schedule;
use ft_trace::{Span, TraceSink};

/// Open a timed span for one `auto_*` pass and label subsequent schedule
/// decisions with the pass name. No-op (and allocation-free) without a sink.
fn begin_pass(sched: &mut Schedule, name: &str) -> Option<Span> {
    let sink = sched.sink()?.clone();
    sched.set_phase(Some(name.to_string()));
    Some(sink.span("autoschedule", name))
}

/// Close a pass span, annotating how many transformations were applied.
fn end_pass(sched: &mut Schedule, span: Option<Span>, applied: usize) {
    if let Some(mut s) = span {
        s.arg("applied", applied);
        sched.set_phase(None);
    }
}

/// Auto-scheduling target description.
#[derive(Debug, Clone)]
pub struct Target {
    /// CPU or (simulated) GPU.
    pub device: Device,
    /// Elements threshold for register-class placement.
    pub reg_elems: i64,
    /// Elements threshold for shared-memory placement (GPU).
    pub shared_elems: i64,
    /// Trip-count threshold for unrolling.
    pub unroll_trip: i64,
    /// Split factor when one loop must feed both grid and block parallelism.
    pub gpu_block_size: i64,
}

impl Target {
    /// Default CPU target.
    pub fn cpu() -> Target {
        Target {
            device: Device::Cpu,
            reg_elems: 64,
            shared_elems: 4096,
            unroll_trip: 8,
            gpu_block_size: 128,
        }
    }

    /// Default (simulated) GPU target.
    pub fn gpu() -> Target {
        Target {
            device: Device::Gpu,
            ..Target::cpu()
        }
    }
}

fn all_loops(func: &Func) -> Vec<StmtId> {
    ft_ir::find::find_stmts(&func.body, &|s| matches!(s.kind, StmtKind::For { .. }))
        .into_iter()
        .map(|s| s.id)
        .collect()
}

fn loop_extent_const(func: &Func, id: StmtId) -> Option<i64> {
    let s = ft_ir::find::find_by_id(&func.body, id)?;
    let StmtKind::For { begin, end, .. } = &s.kind else {
        return None;
    };
    let e = ft_passes::const_fold_expr(end.clone() - begin.clone());
    e.as_int()
}

fn is_innermost(func: &Func, id: StmtId) -> bool {
    let Some(s) = ft_ir::find::find_by_id(&func.body, id) else {
        return false;
    };
    let mut inner = 0;
    s.walk(&mut |st| {
        if matches!(st.kind, StmtKind::For { .. }) {
            inner += 1;
        }
    });
    inner == 1 // only itself
}

fn loop_parallel(func: &Func, id: StmtId) -> ParallelScope {
    match ft_ir::find::find_by_id(&func.body, id) {
        Some(Stmt {
            kind: StmtKind::For { property, .. },
            ..
        }) => property.parallel,
        _ => ParallelScope::Serial,
    }
}

/// Whether the loop is (transitively) inside another loop.
fn has_loop_parent(func: &Func, id: StmtId) -> bool {
    ft_ir::find::loop_nest_of(&func.body, id)
        .map(|n| !n.loops.is_empty())
        .unwrap_or(false)
}

/// Pass 1: fuse adjacent equal-extent sibling loops (locality).
pub fn auto_fuse(sched: &mut Schedule) -> usize {
    let span = begin_pass(sched, "auto_fuse");
    let mut fused = 0;
    // Fixpoint: each successful fusion changes the sibling structure.
    for _ in 0..16 {
        // Try every adjacent pair until one fuses.
        let mut progressed = false;
        let pairs = adjacent_loop_pairs(sched.func());
        for (a, b) in pairs {
            if sched.fuse(a, b).is_ok() {
                fused += 1;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    end_pass(sched, span, fused);
    fused
}

fn adjacent_loop_pairs(func: &Func) -> Vec<(StmtId, StmtId)> {
    let mut out = Vec::new();
    func.body.walk(&mut |s| {
        if let StmtKind::Block(items) = &s.kind {
            for w in items.windows(2) {
                if matches!(w[0].kind, StmtKind::For { .. })
                    && matches!(w[1].kind, StmtKind::For { .. })
                {
                    out.push((w[0].id, w[1].id));
                }
            }
        }
    });
    out
}

/// Pass 2: vectorize innermost serial loops (dependence-permitting).
pub fn auto_vectorize(sched: &mut Schedule) -> usize {
    let span = begin_pass(sched, "auto_vectorize");
    let mut n = 0;
    for id in all_loops(sched.func()) {
        if loop_parallel(sched.func(), id) == ParallelScope::Serial
            && is_innermost(sched.func(), id)
            && has_loop_parent(sched.func(), id)
            && loop_extent_const(sched.func(), id).is_none_or(|e| e >= 4)
            && sched.vectorize(id).is_ok()
        {
            n += 1;
        }
    }
    end_pass(sched, span, n);
    n
}

/// Pass 3: bind outer loops to hardware parallelism.
///
/// CPU: parallelize every outermost loop over OpenMP threads. GPU: the
/// outermost loop becomes `blockIdx.x`; a perfectly nested second loop
/// becomes `threadIdx.x`; a lone loop is `split` so both levels are fed.
pub fn auto_parallelize(sched: &mut Schedule, target: &Target) -> usize {
    let span = begin_pass(sched, "auto_parallelize");
    let mut n = 0;
    let outer: Vec<StmtId> = all_loops(sched.func())
        .into_iter()
        .filter(|id| !has_loop_parent(sched.func(), *id))
        .collect();
    match target.device {
        Device::Cpu => {
            for id in outer {
                if sched.parallelize(id, ParallelScope::OpenMp).is_ok() {
                    n += 1;
                }
            }
        }
        Device::Gpu => {
            for id in outer {
                // Find a directly nested loop for the thread dimension.
                let inner = ft_ir::find::find_by_id(&sched.func().body, id)
                    .and_then(|s| match &s.kind {
                        StmtKind::For { body, .. } => {
                            let peeled = ft_schedule::util::peel(body);
                            matches!(peeled.kind, StmtKind::For { .. }).then(|| peeled.id)
                        }
                        _ => None,
                    });
                match inner {
                    Some(tid) => {
                        let ok_b = sched.parallelize(id, ParallelScope::CudaBlockX).is_ok();
                        let ok_t = sched.parallelize(tid, ParallelScope::CudaThreadX).is_ok();
                        if ok_b || ok_t {
                            n += 1;
                        }
                    }
                    None => {
                        // Lone loop: split to feed both levels.
                        let extent = loop_extent_const(sched.func(), id).unwrap_or(i64::MAX);
                        if extent > target.gpu_block_size {
                            if let Ok((b, t)) = sched.split(id, target.gpu_block_size) {
                                let ok_b = sched.parallelize(b, ParallelScope::CudaBlockX).is_ok();
                                let ok_t =
                                    sched.parallelize(t, ParallelScope::CudaThreadX).is_ok();
                                if ok_b || ok_t {
                                    n += 1;
                                }
                            }
                        } else if sched.parallelize(id, ParallelScope::CudaBlockX).is_ok() {
                            n += 1;
                        }
                    }
                }
            }
        }
    }
    end_pass(sched, span, n);
    n
}

/// Index-set splitting: every serial loop whose body is one `if` gets
/// `separate_tail`, which refuses (with its reason in the decision log)
/// guards that are not affine in the loop's own iterator. A loop bound to
/// threads keeps its guard: splitting it would make three parallel regions
/// of one (OpenMP), or a thread extent that varies by block (CUDA). Loops
/// the split creates are not revisited; the interior keeps the loop's id,
/// so loops inside it are.
pub fn auto_separate_tail(sched: &mut Schedule) -> usize {
    let span = begin_pass(sched, "auto_separate_tail");
    let mut n = 0;
    for id in all_loops(sched.func()) {
        let guarded = ft_ir::find::find_by_id(&sched.func().body, id).is_some_and(|s| {
            matches!(&s.kind, StmtKind::For { body, property, .. }
                if property.parallel == ParallelScope::Serial
                    && matches!(ft_schedule::util::peel(body).kind, StmtKind::If { .. }))
        });
        if guarded && sched.separate_tail(id).is_ok() {
            n += 1;
        }
    }
    end_pass(sched, span, n);
    n
}

/// Pass 4: put small tensors as near to the processor as possible.
pub fn auto_mem_type(sched: &mut Schedule, target: &Target) -> usize {
    let span = begin_pass(sched, "auto_mem_type");
    let mut n = 0;
    let mut defs: Vec<(String, Option<i64>)> = Vec::new();
    sched.func().body.walk(&mut |s| {
        if let StmtKind::VarDef { name, shape, .. } = &s.kind {
            let elems = shape
                .iter()
                .map(|e| ft_passes::const_fold_expr(e.clone()).as_int())
                .try_fold(1i64, |acc, e| e.map(|v| acc * v));
            defs.push((name.clone(), elems));
        }
    });
    for (name, elems) in defs {
        let Some(elems) = elems else { continue };
        let new_mtype = match target.device {
            Device::Cpu if elems <= target.reg_elems => Some(MemType::CpuStack),
            Device::Gpu if elems <= target.reg_elems => Some(MemType::GpuLocal),
            Device::Gpu if elems <= target.shared_elems => Some(MemType::GpuShared),
            Device::Gpu => Some(MemType::GpuGlobal),
            _ => None,
        };
        if let Some(mt) = new_mtype {
            if sched.set_mtype(&name, mt).is_ok() {
                n += 1;
            }
        }
    }
    end_pass(sched, span, n);
    n
}

/// Pass 5: replace matmul-shaped nests with vendor-library calls.
pub fn auto_use_lib(sched: &mut Schedule) -> usize {
    let span = begin_pass(sched, "auto_use_lib");
    let mut n = 0;
    for id in all_loops(sched.func()) {
        if sched.as_lib(id).is_ok() {
            n += 1;
        }
    }
    end_pass(sched, span, n);
    n
}

/// Pass 6: unroll very short innermost loops.
pub fn auto_unroll(sched: &mut Schedule, target: &Target) -> usize {
    let span = begin_pass(sched, "auto_unroll");
    let mut n = 0;
    for id in all_loops(sched.func()) {
        if loop_parallel(sched.func(), id) == ParallelScope::Serial
            && is_innermost(sched.func(), id)
            && loop_extent_const(sched.func(), id).is_some_and(|e| e <= target.unroll_trip)
            && sched.unroll(id).is_ok()
        {
            n += 1;
        }
    }
    end_pass(sched, span, n);
    n
}

/// Run all seven passes and return the scheduled function.
pub fn auto_schedule(func: &Func, target: &Target) -> Func {
    auto_schedule_traced(func, target, None)
}

/// [`auto_schedule`] with observability: when `sink` is `Some`, every pass
/// reports a timed span and every primitive attempt (applied or rejected,
/// with structured violated dependences) lands in the sink's decision log.
pub fn auto_schedule_traced(func: &Func, target: &Target, sink: Option<TraceSink>) -> Func {
    let mut sched = Schedule::new(func.clone());
    sched.set_sink(sink);
    run_passes(&mut sched, target);
    sched.into_func()
}

/// The paper's six passes, with `auto_separate_tail` and then `auto_unroll`
/// in front of `auto_vectorize`: a loop whose only inner loop is a short
/// one becomes innermost once that loop is unrolled, and only then is it
/// offered to `vectorize`.
fn run_passes(sched: &mut Schedule, target: &Target) {
    auto_fuse(sched);
    auto_use_lib(sched);
    auto_parallelize(sched, target);
    auto_separate_tail(sched);
    auto_unroll(sched, target);
    auto_vectorize(sched);
    auto_mem_type(sched, target);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_runtime::{Runtime, TensorVal};
    use std::collections::HashMap;

    fn elementwise_two_loops() -> Func {
        Func::new("f")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("t", [64], DataType::F32, AccessType::Output)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(block([
                for_("i", 0, 64, store("t", [var("i")], load("x", [var("i")]) * 2.0f32)),
                for_("j", 0, 64, store("y", [var("j")], load("t", [var("j")]) + 1.0f32)),
            ]))
    }

    #[test]
    fn auto_fuse_merges_elementwise_pipeline() {
        let mut s = Schedule::new(elementwise_two_loops());
        assert_eq!(auto_fuse(&mut s), 1);
        let loops = ft_ir::find::find_stmts(&s.func().body, &|st| {
            matches!(st.kind, StmtKind::For { .. })
        });
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn auto_parallelize_cpu_marks_outer() {
        let mut s = Schedule::new(elementwise_two_loops());
        assert_eq!(auto_parallelize(&mut s, &Target::cpu()), 2);
        for l in ft_ir::find::find_stmts(&s.func().body, &|st| {
            matches!(st.kind, StmtKind::For { .. })
        }) {
            let StmtKind::For { property, .. } = &l.kind else {
                unreachable!()
            };
            assert_eq!(property.parallel, ParallelScope::OpenMp);
        }
    }

    #[test]
    fn auto_parallelize_gpu_splits_lone_loop() {
        let f = Func::new("f")
            .param("y", [1024], DataType::F32, AccessType::Output)
            .body(for_("i", 0, 1024, store("y", [var("i")], 1.0f32)));
        let mut s = Schedule::new(f);
        assert_eq!(auto_parallelize(&mut s, &Target::gpu()), 1);
        let mut scopes = Vec::new();
        s.func().body.walk(&mut |st| {
            if let StmtKind::For { property, .. } = &st.kind {
                scopes.push(property.parallel);
            }
        });
        assert!(scopes.contains(&ParallelScope::CudaBlockX));
        assert!(scopes.contains(&ParallelScope::CudaThreadX));
    }

    #[test]
    fn auto_mem_type_promotes_small_locals() {
        let f = Func::new("f")
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [8],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    store("t", [0], 1.0f32),
                    store("y", [0], load("t", [0])),
                ]),
            ));
        let mut s = Schedule::new(f);
        assert_eq!(auto_mem_type(&mut s, &Target::cpu()), 1);
        let def = ft_ir::find::find_stmt(&s.func().body, &|st| {
            matches!(st.kind, StmtKind::VarDef { .. })
        })
        .unwrap();
        let StmtKind::VarDef { mtype, .. } = &def.kind else {
            unreachable!()
        };
        assert_eq!(*mtype, MemType::CpuStack);
    }

    #[test]
    fn auto_use_lib_finds_matmul() {
        let f = ft_libop::compile_with_libop(
            "def e(a: f32[8, 8] in, b: f32[8, 8] in, c: f32[8, 8] out):\n  matmul(a, b, c, 8, 8, 8)\n",
            "e",
        )
        .unwrap();
        let mut s = Schedule::new(f);
        assert_eq!(auto_use_lib(&mut s), 1);
    }

    #[test]
    fn auto_unroll_expands_short_loops() {
        let f = Func::new("f")
            .param("y", [32, 3], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                32,
                for_("j", 0, 3, store("y", [var("i"), var("j")], 1.0f32)),
            ));
        let mut s = Schedule::new(f);
        assert_eq!(auto_unroll(&mut s, &Target::cpu()), 1);
        let loops = ft_ir::find::find_stmts(&s.func().body, &|st| {
            matches!(st.kind, StmtKind::For { .. })
        });
        assert_eq!(loops.len(), 1); // the j loop is gone
    }

    #[test]
    fn a_loop_around_a_three_trip_loop_is_unrolled_then_vectorized() {
        // for i: for f: for c in 0..3: y[i, f, c] = x[i, f, c] * 2
        let inner = for_(
            "c",
            0,
            3,
            store(
                "y",
                [var("i"), var("f"), var("c")],
                load("x", [var("i"), var("f"), var("c")]) * 2.0f32,
            ),
        );
        let f_loop = for_("f", 0, 16, inner);
        let f_id = f_loop.id;
        let f = Func::new("f")
            .param("x", [8, 16, 3], DataType::F32, AccessType::Input)
            .param("y", [8, 16, 3], DataType::F32, AccessType::Output)
            .body(for_("i", 0, 8, f_loop));
        let sink = TraceSink::new();
        let tuned = auto_schedule_traced(&f, &Target::cpu(), Some(sink.clone()));
        let vectorized = ft_ir::find::find_by_id(&tuned.body, f_id)
            .is_some_and(|s| matches!(&s.kind, StmtKind::For { property, .. } if property.vectorize));
        assert!(vectorized, "{tuned}");
        let args = format!("({:?})", ft_ir::find::Selector::Id(f_id));
        assert!(
            sink.decisions().iter().any(|d| d.pass.as_deref() == Some("auto_vectorize")
                && d.primitive == "vectorize"
                && d.args == args
                && d.verdict == ft_trace::Verdict::Applied),
            "{:?}",
            sink.decisions()
        );
    }

    #[test]
    fn full_pipeline_preserves_semantics() {
        let f = elementwise_two_loops();
        let x = TensorVal::from_f32(&[64], (0..64).map(|v| (v as f32).cos()).collect());
        let inputs: HashMap<String, TensorVal> =
            [("x".to_string(), x)].into_iter().collect();
        let before = Runtime::new().run(&f, &inputs, &HashMap::new()).unwrap();
        for target in [Target::cpu(), Target::gpu()] {
            let tuned = auto_schedule(&f, &target);
            let after = Runtime::new().run(&tuned, &inputs, &HashMap::new()).unwrap();
            assert!(
                before.output("y").allclose(after.output("y"), 1e-6),
                "auto-schedule changed semantics on {:?}:\n{tuned}",
                target.device
            );
        }
    }

    #[test]
    fn gpu_schedule_launches_fewer_kernels_after_fuse() {
        let f = elementwise_two_loops();
        let tuned = auto_schedule(&f, &Target::gpu());
        let x = TensorVal::from_f32(&[64], vec![1.0; 64]);
        let inputs: HashMap<String, TensorVal> =
            [("x".to_string(), x)].into_iter().collect();
        let r = Runtime::new().run(&tuned, &inputs, &HashMap::new()).unwrap();
        assert_eq!(r.counters.kernel_launches, 1, "{tuned}");
    }
}
