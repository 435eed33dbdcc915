//! The parameter contract, in one place.
//!
//! "Compile once, then call the generated function on the caller's tensors"
//! (paper §4.3) has a call side every engine must agree on: parameter
//! extents are evaluated from the supplied sizes, a missing or ill-shaped
//! input is refused, `Input` is borrowed, `InOut` copied, `Output` zeroed.
//! [`Resolved`] is everything about one `(function, sizes)` call that does
//! not depend on the tensors — taken once, ahead of every back end — and
//! `Resolved::check_inputs` is the one place the tensors are held to it.
//! The shell in [`crate::engine`] runs both before an engine binds a
//! context, compiles, or allocates anything, so a malformed call costs
//! nothing and leaves no trace in a pooled [`RunContext`]. A context keeps
//! the `Resolved` of the call it is bound to, so a repeat of that call —
//! the same function, `Func ==`, at the same sizes — is resolved once, not
//! per call; `run` without a context resolves every call.
//! Resolving is also where the VM and the compiled engine get their one
//! parallel-legality verdict (`ft_codegen::prove_parallel` after
//! `lower_and_plan`; [`Resolved::serialized`]): both run the proven function.

use crate::arena::RunContext;
use crate::error::RuntimeError;
use crate::value::TensorVal;
use ft_analysis::MemPlan;
use ft_codegen::Serialized;
use ft_ir::{AccessType, BinaryOp, Expr, Func, Param};
use std::borrow::Cow;
use std::collections::HashMap;

/// One `(function, sizes)` call, resolved: the function the engine executes,
/// its memory plan, the parallel marks it lost, and every size and
/// parameter shape as numbers.
///
/// Which function that is — `func` as given (the interpreter) or
/// `ft_codegen::lower_and_plan(func)` with its unprovable marks made serial
/// (the VM and the compiled engine) — is the only thing an engine
/// contributes; ask it with
/// [`ExecutionEngine::resolve`](crate::ExecutionEngine::resolve).
#[derive(Debug)]
pub struct Resolved<'f> {
    func: Cow<'f, Func>,
    plan: MemPlan,
    serialized: Vec<Serialized>,
    sizes: Vec<i64>,
    shapes: Vec<Vec<usize>>,
    shape_sig: u64,
    run_peak_bytes: u64,
}

impl<'f> Resolved<'f> {
    /// Resolve `func` at `sizes`; `lower` selects the CPU-lowered function.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnresolvedSize`] naming a size parameter that was
    /// not supplied (or the parameter whose extent is negative, not a
    /// function of the sizes, or — like its element count or byte size —
    /// overflows), [`RuntimeError::DivisionByZero`] for a zero divisor in
    /// an extent.
    pub(crate) fn new(
        func: &'f Func,
        sizes: &HashMap<String, i64>,
        lower: bool,
    ) -> Result<Resolved<'f>, RuntimeError> {
        // Sizes, shapes and byte counts first — the lowering leaves the
        // parameters alone — so a call whose extents are not numbers this
        // host holds is refused before anything is lowered or planned.
        let size_vals: Vec<i64> = func
            .size_params
            .iter()
            .map(|n| {
                sizes
                    .get(n)
                    .copied()
                    .ok_or_else(|| RuntimeError::UnresolvedSize(n.clone()))
            })
            .collect::<Result<_, _>>()?;
        let shapes: Vec<Vec<usize>> = func
            .params
            .iter()
            .map(|p| p.shape.iter().map(|e| extent(e, sizes, &p.name)).collect())
            .collect::<Result<_, _>>()?;
        let param_bytes: Vec<u64> = func
            .params
            .iter()
            .zip(&shapes)
            .map(|(p, shape)| {
                shape
                    .iter()
                    .try_fold(p.dtype.size_bytes(), |n, d| n.checked_mul(*d))
                    // What an allocation can be; leaves the 64-byte
                    // alignment of the budget room too.
                    .filter(|bytes| isize::try_from(*bytes).is_ok())
                    .map(|bytes| bytes as u64)
                    .ok_or_else(|| RuntimeError::UnresolvedSize(p.name.clone()))
            })
            .collect::<Result<_, _>>()?;
        let (func, plan, serialized) = if lower {
            let (mut lowered, plan) = ft_codegen::lower_and_plan(func, sizes);
            let serialized = ft_codegen::prove_parallel(&mut lowered);
            (lowered, plan, serialized)
        } else {
            (Cow::Borrowed(func), MemPlan::plan(func, sizes), Vec::new())
        };
        // Two calls with equal signatures bind buffers of identical names,
        // element types and byte sizes.
        let mut h = ft_ir::Fnv1a::new();
        h.write(func.name.as_bytes());
        for (p, shape) in func.params.iter().zip(&shapes) {
            h.write(b"|p");
            h.write(p.name.as_bytes());
            h.write(&[p.dtype as u8, p.atype as u8]);
            for d in shape {
                h.write(&(*d as u64).to_le_bytes());
            }
        }
        for (n, v) in func.size_params.iter().zip(&size_vals) {
            h.write(b"|s");
            h.write(n.as_bytes());
            h.write(&v.to_le_bytes());
        }
        let run_peak_bytes = plan.run_peak_bytes(param_bytes);
        Ok(Resolved {
            shape_sig: h.finish(),
            run_peak_bytes,
            func,
            plan,
            serialized,
            sizes: size_vals,
            shapes,
        })
    }

    /// This call with its function owned, and whether that function is the
    /// caller's own (the lowering left it untouched) — so a context that
    /// keeps the call holds that function once, not twice.
    pub(crate) fn into_owned(self) -> (Resolved<'static>, bool) {
        let (func, callers) = match self.func {
            Cow::Borrowed(f) => (f.clone(), true),
            Cow::Owned(f) => (f, false),
        };
        let resolved = Resolved {
            func: Cow::Owned(func),
            plan: self.plan,
            serialized: self.serialized,
            sizes: self.sizes,
            shapes: self.shapes,
            shape_sig: self.shape_sig,
            run_peak_bytes: self.run_peak_bytes,
        };
        (resolved, callers)
    }

    /// The function the engine executes.
    pub fn func(&self) -> &Func {
        &self.func
    }

    /// The memory plan of [`func`](Resolved::func) at these sizes.
    pub fn plan(&self) -> &MemPlan {
        &self.plan
    }

    /// The parallel marks of [`func`](Resolved::func) the dependence engine
    /// could not prove, now serial (none on the interpreter).
    pub fn serialized(&self) -> &[Serialized] {
        &self.serialized
    }

    /// Size-parameter values, in declaration order.
    pub fn sizes(&self) -> &[i64] {
        &self.sizes
    }

    /// Every parameter with its resolved shape, in declaration order.
    pub fn params(&self) -> impl Iterator<Item = (&Param, &[usize])> {
        self.func
            .params
            .iter()
            .zip(self.shapes.iter().map(Vec::as_slice))
    }

    /// FNV-1a signature of the binding: function name, every parameter's
    /// (name, dtype, access, shape), every size value.
    pub fn shape_sig(&self) -> u64 {
        self.shape_sig
    }

    /// Planned peak footprint of one run: the plan's arena plus every
    /// parameter buffer — what a serving admission controller budgets.
    pub fn run_peak_bytes(&self) -> u64 {
        self.run_peak_bytes
    }

    /// Hold the caller's tensors to the declaration, in parameter order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::MissingInput`] / [`RuntimeError::ShapeMismatch`] for
    /// the first `Input`/`InOut` parameter that is absent or ill-shaped.
    pub(crate) fn check_inputs(
        &self,
        inputs: &HashMap<String, TensorVal>,
    ) -> Result<(), RuntimeError> {
        for (p, shape) in self.params() {
            if !matches!(p.atype, AccessType::Input | AccessType::InOut) {
                continue;
            }
            let t = inputs
                .get(&p.name)
                .ok_or_else(|| RuntimeError::MissingInput(p.name.clone()))?;
            if t.shape() != shape {
                return Err(RuntimeError::ShapeMismatch {
                    name: p.name.clone(),
                    expected: shape.to_vec(),
                    actual: t.shape().to_vec(),
                });
            }
        }
        Ok(())
    }

    /// Every parameter's buffer for one call, in declaration order — the
    /// bind step of every engine. An `Input` of the declared dtype is
    /// borrowed; an `Input` of another dtype and every `InOut` are owned
    /// copies converted to the declaration, so what an engine loads is the
    /// declared type; an `Output` or `Cache` is zeroed. With a context, the
    /// owned buffers come from its staging area.
    pub(crate) fn bind<'i>(
        &self,
        inputs: &'i HashMap<String, TensorVal>,
        mut ctx: Option<&mut RunContext>,
    ) -> Vec<Cow<'i, TensorVal>> {
        self.params()
            .map(|(p, shape)| {
                if !matches!(p.atype, AccessType::Input | AccessType::InOut) {
                    return Cow::Owned(match ctx.as_deref_mut() {
                        Some(c) => c.staged_zeros(&p.name, p.dtype, shape, true),
                        None => TensorVal::zeros(p.dtype, shape),
                    });
                }
                let t = &inputs[&p.name];
                let declared = t.dtype() == p.dtype;
                if p.atype == AccessType::Input && declared {
                    return Cow::Borrowed(t);
                }
                Cow::Owned(match (ctx.as_deref_mut(), declared) {
                    (Some(c), true) => c.staged_copy(&p.name, t),
                    (Some(c), false) => {
                        convert_into(c.staged_zeros(&p.name, p.dtype, shape, false), t)
                    }
                    (None, true) => t.clone(),
                    (None, false) => convert_into(TensorVal::zeros(p.dtype, shape), t),
                })
            })
            .collect()
    }

    /// The run's outputs by name: the final buffer of every `Output` and
    /// `InOut` parameter (`take(i)` of the `i`-th parameter), an `InOut`
    /// converted back to the dtype the caller passed it in.
    pub(crate) fn outputs(
        &self,
        inputs: &HashMap<String, TensorVal>,
        mut take: impl FnMut(usize) -> TensorVal,
    ) -> HashMap<String, TensorVal> {
        let outs = self.params().enumerate();
        outs.filter(|(_, (p, _))| matches!(p.atype, AccessType::Output | AccessType::InOut))
            .map(|(i, (p, _))| {
                let t = take(i);
                let t = match inputs.get(&p.name) {
                    Some(orig) if p.atype == AccessType::InOut && orig.dtype() != t.dtype() => {
                        convert_into(TensorVal::zeros(orig.dtype(), t.shape()), &t)
                    }
                    _ => t,
                };
                (p.name.clone(), t)
            })
            .collect()
    }
}

/// Copy `t` into `out`, a tensor of its shape (element-wise converting).
fn convert_into(mut out: TensorVal, t: &TensorVal) -> TensorVal {
    for i in 0..t.numel() {
        out.set_flat(i, t.get_flat(i));
    }
    out
}

/// One extent of parameter `param`, by the planner's evaluator — so the
/// shape an engine binds is the shape the plan was sized for.
fn extent(e: &Expr, sizes: &HashMap<String, i64>, param: &str) -> Result<usize, RuntimeError> {
    let unresolved = || RuntimeError::UnresolvedSize(param.to_string());
    match ft_analysis::eval_extent(e, sizes) {
        Some(v) => usize::try_from(v).map_err(|_| unresolved()),
        None => Err(why_unresolved(e, sizes).unwrap_or_else(unresolved)),
    }
}

/// Why `eval_extent` gave up on `e`, in its evaluation order: a size the
/// caller did not supply, or a zero divisor. `None` when `e` is not a
/// function of the sizes at all.
fn why_unresolved(e: &Expr, sizes: &HashMap<String, i64>) -> Option<RuntimeError> {
    match e {
        Expr::Var(n) if !sizes.contains_key(n) => Some(RuntimeError::UnresolvedSize(n.clone())),
        Expr::Binary { op, a, b } => why_unresolved(a, sizes)
            .or_else(|| why_unresolved(b, sizes))
            .or_else(|| {
                (matches!(op, BinaryOp::Div | BinaryOp::Mod)
                    && ft_analysis::eval_extent(b, sizes) == Some(0))
                .then_some(RuntimeError::DivisionByZero)
            }),
        Expr::Cast { a, .. } => why_unresolved(a, sizes),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cc_available, CompiledEngine, ExecutionEngine, RunContext, Runtime, VmRuntime};
    use ft_ir::prelude::*;
    use ft_metrics::Metrics;

    fn sizes(kv: &[(&str, i64)]) -> HashMap<String, i64> {
        kv.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn zero_size_divisor_is_an_error_not_a_panic() {
        let e = extent(&(var("n") / var("z")), &sizes(&[("n", 4), ("z", 0)]), "x");
        assert_eq!(e, Err(RuntimeError::DivisionByZero));
        let e = extent(&var("n").rem(var("z") - 1), &sizes(&[("n", 4), ("z", 1)]), "x");
        assert_eq!(e, Err(RuntimeError::DivisionByZero));
    }

    #[test]
    fn an_extent_or_a_size_that_overflows_is_refused_by_every_engine_before_anything_runs() {
        // `[n * n]` at n = 2^32 is an extent `i64` does not hold; `[n, n]` at
        // n = 2^33 has extents it does and an element count `usize` does
        // not. Unchecked, both multiplications panicked in a debug build
        // and wrapped in release — `[n * n]` to a zero-length buffer.
        let fill = |name: &str, shape: Vec<Expr>| {
            Func::new(name)
                .param("x", [4], DataType::F32, AccessType::Input)
                .param("y", shape, DataType::F32, AccessType::Output)
                .size_param("n")
                .body(for_("i", 0, 4, store("y", [var("i")], load("x", [var("i")]))))
        };
        let programs = [
            (fill("squared", vec![var("n") * var("n")]), 1i64 << 32),
            (fill("square", vec![var("n"), var("n")]), 1i64 << 33),
        ];
        let want = RuntimeError::UnresolvedSize("y".to_string());
        let warm = halve_and_double();
        let warm_sizes = sizes(&[("n", 8), ("d", 2)]);
        for (f, n) in &programs {
            let big = sizes(&[("n", *n)]);
            assert_eq!(extent(&f.params[1].shape[0], &big, "y").is_ok(), f.name == "square");
            for (engine, metrics) in engines(&f.name) {
                let who = format!("{} on {}", engine.name(), f.name);
                // What `ft-serve` admission asks for: the refusal, not a
                // wrapped `run_peak_bytes`.
                assert_eq!(engine.resolve(f, &big).err().as_ref(), Some(&want), "{who}");
                assert_eq!(engine.run(f, &x_of(4), &big).err().as_ref(), Some(&want), "{who}");
                assert_eq!(metrics.snapshot().counter("compiled.cc.spawned"), 0, "{who}");
                if engine.name() == "compiled" && !cc_available() {
                    continue;
                }
                // A context warm on another program is neither poisoned nor
                // rebound by the refusal, and serves its next call.
                let mut ctx = RunContext::new();
                let r = engine.run_with(&warm, &x_of(4), &warm_sizes, &mut ctx).expect(&who);
                ctx.recycle(r).expect(&who);
                let refused = engine.run_with(f, &x_of(4), &big, &mut ctx);
                assert_eq!(refused.err().as_ref(), Some(&want), "{who}");
                assert!(!ctx.is_poisoned(), "{who}");
                assert_eq!(ctx.bound_func(), Some("halve"), "{who}");
                let r = engine.run_with(&warm, &x_of(4), &warm_sizes, &mut ctx).expect(&who);
                assert_eq!(r.output("y").to_f64_vec(), vec![3.0; 4], "{who}");
            }
        }
    }

    #[test]
    fn an_extent_names_what_it_is_missing() {
        let e = extent(&(var("n") * var("m") + 1), &sizes(&[("n", 4)]), "x");
        assert_eq!(e, Err(RuntimeError::UnresolvedSize("m".to_string())));
        // Negative, or not a function of the sizes: the parameter is named.
        let e = extent(&(var("n") - 5), &sizes(&[("n", 4)]), "x");
        assert_eq!(e, Err(RuntimeError::UnresolvedSize("x".to_string())));
        let e = extent(&load("t", [0]), &sizes(&[]), "x");
        assert_eq!(e, Err(RuntimeError::UnresolvedSize("x".to_string())));
    }

    /// The three engines, each reporting into its own registry, the
    /// compiled one on a cache directory nothing has been built in.
    fn engines(tag: &str) -> Vec<(Box<dyn ExecutionEngine>, Metrics)> {
        let cache = std::env::temp_dir().join(format!("ft-bind-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let all: [Box<dyn ExecutionEngine>; 3] = [
            Box::new(Runtime::new()),
            Box::new(VmRuntime::new()),
            Box::new(CompiledEngine::with_cache_dir(cache)),
        ];
        all.into_iter()
            .map(|mut e| {
                let m = Metrics::new();
                e.set_metrics(Some(m.clone()));
                (e, m)
            })
            .collect()
    }

    /// `y[i] = 2 * x[i]` through a scratch row, over `n / d` elements.
    fn halve_and_double() -> Func {
        halve_and_scale(2.0)
    }

    /// `y[i] = k * x[i]`, otherwise [`halve_and_double`]: same name, params
    /// and memory plan.
    fn halve_and_scale(k: f32) -> Func {
        let len = || var("n") / var("d");
        let through = block([
            for_("i", 0, len(), store("t", [var("i")], load("x", [var("i")]) * k)),
            for_("i", 0, len(), store("y", [var("i")], load("t", [var("i")]))),
        ]);
        Func::new("halve")
            .param("x", [len()], DataType::F32, AccessType::Input)
            .param("y", [len()], DataType::F32, AccessType::Output)
            .size_param("n")
            .size_param("d")
            .body(var_def("t", [len()], DataType::F32, MemType::CpuHeap, through))
    }

    fn x_of(len: usize) -> HashMap<String, TensorVal> {
        HashMap::from([("x".to_string(), TensorVal::from_f32(&[len], vec![1.5; len]))])
    }

    #[test]
    fn every_engine_refuses_a_malformed_call_the_same_way_before_doing_anything() {
        let f = halve_and_double();
        let ok = sizes(&[("n", 8), ("d", 2)]);
        let cases = [
            (HashMap::new(), ok.clone(), RuntimeError::MissingInput("x".to_string())),
            (
                x_of(5),
                ok,
                RuntimeError::ShapeMismatch {
                    name: "x".to_string(),
                    expected: vec![4],
                    actual: vec![5],
                },
            ),
            (x_of(4), sizes(&[("n", 8)]), RuntimeError::UnresolvedSize("d".to_string())),
            (x_of(4), sizes(&[("n", 8), ("d", 0)]), RuntimeError::DivisionByZero),
        ];
        for (i, (inputs, sizes, want)) in cases.iter().enumerate() {
            for (engine, metrics) in engines(&format!("case{i}")) {
                let who = format!("{} on {want}", engine.name());
                let mut ctx = RunContext::new();
                let with_ctx = engine.run_with(&f, inputs, sizes, &mut ctx);
                assert_eq!(with_ctx.err().as_ref(), Some(want), "{who}");
                assert_eq!(ctx.bound_func(), None, "{who}: bound a context");
                assert!(!ctx.is_poisoned(), "{who}: poisoned a context");
                let plain = engine.run(&f, inputs, sizes);
                assert_eq!(plain.err().as_ref(), Some(want), "{who}, no context");
                let snap = metrics.snapshot();
                assert_eq!(snap.counter("compiled.cc.spawned"), 0, "{who}: {snap:?}");
                let errors = format!("engine.{}.errors", engine.name());
                assert_eq!(snap.counter(&errors), 2, "{who}: {snap:?}");
            }
        }
    }

    #[test]
    fn a_warm_context_survives_a_malformed_request() {
        let f = halve_and_double();
        let sizes = sizes(&[("n", 64), ("d", 2)]);
        for (engine, metrics) in runnable("warm") {
            let who = engine.name();
            let mut ctx = RunContext::new();
            let good = |ctx: &mut RunContext| {
                let r = engine.run_with(&f, &x_of(32), &sizes, ctx).expect(who);
                assert_eq!(r.output("y").to_f64_vec(), vec![3.0; 32], "{who}");
                ctx.recycle(r).expect(who);
                metrics.snapshot()
            };
            good(&mut ctx);
            let warm = good(&mut ctx);
            // One malformed request through the same pooled context...
            let err = engine.run_with(&f, &HashMap::new(), &sizes, &mut ctx);
            assert_eq!(err.err(), Some(RuntimeError::MissingInput("x".to_string())), "{who}");
            assert!(!ctx.is_poisoned(), "{who}");
            assert_eq!(ctx.bound_func(), Some("halve"), "{who}");
            // ...and the next good one finds it exactly as warm as it was.
            let after = good(&mut ctx);
            assert_eq!(after.counter("mem.arena.poison_resets"), 0, "{who}: {after:?}");
            assert_eq!(
                after.counter("mem.arena.alloc_calls"),
                warm.counter("mem.arena.alloc_calls"),
                "{who}: the run after the malformed one allocated: {after:?}"
            );
        }
    }

    /// The engines that can run here: all three, less the compiled one
    /// without `cc`.
    fn runnable(tag: &str) -> Vec<(Box<dyn ExecutionEngine>, Metrics)> {
        let mut all = engines(tag);
        if !cc_available() {
            eprintln!("cc unavailable; skipping the compiled engine");
            all.retain(|(e, _)| e.name() != "compiled");
        }
        all
    }

    /// `(engine.<name>.resolves, engine.<name>.resolve_reused)` so far.
    fn resolutions(engine: &dyn ExecutionEngine, m: &Metrics) -> (u64, u64) {
        let snap = m.snapshot();
        let name = engine.name();
        let of = |what: &str| snap.counter(&format!("engine.{name}.{what}"));
        (of("resolves"), of("resolve_reused"))
    }

    #[test]
    fn a_kept_call_never_serves_another_body_of_the_same_plan() {
        // `y = 3x` has `y = 2x`'s name, params, shapes and plan, so the
        // context takes it at the parent's binding check; only `Func ==`
        // tells the kept call from it.
        let (double, triple) = (halve_and_double(), halve_and_scale(3.0));
        let sizes = sizes(&[("n", 8), ("d", 2)]);
        for (engine, metrics) in runnable("stale") {
            let who = engine.name();
            let mut ctx = RunContext::new();
            let mut run = |f: &Func, want: f64| {
                let r = engine.run_with(f, &x_of(4), &sizes, &mut ctx).expect(who);
                assert_eq!(r.output("y").to_f64_vec(), vec![want; 4], "{who}");
                ctx.recycle(r).expect(who);
            };
            run(&double, 3.0);
            run(&double, 3.0);
            run(&triple, 4.5);
            run(&triple, 4.5);
            run(&double, 3.0);
            assert_eq!(ctx.bound_func(), Some("halve"), "{who}");
            assert_eq!(resolutions(&*engine, &metrics), (3, 2), "{who}");
        }
    }

    #[test]
    fn a_shape_mismatch_leaves_the_kept_call_warm() {
        let f = halve_and_double();
        let (ok, wider) = (sizes(&[("n", 8), ("d", 2)]), sizes(&[("n", 16), ("d", 2)]));
        for (engine, metrics) in runnable("mismatch") {
            let who = engine.name();
            let mut ctx = RunContext::new();
            for _ in 0..2 {
                let r = engine.run_with(&f, &x_of(4), &ok, &mut ctx).expect(who);
                ctx.recycle(r).expect(who);
            }
            let err = engine.run_with(&f, &x_of(8), &wider, &mut ctx);
            assert!(matches!(err, Err(RuntimeError::ContextMismatch { .. })), "{who}: {err:?}");
            assert!(!ctx.is_poisoned(), "{who}");
            let before = metrics.snapshot().counter("mem.arena.alloc_calls");
            let resolved = resolutions(&*engine, &metrics);
            let r = engine.run_with(&f, &x_of(4), &ok, &mut ctx).expect(who);
            assert_eq!(r.output("y").to_f64_vec(), vec![3.0; 4], "{who}");
            ctx.recycle(r).expect(who);
            let after = metrics.snapshot().counter("mem.arena.alloc_calls");
            assert_eq!(after, before, "{who}: the kept call's run allocated");
            assert_eq!(resolutions(&*engine, &metrics), (resolved.0, resolved.1 + 1), "{who}");
        }
    }

    #[test]
    fn a_poisoned_context_resolves_its_next_call_afresh() {
        // `y = x / d` on integers: a zero in `d` fails the interpreter's and
        // the VM's run mid-way; C has no such failure, so the compiled
        // engine's context is poisoned by hand, as a failed run would.
        let f = Func::new("quotient")
            .param("x", [4], DataType::I64, AccessType::Input)
            .param("d", [4], DataType::I64, AccessType::Input)
            .param("y", [4], DataType::I64, AccessType::Output)
            .body(for_("i", 0, 4, store("y", [var("i")], load("x", [var("i")]) / load("d", [var("i")]))));
        let inputs = |d: Vec<i64>| {
            HashMap::from([
                ("x".to_string(), TensorVal::from_i64(&[4], vec![7, -7, 9, 12])),
                ("d".to_string(), TensorVal::from_i64(&[4], d)),
            ])
        };
        let (good, bad) = (inputs(vec![2, 2, 3, 5]), inputs(vec![2, 0, 3, 5]));
        let none = HashMap::new();
        for (engine, metrics) in runnable("poison") {
            let who = engine.name();
            let mut ctx = RunContext::new();
            for _ in 0..2 {
                let r = engine.run_with(&f, &good, &none, &mut ctx).expect(who);
                ctx.recycle(r).expect(who);
            }
            assert_eq!(resolutions(&*engine, &metrics), (1, 1), "{who}");
            if who == "compiled" {
                ctx.poison();
            } else {
                let err = engine.run_with(&f, &bad, &none, &mut ctx);
                assert_eq!(err.err(), Some(RuntimeError::DivisionByZero), "{who}");
                assert_eq!(resolutions(&*engine, &metrics), (1, 2), "{who}");
            }
            assert!(ctx.is_poisoned(), "{who}");
            let (resolves, reused) = resolutions(&*engine, &metrics);
            let r = engine.run_with(&f, &good, &none, &mut ctx).expect(who);
            assert_eq!(resolutions(&*engine, &metrics), (resolves + 1, reused), "{who}");
            assert_eq!(metrics.snapshot().counter("mem.arena.poison_resets"), 1, "{who}");
            assert!(!ctx.is_poisoned(), "{who}");
            let plain = engine.run(&f, &good, &none).expect(who);
            assert_eq!(r.outputs, plain.outputs, "{who}");
            assert_eq!(r.output("y").to_f64_vec(), [3.0, -4.0, 3.0, 2.0], "{who}");
        }
    }

    #[test]
    fn an_input_of_another_dtype_is_converted_at_bind_by_every_engine() {
        // `x` and `acc` are declared f32 and passed as f64: every engine
        // computes on f32 values and hands `acc` back as the f64 it got.
        let f = Func::new("dt")
            .param("x", [3], DataType::F32, AccessType::Input)
            .param("acc", [3], DataType::F32, AccessType::InOut)
            .body(for_(
                "i",
                0,
                3,
                store("acc", [var("i")], load("acc", [var("i")]) + load("x", [var("i")])),
            ));
        let (x, acc) = ([0.1, 0.2, 0.3], [1.0, 2.0, 3.0]);
        let inputs = HashMap::from([
            ("x".to_string(), TensorVal::from_f64(&[3], x.to_vec())),
            ("acc".to_string(), TensorVal::from_f64(&[3], acc.to_vec())),
        ]);
        let want: Vec<f64> = (0..3).map(|i| (acc[i] as f32 + x[i] as f32) as f64).collect();
        for (engine, _) in runnable("dtype") {
            let who = engine.name();
            let r = engine.run(&f, &inputs, &HashMap::new()).expect(who);
            assert_eq!(r.output("acc").dtype(), DataType::F64, "{who}");
            assert_eq!(r.output("acc").to_f64_vec(), want, "{who}");
        }
    }

    #[test]
    fn a_cast_extent_resolves_identically_on_every_engine() {
        // The interpreter and the planner always evaluated a `Cast` in an
        // extent; the compiled engine's private evaluator used to answer
        // "unsupported extent expression".
        let len = || Expr::cast(DataType::I32, var("n")) * 2;
        let f = Func::new("cast_extent")
            .param("x", [len()], DataType::F32, AccessType::Input)
            .param("y", [len(), 3.into()], DataType::F64, AccessType::Output)
            .size_param("m")
            .size_param("n")
            .body(for_(
                "i",
                0,
                len(),
                store("y", [var("i"), 0.into()], load("x", [var("i")]) + 1.0f32),
            ));
        let sizes = sizes(&[("n", 3), ("m", 7)]);
        for (engine, _) in engines("cast") {
            let who = engine.name();
            let r = engine.resolve(&f, &sizes).expect(who);
            assert_eq!(r.sizes(), [7, 3], "{who}");
            let shapes: Vec<(&str, &[usize])> =
                r.params().map(|(p, s)| (p.name.as_str(), s)).collect();
            assert_eq!(shapes, [("x", &[6][..]), ("y", &[6, 3][..])], "{who}");
            // No defs: the footprint is the two parameter buffers, 64-aligned.
            assert_eq!(r.run_peak_bytes(), 64 + 192, "{who}");
            let other = engine.resolve(&f, &self::sizes(&[("n", 4), ("m", 7)])).expect(who);
            assert_ne!(r.shape_sig(), other.shape_sig(), "{who}");
            if who == "compiled" && !cc_available() {
                eprintln!("cc unavailable; not running the compiled engine");
                continue;
            }
            let out = engine.run(&f, &x_of(6), &sizes).expect(who);
            assert_eq!(out.output("y").to_f64_vec()[..4], [2.5, 0.0, 0.0, 2.5], "{who}");
        }
    }

    #[test]
    fn only_the_interpreter_models_device_capacity() {
        // A 4 KiB def on a 1 KiB CPU: the interpreter's device model refuses
        // it; the VM and the compiled engine model no device and run it, to
        // the bits the interpreter computes on the default device.
        let row = |body| for_("i", 0, 128, for_("j", 0, 8, body));
        let f = Func::new("big_def")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [128, 8],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    row(store("t", [var("i"), var("j")], load("x", [var("j")]) * 2.0f32)),
                    row(reduce("y", [0], ReduceOp::Add, load("t", [var("i"), var("j")]))),
                ]),
            ));
        let x = TensorVal::from_f32(&[8], (0..8).map(|v| v as f32 * 0.5).collect());
        let inputs = HashMap::from([("x".to_string(), x)]);
        let small = crate::DeviceConfig {
            cpu_mem_capacity: 1024,
            ..crate::DeviceConfig::default()
        };
        let err = Runtime::with_config(small).run(&f, &inputs, &HashMap::new());
        assert!(
            matches!(
                err,
                Err(RuntimeError::OutOfMemory { device: ft_ir::Device::Cpu, requested: 4096, .. })
            ),
            "{err:?}"
        );
        let mut want = None;
        for (engine, _) in runnable("capacity") {
            let who = engine.name();
            let r = engine.run(&f, &inputs, &HashMap::new()).expect(who);
            let want = want.get_or_insert_with(|| r.outputs.clone());
            assert_eq!(&r.outputs, want, "{who}");
            assert_eq!(r.output("y").get_flat(0).as_f64(), 128.0 * 28.0, "{who}");
        }
    }
}
