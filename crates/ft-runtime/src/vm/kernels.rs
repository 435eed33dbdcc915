//! Fused wide kernels for `vectorize`-marked loops: classification at
//! compile time ([`VecKernel`]) and execution.
//!
//! Two loop bodies have a kernel, the ones where one pays several times
//! over (EXPERIMENTS.md, "What the VM's fast paths buy"): `axpy`, an
//! elementwise `y[i] += a * x[i]`, and `dot`, a carried `acc += x[i] *
//! y[i]`. Every other body — a store, a carried `+=`/`min=`/`max=` of one
//! load — compiles as the ordinary strength-reduced serial loop, and its
//! `vm.simd` span names why.

use super::*;

/// If `e` is a load whose index varies in `s`, return its target and index.
fn varying_load(
    e: &crate::compiled::CExpr,
    s: usize,
) -> Option<(usize, &[crate::compiled::CExpr])> {
    match e {
        crate::compiled::CExpr::Load { t, idx }
            if idx.iter().any(|i| contains_scalar(i, s)) =>
        {
            Some((*t, idx))
        }
        _ => None,
    }
}

/// Strip nested single-statement `Seq` wrappers.
fn unwrap_single(body: &crate::compiled::CStmt) -> &crate::compiled::CStmt {
    match body {
        crate::compiled::CStmt::Seq(v) if v.len() == 1 => unwrap_single(&v[0]),
        other => other,
    }
}

/// Whether `trip` elements from flat offset `base` at `stride` are one
/// in-bounds slice of a `numel`-element tensor (the wide kernels' gate).
#[inline]
fn contiguous(base: i64, stride: i64, trip: usize, numel: usize) -> bool {
    stride == 1 && base >= 0 && (base as u64).saturating_add(trip as u64) <= numel as u64
}

impl Compiler {
    /// Hoist a loop-invariant expression into the (speculative) innermost
    /// loop's preheader, returning the persist register holding its value.
    /// `None` when the expression is not provably invariant.
    fn hoist_invariant(&mut self, e: &crate::compiled::CExpr) -> Option<(u32, Ty)> {
        let ok = {
            let lp = self.loops.last().expect("vectorize ctx pushed");
            self.invariant_ok(e, lp.s, &lp.writes)
        };
        if !ok {
            return None;
        }
        let dst = self.alloc_persist();
        let mut pre = Vec::new();
        std::mem::swap(&mut self.buf, &mut pre);
        let mark = self.mark();
        let (src, ty) = self.expr(e);
        self.emit(Instr::Mov { dst, src });
        self.free_to(mark);
        std::mem::swap(&mut self.buf, &mut pre);
        let lp = self.loops.last_mut().expect("vectorize ctx pushed");
        lp.preheader.extend(pre);
        if !pure_total(e) {
            lp.faulty_preheader = true;
        }
        Some((dst, ty))
    }

    /// Strength-reduce one access for a vectorized loop and recover the
    /// stride register its induction latch would have advanced by.
    fn vec_access(&mut self, t: usize, idx: &[crate::compiled::CExpr]) -> Option<VecAccess> {
        let before = self.loops.last().expect("vectorize ctx pushed").latches.len();
        let off = self.try_reduce(t, idx)?;
        let lp = self.loops.last().expect("vectorize ctx pushed");
        let stride = lp.latches[before..].iter().find_map(|i| match i {
            Instr::AddI { dst, a, b } if *dst == off && *a == off => Some(*b),
            _ => None,
        });
        Some(VecAccess {
            t: t as u32,
            off,
            stride,
        })
    }

    /// A varying load of a kernel reducing into tensor `t`, or the reason it
    /// cannot be one: it reads `t` itself, is not a float, or its offset
    /// does not strength-reduce.
    fn vec_src(
        &mut self,
        t: usize,
        (xt, xidx): (usize, &[crate::compiled::CExpr]),
    ) -> Result<VecAccess, &'static str> {
        if xt == t {
            return Err("reduction_target_reused");
        }
        if ty_of(self.tdtype[xt]) != Ty::F {
            return Err("unsupported_reduce_dtype");
        }
        self.vec_access(xt, xidx).ok_or("src_not_stride_reducible")
    }

    /// Classify the single-statement body of a `vectorize`-marked loop into
    /// a fused kernel, or the structured reason the loop compiles serially.
    fn build_vec_kernel(
        &mut self,
        inner: &crate::compiled::CStmt,
    ) -> Result<VecKernel, &'static str> {
        use crate::compiled::{CExpr as E, CStmt as S};
        let (t, idx, value) = match inner {
            S::Reduce {
                t,
                idx,
                op: ReduceOp::Add,
                value,
            } => (*t, idx, value),
            S::Reduce { .. } => return Err("unsupported_reduce_op"),
            S::Store { .. } => return Err("store_body"),
            S::For { .. } => return Err("not_innermost"),
            S::If { .. } => return Err("conditional_body"),
            S::VarDef { .. } => return Err("vardef_body"),
            S::LibCall { .. } => return Err("libcall_body"),
            S::Seq(_) => return Err("compound_body"),
            S::Nop => return Err("empty_body"),
        };
        if ty_of(self.tdtype[t]) != Ty::F {
            return Err("unsupported_reduce_dtype");
        }
        let s = self.loops.last().expect("vectorize ctx pushed").s;
        let dst = self.vec_access(t, idx).ok_or("dst_not_stride_reducible")?;
        let carried = dst.stride.is_none();
        let kernel = match value {
            E::Binary {
                op: BinaryOp::Mul,
                a,
                b,
            } => match (varying_load(a, s), varying_load(b, s)) {
                (Some(x), Some(y)) if carried => VecKernel::Dot {
                    dst,
                    x: self.vec_src(t, x)?,
                    y: self.vec_src(t, y)?,
                },
                (Some(x), None) | (None, Some(x)) if !carried => {
                    // Multiplier on the left means the serial code
                    // computed `a * x`.
                    let a_lhs = varying_load(a, s).is_none();
                    let x = self.vec_src(t, x)?;
                    let a = self
                        .hoist_invariant(if a_lhs { a } else { b })
                        .ok_or("unsupported_value_shape")?;
                    VecKernel::Axpy {
                        dst,
                        x,
                        a: Some(a),
                        a_lhs,
                    }
                }
                _ => return Err("unsupported_value_shape"),
            },
            _ => match varying_load(value, s) {
                Some(x) if !carried => VecKernel::Axpy {
                    dst,
                    x: self.vec_src(t, x)?,
                    a: None,
                    a_lhs: true,
                },
                _ => return Err("unsupported_value_shape"),
            },
        };
        Ok(kernel)
    }

    /// Try to lower a `vectorize`-marked innermost loop into a [`VecSite`].
    /// On success the emitted code is `[pre-guard] preheader VecLoop`; on a
    /// structured rejection the caller falls through to the plain serial
    /// lowering with the reason in the decision log.
    pub(super) fn try_vectorize(
        &mut self,
        s: usize,
        s_reg: u32,
        re: u32,
        prof: usize,
        body: &crate::compiled::CStmt,
    ) -> bool {
        let inner = unwrap_single(body);
        let mut writes = std::collections::HashSet::new();
        collect_writes(body, &mut writes);
        // A speculative loop context: accepted, its preheader feeds the
        // site; rejected, it is discarded whole (persist registers probed
        // into it leak, which `alloc_persist` documents as fine).
        self.loops.push(LoopCtx::new(s, self.cond_depth, writes));
        let built = self.build_vec_kernel(inner);
        let ctx = self.loops.pop().expect("pushed above");
        match built {
            Err(reason) => {
                self.decide(prof, false, reason);
                false
            }
            Ok(kernel) => {
                // The induction latches are dropped: the kernel dispatch
                // computes every offset from base + k * stride directly.
                let pre_gi = self.emit_preheader(ctx.faulty_preheader, ctx.preheader, s_reg, re);
                let detail = VEC_KERNEL_NAMES[kernel.idx()];
                let site = self.vec_sites.len() as u32;
                self.vec_sites.push(VecSite {
                    s: s_reg,
                    end: re,
                    kernel,
                });
                self.emit(Instr::VecLoop { site });
                let after = self.buf.len() as u32;
                if let Some(pg) = pre_gi {
                    self.patch(pg, after);
                }
                self.decide(prof, true, detail);
                true
            }
        }
    }
}

impl VmState<'_> {
    /// Resolve one vectorized access to `(slot, base offset, stride)`.
    #[inline]
    fn acc(&self, a: &VecAccess) -> (usize, i64, i64) {
        (
            a.t as usize,
            self.ri(a.off),
            a.stride.map_or(0, |r| self.ri(r)),
        )
    }

    /// Dispatch one fused vectorized loop. Every kernel has a wide lane
    /// path gated on stride-1 in-bounds non-aliasing accesses, and a scalar
    /// tail/fallback that replays the exact serial per-iteration semantics
    /// (same op order, same error payloads, same wrapping offset math).
    /// Out of line: inlined, it grows the dispatch loop (`exec_code`) by
    /// half, and every program's speed follows that loop's code placement
    /// (EXPERIMENTS.md, "What the VM's fast paths buy").
    #[inline(never)]
    pub(super) fn exec_vec(&mut self, site: &VecSite) -> Result<(), RuntimeError> {
        let b = self.ri(site.s);
        let e = self.ri(site.end);
        if b < e {
            let t0 = self.tally.as_ref().map(|_| std::time::Instant::now());
            let trip = (e - b) as usize;
            match &site.kernel {
                VecKernel::Axpy { dst, x, a, a_lhs } => {
                    self.vec_axpy(trip, dst, x, *a, *a_lhs)?;
                }
                VecKernel::Dot { dst, x, y } => self.vec_dot(trip, dst, x, y)?,
            }
            if let Some(t) = self.tally.as_mut() {
                t.vec[site.kernel.idx()] += 1;
                if let Some(t0) = t0 {
                    t.kernel_ns
                        .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
            }
        }
        // The loop counter lands on `end`, exactly as the serial loop
        // leaves it.
        self.wi(site.s, e);
        Ok(())
    }

    /// `for i { dst[f(i)] += a * x[g(i)] }` (or `x[g(i)] * a`, or plain
    /// `x[g(i)]` when `a` is absent).
    fn vec_axpy(
        &mut self,
        trip: usize,
        dst: &VecAccess,
        x: &VecAccess,
        a: Option<(u32, Ty)>,
        a_lhs: bool,
    ) -> Result<(), RuntimeError> {
        let (dt, db, ds) = self.acc(dst);
        let (xt, xb, xs) = self.acc(x);
        let av = a.map(|(r, ty)| self.scalar_of(r, ty).as_f64());
        let xn = self.numel_of(xt)?;
        let dn = self.numel_of(dt)?;
        let lane = contiguous(xb, xs, trip, xn) && contiguous(db, ds, trip, dn) && dt != xt;
        if lane {
            let (xo, do_) = (xb as usize, db as usize);
            let sp: *const Option<VmSlot> = self.slot(xt);
            let dp: *mut Option<VmSlot> = self.slot_mut(dt);
            // SAFETY: distinct live slots (checked above); ranges in bounds.
            let xv = unsafe { (*sp).as_ref().expect("checked above") };
            let dv = unsafe { (*dp).as_mut().expect("checked above") };
            match (&mut dv.val.data, &xv.val.data) {
                (Data::F32(d), Data::F32(s)) => {
                    let (d, s) = (&mut d[do_..do_ + trip], &s[xo..xo + trip]);
                    match (av, a_lhs) {
                        (Some(a), true) => lanes::axpy_f32(d, a, s),
                        (Some(a), false) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y = (*y as f64 + *x as f64 * a) as f32;
                            }
                        }
                        (None, _) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y = (*y as f64 + *x as f64) as f32;
                            }
                        }
                    }
                }
                (Data::F64(d), Data::F64(s)) => {
                    let (d, s) = (&mut d[do_..do_ + trip], &s[xo..xo + trip]);
                    match (av, a_lhs) {
                        (Some(a), true) => lanes::axpy_f64(d, a, s),
                        (Some(a), false) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y += *x * a;
                            }
                        }
                        (None, _) => {
                            for (y, x) in d.iter_mut().zip(s) {
                                *y += *x;
                            }
                        }
                    }
                }
                _ => {
                    // Mixed float widths: exact f64 math per cell.
                    for k in 0..trip {
                        let xvv = xv.val.get_flat(xo + k).as_f64();
                        let prod = match (av, a_lhs) {
                            (Some(a), true) => a * xvv,
                            (Some(a), false) => xvv * a,
                            (None, _) => xvv,
                        };
                        let old = dv.val.get_flat(do_ + k).as_f64();
                        dv.val.set_flat(do_ + k, Scalar::Float(old + prod));
                    }
                }
            }
            return Ok(());
        }
        let (mut ox, mut od) = (xb, db);
        for _ in 0..trip {
            let xvv = self.load_flat_val(xt, ox)?.as_f64();
            let prod = match (av, a_lhs) {
                (Some(a), true) => a * xvv,
                (Some(a), false) => xvv * a,
                (None, _) => xvv,
            };
            self.reduce_flat_val(dt, od, ReduceOp::Add, Scalar::Float(prod))?;
            ox = ox.wrapping_add(xs);
            od = od.wrapping_add(ds);
        }
        Ok(())
    }

    /// `for i { dst[c] += x[f(i)] * y[g(i)] }` — the loop-carried dot.
    fn vec_dot(
        &mut self,
        trip: usize,
        dst: &VecAccess,
        x: &VecAccess,
        y: &VecAccess,
    ) -> Result<(), RuntimeError> {
        let (dt, db, _) = self.acc(dst);
        let (xt, xb, xs) = self.acc(x);
        let (yt, yb, ys) = self.acc(y);
        let xn = self.numel_of(xt)?;
        let yn = self.numel_of(yt)?;
        let dn = self.numel_of(dt)?;
        let lane = contiguous(xb, xs, trip, xn)
            && contiguous(yb, ys, trip, yn)
            && db >= 0
            && (db as usize) < dn
            && dt != xt
            && dt != yt;
        if lane {
            let (xo, yo, do_) = (xb as usize, yb as usize, db as usize);
            let xp: *const Option<VmSlot> = self.slot(xt);
            let yp: *const Option<VmSlot> = self.slot(yt);
            let dp: *mut Option<VmSlot> = self.slot_mut(dt);
            // SAFETY: dst is distinct from both sources (checked above);
            // x and y may alias each other, both views are shared.
            let xv = unsafe { (*xp).as_ref().expect("checked above") };
            let yv = unsafe { (*yp).as_ref().expect("checked above") };
            let dv = unsafe { (*dp).as_mut().expect("checked above") };
            match (&mut dv.val.data, &xv.val.data, &yv.val.data) {
                (Data::F32(d), Data::F32(sx), Data::F32(sy)) => {
                    d[do_] = lanes::dot_f32(d[do_], &sx[xo..xo + trip], &sy[yo..yo + trip]);
                }
                (Data::F64(d), Data::F64(sx), Data::F64(sy)) => {
                    d[do_] = lanes::dot_f64(d[do_], &sx[xo..xo + trip], &sy[yo..yo + trip]);
                }
                _ => {
                    // Mixed float widths: exact f64 math per cell.
                    for k in 0..trip {
                        let p = xv.val.get_flat(xo + k).as_f64() * yv.val.get_flat(yo + k).as_f64();
                        let old = dv.val.get_flat(do_).as_f64();
                        dv.val.set_flat(do_, Scalar::Float(old + p));
                    }
                }
            }
            return Ok(());
        }
        let (mut ox, mut oy) = (xb, yb);
        for _ in 0..trip {
            let xvv = self.load_flat_val(xt, ox)?.as_f64();
            let yvv = self.load_flat_val(yt, oy)?.as_f64();
            self.reduce_flat_val(dt, db, ReduceOp::Add, Scalar::Float(xvv * yvv))?;
            ox = ox.wrapping_add(xs);
            oy = oy.wrapping_add(ys);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;

    /// One loop per shape a `vectorize` mark meets: the two with a kernel,
    /// and the stores and carried single-load reductions that compile
    /// serially. Every loop has a runtime trip count.
    fn vectorize_shapes_func() -> Func {
        let vec = ForProperty {
            vectorize: true,
            ..ForProperty::serial()
        };
        Func::new("kernels")
            .param("x", [16], DataType::F32, AccessType::Input)
            .param("w", [16], DataType::F32, AccessType::Input)
            .param("yf", [16], DataType::F32, AccessType::Output)
            .param("yc", [16], DataType::F32, AccessType::Output)
            .param("ya", [16], DataType::F32, AccessType::Output)
            .param("yb", [16], DataType::F32, AccessType::Output)
            .param("d", [1], DataType::F32, AccessType::Output)
            .param("hs", [1], DataType::F32, AccessType::Output)
            .param("hmin", [1], DataType::F32, AccessType::Output)
            .param("hmax", [1], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(block([
                // Serial: an invariant store.
                for_with("i", 0, var("n"), vec.clone(), store("yf", [var("i")], 1.25f32)),
                // Serial: a stride-1 copy.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    store("yc", [var("i")], load("x", [var("i")])),
                ),
                // Axpy with a hoisted multiplier.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce(
                        "ya",
                        [var("i")],
                        ReduceOp::Add,
                        load("x", [var("i")]) * 2.5f32,
                    ),
                ),
                // Elementwise accumulate (Axpy with no multiplier).
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce("yb", [var("i")], ReduceOp::Add, load("x", [var("i")])),
                ),
                // Dot: carried add of a two-stream product.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce(
                        "d",
                        [0],
                        ReduceOp::Add,
                        load("x", [var("i")]) * load("w", [var("i")]),
                    ),
                ),
                // Serial: carried Add, Min and Max of one load.
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce("hs", [0], ReduceOp::Add, load("x", [var("i")])),
                ),
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec.clone(),
                    reduce("hmin", [0], ReduceOp::Min, load("x", [var("i")])),
                ),
                for_with(
                    "i",
                    0,
                    var("n"),
                    vec,
                    reduce("hmax", [0], ReduceOp::Max, load("x", [var("i")])),
                ),
            ]))
    }

    #[test]
    fn every_vectorize_kernel_shape_lowers() {
        let f = vectorize_shapes_func();
        let c = crate::compiled::compile(&f).unwrap();
        let prog = compile_program(&c, &f);
        let veclooops = prog
            .code
            .iter()
            .filter(|i| matches!(i, Instr::VecLoop { .. }))
            .count();
        assert_eq!(veclooops, 3, "the axpy and dot loops lower, no other");
        assert_eq!(prog.vec_sites.len(), 3);
        let mut decisions = decisions_of(&f);
        decisions.sort();
        let d = |accepted: bool, detail: &str| (accepted, detail.to_string());
        assert_eq!(
            decisions,
            [
                d(false, "store_body"),
                d(false, "store_body"),
                d(false, "unsupported_reduce_op"),
                d(false, "unsupported_reduce_op"),
                d(false, "unsupported_value_shape"),
                d(true, "axpy"),
                d(true, "axpy"),
                d(true, "dot"),
            ]
        );
    }

    #[test]
    fn scalar_tail_parity_across_trip_counts() {
        // Trip counts 0..=9 cover the zero-trip guard, pure-tail loops
        // (n < 4), exactly-one-lane-group (n = 4,8), and every lane+tail
        // split in between; 13 and 16 add multi-group cases. f32 data with
        // irrational-ish mantissas makes any reassociation or skipped
        // per-step rounding visible in the bit pattern. The shapes with no
        // kernel run the serial loop at the same trips.
        let f = vectorize_shapes_func();
        let x = TensorVal::from_f32(&[16], (0..16).map(|v| v as f32 * 0.37 - 2.21).collect());
        let w = TensorVal::from_f32(&[16], (0..16).map(|v| 1.0 / (v as f32 + 1.5)).collect());
        for n in (0..=9).chain([13, 16]) {
            assert_parity(&f, &[("x", x.clone()), ("w", w.clone())], &[("n", n)]);
        }
    }

    #[test]
    fn every_vectorize_rejection_reason_fires() {
        // One loop per structured rejection; each must fall back to the
        // serial lowering (parity below) with the right reason logged.
        let vec = ForProperty {
            vectorize: true,
            ..ForProperty::serial()
        };
        let f = Func::new("rej")
            .param("x", [16], DataType::F32, AccessType::Input)
            .param("xi", [16], DataType::I32, AccessType::Input)
            .param("idx", [16], DataType::I64, AccessType::Input)
            .param("a", [64], DataType::F32, AccessType::Output)
            .param("b", [16], DataType::F32, AccessType::Output)
            .param("c", [16], DataType::F32, AccessType::Output)
            .param("d", [16], DataType::F32, AccessType::Output)
            .param("e", [1], DataType::F32, AccessType::Output)
            .param("g", [16], DataType::F32, AccessType::Output)
            .param("g1", [1], DataType::F32, AccessType::Output)
            .param("h", [16], DataType::F32, AccessType::Output)
            .param("k", [16], DataType::F32, AccessType::Output)
            .param("si", [1], DataType::I64, AccessType::Output)
            .param("p", [1], DataType::F32, AccessType::Output)
            .param("q", [16], DataType::F32, AccessType::Output)
            .param("hs", [1], DataType::F32, AccessType::Output)
            .param("hmin", [1], DataType::F32, AccessType::Output)
            .param("hmax", [1], DataType::F32, AccessType::Output)
            .param("r", [16], DataType::F32, AccessType::Output)
            .body(block([
                // not_innermost
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    for_(
                        "j",
                        0,
                        4,
                        store("a", [var("i") * 4 + var("j")], 1.0f32),
                    ),
                ),
                // conditional_body
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    if_(var("i").lt(8), store("b", [var("i")], load("x", [var("i")]))),
                ),
                // vardef_body
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    var_def(
                        "t",
                        [1usize],
                        DataType::F32,
                        MemType::CpuHeap,
                        block([
                            store("t", [0], load("x", [var("i")])),
                            store("c", [var("i")], load("t", [0]) * 2.0f32),
                        ]),
                    ),
                ),
                // compound_body
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    block([
                        store("d", [var("i")], load("x", [var("i")])),
                        reduce("e", [0], ReduceOp::Add, load("x", [var("i")])),
                    ]),
                ),
                // empty_body
                for_with("i", 0, 16, vec.clone(), Stmt::new(StmtKind::Empty)),
                // dst_not_stride_reducible (scatter)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce(
                        "g",
                        [load("idx", [var("i")])],
                        ReduceOp::Add,
                        load("x", [var("i")]),
                    ),
                ),
                // store_body
                for_with("i", 0, 16, vec.clone(), store("g1", [0], 3.5f32)),
                // src_not_stride_reducible (gather load)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce(
                        "h",
                        [var("i")],
                        ReduceOp::Add,
                        load("x", [load("idx", [var("i")])]),
                    ),
                ),
                // unsupported_value_shape (not a plain load or a product)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce(
                        "k",
                        [var("i")],
                        ReduceOp::Add,
                        load("x", [var("i")]) + 1.0f32,
                    ),
                ),
                // unsupported_value_shape (a carried sum of one load)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce("hs", [0], ReduceOp::Add, load("x", [var("i")])),
                ),
                // unsupported_reduce_op (carried min and max)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce("hmin", [0], ReduceOp::Min, load("x", [var("i")])),
                ),
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce("hmax", [0], ReduceOp::Max, load("x", [var("i")])),
                ),
                // parallel_region (marked parallel too: runs its own body)
                for_with(
                    "i",
                    0,
                    16,
                    ForProperty {
                        vectorize: true,
                        ..ForProperty::parallel(ParallelScope::OpenMp)
                    },
                    store("r", [var("i")], load("x", [var("i")])),
                ),
                // unsupported_reduce_dtype (integer target)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce("si", [0], ReduceOp::Add, load("xi", [var("i")])),
                ),
                // unsupported_reduce_op (carried product)
                for_with(
                    "i",
                    0,
                    16,
                    vec.clone(),
                    reduce("p", [0], ReduceOp::Mul, load("x", [var("i")])),
                ),
                // reduction_target_reused
                for_with(
                    "i",
                    0,
                    16,
                    vec,
                    reduce("q", [var("i")], ReduceOp::Add, load("q", [var("i")])),
                ),
            ]));
        let mut reasons: Vec<String> = decisions_of(&f)
            .into_iter()
            .map(|(accepted, detail)| {
                assert!(!accepted, "loop unexpectedly vectorized: {detail}");
                detail
            })
            .collect();
        reasons.sort();
        let mut expect = vec![
            "not_innermost",
            "conditional_body",
            "vardef_body",
            "compound_body",
            "empty_body",
            "dst_not_stride_reducible",
            "store_body",
            "src_not_stride_reducible",
            "unsupported_value_shape",
            "unsupported_value_shape",
            "unsupported_reduce_dtype",
            "unsupported_reduce_op",
            "unsupported_reduce_op",
            "unsupported_reduce_op",
            "reduction_target_reused",
            "parallel_region",
        ];
        expect.sort_unstable();
        assert_eq!(reasons, expect);
        // Every rejected loop runs the plain serial lowering; outputs must
        // still match the interpreter bit-for-bit.
        let x = TensorVal::from_f32(&[16], (0..16).map(|v| v as f32 * 0.11 - 0.8).collect());
        let xi = TensorVal::from_i32(&[16], (0..16).map(|v| v * 5 - 17).collect());
        let idx = TensorVal::from_i64(&[16], (0..16).map(|v| (v * 7 + 3) % 16).collect());
        assert_parity(&f, &[("x", x), ("xi", xi), ("idx", idx)], &[]);
    }
}
