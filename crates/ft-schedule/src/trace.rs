//! The schedule-trace vocabulary: a serializable, replayable op language
//! over the [`Schedule`] primitives, shared by the conformance fuzzer and
//! the search-based auto-scheduler.
//!
//! Ops address loops *positionally* (index into the pre-order list of `For`
//! statements, modulo its length) rather than by `StmtId`, so a trace stays
//! replayable after earlier ops have rewritten the tree — the same scheme
//! the auto-tuner baseline in `bench/table2` uses. A trace is therefore a
//! complete, self-contained schedule description: applying the same trace
//! to the same base function always yields the same scheduled function,
//! which is what makes both conformance shrinking and search memoization
//! sound.
//!
//! This module is the single home of the vocabulary ([`ScheduleOp`]), its
//! application under legality checking ([`apply_trace`]), its JSON codec
//! ([`op_to_json`] / [`op_from_json`]), and the canonical structural key
//! used to deduplicate search candidates ([`canonical_key`]).
//! `ft-conformance` re-exports all of it and layers proptest sampling on
//! top; `ft-autoschedule`'s search engine layers mutation on top.

use crate::{Schedule, ScheduleError};
use ft_ir::{find, AccessType, ForProperty, Func, MemType, ParallelScope, Stmt, StmtId, StmtKind};
use ft_trace::JsonVal;
use std::fmt::Write as _;

/// Largest constant element count [`ScheduleOp::SetMtype`] will promote to
/// `CpuStack`. The rule-based `auto_mem_type` promotes up to its target's
/// `reg_elems` (64 by default); the trace op allows a slightly larger
/// neighborhood so search can explore beyond the rule threshold while still
/// keeping promoted tensors L1-resident-sized.
pub const SET_MTYPE_MAX_ELEMS: i64 = 256;

/// One sampled schedule transformation.
///
/// Every variant except [`ScheduleOp::ParallelizeUnchecked`] goes through
/// `ft-schedule`, whose legality checks (backed by `ft-analysis` dependence
/// analysis) accept or reject it. `ParallelizeUnchecked` deliberately
/// *bypasses* the dependence check by mutating the IR directly — it exists
/// only for fault-injection tests proving the harness catches the class of
/// bug a dropped legality check would introduce.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScheduleOp {
    /// `split(loops[i], factor)`.
    Split {
        /// Pre-order loop index (modulo loop count).
        loop_idx: usize,
        /// Split factor.
        factor: i64,
    },
    /// `merge(loops[i], its only inner loop)`.
    Merge {
        /// Pre-order loop index.
        loop_idx: usize,
    },
    /// `reorder([inner, outer])` on the 2-deep nest rooted at `loops[i]`.
    Reorder {
        /// Pre-order loop index of the outer loop.
        loop_idx: usize,
    },
    /// `fuse(loops[i], loops[j])`.
    Fuse {
        /// First loop index.
        first_idx: usize,
        /// Second loop index.
        second_idx: usize,
    },
    /// `parallelize(loops[i], OpenMp)` — *with* the dependence check.
    Parallelize {
        /// Pre-order loop index.
        loop_idx: usize,
    },
    /// `vectorize(loops[i])`.
    Vectorize {
        /// Pre-order loop index.
        loop_idx: usize,
    },
    /// `unroll(loops[i])`.
    Unroll {
        /// Pre-order loop index.
        loop_idx: usize,
    },
    /// `cache(loops[i], input_params[j], CpuStack)`.
    Cache {
        /// Pre-order loop index of the scope.
        loop_idx: usize,
        /// Index into the function's `Input` tensor parameters.
        param_idx: usize,
    },
    /// `separate_tail(loops[i])`.
    SeparateTail {
        /// Pre-order loop index.
        loop_idx: usize,
    },
    /// `set_mtype(vardefs[i], CpuStack)`: promote a small CPU-resident
    /// local tensor onto the stack (register-class placement). Rejected
    /// unless the def's current space is `CpuHeap` and its constant element
    /// count is at most [`SET_MTYPE_MAX_ELEMS`] — the positional analogue
    /// of what `auto_mem_type` does on CPU targets.
    SetMtype {
        /// Pre-order index into the function's `VarDef` statements.
        def_idx: usize,
    },
    /// `as_lib(loops[i])`: replace a matmul-shaped nest with a vendor
    /// library call — the positional analogue of `auto_use_lib`.
    AsLib {
        /// Pre-order loop index.
        loop_idx: usize,
    },
    /// Fault injection: mark `loops[i]` OpenMP-parallel directly in the IR,
    /// skipping `parallelize`'s dependence check entirely.
    ParallelizeUnchecked {
        /// Pre-order loop index.
        loop_idx: usize,
    },
}

/// Pre-order list of all `For` statements.
pub fn loops_of(func: &Func) -> Vec<StmtId> {
    find::find_stmts(&func.body, &|s| matches!(s.kind, StmtKind::For { .. }))
        .iter()
        .map(|s| s.id)
        .collect()
}

/// Pre-order list of all `VarDef` names (`SetMtype` candidates).
pub fn vardefs_of(func: &Func) -> Vec<String> {
    find::find_stmts(&func.body, &|s| matches!(s.kind, StmtKind::VarDef { .. }))
        .iter()
        .filter_map(|s| match &s.kind {
            StmtKind::VarDef { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

/// The iterator name of loop `id`, if it exists.
fn iter_name(func: &Func, id: StmtId) -> Option<String> {
    find::find_stmts(&func.body, &|s| s.id == id)
        .first()
        .and_then(|s| match &s.kind {
            StmtKind::For { iter, .. } => Some(iter.clone()),
            _ => None,
        })
}

/// The `For` that is the *only* statement of `outer`'s body, if any.
fn direct_inner_for(func: &Func, outer: StmtId) -> Option<StmtId> {
    let outer_stmt = find::find_stmts(&func.body, &|s| s.id == outer);
    let StmtKind::For { body, .. } = &outer_stmt.first()?.kind else {
        return None;
    };
    let inner: &Stmt = match &body.kind {
        StmtKind::Block(v) if v.len() == 1 => &v[0],
        _ => body,
    };
    matches!(inner.kind, StmtKind::For { .. }).then(|| inner.id)
}

/// Names of the function's `Input` tensor parameters (cache candidates).
fn input_params(func: &Func) -> Vec<String> {
    func.params
        .iter()
        .filter(|p| p.atype == AccessType::Input && !p.shape.is_empty())
        .map(|p| p.name.clone())
        .collect()
}

fn set_parallel_unchecked(s: &mut Stmt, id: StmtId) -> bool {
    if s.id == id {
        if let StmtKind::For { property, .. } = &mut s.kind {
            *property = ForProperty::parallel(ParallelScope::OpenMp);
            return true;
        }
    }
    match &mut s.kind {
        StmtKind::Block(v) => v.iter_mut().any(|st| set_parallel_unchecked(st, id)),
        StmtKind::VarDef { body, .. } | StmtKind::For { body, .. } => {
            set_parallel_unchecked(body, id)
        }
        StmtKind::If {
            then, otherwise, ..
        } => {
            set_parallel_unchecked(then, id)
                || otherwise
                    .as_mut()
                    .is_some_and(|o| set_parallel_unchecked(o, id))
        }
        _ => false,
    }
}

/// Constant element count of the named `VarDef`, if its shape folds.
fn def_const_elems(func: &Func, name: &str) -> Option<i64> {
    let mut elems = None;
    func.body.walk(&mut |s| {
        if let StmtKind::VarDef { name: n, shape, .. } = &s.kind {
            if n == name && elems.is_none() {
                elems = shape
                    .iter()
                    .map(|e| ft_passes::const_fold_expr(e.clone()).as_int())
                    .try_fold(1i64, |acc, e| e.map(|v| acc.saturating_mul(v)));
            }
        }
    });
    elems
}

/// Current memory space of the named `VarDef`.
fn def_mtype(func: &Func, name: &str) -> Option<MemType> {
    let mut mt = None;
    func.body.walk(&mut |s| {
        if let StmtKind::VarDef { name: n, mtype, .. } = &s.kind {
            if n == name && mt.is_none() {
                mt = Some(*mtype);
            }
        }
    });
    mt
}

impl ScheduleOp {
    /// Apply this op to `sched`. `Err` means the legality checks rejected it
    /// (or its structural precondition did not hold); the schedule is
    /// unchanged in that case — `ft-schedule` is all-or-nothing.
    pub fn apply(&self, sched: &mut Schedule) -> Result<(), ScheduleError> {
        let loops = loops_of(sched.func());
        if loops.is_empty() {
            return Err(ScheduleError::NotFound("no loops left".to_string()));
        }
        let pick = |i: usize| loops[i % loops.len()];
        let structural =
            |m: &str| ScheduleError::Unsupported(format!("trace op precondition: {m}"));
        match *self {
            ScheduleOp::Split { loop_idx, factor } => {
                sched.split(pick(loop_idx), factor).map(|_| ())
            }
            ScheduleOp::Merge { loop_idx } => {
                let outer = pick(loop_idx);
                let inner = direct_inner_for(sched.func(), outer)
                    .ok_or_else(|| structural("no single inner loop to merge"))?;
                sched.merge(outer, inner).map(|_| ())
            }
            ScheduleOp::Reorder { loop_idx } => {
                let outer = pick(loop_idx);
                let inner = direct_inner_for(sched.func(), outer)
                    .ok_or_else(|| structural("no single inner loop to reorder"))?;
                let on = iter_name(sched.func(), outer)
                    .ok_or_else(|| structural("outer loop vanished"))?;
                let inn = iter_name(sched.func(), inner)
                    .ok_or_else(|| structural("inner loop vanished"))?;
                sched.reorder(&[&inn, &on])
            }
            ScheduleOp::Fuse {
                first_idx,
                second_idx,
            } => sched.fuse(pick(first_idx), pick(second_idx)).map(|_| ()),
            ScheduleOp::Parallelize { loop_idx } => {
                sched.parallelize(pick(loop_idx), ParallelScope::OpenMp)
            }
            ScheduleOp::Vectorize { loop_idx } => sched.vectorize(pick(loop_idx)),
            ScheduleOp::Unroll { loop_idx } => sched.unroll(pick(loop_idx)),
            ScheduleOp::Cache {
                loop_idx,
                param_idx,
            } => {
                let params = input_params(sched.func());
                if params.is_empty() {
                    return Err(structural("no input tensors to cache"));
                }
                let var = &params[param_idx % params.len()];
                sched
                    .cache(pick(loop_idx), var, MemType::CpuStack)
                    .map(|_| ())
            }
            ScheduleOp::SeparateTail { loop_idx } => {
                sched.separate_tail(pick(loop_idx)).map(|_| ())
            }
            ScheduleOp::SetMtype { def_idx } => {
                let defs = vardefs_of(sched.func());
                if defs.is_empty() {
                    return Err(structural("no local tensors to promote"));
                }
                let var = defs[def_idx % defs.len()].clone();
                if def_mtype(sched.func(), &var) != Some(MemType::CpuHeap) {
                    return Err(structural("def is not CPU-heap resident"));
                }
                match def_const_elems(sched.func(), &var) {
                    Some(e) if e <= SET_MTYPE_MAX_ELEMS => {
                        sched.set_mtype(&var, MemType::CpuStack)
                    }
                    Some(_) => Err(structural("tensor too large for stack placement")),
                    None => Err(structural("tensor size is not a compile-time constant")),
                }
            }
            ScheduleOp::AsLib { loop_idx } => sched.as_lib(pick(loop_idx)),
            ScheduleOp::ParallelizeUnchecked { loop_idx } => {
                let id = pick(loop_idx);
                let mut func = sched.func().clone();
                if !set_parallel_unchecked(&mut func.body, id) {
                    return Err(structural("loop to force-parallelize vanished"));
                }
                let sink = sched.sink().cloned();
                *sched = Schedule::new(func);
                sched.set_sink(sink);
                Ok(())
            }
        }
    }

    /// Short op name used in JSON repros and the search payoff table.
    pub fn op_name(&self) -> &'static str {
        match self {
            ScheduleOp::Split { .. } => "split",
            ScheduleOp::Merge { .. } => "merge",
            ScheduleOp::Reorder { .. } => "reorder",
            ScheduleOp::Fuse { .. } => "fuse",
            ScheduleOp::Parallelize { .. } => "parallelize",
            ScheduleOp::Vectorize { .. } => "vectorize",
            ScheduleOp::Unroll { .. } => "unroll",
            ScheduleOp::Cache { .. } => "cache",
            ScheduleOp::SeparateTail { .. } => "separate_tail",
            ScheduleOp::SetMtype { .. } => "set_mtype",
            ScheduleOp::AsLib { .. } => "as_lib",
            ScheduleOp::ParallelizeUnchecked { .. } => "parallelize_unchecked",
        }
    }
}

/// Apply `trace` to a clone of `base`, keeping only accepted ops.
///
/// Returns the scheduled function and the accepted subsequence. Because
/// rejected ops leave the schedule untouched, replaying just the accepted
/// subsequence reproduces the identical function — this is what makes both
/// conformance shrinking and search-trace canonicalization sound.
pub fn apply_trace(base: &Func, trace: &[ScheduleOp]) -> (Func, Vec<ScheduleOp>) {
    apply_trace_traced(base, trace, None)
}

/// [`apply_trace`] with a schedule decision log: when `sink` is `Some`,
/// every op attempt — accepted or rejected, with the rejecting dependences —
/// is recorded, so a repro can explain *why* its trace looks the way it does.
pub fn apply_trace_traced(
    base: &Func,
    trace: &[ScheduleOp],
    sink: Option<&ft_trace::TraceSink>,
) -> (Func, Vec<ScheduleOp>) {
    let mut sched = Schedule::new(base.clone());
    sched.set_sink(sink.cloned());
    let mut accepted = Vec::new();
    for op in trace {
        if op.apply(&mut sched).is_ok() {
            accepted.push(op.clone());
        }
    }
    (sched.into_func(), accepted)
}

/// FNV-1a over the printed function (streamed, never held as a `String`):
/// the canonical structural key of a scheduled program. Two traces that
/// produce the same function (e.g. a trace plus a rejected op, or two op
/// orders with the same effect) map to the same key, which is what search
/// memoization dedupes on.
pub fn canonical_key(func: &Func) -> u64 {
    let mut h = ft_ir::Fnv1a::new();
    let _ = write!(h, "{func}");
    h.finish()
}

fn num(n: u64) -> JsonVal {
    JsonVal::Num(n as f64)
}

/// Serialize one op to its JSON repro form.
pub fn op_to_json(op: &ScheduleOp) -> JsonVal {
    let mut fields = vec![("op".to_string(), JsonVal::Str(op.op_name().to_string()))];
    match *op {
        ScheduleOp::Split { loop_idx, factor } => {
            fields.push(("loop".to_string(), num(loop_idx as u64)));
            fields.push(("factor".to_string(), num(factor as u64)));
        }
        ScheduleOp::Fuse {
            first_idx,
            second_idx,
        } => {
            fields.push(("first".to_string(), num(first_idx as u64)));
            fields.push(("second".to_string(), num(second_idx as u64)));
        }
        ScheduleOp::Cache {
            loop_idx,
            param_idx,
        } => {
            fields.push(("loop".to_string(), num(loop_idx as u64)));
            fields.push(("param".to_string(), num(param_idx as u64)));
        }
        ScheduleOp::SetMtype { def_idx } => {
            fields.push(("def".to_string(), num(def_idx as u64)));
        }
        ScheduleOp::Merge { loop_idx }
        | ScheduleOp::Reorder { loop_idx }
        | ScheduleOp::Parallelize { loop_idx }
        | ScheduleOp::Vectorize { loop_idx }
        | ScheduleOp::Unroll { loop_idx }
        | ScheduleOp::SeparateTail { loop_idx }
        | ScheduleOp::AsLib { loop_idx }
        | ScheduleOp::ParallelizeUnchecked { loop_idx } => {
            fields.push(("loop".to_string(), num(loop_idx as u64)));
        }
    }
    JsonVal::Obj(fields)
}

/// Parse one op from its JSON repro form.
///
/// # Errors
///
/// A human-readable description of the malformed field.
pub fn op_from_json(v: &JsonVal) -> Result<ScheduleOp, String> {
    let name = v
        .get("op")
        .and_then(JsonVal::as_str)
        .ok_or("op object missing `op` field")?;
    let field = |key: &str| -> Result<usize, String> {
        v.get(key)
            .and_then(JsonVal::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("op `{name}` missing `{key}`"))
    };
    Ok(match name {
        "split" => ScheduleOp::Split {
            loop_idx: field("loop")?,
            factor: field("factor")? as i64,
        },
        "merge" => ScheduleOp::Merge {
            loop_idx: field("loop")?,
        },
        "reorder" => ScheduleOp::Reorder {
            loop_idx: field("loop")?,
        },
        "fuse" => ScheduleOp::Fuse {
            first_idx: field("first")?,
            second_idx: field("second")?,
        },
        "parallelize" => ScheduleOp::Parallelize {
            loop_idx: field("loop")?,
        },
        "vectorize" => ScheduleOp::Vectorize {
            loop_idx: field("loop")?,
        },
        "unroll" => ScheduleOp::Unroll {
            loop_idx: field("loop")?,
        },
        "cache" => ScheduleOp::Cache {
            loop_idx: field("loop")?,
            param_idx: field("param")?,
        },
        "separate_tail" => ScheduleOp::SeparateTail {
            loop_idx: field("loop")?,
        },
        "set_mtype" => ScheduleOp::SetMtype {
            def_idx: field("def")?,
        },
        "as_lib" => ScheduleOp::AsLib {
            loop_idx: field("loop")?,
        },
        "parallelize_unchecked" => ScheduleOp::ParallelizeUnchecked {
            loop_idx: field("loop")?,
        },
        other => return Err(format!("unknown op `{other}`")),
    })
}

/// Serialize a whole trace as a JSON array.
pub fn trace_to_json(trace: &[ScheduleOp]) -> JsonVal {
    JsonVal::Arr(trace.iter().map(op_to_json).collect())
}

/// Parse a whole trace from a JSON array.
///
/// # Errors
///
/// The first malformed op's description.
pub fn trace_from_json(v: &JsonVal) -> Result<Vec<ScheduleOp>, String> {
    v.as_arr()
        .ok_or("trace is not an array")?
        .iter()
        .map(op_from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    fn two_nests() -> Func {
        Func::new("f")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(block([
                var_def(
                    "t",
                    [8],
                    DataType::F32,
                    MemType::CpuHeap,
                    block([
                        store("t", [0], 1.0f32),
                        for_("i", 0, 64, store("y", [var("i")], load("x", [var("i")]) * 2.0f32)),
                    ]),
                ),
            ]))
    }

    #[test]
    fn canonical_key_is_fnv1a_of_the_printed_function() {
        let f = two_nests();
        assert_eq!(canonical_key(&f), ft_ir::fnv1a(&f.to_string().into_bytes()));
    }

    #[test]
    fn set_mtype_promotes_small_heap_defs_only() {
        let f = two_nests();
        let mut sched = Schedule::new(f.clone());
        ScheduleOp::SetMtype { def_idx: 0 }.apply(&mut sched).unwrap();
        let defs = vardefs_of(sched.func());
        assert_eq!(def_mtype(sched.func(), &defs[0]), Some(MemType::CpuStack));
        // A second promotion is rejected: the def is no longer heap-resident.
        assert!(ScheduleOp::SetMtype { def_idx: 0 }.apply(&mut sched).is_err());
    }

    #[test]
    fn set_mtype_rejects_large_tensors() {
        let f = Func::new("f")
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(var_def(
                "big",
                [SET_MTYPE_MAX_ELEMS + 1],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    store("big", [0], 1.0f32),
                    for_("i", 0, 4, store("y", [var("i")], load("big", [0]))),
                ]),
            ));
        let mut sched = Schedule::new(f);
        assert!(ScheduleOp::SetMtype { def_idx: 0 }.apply(&mut sched).is_err());
    }

    #[test]
    fn trace_json_roundtrips_every_op() {
        let trace = vec![
            ScheduleOp::Split { loop_idx: 3, factor: 8 },
            ScheduleOp::Merge { loop_idx: 1 },
            ScheduleOp::Reorder { loop_idx: 0 },
            ScheduleOp::Fuse { first_idx: 2, second_idx: 5 },
            ScheduleOp::Parallelize { loop_idx: 4 },
            ScheduleOp::Vectorize { loop_idx: 6 },
            ScheduleOp::Unroll { loop_idx: 7 },
            ScheduleOp::Cache { loop_idx: 1, param_idx: 2 },
            ScheduleOp::SeparateTail { loop_idx: 9 },
            ScheduleOp::SetMtype { def_idx: 1 },
            ScheduleOp::AsLib { loop_idx: 2 },
            ScheduleOp::ParallelizeUnchecked { loop_idx: 0 },
        ];
        let json = trace_to_json(&trace);
        let back = trace_from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn canonical_key_collapses_rejected_ops() {
        let f = two_nests();
        let trace = vec![ScheduleOp::Parallelize { loop_idx: 0 }];
        // A trailing op that is always rejected must not change the key.
        let mut with_reject = trace.clone();
        with_reject.push(ScheduleOp::Merge { loop_idx: 0 });
        let (f1, _) = apply_trace(&f, &trace);
        let (f2, _) = apply_trace(&f, &with_reject);
        assert_eq!(canonical_key(&f1), canonical_key(&f2));
        let (f3, _) = apply_trace(&f, &[]);
        assert_ne!(canonical_key(&f1), canonical_key(&f3));
    }
}
