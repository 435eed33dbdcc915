//! Collection of tensor accesses with their full static context.

use ft_ir::{Expr, Func, ReduceOp, Stmt, StmtId, StmtKind};
use std::collections::HashMap;

/// How an access touches its tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read (`Load`).
    Read,
    /// A plain write (`Store`).
    Write,
    /// A read-modify-write with a commutative-associative operator.
    Reduce(ReduceOp),
}

impl AccessKind {
    /// Whether the access writes its tensor.
    pub fn writes(self) -> bool {
        !matches!(self, AccessKind::Read)
    }

    /// Whether the access reads its tensor.
    pub fn reads(self) -> bool {
        !matches!(self, AccessKind::Write)
    }
}

/// One enclosing loop of an access (borrowed from the function).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopCtx<'f> {
    /// Id of the `For` statement.
    pub id: StmtId,
    /// Iterator name.
    pub iter: &'f str,
    /// Inclusive lower bound.
    pub begin: &'f Expr,
    /// Exclusive upper bound.
    pub end: &'f Expr,
}

/// A single tensor access inside a function (borrowed from it).
#[derive(Debug, Clone)]
pub struct Access<'f> {
    /// Id of the statement containing the access.
    pub stmt: StmtId,
    /// Tensor name.
    pub var: &'f str,
    /// The definition the name resolves to at this point (the IR is
    /// stack-scoped): the id of the enclosing `VarDef` that binds it, or
    /// `None` for a function parameter. Two accesses touch the same tensor
    /// only when both `var` and `def` agree.
    pub def: Option<StmtId>,
    /// Subscript expressions (empty for scalars).
    pub indices: &'f [Expr],
    /// Read / write / reduce.
    pub kind: AccessKind,
    /// Enclosing loops, outermost first.
    pub loops: Vec<LoopCtx<'f>>,
    /// Enclosing branch conditions; `(cond, taken)` where `taken == false`
    /// means the access is in the `else` arm.
    pub conds: Vec<(&'f Expr, bool)>,
    /// Pre-order position of the containing statement, for syntactic
    /// ordering of instances with equal loop iterations.
    pub pos: usize,
}

/// All accesses of a function plus per-tensor scope information.
#[derive(Debug, Clone, Default)]
pub struct AccessInfo<'f> {
    /// Every access, in pre-order.
    pub accesses: Vec<Access<'f>>,
    /// For each `VarDef` (keyed by its id, [`Access::def`]): the ids of the
    /// loops *containing* it (dependences on the tensor cannot be carried by
    /// these loops — each iteration sees a fresh incarnation; paper
    /// Fig. 12(d)).
    pub def_inside_loops: HashMap<StmtId, Vec<StmtId>>,
}

impl AccessInfo<'_> {
    /// The loops containing the definition `a` is bound to; `None` for a
    /// parameter (one incarnation for the whole call).
    pub fn def_loops(&self, a: &Access) -> Option<&[StmtId]> {
        self.def_inside_loops.get(&a.def?).map(Vec::as_slice)
    }
}

struct Collector<'f> {
    loops: Vec<LoopCtx<'f>>,
    conds: Vec<(&'f Expr, bool)>,
    /// The `VarDef`s in scope, innermost last.
    scope: Vec<(&'f str, StmtId)>,
    pos: usize,
    info: AccessInfo<'f>,
}

impl<'f> Collector<'f> {
    fn record(&mut self, stmt: StmtId, var: &'f str, indices: &'f [Expr], kind: AccessKind) {
        let def = self
            .scope
            .iter()
            .rev()
            .find(|(n, _)| *n == var)
            .map(|(_, id)| *id);
        self.info.accesses.push(Access {
            stmt,
            var,
            def,
            indices,
            kind,
            loops: self.loops.clone(),
            conds: self.conds.clone(),
            pos: self.pos,
        });
    }

    fn record_expr_reads(&mut self, stmt: StmtId, e: &'f Expr) {
        match e {
            Expr::Load { var, indices } => {
                self.record(stmt, var, indices, AccessKind::Read);
                for i in indices {
                    self.record_expr_reads(stmt, i);
                }
            }
            Expr::Unary { a, .. } | Expr::Cast { a, .. } => self.record_expr_reads(stmt, a),
            Expr::Binary { a, b, .. } => {
                self.record_expr_reads(stmt, a);
                self.record_expr_reads(stmt, b);
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                self.record_expr_reads(stmt, cond);
                self.record_expr_reads(stmt, then);
                self.record_expr_reads(stmt, otherwise);
            }
            _ => {}
        }
    }

    fn walk(&mut self, s: &'f Stmt) {
        self.pos += 1;
        let my_pos = self.pos;
        match &s.kind {
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.walk(st);
                }
            }
            StmtKind::VarDef {
                name, shape, body, ..
            } => {
                // The extents are read where the def stands, before its
                // name is bound.
                for e in shape {
                    self.record_expr_reads(s.id, e);
                }
                self.info
                    .def_inside_loops
                    .insert(s.id, self.loops.iter().map(|l| l.id).collect());
                self.scope.push((name, s.id));
                self.walk(body);
                self.scope.pop();
            }
            StmtKind::For {
                iter,
                begin,
                end,
                body,
                ..
            } => {
                self.record_expr_reads(s.id, begin);
                self.record_expr_reads(s.id, end);
                self.loops.push(LoopCtx {
                    id: s.id,
                    iter,
                    begin,
                    end,
                });
                self.walk(body);
                self.loops.pop();
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                self.record_expr_reads(s.id, cond);
                self.conds.push((cond, true));
                self.walk(then);
                self.conds.pop();
                if let Some(o) = otherwise {
                    self.conds.push((cond, false));
                    self.walk(o);
                    self.conds.pop();
                }
            }
            StmtKind::Store {
                var,
                indices,
                value,
            } => {
                self.pos = my_pos;
                for i in indices {
                    self.record_expr_reads(s.id, i);
                }
                self.record_expr_reads(s.id, value);
                self.record(s.id, var, indices, AccessKind::Write);
            }
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                ..
            } => {
                for i in indices {
                    self.record_expr_reads(s.id, i);
                }
                self.record_expr_reads(s.id, value);
                self.record(s.id, var, indices, AccessKind::Reduce(*op));
            }
            StmtKind::LibCall {
                inputs, outputs, ..
            } => {
                // A library call touches whole tensors with unknown (non-affine)
                // subscripts: model each as a 0-subscript access which the
                // dependence engine treats as "may alias any element".
                for i in inputs {
                    self.record(s.id, i, &[], AccessKind::Read);
                }
                for o in outputs {
                    self.record(s.id, o, &[], AccessKind::Write);
                }
            }
            StmtKind::Empty => {}
        }
    }
}

/// Collect every access of the function body with its static context.
pub fn collect_accesses(func: &Func) -> AccessInfo<'_> {
    let mut c = Collector {
        loops: Vec::new(),
        conds: Vec::new(),
        scope: Vec::new(),
        pos: 0,
        info: AccessInfo::default(),
    };
    c.walk(&func.body);
    c.info
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::DataType;

    fn example() -> Func {
        // for i in 0..n:
        //   t = create_var((), f32)
        //   if i < m:
        //     t[] = x[i]
        //     y[i] += t[]
        Func::new("f")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .size_param("m")
            .body(for_(
                "i",
                0,
                var("n"),
                var_def(
                    "t",
                    ft_ir::builder::scalar(),
                    DataType::F32,
                    MemType::CpuStack,
                    if_(
                        var("i").lt(var("m")),
                        block([
                            store("t", scalar(), load("x", [var("i")])),
                            reduce("y", [var("i")], ReduceOp::Add, load("t", scalar())),
                        ]),
                    ),
                ),
            ))
    }

    #[test]
    fn collects_all_accesses_with_context() {
        let f = example();
        let info = collect_accesses(&f);
        // x read, t write, t read, y reduce, plus loop-bound read of n? (n is
        // a scalar var, not a Load) => 4 accesses.
        assert_eq!(info.accesses.len(), 4);
        let y = info
            .accesses
            .iter()
            .find(|a| a.var == "y")
            .expect("y access");
        assert!(matches!(y.kind, AccessKind::Reduce(ReduceOp::Add)));
        assert_eq!(y.loops.len(), 1);
        assert_eq!(y.loops[0].iter, "i");
        assert_eq!(y.conds.len(), 1);
        assert!(y.conds[0].1);
    }

    #[test]
    fn accesses_bind_to_the_innermost_def_of_their_name() {
        // var t { t[] = x[0]; var t { t[] = 1 }; y[0] = t[] }
        let f = Func::new("g")
            .param("x", [1], DataType::F32, AccessType::Input)
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                scalar(),
                DataType::F32,
                MemType::CpuHeap,
                block([
                    store("t", scalar(), load("x", [0])),
                    var_def(
                        "t",
                        scalar(),
                        DataType::F32,
                        MemType::CpuHeap,
                        store("t", scalar(), 1.0f32),
                    ),
                    store("y", [0], load("t", scalar())),
                ]),
            ));
        let info = collect_accesses(&f);
        let defs: Vec<_> = info
            .accesses
            .iter()
            .filter(|a| a.var == "t")
            .map(|a| a.def)
            .collect();
        assert_eq!(defs.len(), 3);
        assert_eq!(defs[0], defs[2]); // the outer t, before and after the inner def
        assert_ne!(defs[0], defs[1]);
        assert!(defs.iter().all(Option::is_some));
    }

    #[test]
    fn a_def_reads_its_extents_outside_its_scope() {
        // for i { var t[n[i]] { t[0] = 1 } }: `n[i]` is read by the def,
        // under `i`, bound to the parameter `n`.
        let f = Func::new("h")
            .param("n", [4], DataType::I64, AccessType::Input)
            .body(for_(
                "i",
                0,
                4,
                var_def(
                    "n",
                    [load("n", [var("i")])],
                    DataType::F32,
                    MemType::CpuHeap,
                    store("n", [0], 1.0f32),
                ),
            ));
        let info = collect_accesses(&f);
        let read = &info.accesses[0];
        assert_eq!(
            (read.var, read.kind, read.def),
            ("n", AccessKind::Read, None)
        );
        assert_eq!(read.loops.len(), 1);
        assert!(info.accesses[1].def.is_some());
    }

    #[test]
    fn def_scope_is_recorded() {
        let f = example();
        let info = collect_accesses(&f);
        let t = info.accesses.iter().find(|a| a.var == "t").unwrap();
        assert_eq!(info.def_loops(t).map(<[_]>::len), Some(1)); // inside the i loop
        let x = info.accesses.iter().find(|a| a.var == "x").unwrap();
        assert_eq!(info.def_loops(x), None); // a parameter
    }

    #[test]
    fn pos_orders_statements() {
        let f = example();
        let info = collect_accesses(&f);
        let t_write = info
            .accesses
            .iter()
            .find(|a| a.var == "t" && a.kind.writes())
            .unwrap();
        let t_read = info
            .accesses
            .iter()
            .find(|a| a.var == "t" && a.kind == AccessKind::Read)
            .unwrap();
        assert!(t_write.pos < t_read.pos);
    }
}
