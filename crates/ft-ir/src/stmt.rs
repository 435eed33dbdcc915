//! Statements of the FreeTensor IR: the stack-scoped AST.

use crate::expr::Expr;
use crate::types::{AccessType, DataType, MemType, ParallelScope};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A stable identity for a statement node, preserved across functional
/// rewrites so schedules can keep addressing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u64);

static NEXT_STMT_ID: AtomicU64 = AtomicU64::new(1);

impl StmtId {
    /// Allocate a fresh, process-unique id.
    pub fn fresh() -> StmtId {
        StmtId(NEXT_STMT_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The reduction operator of a [`StmtKind::ReduceTo`] statement.
///
/// Reductions are first-class so that WAW dependences between reductions with
/// the same commutative-associative operator can be ignored during legality
/// checking (paper Fig. 12(c)) and so random-access reductions can be lowered
/// to atomics (paper Fig. 13(e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `x += v`
    Add,
    /// `x *= v`
    Mul,
    /// `x = min(x, v)`
    Min,
    /// `x = max(x, v)`
    Max,
}

impl ReduceOp {
    /// DSL spelling.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Add => "+=",
            ReduceOp::Mul => "*=",
            ReduceOp::Min => "min=",
            ReduceOp::Max => "max=",
        }
    }

    /// Identity element of the reduction for a given element type. Integer
    /// extrema are the element type's own (a 64-bit extremum stored to an
    /// `i32` tensor truncates to −1/0 in generated C).
    pub fn identity(self, dtype: DataType) -> Expr {
        let (int_min, int_max) = match dtype {
            DataType::I32 => (i64::from(i32::MIN), i64::from(i32::MAX)),
            _ => (i64::MIN, i64::MAX),
        };
        match (self, dtype.is_float()) {
            (ReduceOp::Add, true) => Expr::FloatConst(0.0),
            (ReduceOp::Add, false) => Expr::IntConst(0),
            (ReduceOp::Mul, true) => Expr::FloatConst(1.0),
            (ReduceOp::Mul, false) => Expr::IntConst(1),
            (ReduceOp::Min, true) => Expr::FloatConst(f64::INFINITY),
            (ReduceOp::Min, false) => Expr::IntConst(int_max),
            (ReduceOp::Max, true) => Expr::FloatConst(f64::NEG_INFINITY),
            (ReduceOp::Max, false) => Expr::IntConst(int_min),
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduling-relevant attributes of a `For` loop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForProperty {
    /// Hardware mapping of the loop's iterations.
    pub parallel: ParallelScope,
    /// Fully unroll the loop during lowering.
    pub unroll: bool,
    /// Unroll and interleave statements from each iteration (paper `blend`).
    pub blend: bool,
    /// Implement the loop with vector instructions.
    pub vectorize: bool,
}

impl ForProperty {
    /// A serial loop with no special attributes.
    pub fn serial() -> Self {
        Self::default()
    }

    /// A loop parallelized over the given scope.
    pub fn parallel(scope: ParallelScope) -> Self {
        ForProperty {
            parallel: scope,
            ..Self::default()
        }
    }
}

/// A statement node: a [`StmtKind`] plus stable identity and optional label.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Stable identity (survives rewrites).
    pub id: StmtId,
    /// Optional user label for schedule targeting (e.g. `"Li"`).
    pub label: Option<String>,
    /// The statement proper.
    pub kind: StmtKind,
}

/// The statement variants of the IR.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// A sequence of statements.
    Block(Vec<Stmt>),
    /// Define a tensor whose lifetime is exactly `body` (stack scoping).
    VarDef {
        /// Tensor name (unique within its scope).
        name: String,
        /// One extent expression per dimension; empty for a scalar.
        shape: Vec<Expr>,
        /// Element type.
        dtype: DataType,
        /// Memory space.
        mtype: MemType,
        /// Role of the tensor (function-local defs use [`AccessType::Cache`]).
        atype: AccessType,
        /// The sub-tree in which the tensor is alive.
        body: Box<Stmt>,
    },
    /// `for iter in begin..end { body }` with unit step.
    For {
        /// Iterator variable name.
        iter: String,
        /// Inclusive lower bound.
        begin: Expr,
        /// Exclusive upper bound.
        end: Expr,
        /// Scheduling attributes.
        property: ForProperty,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// Two-armed conditional; `otherwise` may be absent.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond` holds.
        then: Box<Stmt>,
        /// Taken otherwise (optional).
        otherwise: Option<Box<Stmt>>,
    },
    /// Plain assignment of one tensor element: `var[indices] = value`.
    Store {
        /// Target tensor.
        var: String,
        /// One index per dimension (empty for scalars).
        indices: Vec<Expr>,
        /// Right-hand side.
        value: Expr,
    },
    /// Reduction into one tensor element: `var[indices] op= value`.
    ReduceTo {
        /// Target tensor.
        var: String,
        /// One index per dimension (empty for scalars).
        indices: Vec<Expr>,
        /// Reduction operator.
        op: ReduceOp,
        /// Value being folded in.
        value: Expr,
        /// Lower to an atomic update (set when parallelizing random-access
        /// reductions, paper Fig. 13(e)).
        atomic: bool,
    },
    /// Call a hand-optimized external library kernel (`as_lib`,
    /// paper Table 1 "Others"). Arguments are tensor names.
    LibCall {
        /// Kernel name, e.g. `"matmul"`.
        kernel: String,
        /// Input tensor names.
        inputs: Vec<String>,
        /// Output tensor names.
        outputs: Vec<String>,
        /// Integer attributes of the call (e.g. matmul dimensions `m, k, n`).
        attrs: Vec<i64>,
    },
    /// No-op placeholder (result of removing a statement).
    Empty,
}

impl Stmt {
    /// Wrap a [`StmtKind`] with a fresh id and no label.
    pub fn new(kind: StmtKind) -> Stmt {
        Stmt {
            id: StmtId::fresh(),
            label: None,
            kind,
        }
    }

    /// Attach a schedule-targeting label.
    pub fn with_label(mut self, label: impl Into<String>) -> Stmt {
        self.label = Some(label.into());
        self
    }

    /// Rebuild this node with the same id/label but a new kind.
    pub fn same_id(&self, kind: StmtKind) -> Stmt {
        Stmt {
            id: self.id,
            label: self.label.clone(),
            kind,
        }
    }

    /// Whether the statement is the no-op.
    pub fn is_empty(&self) -> bool {
        match &self.kind {
            StmtKind::Empty => true,
            StmtKind::Block(v) => v.iter().all(Stmt::is_empty),
            _ => false,
        }
    }

    /// The direct child statements of this node.
    pub fn children(&self) -> Vec<&Stmt> {
        match &self.kind {
            StmtKind::Block(v) => v.iter().collect(),
            StmtKind::VarDef { body, .. } | StmtKind::For { body, .. } => vec![body],
            StmtKind::If {
                then, otherwise, ..
            } => {
                let mut v = vec![then.as_ref()];
                if let Some(o) = otherwise {
                    v.push(o.as_ref());
                }
                v
            }
            _ => vec![],
        }
    }

    /// Depth-first pre-order iteration over all statements in the sub-tree.
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// Total number of statement nodes in the sub-tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Structural equality ignoring ids and labels.
    pub fn same_structure(&self, other: &Stmt) -> bool {
        match (&self.kind, &other.kind) {
            (StmtKind::Block(a), StmtKind::Block(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_structure(y))
            }
            (
                StmtKind::VarDef {
                    name: n1,
                    shape: s1,
                    dtype: d1,
                    mtype: m1,
                    atype: a1,
                    body: b1,
                },
                StmtKind::VarDef {
                    name: n2,
                    shape: s2,
                    dtype: d2,
                    mtype: m2,
                    atype: a2,
                    body: b2,
                },
            ) => n1 == n2 && s1 == s2 && d1 == d2 && m1 == m2 && a1 == a2 && b1.same_structure(b2),
            (
                StmtKind::For {
                    iter: i1,
                    begin: bg1,
                    end: e1,
                    property: p1,
                    body: b1,
                },
                StmtKind::For {
                    iter: i2,
                    begin: bg2,
                    end: e2,
                    property: p2,
                    body: b2,
                },
            ) => i1 == i2 && bg1 == bg2 && e1 == e2 && p1 == p2 && b1.same_structure(b2),
            (
                StmtKind::If {
                    cond: c1,
                    then: t1,
                    otherwise: o1,
                },
                StmtKind::If {
                    cond: c2,
                    then: t2,
                    otherwise: o2,
                },
            ) => {
                c1 == c2
                    && t1.same_structure(t2)
                    && match (o1, o2) {
                        (None, None) => true,
                        (Some(x), Some(y)) => x.same_structure(y),
                        _ => false,
                    }
            }
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::print_stmt(f, self, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn ids_are_unique() {
        let a = Stmt::new(StmtKind::Empty);
        let b = Stmt::new(StmtKind::Empty);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn same_id_preserves_identity() {
        let a = Stmt::new(StmtKind::Empty).with_label("x");
        let b = a.same_id(StmtKind::Block(vec![]));
        assert_eq!(a.id, b.id);
        assert_eq!(b.label.as_deref(), Some("x"));
    }

    #[test]
    fn reduce_identity_values() {
        assert_eq!(
            ReduceOp::Add.identity(DataType::F32),
            Expr::FloatConst(0.0)
        );
        assert_eq!(ReduceOp::Mul.identity(DataType::I32), Expr::IntConst(1));
        assert_eq!(
            ReduceOp::Max.identity(DataType::F64),
            Expr::FloatConst(f64::NEG_INFINITY)
        );
        assert_eq!(
            ReduceOp::Min.identity(DataType::I64),
            Expr::IntConst(i64::MAX)
        );
    }

    #[test]
    fn walk_and_size() {
        let s = for_(
            "i",
            0,
            10,
            block([
                store("a", [var("i")], 0.0f32),
                reduce("b", scalar(), ReduceOp::Add, var("i")),
            ]),
        );
        assert_eq!(s.size(), 4); // for, block, store, reduce
        let mut stores = 0;
        s.walk(&mut |st| {
            if matches!(st.kind, StmtKind::Store { .. }) {
                stores += 1;
            }
        });
        assert_eq!(stores, 1);
    }

    #[test]
    fn structural_equality_ignores_ids() {
        let a = for_("i", 0, 10, store("a", [var("i")], 1.0f32));
        let b = for_("i", 0, 10, store("a", [var("i")], 1.0f32));
        assert_ne!(a.id, b.id);
        assert!(a.same_structure(&b));
        let c = for_("i", 0, 11, store("a", [var("i")], 1.0f32));
        assert!(!a.same_structure(&c));
    }

    #[test]
    fn empty_detection() {
        assert!(Stmt::new(StmtKind::Empty).is_empty());
        assert!(block([Stmt::new(StmtKind::Empty)]).is_empty());
        assert!(!store("a", scalar(), 0.0f32).is_empty());
    }
}
