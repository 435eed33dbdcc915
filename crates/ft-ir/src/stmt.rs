//! Statements of the FreeTensor IR: the stack-scoped AST.

use crate::expr::{BinaryOp, Expr};
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

    /// The binary operator of the same name: `x op= v` is `x = x op v`.
    pub fn binary(self) -> BinaryOp {
        match self {
            ReduceOp::Add => BinaryOp::Add,
            ReduceOp::Mul => BinaryOp::Mul,
            ReduceOp::Min => BinaryOp::Min,
            ReduceOp::Max => BinaryOp::Max,
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

    /// The direct child statements of this node, borrowed in place.
    pub fn children(&self) -> impl Iterator<Item = &Stmt> {
        let (many, a, b): (&[Stmt], Option<&Stmt>, Option<&Stmt>) = match &self.kind {
            StmtKind::Block(v) => (v, None, None),
            StmtKind::VarDef { body, .. } | StmtKind::For { body, .. } => (&[], Some(body), None),
            StmtKind::If {
                then, otherwise, ..
            } => (&[], Some(then), otherwise.as_deref()),
            _ => (&[], None, None),
        };
        many.iter().chain(a).chain(b)
    }

    /// Depth-first pre-order iteration over all statements in the sub-tree.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
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

    /// The expressions of this node itself (loop bounds, condition, shape,
    /// indices and value), not those of its children.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (a, b, rest): (Option<&Expr>, Option<&Expr>, &[Expr]) = match &self.kind {
            StmtKind::For { begin, end, .. } => (Some(begin), Some(end), &[]),
            StmtKind::If { cond, .. } => (Some(cond), None, &[]),
            StmtKind::VarDef { shape, .. } => (None, None, shape),
            StmtKind::Store { indices, value, .. } | StmtKind::ReduceTo { indices, value, .. } => {
                (Some(value), None, indices)
            }
            _ => (None, None, &[]),
        };
        a.into_iter().chain(b).chain(rest)
    }

    /// Move this statement out, leaving an empty statement of the same id
    /// in its place (no fresh id is drawn).
    pub fn take(&mut self) -> Stmt {
        let hole = Stmt {
            id: self.id,
            label: None,
            kind: StmtKind::Empty,
        };
        std::mem::replace(self, hole)
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
        assert_eq!(ReduceOp::Add.identity(DataType::F32), Expr::FloatConst(0.0));
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
    fn walk_reaches_nested_expressions() {
        let s = for_(
            "i",
            0,
            var("n"),
            if_(
                var("i").lt(var("n")),
                block([
                    store(
                        "y",
                        [var("i")],
                        load("x", [var("i")]) + load("x", [var("i") + 1]),
                    ),
                    reduce("acc", scalar(), ReduceOp::Add, load("y", [var("i")])),
                ]),
            ),
        );
        let mut loads = 0;
        s.walk(&mut |st| {
            st.exprs()
                .for_each(|e| e.walk(&mut |n| loads += usize::from(matches!(n, Expr::Load { .. }))))
        });
        assert_eq!(loads, 3);
    }

    #[test]
    fn walk_reaches_nested_statements() {
        let s = for_(
            "i",
            0,
            4,
            for_("j", 0, 4, store("a", [var("i"), var("j")], 0.0f32)),
        );
        let mut fors = 0;
        s.walk(&mut |st| fors += usize::from(matches!(st.kind, StmtKind::For { .. })));
        assert_eq!(fors, 2);
    }

    #[test]
    fn own_expressions_and_take() {
        let mut s = for_("i", 0, var("n"), store("a", [var("i")], 1.0f32));
        let own: Vec<&Expr> = s.exprs().collect();
        assert_eq!(own, [&Expr::IntConst(0), &var("n")]);
        let id = s.id;
        let taken = s.take();
        assert_eq!((taken.id, s.id), (id, id));
        assert!(s.is_empty() && matches!(taken.kind, StmtKind::For { .. }));
    }

    #[test]
    fn empty_detection() {
        assert!(Stmt::new(StmtKind::Empty).is_empty());
        assert!(block([Stmt::new(StmtKind::Empty)]).is_empty());
        assert!(!store("a", scalar(), 0.0f32).is_empty());
    }
}
