//! Surface AST of the textual DSL (before inlining and partial evaluation).

use ft_ir::{AccessType, DataType, MemType};

/// A parsed module: an ordered set of function definitions.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions, in source order.
    pub funcs: Vec<SFunc>,
}

impl Module {
    /// Find a function by name. The *last* definition wins.
    pub fn find(&self, name: &str) -> Option<&SFunc> {
        self.funcs.iter().rev().find(|f| f.name == name)
    }
}

/// A surface function definition.
#[derive(Debug, Clone)]
pub struct SFunc {
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<SParam>,
    /// Body statements.
    pub body: Vec<SStmt>,
    /// Source line of the `def`.
    pub line: usize,
}

/// A surface parameter.
#[derive(Debug, Clone)]
pub enum SParam {
    /// A typed tensor parameter: `x: f32[n, m] @ gpu in`.
    Tensor {
        /// Name.
        name: String,
        /// Element type.
        dtype: DataType,
        /// Dimension extents.
        shape: Vec<SExpr>,
        /// Memory space (defaults to CPU heap).
        mtype: MemType,
        /// in / out / inout.
        atype: AccessType,
    },
    /// An integer size parameter: `n: size`.
    Size {
        /// Name.
        name: String,
    },
    /// An untyped parameter of a helper function (bound at inline time to a
    /// tensor view or a scalar) — the dimension-free style of paper Fig. 6.
    Untyped {
        /// Name.
        name: String,
    },
}

impl SParam {
    /// The parameter's name.
    pub fn name(&self) -> &str {
        match self {
            SParam::Tensor { name, .. } | SParam::Size { name } | SParam::Untyped { name } => name,
        }
    }
}

/// A surface statement.
#[derive(Debug, Clone)]
pub enum SStmt {
    /// `for i in range(a, b): suite` (or `range(b)`).
    For {
        /// Iterator name.
        iter: String,
        /// Lower bound (inclusive).
        begin: SExpr,
        /// Upper bound (exclusive).
        end: SExpr,
        /// Body.
        body: Vec<SStmt>,
        /// Source line.
        line: usize,
    },
    /// `if cond: suite [else: suite]`.
    If {
        /// Condition.
        cond: SExpr,
        /// Then-branch.
        then: Vec<SStmt>,
        /// Else-branch.
        otherwise: Vec<SStmt>,
        /// Source line.
        line: usize,
    },
    /// `name = create_var((dims…), "dtype", "mtype")` — scoped to the rest of
    /// the enclosing block.
    VarDef {
        /// Tensor name.
        name: String,
        /// Dimension extents.
        shape: Vec<SExpr>,
        /// Element type.
        dtype: DataType,
        /// Memory space.
        mtype: MemType,
        /// Source line.
        line: usize,
    },
    /// `target[indices…] = value` (empty indices for scalar tensors).
    Assign {
        /// Target tensor name.
        target: String,
        /// Indices.
        indices: Vec<SExpr>,
        /// Right-hand side.
        value: SExpr,
        /// Source line.
        line: usize,
    },
    /// `target[indices…] op= value`.
    Reduce {
        /// Target tensor name.
        target: String,
        /// Indices.
        indices: Vec<SExpr>,
        /// `+=`, `*=`, `min=`, `max=`.
        op: ft_ir::ReduceOp,
        /// Right-hand side.
        value: SExpr,
        /// Source line.
        line: usize,
    },
    /// A call statement `f(args…)` — always inlined.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments (tensor views or scalar expressions).
        args: Vec<SExpr>,
        /// Source line.
        line: usize,
    },
    /// `pass`.
    Pass,
}

/// A surface expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// `inf`.
    Inf,
    /// A name (resolved during lowering to an iterator, size parameter,
    /// tensor view, or 0-D tensor load).
    Name(String),
    /// `base[indices…]` — element load or sub-tensor view.
    Index(Box<SExpr>, Vec<SExpr>),
    /// `base.ndim` or `base.dtype`.
    Attr(Box<SExpr>, String),
    /// `base.shape(k)`.
    ShapeOf(Box<SExpr>, Box<SExpr>),
    /// Unary operation.
    Unary(ft_ir::UnaryOp, Box<SExpr>),
    /// Binary operation.
    Binary(ft_ir::BinaryOp, Box<SExpr>, Box<SExpr>),
    /// `select(cond, a, b)`.
    Select(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    /// Cast `f32(e)` etc.
    Cast(DataType, Box<SExpr>),
}
