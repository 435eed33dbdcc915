//! Expressions of the FreeTensor IR.
//!
//! Expressions are pure (no side effects). Integer scalars such as loop
//! iterators and size parameters appear as [`Expr::Var`]; tensor element reads
//! appear as [`Expr::Load`] (a 0-D tensor is read with an empty index list).

use crate::types::DataType;
use std::collections::HashSet;
use std::ops;

/// A unary operator or elementary function. What each evaluates to is
/// [`crate::scalar::unary`], on every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation. Wraps on integers (`-i64::MIN` is `i64::MIN`);
    /// a `Bool` operand counts as 0/1 and yields an integer.
    Neg,
    /// Logical not of the operand's truthiness (non-zero; NaN is true).
    /// Yields `Bool`.
    Not,
    /// Absolute value. Wraps on integers; of a `Bool`, an integer.
    Abs,
    /// Square root. Like every function below, always a float.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Logistic sigmoid `1 / (1 + exp(-x))`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Sign (`-1`, `0`, `1`), with the operand's type (an integer for a
    /// `Bool`). Of a NaN, `0.0`.
    Sign,
}

impl UnaryOp {
    /// DSL spelling of the operator, as used by the printer and the parser.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "not",
            UnaryOp::Abs => "abs",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Exp => "exp",
            UnaryOp::Ln => "ln",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sign => "sign",
        }
    }
}

/// A binary operator. What each evaluates to is [`crate::scalar::binary`],
/// on every engine: arithmetic is float when either operand is a float and
/// integer otherwise (a `Bool` counting as 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition. Like `Sub` and `Mul`, wraps on integers.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division. Integer division rounds toward negative infinity
    /// (floor division), which keeps loop-bound arithmetic monotone; an
    /// integer division by zero is an error, not a value.
    Div,
    /// Remainder matching floor division (result has the divisor's sign),
    /// on integers and on floats alike: `-7.5 % 2.0` is `0.5`.
    Mod,
    /// Minimum. On floats a NaN operand is ignored.
    Min,
    /// Maximum. On floats a NaN operand is ignored.
    Max,
    /// Power. Always a float, whatever the operands: `pow(2, -1)` is `0.5`.
    Pow,
    /// Equality (yields `Bool`). Like every comparison, exact on two
    /// integers; any other pair of operands is compared as `f64`.
    Eq,
    /// Inequality (yields `Bool`).
    Ne,
    /// Less-than (yields `Bool`).
    Lt,
    /// Less-or-equal (yields `Bool`).
    Le,
    /// Greater-than (yields `Bool`).
    Gt,
    /// Greater-or-equal (yields `Bool`).
    Ge,
    /// Logical and of the operands' truthiness (non-zero; NaN is true).
    /// Yields `Bool`.
    And,
    /// Logical or, likewise.
    Or,
}

impl BinaryOp {
    /// Whether the operator yields a boolean regardless of operand types.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge | And | Or)
    }

    /// Whether the operator counts as a floating-point operation for the
    /// FLOP counters when its operands are floats.
    pub fn is_arith(self) -> bool {
        use BinaryOp::*;
        matches!(self, Add | Sub | Mul | Div | Mod | Min | Max | Pow)
    }

    /// DSL spelling of the operator.
    pub fn name(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Min => "min",
            Max => "max",
            Pow => "pow",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            And => "and",
            Or => "or",
        }
    }
}

/// An expression tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntConst(i64),
    /// Floating-point literal.
    FloatConst(f64),
    /// Boolean literal.
    BoolConst(bool),
    /// An integer scalar variable: a loop iterator or a size parameter.
    Var(String),
    /// Read one element of a tensor. A 0-D tensor (scalar) is read with an
    /// empty index list.
    Load {
        /// Name of the tensor being read.
        var: String,
        /// One index expression per tensor dimension.
        indices: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        a: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        a: Box<Expr>,
        /// Right operand.
        b: Box<Expr>,
    },
    /// Ternary selection: `if cond { then } else { otherwise }` as a value.
    Select {
        /// Condition (boolean).
        cond: Box<Expr>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value when the condition does not hold.
        otherwise: Box<Expr>,
    },
    /// Explicit type conversion.
    Cast {
        /// Target element type.
        dtype: DataType,
        /// Operand.
        a: Box<Expr>,
    },
}

/// Static type of an expression under C's usual arithmetic conversions —
/// what the C backend's operators apply to the spelling it emits.
///
/// Literals are *weakly* typed: an expression built from literals alone has
/// a default type (`I32`/`I64` by magnitude, `F64`) but takes the float
/// width of the strongly typed operand it meets, so `x * 0.5` over an `f32`
/// tensor stays `f32` — the overload the paper's C++ backend resolves to —
/// instead of dragging the product into double.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprType {
    /// The element type (the default one, when `weak`).
    pub dtype: DataType,
    /// Built from literals only.
    pub weak: bool,
}

impl ExprType {
    /// A strongly typed value of `dtype`.
    pub fn strong(dtype: DataType) -> ExprType {
        ExprType { dtype, weak: false }
    }

    /// The common type two operands are converted to.
    pub fn unify(self, other: ExprType) -> ExprType {
        if self.weak == other.weak {
            return ExprType {
                dtype: self.dtype.promote(other.dtype),
                weak: self.weak,
            };
        }
        let (s, w) = if self.weak {
            (other, self)
        } else {
            (self, other)
        };
        // A literal follows a float operand's width; a float literal
        // meeting an integer operand is a double.
        ExprType::strong(if s.dtype.is_float() {
            s.dtype
        } else {
            s.dtype.promote(w.dtype)
        })
    }

    /// The type a weak operand takes where a strongly typed `ctx` is
    /// expected (a store target, a sibling operand); a strong one keeps its
    /// own.
    pub fn resolve(self, ctx: DataType) -> DataType {
        if self.weak {
            self.unify(ExprType::strong(ctx)).dtype
        } else {
            self.dtype
        }
    }

    /// Integer promotion: arithmetic on `bool` yields `int`.
    fn arith(self) -> ExprType {
        ExprType {
            dtype: self.dtype.promote(DataType::I32),
            ..self
        }
    }

    /// `self` when floating point, else `dtype` at the same strength: the
    /// result of an operator that exists per float width but on one other
    /// type only.
    fn float_or(self, dtype: DataType) -> ExprType {
        if self.dtype.is_float() {
            self
        } else {
            ExprType { dtype, ..self }
        }
    }
}

impl Expr {
    /// The expression's static type, with `tensor` giving each loaded
    /// tensor's element type. Mirrors the C that `ft-codegen` spells and is
    /// never narrower than it: scalar variables are `int64_t`, integer
    /// floor-division and `abs` go through 64-bit helpers, a math function
    /// of an integer is a double.
    pub fn dtype(&self, tensor: &impl Fn(&str) -> DataType) -> ExprType {
        match self {
            Expr::IntConst(v) => ExprType {
                dtype: if i32::try_from(*v).is_ok() {
                    DataType::I32
                } else {
                    DataType::I64
                },
                weak: true,
            },
            Expr::FloatConst(_) => ExprType {
                dtype: DataType::F64,
                weak: true,
            },
            Expr::BoolConst(_) => ExprType::strong(DataType::Bool),
            Expr::Var(_) => ExprType::strong(DataType::I64),
            Expr::Load { var, .. } => ExprType::strong(tensor(var)),
            Expr::Unary { op, a } => {
                let t = a.dtype(tensor);
                match op {
                    UnaryOp::Not => ExprType::strong(DataType::Bool),
                    UnaryOp::Neg | UnaryOp::Sign => t.arith(),
                    UnaryOp::Abs => t.float_or(DataType::I64),
                    UnaryOp::Sqrt
                    | UnaryOp::Exp
                    | UnaryOp::Ln
                    | UnaryOp::Sigmoid
                    | UnaryOp::Tanh => t.float_or(DataType::F64),
                }
            }
            Expr::Binary { op, a, b } => {
                if op.is_comparison() {
                    return ExprType::strong(DataType::Bool);
                }
                let t = a.dtype(tensor).unify(b.dtype(tensor));
                match op {
                    BinaryOp::Div | BinaryOp::Mod => t.float_or(DataType::I64),
                    BinaryOp::Pow => t.float_or(DataType::F64),
                    _ => t.arith(),
                }
            }
            Expr::Select {
                then, otherwise, ..
            } => then.dtype(tensor).unify(otherwise.dtype(tensor)).arith(),
            Expr::Cast { dtype, .. } => ExprType::strong(*dtype),
        }
    }

    /// Whether [`dtype`](Expr::dtype) is weak, decided without tensor types
    /// and on the first non-literal leaf.
    pub fn literal_only(&self) -> bool {
        match self {
            Expr::IntConst(_) | Expr::FloatConst(_) => true,
            Expr::Unary { op, a } => *op != UnaryOp::Not && a.literal_only(),
            Expr::Binary { op, a, b } => {
                !op.is_comparison() && a.literal_only() && b.literal_only()
            }
            Expr::Select {
                then, otherwise, ..
            } => then.literal_only() && otherwise.literal_only(),
            _ => false,
        }
    }

    /// Build a binary node.
    pub fn binary(op: BinaryOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary {
            op,
            a: Box::new(a),
            b: Box::new(b),
        }
    }

    /// Build a unary node.
    pub fn unary(op: UnaryOp, a: Expr) -> Expr {
        Expr::Unary { op, a: Box::new(a) }
    }

    /// Build a selection node.
    pub fn select(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Select {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }

    /// Build a cast node.
    pub fn cast(dtype: DataType, a: Expr) -> Expr {
        Expr::Cast {
            dtype,
            a: Box::new(a),
        }
    }

    /// `self == other` as an expression.
    pub fn eq(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Eq, self, other.into())
    }

    /// `self != other` as an expression.
    pub fn ne(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Ne, self, other.into())
    }

    /// `self < other` as an expression.
    pub fn lt(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Lt, self, other.into())
    }

    /// `self <= other` as an expression.
    pub fn le(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Le, self, other.into())
    }

    /// `self > other` as an expression.
    pub fn gt(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Gt, self, other.into())
    }

    /// `self >= other` as an expression.
    pub fn ge(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Ge, self, other.into())
    }

    /// Logical conjunction.
    pub fn and(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::And, self, other.into())
    }

    /// Logical disjunction.
    pub fn or(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Or, self, other.into())
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)] // DSL-level boolean op, not std::ops::Not
    pub fn not(self) -> Expr {
        Expr::unary(UnaryOp::Not, self)
    }

    /// Elementwise minimum.
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Min, self, other.into())
    }

    /// Elementwise maximum.
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Max, self, other.into())
    }

    /// Floor-division remainder.
    #[allow(clippy::should_implement_trait)] // `%` is also overloaded via std::ops::Rem
    pub fn rem(self, other: impl Into<Expr>) -> Expr {
        Expr::binary(BinaryOp::Mod, self, other.into())
    }

    /// If this expression is an integer constant, its value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::IntConst(v) => Some(*v),
            Expr::Cast { a, .. } => a.as_int(),
            _ => None,
        }
    }

    /// If this expression is a constant (of any type), whether it is "truthy".
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Expr::BoolConst(b) => Some(*b),
            Expr::IntConst(v) => Some(*v != 0),
            _ => None,
        }
    }

    /// The set of free scalar variables (`Expr::Var`) in this expression.
    pub fn free_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut HashSet<String>) {
        match self {
            Expr::Var(name) => {
                out.insert(name.clone());
            }
            Expr::Load { indices, .. } => {
                for i in indices {
                    i.collect_free_vars(out);
                }
            }
            Expr::Unary { a, .. } | Expr::Cast { a, .. } => a.collect_free_vars(out),
            Expr::Binary { a, b, .. } => {
                a.collect_free_vars(out);
                b.collect_free_vars(out);
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                cond.collect_free_vars(out);
                then.collect_free_vars(out);
                otherwise.collect_free_vars(out);
            }
            _ => {}
        }
    }

    /// The set of tensors read by this expression.
    pub fn loaded_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_loaded_vars(&mut out);
        out
    }

    fn collect_loaded_vars(&self, out: &mut HashSet<String>) {
        match self {
            Expr::Load { var, indices } => {
                out.insert(var.clone());
                for i in indices {
                    i.collect_loaded_vars(out);
                }
            }
            Expr::Unary { a, .. } | Expr::Cast { a, .. } => a.collect_loaded_vars(out),
            Expr::Binary { a, b, .. } => {
                a.collect_loaded_vars(out);
                b.collect_loaded_vars(out);
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                cond.collect_loaded_vars(out);
                then.collect_loaded_vars(out);
                otherwise.collect_loaded_vars(out);
            }
            _ => {}
        }
    }

    /// Substitute every occurrence of scalar variable `name` with `value`.
    pub fn subst_var(&self, name: &str, value: &Expr) -> Expr {
        match self {
            Expr::Var(n) if n == name => value.clone(),
            Expr::Var(_) | Expr::IntConst(_) | Expr::FloatConst(_) | Expr::BoolConst(_) => {
                self.clone()
            }
            Expr::Load { var, indices } => Expr::Load {
                var: var.clone(),
                indices: indices.iter().map(|i| i.subst_var(name, value)).collect(),
            },
            Expr::Unary { op, a } => Expr::unary(*op, a.subst_var(name, value)),
            Expr::Binary { op, a, b } => {
                Expr::binary(*op, a.subst_var(name, value), b.subst_var(name, value))
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => Expr::select(
                cond.subst_var(name, value),
                then.subst_var(name, value),
                otherwise.subst_var(name, value),
            ),
            Expr::Cast { dtype, a } => Expr::cast(*dtype, a.subst_var(name, value)),
        }
    }

    /// Rename every load of tensor `from` to tensor `to`.
    pub fn rename_load(&self, from: &str, to: &str) -> Expr {
        match self {
            Expr::Load { var, indices } => Expr::Load {
                var: if var == from {
                    to.to_string()
                } else {
                    var.clone()
                },
                indices: indices.iter().map(|i| i.rename_load(from, to)).collect(),
            },
            Expr::Unary { op, a } => Expr::unary(*op, a.rename_load(from, to)),
            Expr::Binary { op, a, b } => {
                Expr::binary(*op, a.rename_load(from, to), b.rename_load(from, to))
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => Expr::select(
                cond.rename_load(from, to),
                then.rename_load(from, to),
                otherwise.rename_load(from, to),
            ),
            Expr::Cast { dtype, a } => Expr::cast(*dtype, a.rename_load(from, to)),
            _ => self.clone(),
        }
    }

    /// Number of arithmetic operations on the *value path* (subscript
    /// expressions excluded) — the recompute cost used by the
    /// selective-materialization balance in `ft-autodiff`.
    pub fn value_op_count(&self) -> usize {
        match self {
            Expr::IntConst(_)
            | Expr::FloatConst(_)
            | Expr::BoolConst(_)
            | Expr::Var(_)
            | Expr::Load { .. } => 0,
            Expr::Unary { a, .. } => 1 + a.value_op_count(),
            Expr::Cast { a, .. } => a.value_op_count(),
            Expr::Binary { a, b, .. } => 1 + a.value_op_count() + b.value_op_count(),
            Expr::Select {
                cond,
                then,
                otherwise,
            } => 1 + cond.value_op_count() + then.value_op_count() + otherwise.value_op_count(),
        }
    }

    /// Number of nodes in this expression tree (used by cost heuristics, e.g.
    /// the selective-materialization balance in `ft-autodiff`).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::IntConst(_) | Expr::FloatConst(_) | Expr::BoolConst(_) | Expr::Var(_) => 1,
            Expr::Load { indices, .. } => 1 + indices.iter().map(Expr::node_count).sum::<usize>(),
            Expr::Unary { a, .. } | Expr::Cast { a, .. } => 1 + a.node_count(),
            Expr::Binary { a, b, .. } => 1 + a.node_count() + b.node_count(),
            Expr::Select {
                cond,
                then,
                otherwise,
            } => 1 + cond.node_count() + then.node_count() + otherwise.node_count(),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::IntConst(v)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Self {
        Expr::IntConst(v as i64)
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Self {
        Expr::IntConst(v as i64)
    }
}

impl From<f32> for Expr {
    fn from(v: f32) -> Self {
        Expr::FloatConst(v as f64)
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr::FloatConst(v)
    }
}

impl From<bool> for Expr {
    fn from(v: bool) -> Self {
        Expr::BoolConst(v)
    }
}

impl From<&Expr> for Expr {
    fn from(v: &Expr) -> Self {
        v.clone()
    }
}

macro_rules! impl_expr_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<Expr>> ops::$trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::binary($op, self, rhs.into())
            }
        }
        impl<'a, R: Into<Expr>> ops::$trait<R> for &'a Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::binary($op, self.clone(), rhs.into())
            }
        }
    };
}

impl_expr_binop!(Add, add, BinaryOp::Add);
impl_expr_binop!(Sub, sub, BinaryOp::Sub);
impl_expr_binop!(Mul, mul, BinaryOp::Mul);
impl_expr_binop!(Div, div, BinaryOp::Div);
impl_expr_binop!(Rem, rem, BinaryOp::Mod);

impl ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::unary(UnaryOp::Neg, self)
    }
}

impl ops::Neg for &Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::unary(UnaryOp::Neg, self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Expr {
        Expr::Var(n.to_string())
    }

    #[test]
    fn operator_overloads_build_trees() {
        let e = v("i") * 2 + 1;
        match &e {
            Expr::Binary { op: BinaryOp::Add, a, b } => {
                assert!(matches!(**a, Expr::Binary { op: BinaryOp::Mul, .. }));
                assert_eq!(**b, Expr::IntConst(1));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn free_vars_and_loads() {
        let e = Expr::Load {
            var: "a".into(),
            indices: vec![v("i") + v("j")],
        } + v("k");
        let fv = e.free_vars();
        assert!(fv.contains("i") && fv.contains("j") && fv.contains("k"));
        assert!(!fv.contains("a"));
        assert!(e.loaded_vars().contains("a"));
    }

    #[test]
    fn substitution() {
        let e = (v("i") + v("j")) * v("i");
        let s = e.subst_var("i", &Expr::IntConst(3));
        assert!(s.free_vars().contains("j"));
        assert!(!s.free_vars().contains("i"));
    }

    #[test]
    fn rename_load_only_touches_loads() {
        let e = Expr::Load {
            var: "t".into(),
            indices: vec![v("t")],
        };
        let r = e.rename_load("t", "u");
        match r {
            Expr::Load { var, indices } => {
                assert_eq!(var, "u");
                // The scalar var named "t" is untouched.
                assert_eq!(indices[0], v("t"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn dtype_follows_the_usual_arithmetic_conversions() {
        use DataType::*;
        let tensor = |n: &str| match n {
            "f" => F32,
            "d" => F64,
            "s" => I32,
            "b" => Bool,
            _ => I64,
        };
        let ld = |n: &str| Expr::Load {
            var: n.into(),
            indices: vec![],
        };
        let ty = |e: &Expr| e.dtype(&tensor);
        let weak = |dtype| ExprType { dtype, weak: true };
        // Literals are weak and take the float operand's width.
        assert_eq!(ty(&Expr::FloatConst(0.5)), weak(F64));
        assert_eq!(ty(&Expr::IntConst(7)), weak(I32));
        assert_eq!(ty(&Expr::IntConst(1 << 40)), weak(I64));
        assert_eq!(ty(&(ld("f") * 0.5)), ExprType::strong(F32));
        assert_eq!(ty(&(ld("f") * 2)), ExprType::strong(F32));
        assert_eq!(ty(&(ld("d") * 0.5f32)), ExprType::strong(F64));
        assert_eq!(ty(&(ld("f") + ld("d"))), ExprType::strong(F64));
        // ... except that a float literal makes an integer a double.
        assert_eq!(ty(&(ld("s") * 0.5)), ExprType::strong(F64));
        assert_eq!(ty(&(Expr::IntConst(2) * 0.5)), weak(F64));
        assert_eq!(weak(F64).resolve(F32), F32);
        assert_eq!(weak(F64).resolve(I32), F64);
        assert_eq!(ExprType::strong(F64).resolve(F32), F64);
        // Integers: the iterator is 64-bit, int32 arithmetic stays int,
        // bool promotes, the floor-division helpers return int64_t.
        assert_eq!(ty(&(v("i") + 1)), ExprType::strong(I64));
        assert_eq!(ty(&(ld("s") + 1)), ExprType::strong(I32));
        assert_eq!(ty(&(ld("b") + ld("b"))), ExprType::strong(I32));
        assert_eq!(ty(&(ld("s") / 2)), ExprType::strong(I64));
        assert_eq!(ty(&(ld("f") / 2)), ExprType::strong(F32));
        assert_eq!(ty(&ld("s").min(ld("s"))), ExprType::strong(I32));
        assert_eq!(
            ty(&Expr::unary(UnaryOp::Abs, ld("s"))),
            ExprType::strong(I64)
        );
        // Math functions exist per float width; of an integer, in double.
        assert_eq!(
            ty(&Expr::unary(UnaryOp::Exp, ld("f"))),
            ExprType::strong(F32)
        );
        assert_eq!(
            ty(&Expr::unary(UnaryOp::Exp, ld("s"))),
            ExprType::strong(F64)
        );
        assert_eq!(
            ty(&Expr::unary(UnaryOp::Exp, Expr::FloatConst(1.0))),
            weak(F64)
        );
        assert_eq!(
            ty(&Expr::binary(BinaryOp::Pow, ld("f"), Expr::IntConst(2))),
            ExprType::strong(F32)
        );
        assert_eq!(ty(&ld("f").lt(0.0)), ExprType::strong(Bool));
        assert_eq!(
            ty(&Expr::select(ld("b"), ld("f"), Expr::FloatConst(0.0))),
            ExprType::strong(F32)
        );
        assert_eq!(ty(&Expr::cast(I64, ld("f"))), ExprType::strong(I64));
    }

    #[test]
    fn literal_only_is_the_weak_flag() {
        let tensor = |_: &str| DataType::F32;
        let ld = Expr::Load {
            var: "x".into(),
            indices: vec![],
        };
        for e in [
            Expr::FloatConst(1.0),
            -Expr::FloatConst(1.0),
            Expr::IntConst(2) * 0.5,
            Expr::unary(UnaryOp::Exp, Expr::IntConst(1)),
            Expr::select(ld.clone().lt(0.0), Expr::FloatConst(0.0), Expr::IntConst(1)),
            Expr::FloatConst(1.0).lt(2.0),
            Expr::IntConst(1).not(),
            Expr::BoolConst(true),
            Expr::cast(DataType::F32, Expr::FloatConst(1.0)),
            ld.clone() * 0.5,
            v("i") + 1,
            Expr::select(Expr::BoolConst(true), ld.clone(), Expr::FloatConst(0.0)),
        ] {
            assert_eq!(e.literal_only(), e.dtype(&tensor).weak, "{e:?}");
        }
    }

    #[test]
    fn const_queries() {
        assert_eq!(Expr::IntConst(5).as_int(), Some(5));
        assert_eq!(v("x").as_int(), None);
        assert_eq!(Expr::BoolConst(true).as_bool(), Some(true));
        assert_eq!(Expr::IntConst(0).as_bool(), Some(false));
    }

    #[test]
    fn node_count_counts_all_nodes() {
        let e = v("i") * 2 + 1;
        assert_eq!(e.node_count(), 5);
    }
}
