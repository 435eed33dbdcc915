//! An operator means one thing: `ft_ir::scalar` is the table, and the
//! constant folder, the interpreter, the VM and the compiled engine are
//! held to it cell by cell.
//!
//! * `the_table_says_what_python_says` — the floor rows (`//` and `%` in all
//!   four sign quadrants, integer and float), `pow` with a negative
//!   exponent, comparisons above 2^53, wrapping and the casts, against
//!   literals: the table itself is pinned from outside the code.
//! * `every_engine_computes_the_table` — every [`BinaryOp`], [`UnaryOp`],
//!   [`ReduceOp`], cast target and `select` arm × operand types × a value
//!   grid, as one-statement loops `y[i] = a[i] op b[i]`: `const_fold_expr`
//!   on the constants, the interpreter, the VM and, when
//!   `cc` exists, the compiled engine all give the table's value. The
//!   cells an engine is not held to are [`EXCLUSIONS`], as data.
//! * `static_and_dynamic_kinds_agree` — on every cell, the kind of the
//!   table's value is the one `scalar::unary_kind`/`binary_kind` state and
//!   the one `Expr::dtype` infers for the node.
//! * `vectorized_math_stays_within_tol_of_the_table` — the `exp`, `ln` and
//!   `pow` rows, `f32` and `f64`, with cells that overflow and underflow,
//!   through a `vectorize`d loop on the compiled engine, where a vector of
//!   lanes may be libmvec's rather than glibc's scalar function.
//! * `a_zero_divisor_is_a_structured_error` — integer `/` and `%` by zero on
//!   the interpreter and the VM.
//! * `a_constant_select_whose_arms_load_keeps_the_nodes_type` — the folder,
//!   which knows no tensor's type, leaves such a `select` for the engines.

use ft_ir::prelude::*;
use ft_ir::scalar::{self, DivisionByZero, Kind, Scalar};
use ft_passes::{const_fold_expr, const_fold_func};
use ft_runtime::{
    cc_available, cc_flags, CompiledEngine, ExecutionEngine, Runtime, RuntimeError, TensorVal,
    VmRuntime,
};
use std::collections::HashMap;

use DataType::{Bool, F32, F64, I32, I64};

/// The conformance harness's forward tolerance (`Config::default().tol`),
/// relative above 1: what an `f32` row may differ by on the compiled
/// engine, which computes it in `float` where the table computes in `f64`
/// and rounds once (DESIGN.md §7).
const TOL: f64 = 5e-4;

const TWO_53: i64 = 1 << 53;

/// All four sign quadrants, zero, the 2^53 neighbours `f64` cannot tell
/// apart, a base and an exponent whose power leaves `i64`, the extremes.
const INTS: [i64; 13] = [
    0,
    1,
    -1,
    2,
    -2,
    3,
    7,
    -7,
    40,
    TWO_53,
    TWO_53 + 1,
    i64::MAX,
    i64::MIN,
];

/// Both zeros, halves (a negative exponent, a fractional remainder), both
/// signs of everything, NaN and the infinities; the last two do not fit an
/// integer and are the `f64`-only tail.
const FLOATS: [f64; 17] = [
    0.0,
    -0.0,
    0.5,
    -0.5,
    1.0,
    -1.0,
    2.0,
    -2.0,
    3.0,
    7.5,
    -7.5,
    40.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    9007199254740992.0,
    1e300,
];

/// The values a tensor of `dtype` takes in the sweep.
fn grid(dtype: DataType) -> Vec<Scalar> {
    match dtype {
        I64 => INTS.map(Scalar::Int).to_vec(),
        F64 => FLOATS.map(Scalar::Float).to_vec(),
        // Every `f32` value exactly: the `f64` tail is left out.
        F32 => FLOATS[..15].iter().map(|v| Scalar::Float(*v)).collect(),
        Bool => vec![Scalar::Bool(false), Scalar::Bool(true)],
        I32 => unreachable!("no I32 operands: C computes them in `int`, the table in i64"),
    }
}

const OPERANDS: [DataType; 4] = [I64, F64, F32, Bool];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Un(UnaryOp),
    Bin(BinaryOp),
    /// `y[i] op= b[i]`: operand 0 is the target's old value.
    Red(ReduceOp),
    Cast(DataType),
    /// `select(taken, a[i], b[i])`: the arm a constant condition takes, in
    /// the node's type.
    Sel(bool),
}

const UNARY: [UnaryOp; 9] = {
    use UnaryOp::*;
    [Neg, Not, Abs, Sqrt, Exp, Ln, Sigmoid, Tanh, Sign]
};
const BINARY: [BinaryOp; 16] = {
    use BinaryOp::*;
    [
        Add, Sub, Mul, Div, Mod, Min, Max, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or,
    ]
};
const REDUCE: [ReduceOp; 4] = [ReduceOp::Add, ReduceOp::Mul, ReduceOp::Min, ReduceOp::Max];
const CASTS: [DataType; 5] = [F32, F64, I32, I64, Bool];

/// One operator at one tuple of operand types.
#[derive(Debug, Clone)]
struct Case {
    op: Op,
    operands: Vec<DataType>,
}

impl Case {
    fn label(&self) -> String {
        format!("{:?} over {:?}", self.op, self.operands)
    }

    /// The expression node over `args`; a reduction has none.
    fn node(&self, args: &[Expr]) -> Option<Expr> {
        Some(match self.op {
            Op::Un(op) => Expr::unary(op, args[0].clone()),
            Op::Bin(op) => Expr::binary(op, args[0].clone(), args[1].clone()),
            Op::Cast(d) => Expr::cast(d, args[0].clone()),
            Op::Sel(t) => Expr::select(Expr::BoolConst(t), args[0].clone(), args[1].clone()),
            Op::Red(_) => return None,
        })
    }

    /// The table's value.
    fn table(&self, x: &[Scalar]) -> Result<Scalar, DivisionByZero> {
        match self.op {
            Op::Un(op) => Ok(scalar::unary(op, x[0])),
            Op::Bin(op) => scalar::binary(op, x[0], x[1]),
            Op::Red(op) => Ok(scalar::reduce(op, x[0], x[1])),
            Op::Cast(d) => Ok(scalar::cast(d, x[0])),
            Op::Sel(t) => Ok(scalar::cast(
                self.inferred().expect("a node"),
                x[usize::from(!t)],
            )),
        }
    }

    /// The type `Expr::dtype` gives the node over tensors of the operand
    /// types (strongly typed, as any load is).
    fn inferred(&self) -> Option<DataType> {
        let names = ["a", "b"];
        let loads: Vec<Expr> = names[..self.operands.len()]
            .iter()
            .map(|n| load(*n, [var("i")]))
            .collect();
        let of = |n: &str| self.operands[names.iter().position(|m| *m == n).unwrap()];
        Some(self.node(&loads)?.dtype(&of).dtype)
    }

    /// The element type of `y`: the reduction's own target, else the
    /// inferred type, integers widened to `I64` so no store narrows one.
    fn out(&self) -> DataType {
        match self.inferred() {
            None => self.operands[0],
            Some(d) if Kind::of(d) == Kind::Int => I64,
            Some(d) => d,
        }
    }

    /// What `y` holds afterwards, by the table.
    fn stored(&self, x: &[Scalar]) -> Result<Scalar, DivisionByZero> {
        Ok(scalar::cast(self.out(), self.table(x)?))
    }

    /// Whether C computes the value in `float`: the operands' common type
    /// (the node's; a reduction's target and value) is `F32`, which is what
    /// an `f32` next to an integer of any width converts to.
    fn single(&self) -> bool {
        match self.inferred() {
            Some(d) => d == F32,
            None => self.operands[0].promote(self.operands[1]) == F32,
        }
    }

    /// Whether integer operators apply: no operand is a float.
    fn integer(&self) -> bool {
        self.operands.iter().all(|d| !d.is_float())
    }
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    for a in OPERANDS {
        let one = |op| Case {
            op,
            operands: vec![a],
        };
        v.extend(UNARY.map(|op| one(Op::Un(op))));
        v.extend(CASTS.map(|d| one(Op::Cast(d))));
        for b in OPERANDS {
            let two = |op| Case {
                op,
                operands: vec![a, b],
            };
            v.extend(BINARY.map(|op| two(Op::Bin(op))));
            v.extend(REDUCE.map(|op| two(Op::Red(op))));
            v.extend([true, false].map(|t| two(Op::Sel(t))));
        }
    }
    v
}

/// Every tuple of grid values of the case's operand types.
fn cells(case: &Case) -> Vec<Vec<Scalar>> {
    tuples(case.operands.iter().map(|d| grid(*d)))
}

/// Every tuple taking its `j`-th value from `columns[j]`.
fn tuples(columns: impl Iterator<Item = Vec<Scalar>>) -> Vec<Vec<Scalar>> {
    let mut out = vec![vec![]];
    for column in columns {
        out = out
            .iter()
            .flat_map(|c| column.iter().map(move |v| [c.as_slice(), &[*v]].concat()))
            .collect();
    }
    out
}

/// How a cell is treated where it is excluded.
#[derive(Debug, PartialEq)]
enum Treatment {
    /// Not part of any engine's loop; its own test holds the error.
    ErrorEverywhere,
    /// Left out of the compiled engine's inputs.
    NotRunCompiled,
    /// Run, and compared up to the sign of a zero on the compiled engine.
    ZeroSignCompiled,
}

struct Exclusion {
    cells: &'static str,
    reason: &'static str,
    treatment: Treatment,
}

/// The cells where an engine is not held to the table, and why.
const EXCLUSIONS: [Exclusion; 4] = [
    Exclusion {
        cells: "integer / and % by zero",
        reason: "a structured DivisionByZero on the interpreter and the VM, unfolded by the \
                 folder; a SIGFPE in compiled code (ROADMAP item 6), so not run there",
        treatment: Treatment::ErrorEverywhere,
    },
    Exclusion {
        cells: "integer + - * neg abs whose result leaves i64, and i64::MIN / or % -1",
        reason: "the table wraps; C leaves signed overflow undefined",
        treatment: Treatment::NotRunCompiled,
    },
    Exclusion {
        cells: "a float that is NaN or outside the target's range, converted to an integer",
        reason: "the table saturates (NaN is 0); C leaves the conversion undefined",
        treatment: Treatment::NotRunCompiled,
    },
    Exclusion {
        cells: "min and max of +0.0 and -0.0",
        reason: "C's fmin/fmax may return either zero",
        treatment: Treatment::ZeroSignCompiled,
    },
];

fn exclusion(case: &Case, x: &[Scalar]) -> Option<&'static Exclusion> {
    use BinaryOp::{Add, Div, Max, Min, Mod, Mul, Sub};
    let as_binary = match case.op {
        Op::Bin(op) => Some(op),
        Op::Red(ReduceOp::Add) => Some(Add),
        Op::Red(ReduceOp::Mul) => Some(Mul),
        Op::Red(ReduceOp::Min) => Some(Min),
        Op::Red(ReduceOp::Max) => Some(Max),
        _ => None,
    };
    // Whether `(d)v` is defined in C: the truncated value is one of `d`'s.
    let fits = |v: f64, d: DataType| match d {
        I32 => v > -2147483649.0 && v < 2147483648.0,
        _ => (-9223372036854775808.0..9223372036854775808.0).contains(&v),
    };
    match (as_binary, case.op) {
        (Some(op @ (Add | Sub | Mul | Div | Mod)), _) if case.integer() => {
            let (a, b) = (x[0].as_i64(), x[1].as_i64());
            if matches!(op, Div | Mod) && b == 0 {
                return Some(&EXCLUSIONS[0]);
            }
            if scalar::checked_int_binary(op, a, b).is_none() {
                return Some(&EXCLUSIONS[1]);
            }
        }
        (Some(Min | Max), _) => {
            if let [Scalar::Float(a), Scalar::Float(b)] = x {
                if *a == 0.0 && *b == 0.0 && a.is_sign_negative() != b.is_sign_negative() {
                    return Some(&EXCLUSIONS[3]);
                }
            }
        }
        (_, Op::Un(UnaryOp::Neg | UnaryOp::Abs)) if x[0] == Scalar::Int(i64::MIN) => {
            return Some(&EXCLUSIONS[1]);
        }
        _ => {}
    }
    // The store of a float result into an integer `y` (a reduction into an
    // integer target) and the integer casts of a float.
    let target = match case.op {
        Op::Cast(d) => d,
        _ => case.out(),
    };
    if let (Kind::Int, Ok(Scalar::Float(v))) = (Kind::of(target), pre_conversion(case, x)) {
        if !fits(v, target) {
            return Some(&EXCLUSIONS[2]);
        }
    }
    None
}

/// The float a float → integer conversion of this cell starts from, if the
/// cell has one: a cast's operand, else the table's (unstored) result.
fn pre_conversion(case: &Case, x: &[Scalar]) -> Result<Scalar, DivisionByZero> {
    match case.op {
        Op::Cast(_) => Ok(x[0]),
        _ => case.table(x),
    }
}

fn tensor(dtype: DataType, values: impl ExactSizeIterator<Item = Scalar>) -> TensorVal {
    let mut t = TensorVal::zeros(dtype, &[values.len()]);
    for (i, v) in values.enumerate() {
        t.set_flat(i, v);
    }
    t
}

/// One loop per row, each over that row's cells: `y<k>[i] = op(a<k>[i],
/// b<k>[i])`, or `y<k>[i] op= b<k>[i]` with the old values as `y<k>`'s
/// input; marked `vectorize` if `vectorize`.
fn program(
    rows: &[(&Case, Vec<Vec<Scalar>>)],
    vectorize: bool,
) -> (Func, HashMap<String, TensorVal>) {
    let mut f = Func::new("operators");
    let mut body = Vec::new();
    let mut inputs = HashMap::new();
    for (k, (case, cells)) in rows.iter().enumerate() {
        let n = cells.len();
        let (a, b, y) = (format!("a{k}"), format!("b{k}"), format!("y{k}"));
        let column = |j: usize| tensor(case.operands[j], cells.iter().map(|c| c[j]));
        let at = |name: &String| load(name.clone(), [var("i")]);
        let stmt = match case.op {
            Op::Red(op) => {
                f = f.param(&y, [n], case.out(), AccessType::InOut);
                f = f.param(&b, [n], case.operands[1], AccessType::Input);
                inputs.insert(y.clone(), column(0));
                inputs.insert(b.clone(), column(1));
                reduce(y, [var("i")], op, at(&b))
            }
            _ => {
                let names = [&a, &b];
                for (j, d) in case.operands.iter().enumerate() {
                    f = f.param(names[j], [n], *d, AccessType::Input);
                    inputs.insert(names[j].clone(), column(j));
                }
                f = f.param(&y, [n], case.out(), AccessType::Output);
                let node = case.node(&[at(&a), at(&b)]).expect("not a reduction");
                store(y, [var("i")], node)
            }
        };
        let property = ForProperty {
            vectorize,
            ..ForProperty::serial()
        };
        body.push(for_with("i", 0, n as i64, property, stmt));
    }
    (f.body(block(body)), inputs)
}

fn same(got: Scalar, want: Scalar) -> bool {
    match (got, want) {
        (Scalar::Float(g), Scalar::Float(w)) => {
            g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan()
        }
        _ => got == want,
    }
}

fn close(got: Scalar, want: Scalar) -> bool {
    let (g, w) = (got.as_f64(), want.as_f64());
    same(got, want) || (g - w).abs() <= TOL * w.abs().max(1.0)
}

/// Run `rows` on `engine` and hold every cell of every row to the table;
/// `vectorize` marks the loops, and the compiled engine's float rows are
/// then held within `TOL` at either width.
fn check(engine: &dyn ExecutionEngine, rows: &[(&Case, Vec<Vec<Scalar>>)], vectorize: bool) {
    let who = engine.name();
    let (func, inputs) = program(rows, vectorize);
    let result = engine
        .run(&func, &inputs, &HashMap::new())
        .unwrap_or_else(|e| panic!("{who}: {e}\n{func}"));
    for (k, (case, cells)) in rows.iter().enumerate() {
        let y = result.output(&format!("y{k}"));
        for (i, x) in cells.iter().enumerate() {
            let (got, want) = (y.get_flat(i), case.stored(x).expect("runnable"));
            let zero_sign = exclusion(case, x).is_some() && got.as_f64() == want.as_f64();
            // Only the compiled engine computes an f32 row in `float`, and
            // only it calls a vector variant.
            let float_row = case.single() || vectorize && want.kind() == Kind::Float;
            let ok = if who == "compiled" && float_row {
                close(got, want)
            } else {
                same(got, want) || who == "compiled" && zero_sign
            };
            assert!(
                ok,
                "{who}: {} at {x:?} = {got:?}, the table says {want:?}",
                case.label()
            );
        }
    }
}

/// The rows of every case whose operand types are `operands`, each with the
/// cells that pass `keep`.
fn rows_of<'a>(
    all: &'a [Case],
    operands: &[DataType],
    keep: impl Fn(Option<&Exclusion>) -> bool,
) -> Vec<(&'a Case, Vec<Vec<Scalar>>)> {
    all.iter()
        .filter(|c| c.operands == operands)
        .map(|c| {
            let kept = cells(c)
                .into_iter()
                .filter(|x| keep(exclusion(c, x)))
                .collect();
            (c, kept)
        })
        .collect()
}

/// Operand types in groups of one Func each: a compiled unit per case
/// would be four hundred `cc` runs.
fn groups() -> Vec<Vec<DataType>> {
    let mut v: Vec<Vec<DataType>> = OPERANDS.iter().map(|a| vec![*a]).collect();
    v.extend(
        OPERANDS
            .iter()
            .flat_map(|a| OPERANDS.iter().map(|b| vec![*a, *b])),
    );
    v
}

#[test]
fn the_table_says_what_python_says() {
    use BinaryOp::*;
    use Scalar::{Float, Int};
    let bin = |op, a, b| scalar::binary(op, a, b).expect("no zero divisor here");
    // >>> [a // b for a, b in zip([7, -7, 7, -7], [2, 2, -2, -2])], and a % b
    for (a, b, q, r) in [
        (7, 2, 3, 1),
        (-7, 2, -4, 1),
        (7, -2, -4, -1),
        (-7, -2, 3, -1),
    ] {
        assert_eq!(bin(Div, Int(a), Int(b)), Int(q), "{a} // {b}");
        assert_eq!(bin(Mod, Int(a), Int(b)), Int(r), "{a} % {b}");
    }
    // >>> [a % b for a, b in zip([7.5, -7.5, 7.5, -7.5], [2.0, 2.0, -2.0, -2.0])]
    for (a, b, r) in [
        (7.5, 2.0, 1.5),
        (-7.5, 2.0, 0.5),
        (7.5, -2.0, -0.5),
        (-7.5, -2.0, -1.5),
    ] {
        assert_eq!(bin(Mod, Float(a), Float(b)), Float(r), "{a} % {b}");
        assert_eq!(
            bin(Mod, Float(a), Int(b as i64)),
            Float(r),
            "{a} % {b}, mixed"
        );
    }
    assert_eq!(bin(Div, Int(7), Float(2.0)), Float(3.5));
    assert_eq!(scalar::binary(Div, Int(1), Int(0)), Err(DivisionByZero));
    assert_eq!(
        scalar::binary(Mod, Int(1), Scalar::Bool(false)),
        Err(DivisionByZero)
    );
    // `pow` is a float whatever it is given: 2 ** -1, 3 ** 40.
    assert_eq!(bin(Pow, Int(2), Int(-1)), Float(0.5));
    assert_eq!(bin(Pow, Int(3), Int(40)), Float(12157665459056928801.0));
    // Two integers compare as integers; next to a float, as floats.
    assert_eq!(bin(Lt, Int(TWO_53), Int(TWO_53 + 1)), Scalar::Bool(true));
    assert_eq!(
        bin(Eq, Int(TWO_53 + 1), Float(TWO_53 as f64)),
        Scalar::Bool(true)
    );
    // Integers wrap.
    assert_eq!(bin(Add, Int(i64::MAX), Int(1)), Int(i64::MIN));
    assert_eq!(bin(Div, Int(i64::MIN), Int(-1)), Int(i64::MIN));
    assert_eq!(bin(Mod, Int(i64::MIN), Int(-1)), Int(0));
    assert_eq!(scalar::unary(UnaryOp::Neg, Int(i64::MIN)), Int(i64::MIN));
    assert_eq!(scalar::unary(UnaryOp::Abs, Int(i64::MIN)), Int(i64::MIN));
    assert_eq!(
        scalar::reduce(ReduceOp::Mul, Int(i64::MAX), Int(2)),
        Int(-2)
    );
    // A bool is 0/1 under arithmetic; NaN is dropped by min/max and is true.
    assert_eq!(scalar::unary(UnaryOp::Neg, Scalar::Bool(true)), Int(-1));
    assert_eq!(bin(Min, Float(f64::NAN), Float(1.0)), Float(1.0));
    assert_eq!(bin(And, Float(f64::NAN), Int(1)), Scalar::Bool(true));
    // Casts: toward zero, saturating; then I32 wraps, F32 rounds.
    assert_eq!(scalar::cast(I64, Float(-3.7)), Int(-3));
    assert_eq!(scalar::cast(I64, Float(1e300)), Int(i64::MAX));
    assert_eq!(scalar::cast(I64, Float(f64::NAN)), Int(0));
    assert_eq!(scalar::cast(I32, Int(1 << 31)), Int(-(1 << 31)));
    assert_eq!(scalar::cast(F32, Float(0.1)), Float(0.1f32 as f64));
}

#[test]
fn every_engine_computes_the_table() {
    let all = cases();
    let mut cells_checked = 0usize;
    // Over constants, `Expr::dtype` infers the kind it infers over tensors
    // (`static_and_dynamic_kinds_agree`); the folder computes the table,
    // and leaves a zero divisor or a wrapped binary result alone.
    for case in all.iter().filter(|c| !matches!(c.op, Op::Red(_))) {
        let inferred = Kind::of(case.inferred().expect("not a reduction"));
        let foldable = !case.operands.contains(&F32);
        for x in cells(case) {
            cells_checked += 1;
            let Ok(want) = case.table(&x) else { continue };
            if !foldable {
                continue;
            }
            let consts: Vec<Expr> = x.iter().map(|v| v.to_const()).collect();
            let node = case.node(&consts).expect("not a reduction");
            let of_consts = Kind::of(node.dtype(&|_: &str| unreachable!("no loads")).dtype);
            assert_eq!(of_consts, inferred, "{node:?}");
            let folded = const_fold_expr(node.clone());
            let wrapped = matches!(case.op, Op::Bin(_))
                && exclusion(case, &x).is_some_and(|e| e.treatment == Treatment::NotRunCompiled)
                && want.kind() == Kind::Int;
            if wrapped {
                assert_eq!(folded, node, "a wrapped result is the run's to compute");
            } else {
                let got = Scalar::of_const(&folded).unwrap_or_else(|| panic!("{node:?} unfolded"));
                assert!(
                    got.kind() == want.kind() && same(got, want),
                    "{node:?} -> {folded:?}"
                );
            }
        }
    }
    for case in all.iter().filter(|c| c.integer()) {
        for x in cells(case) {
            if exclusion(case, &x).is_some_and(|e| e.treatment == Treatment::ErrorEverywhere) {
                assert_eq!(case.table(&x), Err(DivisionByZero), "{}", case.label());
                if let Some(node) = case.node(&x.iter().map(|v| v.to_const()).collect::<Vec<_>>()) {
                    assert_eq!(
                        const_fold_expr(node.clone()),
                        node,
                        "left for the run to report"
                    );
                }
            }
        }
    }
    assert!(cells_checked > 20_000, "the sweep shrank: {cells_checked}");
    for e in &EXCLUSIONS {
        let hit = |c: &Case| {
            cells(c)
                .iter()
                .filter(|x| exclusion(c, x).is_some_and(|x| std::ptr::eq(x, e)))
                .count()
        };
        let n: usize = all.iter().map(hit).sum();
        assert!(
            n > 0,
            "no cell is `{}` any more: drop the exclusion",
            e.cells
        );
        eprintln!("{n} cells excluded as `{}`: {}", e.cells, e.reason);
    }

    let runnable =
        |e: Option<&Exclusion>| e.is_none_or(|e| e.treatment != Treatment::ErrorEverywhere);
    let defined_in_c =
        |e: Option<&Exclusion>| e.is_none_or(|e| e.treatment == Treatment::ZeroSignCompiled);
    let compiled = cc_available().then(CompiledEngine::new);
    if compiled.is_none() {
        eprintln!("no C compiler on PATH: the compiled engine is not checked");
    }
    for operands in groups() {
        let rows = rows_of(&all, &operands, runnable);
        check(&Runtime::new(), &rows, false);
        check(&VmRuntime::new(), &rows, false);
        if let Some(engine) = &compiled {
            check(engine, &rows_of(&all, &operands, defined_in_c), false);
        }
    }
}

/// The promotion is stated once, in `ft_ir::scalar`: the table computes
/// in the kind `unary_kind`/`binary_kind` give, the slot lowering converts
/// every operand to it, and the C is typed by `Expr::dtype`. If those
/// disagreed the VM would split from the C. For every case and every cell,
/// the kind of the table's value is the rule's result kind and the kind
/// `Expr::dtype` infers for the node over loads of the operand types (a
/// reduction's node is its binary operator's).
#[test]
fn static_and_dynamic_kinds_agree() {
    let mut cells_checked = 0usize;
    for case in cases() {
        let kinds: Vec<Kind> = case.operands.iter().map(|d| Kind::of(*d)).collect();
        let (node, rule) = match case.op {
            Op::Un(op) => (case.clone(), Some(scalar::unary_kind(op, kinds[0]))),
            Op::Bin(op) => (
                case.clone(),
                Some(scalar::binary_kind(op, kinds[0], kinds[1]).1),
            ),
            Op::Red(op) => {
                let node = Case {
                    op: Op::Bin(op.binary()),
                    ..case.clone()
                };
                (
                    node,
                    Some(scalar::binary_kind(op.binary(), kinds[0], kinds[1]).1),
                )
            }
            Op::Cast(_) | Op::Sel(_) => (case.clone(), None),
        };
        let inferred = Kind::of(node.inferred().expect("a node"));
        for x in cells(&case) {
            let Ok(want) = case.table(&x) else { continue };
            cells_checked += 1;
            let label = case.label();
            assert_eq!(
                want.kind(),
                inferred,
                "{label} at {x:?}: {want:?}, Expr::dtype"
            );
            if let Some(rule) = rule {
                assert_eq!(want.kind(), rule, "{label} at {x:?}: {want:?}, the rule");
            }
        }
    }
    assert!(cells_checked > 20_000, "the sweep shrank: {cells_checked}");
}

/// libmvec's vector variants (`ft_codegen::VECTOR_MATH`, declared where
/// `cc_flags` carries its macro) compute the lanes of a vectorized loop,
/// and its special cases are its own code: the grid's NaN, infinities and
/// zeros, plus arguments whose `exp` overflows, lands among the subnormals,
/// and underflows to zero, at each width.
#[test]
fn vectorized_math_stays_within_tol_of_the_table() {
    if !cc_available() {
        eprintln!("no C compiler on PATH: nothing to vectorize");
        return;
    }
    eprintln!("cc flags: {}", cc_flags());
    let engine = CompiledEngine::new();
    for (dtype, edges) in [
        (F32, [88.8, 88.5, -88.0, -104.0]),
        (F64, [710.0, 709.5, -709.0, -746.0]),
    ] {
        let values: Vec<Scalar> = grid(dtype)
            .into_iter()
            .chain(edges.map(Scalar::Float))
            .collect();
        let cases = [
            Op::Un(UnaryOp::Exp),
            Op::Un(UnaryOp::Ln),
            Op::Bin(BinaryOp::Pow),
        ]
        .map(|op| Case {
            op,
            operands: vec![dtype; if matches!(op, Op::Bin(_)) { 2 } else { 1 }],
        });
        let rows: Vec<_> = cases
            .iter()
            .map(|c| (c, tuples(c.operands.iter().map(|_| values.clone()))))
            .collect();
        check(&engine, &rows, true);
    }
}

#[test]
fn a_zero_divisor_is_a_structured_error() {
    let all = cases();
    let mut programs = 0;
    for case in all.iter().filter(|c| c.integer()) {
        let by_zero = |x: &Vec<Scalar>| {
            exclusion(case, x).is_some_and(|e| e.treatment == Treatment::ErrorEverywhere)
        };
        let Some(x) = cells(case).into_iter().find(by_zero) else {
            continue;
        };
        let (func, inputs) = program(&[(case, vec![x.clone()])], false);
        let engines: [&dyn ExecutionEngine; 2] = [&Runtime::new(), &VmRuntime::new()];
        for engine in engines {
            let r = engine.run(&func, &inputs, &HashMap::new());
            let who = engine.name();
            assert_eq!(
                r.err(),
                Some(RuntimeError::DivisionByZero),
                "{who}: {} at {x:?}",
                case.label()
            );
        }
        programs += 1;
    }
    // `/` and `%` over {I64, Bool} x {I64, Bool}. A reduction does not divide.
    assert_eq!(programs, 8);
}

#[test]
fn a_constant_select_whose_arms_load_keeps_the_nodes_type() {
    // `select(true, xi[0], xf[0])` is an `f32` (C's `?:`), so `/ 2` divides
    // floats. Folded to its bare `i32` arm, the division would floor.
    let func = Func::new("sel")
        .param("xi", [1], I32, AccessType::Input)
        .param("xf", [1], F32, AccessType::Input)
        .param("y", [1], F32, AccessType::Output)
        .body(store(
            "y",
            [0],
            Expr::select(Expr::BoolConst(true), load("xi", [0]), load("xf", [0])) / 2,
        ));
    let inputs = HashMap::from([
        ("xi".to_string(), TensorVal::from_i32(&[1], vec![3])),
        ("xf".to_string(), TensorVal::from_f32(&[1], vec![0.25])),
    ]);
    let y = |f: &Func| {
        let r = Runtime::new().run(f, &inputs, &HashMap::new()).unwrap();
        r.output("y").to_f64_vec()
    };
    assert_eq!(y(&func), [1.5]);
    assert_eq!(y(&const_fold_func(func.clone())), [1.5]);
}
