//! C99 + OpenMP emission for CPU schedules: a printer of the IR that
//! [`lower_scalar`](crate::lower_scalar) leaves. What leaves a loop, what
//! is computed once and what lives in a register is decided there; here a
//! register (a 0-d `CpuStack` def) is a scalar local, and a `vectorize`
//! loop's `simd reduction` clause lists the registers it folds into.

use ft_analysis::{MemPlan, PlanEntry};
use ft_ir::{
    AccessType, BinaryOp, DataType, Expr, ExprType, Func, MemType, Param, ReduceOp, Stmt, StmtKind,
    UnaryOp,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Static preamble: headers and the tiny support library every generated
/// translation unit relies on — `HEADERS`, `VECTOR_MATH`,
/// [`SCALAR_HELPERS`], `LIB_MATMUL`. The `float` math is declared pure
/// (`errno` is never read), so `cc` computes once the `f32` values the
/// scalar lowering leaves in place; a loop marked nothing calls `double`
/// math in its scalar form.
const HEADERS: &str = r#"#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <stdbool.h>
#include <math.h>
float expf(float) __attribute__((const));
float logf(float) __attribute__((const));
float powf(float, float) __attribute__((const));
float sqrtf(float) __attribute__((const));
float tanhf(float) __attribute__((const));

"#;

/// The macro that turns on [`VECTOR_MATH`]: the engine defines it (and links
/// `-lmvec`) only where a probe showed the host's libm has the variants.
pub const VECTOR_MATH_MACRO: &str = "FT_LIBMVEC";

/// glibc libmvec's vector variants of the `<math.h>` functions the emitter
/// calls in loops (`expf`/`exp`, `logf`/`log`, `powf`/`pow`), declared as
/// glibc's own `math-vector.h` does under `-ffast-math`: a loop the
/// compiler vectorizes calls one variant per vector of lanes, and a scalar
/// call stays glibc's. Without [`VECTOR_MATH_MACRO`] the block is empty.
pub const VECTOR_MATH: &str = r#"#ifdef FT_LIBMVEC
#pragma omp declare simd notinbranch
float expf(float);
#pragma omp declare simd notinbranch
double exp(double);
#pragma omp declare simd notinbranch
float logf(float);
#pragma omp declare simd notinbranch
double log(double);
#pragma omp declare simd notinbranch
float powf(float, float);
#pragma omp declare simd notinbranch
double pow(double, double);
#endif

"#;

/// The helpers expressions are spelled with, each `static inline`.
const SCALAR_HELPERS: &str = r#"static inline int64_t ft_fdiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static inline int64_t ft_fmod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
static inline double ft_ffmod(double a, double b) {
    double r = fmod(a, b);
    return (r != 0.0 && ((r < 0.0) != (b < 0.0))) ? r + b : r;
}
static inline float ft_ffmodf(float a, float b) {
    float r = fmodf(a, b);
    return (r != 0.0f && ((r < 0.0f) != (b < 0.0f))) ? r + b : r;
}
static inline double ft_sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }
static inline float ft_sigmoidf(float x) { return 1.0f / (1.0f + expf(-x)); }
"#;

const LIB_MATMUL: &str = r#"static inline void ft_lib_matmul(const float* A, const float* B, float* C,
                                 int64_t m, int64_t k, int64_t n) {
    for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p)
            for (int64_t j = 0; j < n; ++j)
                C[i * n + j] += A[i * k + p] * B[p * n + j];
}
"#;

/// Extra headers a *profiled* translation unit needs (`clock_gettime`).
/// Appended to the preamble of profiled units only, so an unprofiled unit
/// — and therefore its artifact-cache key — holds nothing of profiling.
pub const PROF_PREAMBLE: &str = "#include <time.h>\n";

/// C identifiers every generated translation unit already uses (the
/// preamble's support library) plus the C99 keywords — IR names must never
/// mangle onto these, nor onto a name the C library declares ([`taken`]).
const RESERVED: &[&str] = &[
    "ft_ffmod",
    "ft_ffmodf",
    "ft_fdiv",
    "ft_fmod",
    "ft_sigmoid",
    "ft_sigmoidf",
    "ft_lib_matmul",
    "ft_entry",
    "__ft_prof",
    "__ft_t0",
    "__ft_t1",
    "__ft_arena",
    "auto",
    "break",
    "case",
    "char",
    "const",
    "continue",
    "default",
    "do",
    "double",
    "else",
    "enum",
    "extern",
    "float",
    "for",
    "goto",
    "if",
    "inline",
    "int",
    "long",
    "register",
    "restrict",
    "return",
    "short",
    "signed",
    "sizeof",
    "static",
    "struct",
    "switch",
    "typedef",
    "union",
    "unsigned",
    "void",
    "volatile",
    "while",
    "bool",
    "true",
    "false",
    "int32_t",
    "int64_t",
    "main",
    "clock_gettime",
];

/// What C99 `<stdlib.h>`, `<string.h>` and `<time.h>` declare at file
/// scope (functions, types, macros): the emitted function, itself at file
/// scope, may not take one, nor may a tensor shadow a function it calls.
const LIBC: &str = "\
    atof atoi atol atoll strtod strtof strtold strtol strtoll strtoul strtoull rand srand calloc \
    free malloc realloc abort atexit exit _Exit getenv system bsearch qsort abs labs llabs div \
    ldiv lldiv mblen mbtowc wctomb mbstowcs wcstombs size_t wchar_t div_t ldiv_t lldiv_t NULL \
    EXIT_FAILURE EXIT_SUCCESS RAND_MAX MB_CUR_MAX memcpy memmove strcpy strncpy strcat strncat \
    memcmp strcmp strcoll strncmp strxfrm memchr strchr strcspn strpbrk strrchr strspn strstr \
    strtok memset strerror strlen clock difftime mktime time asctime ctime gmtime localtime \
    strftime clock_t time_t CLOCKS_PER_SEC";

/// What C99 `<math.h>` declares at file scope; each function also has an
/// `f` (float) and an `l` (long double) variant.
const LIBM: &str = "\
    acos asin atan atan2 cos sin tan acosh asinh atanh cosh sinh tanh exp exp2 expm1 frexp ilogb \
    ldexp log log10 log1p log2 logb modf scalbn scalbln cbrt fabs hypot pow sqrt erf erfc lgamma \
    tgamma ceil floor nearbyint rint lrint llrint round lround llround trunc fmod remainder \
    remquo copysign nan nextafter nexttoward fdim fmax fmin fma float_t double_t HUGE_VAL \
    HUGE_VALF HUGE_VALL INFINITY NAN FP_INFINITE FP_NAN FP_NORMAL FP_SUBNORMAL FP_ZERO FP_ILOGB0 \
    FP_ILOGBNAN MATH_ERRNO MATH_ERREXCEPT math_errhandling fpclassify isfinite isinf isnan \
    isnormal signbit isgreater isgreaterequal isless islessequal islessgreater isunordered";

/// Every identifier no IR name may take: [`RESERVED`], [`LIBC`], and each
/// [`LIBM`] name in its three float widths.
fn taken() -> &'static HashSet<String> {
    static TAKEN: OnceLock<HashSet<String>> = OnceLock::new();
    TAKEN.get_or_init(|| {
        let libm = LIBM.split_ascii_whitespace();
        let widths = libm.flat_map(|n| [n.to_string(), format!("{n}f"), format!("{n}l")]);
        let libc = LIBC
            .split_ascii_whitespace()
            .chain(RESERVED.iter().copied());
        libc.map(str::to_string).chain(widths).collect()
    })
}

/// Scope-aware mapping from IR names to *distinct* C identifiers.
///
/// `sanitize` alone maps every non-alphanumeric character to `_`, so
/// distinct IR names like `x.y` and `x_y` collapse onto one C identifier
/// and silently shadow each other (the same bug class as the
/// `{var}.cache` def collision fixed in the schedule layer). The mangler
/// keeps a used-set per translation unit and disambiguates collisions with
/// a numeric suffix, while a scope stack resolves IR shadowing (nested
/// `VarDef`s reusing a name) to whichever binding is innermost.
#[derive(Debug, Default)]
pub struct Mangler {
    used: HashSet<String>,
    /// Live bindings, innermost last: IR name, C identifier. A handful at
    /// any point, and looked up once per name the unit mentions.
    scopes: Vec<(String, String)>,
}

impl Mangler {
    /// A mangler with the preamble's support identifiers and C keywords
    /// pre-reserved.
    pub fn new() -> Mangler {
        Mangler::default()
    }

    /// Bind an IR name in the current scope, returning its unique C
    /// identifier (stable for the lifetime of the translation unit).
    pub fn bind(&mut self, name: &str) -> String {
        let base = sanitize(name);
        let mut ident = base.clone();
        let mut n = 1usize;
        while taken().contains(&ident) || self.used.contains(&ident) {
            n += 1;
            ident = format!("{base}_{n}");
        }
        self.used.insert(ident.clone());
        self.scopes.push((name.to_string(), ident.clone()));
        ident
    }

    /// Leave the innermost binding of `name` (its identifier stays
    /// reserved, so a later re-binding of a colliding name cannot reuse it).
    pub fn unbind(&mut self, name: &str) {
        if let Some(i) = self.scopes.iter().rposition(|(n, _)| n == name) {
            self.scopes.remove(i);
        }
    }

    /// The C identifier of the innermost binding of `name`. Falls back to
    /// plain sanitization for names never bound (callers emitting
    /// references to externally-declared identifiers).
    pub fn resolve(&self, name: &str) -> String {
        let mut out = String::new();
        self.put(&mut out, name);
        out
    }

    /// Append [`resolve`](Mangler::resolve)`(name)` to `out` without an
    /// intermediate `String`.
    fn put(&self, out: &mut String, name: &str) {
        match self.scopes.iter().rev().find(|(n, _)| n == name) {
            Some((_, ident)) => out.push_str(ident),
            None => out.push_str(&sanitize(name)),
        }
    }
}

/// The C identifiers of a translation unit's signature, in declaration
/// order, as [`Printer::new`] bound them — the one `Mangler` pass that also
/// prints the body and the `ft_entry` wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CSymbols {
    /// Identifier of the emitted function.
    pub func: String,
    /// One identifier per tensor parameter, in declaration order.
    pub params: Vec<String>,
    /// One identifier per size parameter, in declaration order.
    pub size_params: Vec<String>,
}

/// One per-loop-nest timing slot in a profiled translation unit.
///
/// Slot `k` of the `uint64_t *__ft_prof` array passed to the profiled
/// function accumulates the wall nanoseconds spent in this outermost loop
/// nest. `stmt`/`desc` use the same identity and label scheme as the
/// interpreter's profile nodes (`for {iter}` with the For's [`ft_ir::StmtId`]),
/// so compiled attribution is directly comparable to interpreted attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSite {
    /// Stable id of the profiled (outermost) For statement.
    pub stmt: ft_ir::StmtId,
    /// Interpreter-compatible label, e.g. `for i`.
    pub desc: String,
}

/// IR the C emitter refuses. The parallel constructs are the ones
/// [`lower_cpu_parallel`](crate::lower_cpu_parallel) rewrites away: reaching
/// the emitter with one means the caller skipped the lowering, and a pragma
/// for it would be a silent nondeterministic (or serialized-nested) kernel.
/// A library call the backend has no kernel for would be a silent no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// A `ReduceTo` into `var` still carries the `atomic` flag.
    AtomicReduce {
        /// The reduction target.
        var: String,
    },
    /// The parallel loop over `iter` sits inside another parallel loop.
    NestedParallel {
        /// The inner loop's iterator.
        iter: String,
    },
    /// A `LibCall` names a kernel the C backend does not provide.
    UnknownLibKernel {
        /// The kernel's name.
        kernel: String,
    },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::AtomicReduce { var } => write!(
                f,
                "atomic reduction into `{var}` reached the C emitter; run lower_cpu_parallel first"
            ),
            CodegenError::NestedParallel { iter } => write!(
                f,
                "parallel loop `{iter}` nested in a parallel loop reached the C emitter; \
                 run lower_cpu_parallel first"
            ),
            CodegenError::UnknownLibKernel { kernel } => {
                write!(f, "unknown library kernel `{kernel}`")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// Largest constant element count emitted as an automatic array.
const STACK_ELEMS: i64 = 4096;

/// The expression printer: what is in scope — tensors with their element
/// types and shapes, IR names with their identifiers. Names, indices and
/// expressions are spelled through it; everything it prints is typed from
/// [`Expr::dtype`].
struct Printer<'a> {
    /// Tensors in scope, innermost last: name, element type, shape, and
    /// whether it is a register, spelled as a scalar local.
    tensors: Vec<(&'a str, DataType, &'a [Expr], bool)>,
    names: Mangler,
}

struct Emitter<'a> {
    p: Printer<'a>,
    out: String,
    indent: usize,
    /// `Some` when emitting a profiled unit: the sites allocated so far.
    prof: Option<Vec<ProfSite>>,
    /// For-nesting depth; only depth-0 loops get a profiling site.
    loop_depth: usize,
    /// The memory plan, whose entry of a def (by statement id) places it
    /// in the arena.
    plan: &'a MemPlan,
    /// Number of enclosing parallel (`omp parallel for`) loops. Defs inside
    /// a parallel body must stay thread-private; a shared arena offset
    /// would race across the team.
    parallel_depth: usize,
    /// First construct the backend refuses; the unit is discarded when set.
    err: Option<CodegenError>,
}

/// `<math.h>` spelling of a function that exists per float width: the
/// `float` one where the operands are `f32`, as C++ overload resolution
/// picks for the paper's backend.
fn float_fn(name: &str, single: bool) -> &'static str {
    match (name, single) {
        ("abs", true) => "fabsf(",
        ("abs", false) => "fabs(",
        ("sqrt", true) => "sqrtf(",
        ("sqrt", false) => "sqrt(",
        ("exp", true) => "expf(",
        ("exp", false) => "exp(",
        ("ln", true) => "logf(",
        ("ln", false) => "log(",
        ("sigmoid", true) => "ft_sigmoidf(",
        ("sigmoid", false) => "ft_sigmoid(",
        ("tanh", true) => "tanhf(",
        ("tanh", false) => "tanh(",
        ("%", true) => "ft_ffmodf(",
        ("%", false) => "ft_ffmod(",
        ("min", true) => "fminf(",
        ("min", false) => "fmin(",
        ("max", true) => "fmaxf(",
        ("max", false) => "fmax(",
        ("pow", true) => "powf(",
        ("pow", false) => "pow(",
        _ => unreachable!("{name} has no float spelling"),
    }
}

/// An integer literal. Index arithmetic is mostly small constants, and
/// `fmt` costs more than the rest of the node's emission.
fn put_int(out: &mut String, v: i64) {
    match u8::try_from(v) {
        Ok(d @ 0..=9) => out.push(char::from(b'0' + d)),
        Ok(d @ 10..=99) => {
            out.push(char::from(b'0' + d / 10));
            out.push(char::from(b'0' + d % 10));
        }
        _ => {
            let _ = write!(out, "{v}");
        }
    }
}

/// A float literal as `single` or double precision source text.
fn put_float(out: &mut String, v: f64, single: bool) {
    // The `f32` is printed with its own shortest digits, which C reads back
    // to the same bits; the double's digits with an `f` could round twice.
    let inf = if single {
        (v as f32).is_infinite()
    } else {
        v.is_infinite()
    };
    if v.is_nan() {
        out.push_str("NAN");
    } else if inf {
        out.push_str(if v > 0.0 { "INFINITY" } else { "-INFINITY" });
    } else if single {
        let _ = write!(out, "{:?}f", v as f32);
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// `func`'s parameter list under the identifiers of `syms`: a pointer per
/// tensor (`const` for inputs), then the size parameters.
fn signature(func: &Func, syms: &CSymbols) -> Vec<String> {
    let tensors = func.params.iter().zip(&syms.params);
    let tensors = tensors.map(|(p, ident)| format!("{} {ident}", pointer(p)));
    let sizes = syms
        .size_params
        .iter()
        .map(|ident| format!("int64_t {ident}"));
    tensors.chain(sizes).collect()
}

/// The pointer type of a tensor parameter (`const` for inputs).
fn pointer(p: &Param) -> String {
    let qual = if p.atype == AccessType::Input {
        "const "
    } else {
        ""
    };
    format!("{qual}{}*", ctype(p.dtype))
}

/// C's name of `dt`.
fn ctype(dt: DataType) -> &'static str {
    match dt {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I32 => "int32_t",
        DataType::I64 => "int64_t",
        DataType::Bool => "bool",
    }
}

/// Whether `e` is built from literals only and floating point: the one
/// kind of operand whose spelling depends on what it meets.
fn weak_float(e: &Expr) -> bool {
    !matches!(e, Expr::IntConst(_))
        && e.literal_only()
        && e.dtype(&|_| DataType::I64).dtype.is_float()
}

const WEAK_FLOAT: ExprType = ExprType {
    dtype: DataType::F64,
    weak: true,
};

impl<'a> Printer<'a> {
    /// A printer with `func`'s signature bound (name, tensors, sizes, in
    /// that order) and its parameters in scope.
    fn new(func: &'a Func) -> (Printer<'a>, CSymbols) {
        let mut names = Mangler::new();
        let syms = CSymbols {
            func: names.bind(&func.name),
            params: func.params.iter().map(|p| names.bind(&p.name)).collect(),
            size_params: func.size_params.iter().map(|sp| names.bind(sp)).collect(),
        };
        let tensors = func
            .params
            .iter()
            .map(|p| (p.name.as_str(), p.dtype, p.shape.as_slice(), false))
            .collect();
        (Printer { tensors, names }, syms)
    }

    fn tensor(&self, name: &str) -> Option<&(&'a str, DataType, &'a [Expr], bool)> {
        self.tensors.iter().rev().find(|t| t.0 == name)
    }

    fn elem(&self, name: &str) -> DataType {
        self.tensor(name).map_or(DataType::I64, |t| t.1)
    }

    fn ty(&self, e: &Expr) -> ExprType {
        e.dtype(&|n| self.elem(n))
    }

    /// Append `var[linearized indices]` to `out`, or `var` of a register.
    fn put_index(&self, out: &mut String, var: &str, indices: &[Expr]) {
        let (shape, register) = self.tensor(var).map_or((&[][..], false), |t| (t.2, t.3));
        self.names.put(out, var);
        if register {
            return;
        }
        out.push('[');
        match indices {
            [] => out.push('0'),
            // Row-major Horner form: ((i0) * (n1) + (i1)) * (n2) + (i2).
            [first, rest @ ..] => {
                for _ in rest {
                    out.push('(');
                }
                self.put_expr(out, first, DataType::I64);
                for (d, idx) in rest.iter().enumerate() {
                    out.push_str(") * (");
                    self.put_expr(out, &shape[d + 1], DataType::I64);
                    out.push_str(") + (");
                    self.put_expr(out, idx, DataType::I64);
                    out.push(')');
                }
            }
        }
        out.push(']');
    }

    fn expr(&self, e: &Expr, lit: DataType) -> String {
        let mut out = String::new();
        self.put_expr(&mut out, e, lit);
        out
    }

    /// The type float literals take in two operands that are converted to a
    /// common type: the other operand's, or `lit` when both are literals.
    fn operand_lit(&self, a: &Expr, b: &Expr, lit: DataType) -> DataType {
        let other = match (weak_float(a), weak_float(b)) {
            (true, false) => b,
            (false, true) => a,
            _ => return lit,
        };
        self.ty(other).unify(WEAK_FLOAT).resolve(lit)
    }

    /// `open a sep b close`, streamed.
    #[allow(clippy::too_many_arguments)]
    fn put_pair(
        &self,
        out: &mut String,
        open: &str,
        a: &Expr,
        sep: &str,
        b: &Expr,
        close: &str,
        lit: DataType,
    ) {
        out.push_str(open);
        self.put_expr(out, a, lit);
        out.push_str(sep);
        self.put_expr(out, b, lit);
        out.push_str(close);
    }

    /// Append the C spelling of `e` to `out` — one buffer for the whole
    /// expression tree, not a `String` per node: the engine re-emits the
    /// translation unit on every warm call. `lit` is the type literals take
    /// where nothing in `e` says otherwise (a store's target type): an
    /// `f32` expression is spelled to evaluate in `float`, so every float
    /// literal in it carries an `f` and every math call the `float` name.
    fn put_expr(&self, out: &mut String, e: &Expr, lit: DataType) {
        match e {
            Expr::IntConst(v) => put_int(out, *v),
            Expr::FloatConst(v) => put_float(out, *v, lit == DataType::F32),
            Expr::BoolConst(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Var(n) => self.names.put(out, n),
            Expr::Load { var, indices } => self.put_index(out, var, indices),
            Expr::Unary { op, a } => {
                let (open, lit) = match op {
                    UnaryOp::Neg => ("(-", lit),
                    UnaryOp::Not => ("(!", lit),
                    _ => {
                        // The operand's type picks the function.
                        let t = self.ty(a).resolve(lit);
                        let lit = if t.is_float() { t } else { lit };
                        match op {
                            UnaryOp::Sign => {
                                // The operand's type, not C's `int`.
                                let x = self.expr(a, lit);
                                let sign = format!("(({x} > 0) - ({x} < 0))");
                                let _ = match t.is_float() {
                                    true => write!(out, "(({}){sign})", ctype(t)),
                                    false => write!(out, "{sign}"),
                                };
                                return;
                            }
                            UnaryOp::Abs if !t.is_float() => ("llabs(", lit),
                            _ => (float_fn(op.name(), t == DataType::F32), lit),
                        }
                    }
                };
                out.push_str(open);
                self.put_expr(out, a, lit);
                out.push(')');
            }
            Expr::Binary { op, a, b } => {
                let (open, sep) = match op {
                    BinaryOp::Add => ("(", " + "),
                    BinaryOp::Sub => ("(", " - "),
                    BinaryOp::Mul => ("(", " * "),
                    BinaryOp::Eq => ("(", " == "),
                    BinaryOp::Ne => ("(", " != "),
                    BinaryOp::Lt => ("(", " < "),
                    BinaryOp::Le => ("(", " <= "),
                    BinaryOp::Gt => ("(", " > "),
                    BinaryOp::Ge => ("(", " >= "),
                    BinaryOp::And => ("(", " && "),
                    BinaryOp::Or => ("(", " || "),
                    BinaryOp::Div
                    | BinaryOp::Mod
                    | BinaryOp::Min
                    | BinaryOp::Max
                    | BinaryOp::Pow => {
                        // These spell differently per operand type.
                        let t = self.ty(a).unify(self.ty(b)).resolve(lit);
                        let lit = if t.is_float() { t } else { lit };
                        let open = match (op, t.is_float()) {
                            (BinaryOp::Div, true) => {
                                return self.put_pair(out, "(", a, " / ", b, ")", lit)
                            }
                            (BinaryOp::Div, false) => "ft_fdiv(",
                            (BinaryOp::Mod, false) => "ft_fmod(",
                            (BinaryOp::Min | BinaryOp::Max, false) => {
                                let (x, y) = (self.expr(a, lit), self.expr(b, lit));
                                let cmp = if *op == BinaryOp::Min { '<' } else { '>' };
                                let _ = write!(out, "(({x}) {cmp} ({y}) ? ({x}) : ({y}))");
                                return;
                            }
                            // `pow` of integers is the double one.
                            _ => float_fn(op.name(), t == DataType::F32),
                        };
                        return self.put_pair(out, open, a, ", ", b, ")", lit);
                    }
                };
                let lit = self.operand_lit(a, b, lit);
                self.put_pair(out, open, a, sep, b, ")", lit);
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                out.push('(');
                self.put_expr(out, cond, lit);
                let lit = self.operand_lit(then, otherwise, lit);
                self.put_pair(out, " ? ", then, " : ", otherwise, ")", lit);
            }
            Expr::Cast { dtype, a } => {
                let _ = write!(out, "(({})", ctype(*dtype));
                self.put_expr(out, a, if dtype.is_float() { *dtype } else { lit });
                out.push(')');
            }
        }
    }
}

impl<'a> Emitter<'a> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    /// One line whose text `write` streams straight into the unit.
    fn line_with(&mut self, write: impl FnOnce(&Emitter<'a>, &mut String)) {
        let mut out = std::mem::take(&mut self.out);
        for _ in 0..self.indent {
            out.push_str("    ");
        }
        write(self, &mut out);
        out.push('\n');
        self.out = out;
    }

    fn numel(&self, shape: &[Expr]) -> String {
        if shape.is_empty() {
            return "1".to_string();
        }
        shape
            .iter()
            .map(|e| format!("({})", self.p.expr(e, DataType::I64)))
            .collect::<Vec<_>>()
            .join(" * ")
    }

    /// `var[indices] = value;` or `var[indices] op= value;`.
    fn assign(&mut self, var: &str, indices: &[Expr], op: Option<ReduceOp>, value: &Expr) {
        let elem = self.p.elem(var);
        self.line_with(|em, out| {
            em.p.put_index(out, var, indices);
            match op {
                None | Some(ReduceOp::Add | ReduceOp::Mul) => {
                    out.push_str(match op {
                        None => " = ",
                        Some(ReduceOp::Add) => " += ",
                        _ => " *= ",
                    });
                    em.p.put_expr(out, value, elem);
                }
                Some(op @ (ReduceOp::Min | ReduceOp::Max)) => {
                    // Compared in the common type of element and value,
                    // like any other min/max: exactly, on integers.
                    out.push_str(" = ");
                    let t = ExprType::strong(elem).unify(em.p.ty(value)).dtype;
                    if t.is_float() {
                        let name = if op == ReduceOp::Min { "min" } else { "max" };
                        out.push_str(float_fn(name, t == DataType::F32));
                        em.p.put_index(out, var, indices);
                        out.push_str(", ");
                        em.p.put_expr(out, value, t);
                        out.push(')');
                    } else {
                        let mut x = String::new();
                        em.p.put_index(&mut x, var, indices);
                        let y = em.p.expr(value, elem);
                        let cmp = if op == ReduceOp::Min { '<' } else { '>' };
                        let _ = write!(out, "(({x}) {cmp} ({y}) ? ({x}) : ({y}))");
                    }
                }
            }
            out.push(';');
        });
    }

    /// A register `name` of `dtype` whose scope is `body`, without a block
    /// (every identifier of the unit is distinct): `[const] T x = v;` when
    /// `body` starts with `x = v` (`const` when no other store follows),
    /// `T x = 0;` otherwise (every def starts from zero).
    fn register(&mut self, name: &'a str, dtype: DataType, body: &'a Stmt) {
        let stmts = match &body.kind {
            StmtKind::Block(v) => v.as_slice(),
            _ => std::slice::from_ref(body),
        };
        let reads = |e: &Expr| e.any(&mut |n| matches!(n, Expr::Load { var, .. } if var == name));
        let init = match stmts.first().map(|s| &s.kind) {
            Some(StmtKind::Store {
                var,
                indices,
                value,
            }) if var == name && indices.is_empty() && !reads(value) => Some(value),
            _ => None,
        };
        let stmts = &stmts[usize::from(init.is_some())..];
        let only = init.is_some() && !stmts.iter().any(|s| writes(s, name));
        let ty = ctype(dtype);
        self.p.tensors.push((name, dtype, &[], true));
        let ident = self.p.names.bind(name);
        self.line_with(|em, out| {
            let _ = write!(out, "{}{ty} {ident} = ", if only { "const " } else { "" });
            match init {
                Some(v) => em.p.put_expr(out, v, dtype),
                None => out.push('0'),
            }
            out.push(';');
        });
        for s in stmts {
            self.stmt(s);
        }
        self.p.names.unbind(name);
        self.p.tensors.pop();
    }

    /// `#pragma omp simd`, with a `reduction` clause per operator naming
    /// the registers outside `body` that it folds into with that operator.
    fn simd_pragma(&mut self, body: &Stmt) {
        let (mut defs, mut folds) = (Vec::new(), Vec::new());
        body.walk(&mut |s| match &s.kind {
            StmtKind::VarDef { name, .. } => defs.push(name.clone()),
            StmtKind::ReduceTo { var, op, .. } if self.p.tensor(var).is_some_and(|t| t.3) => {
                folds.push((*op, var.clone()))
            }
            _ => {}
        });
        self.line_with(|em, out| {
            out.push_str("#pragma omp simd");
            for (sym, op) in [('+', ReduceOp::Add), ('*', ReduceOp::Mul)] {
                let mut ids: Vec<String> = Vec::new();
                for (_, var) in folds.iter().filter(|f| f.0 == op && !defs.contains(&f.1)) {
                    let id = em.p.names.resolve(var);
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                if !ids.is_empty() {
                    let _ = write!(out, " reduction({sym}: {})", ids.join(", "));
                }
            }
        });
    }

    fn stmt(&mut self, s: &'a Stmt) {
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Block(v) => {
                for st in v {
                    self.stmt(st);
                }
            }
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                body,
                ..
            } if mtype.register(shape.len()) => self.register(name, *dtype, body),
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                body,
                ..
            } => {
                let ty = ctype(*dtype);
                // Extents are evaluated in the enclosing scope, before the
                // new name is bound.
                let n = self.numel(shape);
                let const_n: Option<i64> = shape
                    .iter()
                    .map(|e| ft_passes::const_fold_expr(e.clone()).as_int())
                    .try_fold(1i64, |a, b| b.map(|v| a * v));
                let entry = self.plan.entry(s.id);
                self.p.tensors.push((name, *dtype, shape, false));
                let ident = self.p.names.bind(name);
                self.line("{");
                self.indent += 1;
                let heap = match (mtype, const_n) {
                    // Small constant-extent stack defs beat any arena: no
                    // pointer chase, no shared cache lines.
                    (MemType::CpuStack, Some(n)) if n <= STACK_ELEMS => {
                        self.line(&format!("{ty} {ident}[{n}] = {{0}};"));
                        false
                    }
                    // So does a thread-private heap row that small: the
                    // arena is the team's, and a `calloc` per iteration
                    // costs more than the row's work.
                    (MemType::CpuHeap, Some(n))
                        if self.parallel_depth > 0 && (1..=STACK_ELEMS).contains(&n) =>
                    {
                        self.line(&format!("{ty} {ident}[{n}] = {{0}};"));
                        false
                    }
                    _ => match entry {
                        Some(&PlanEntry {
                            offset: Some(offset),
                            bytes: Some(bytes),
                            must_zero,
                            ..
                        }) if self.parallel_depth == 0 => {
                            self.line(&format!("{ty}* {ident} = ({ty}*)(__ft_arena + {offset});"));
                            if must_zero {
                                self.line(&format!("memset({ident}, 0, {bytes});"));
                            }
                            false
                        }
                        _ => {
                            self.line(&format!(
                                "{ty}* {ident} = ({ty}*)calloc({n}, sizeof({ty}));"
                            ));
                            true
                        }
                    },
                };
                self.stmt(body);
                if heap {
                    self.line(&format!("free({ident});"));
                }
                self.indent -= 1;
                self.line("}");
                self.p.names.unbind(name);
                self.p.tensors.pop();
            }
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => {
                // Outermost loop nests in a profiled unit are bracketed with
                // clock_gettime pairs accumulating into their __ft_prof slot.
                let site = if self.loop_depth == 0 {
                    if let Some(sites) = &mut self.prof {
                        let k = sites.len();
                        sites.push(ProfSite {
                            stmt: s.id,
                            desc: format!("for {iter}"),
                        });
                        self.line("{");
                        self.indent += 1;
                        self.line("struct timespec __ft_t0, __ft_t1;");
                        self.line("clock_gettime(CLOCK_MONOTONIC, &__ft_t0);");
                        Some(k)
                    } else {
                        None
                    }
                } else {
                    None
                };
                // Bounds are evaluated in the enclosing scope; the iterator
                // is only in scope inside the loop.
                let begin_c = self.p.expr(begin, DataType::I64);
                let end_c = self.p.expr(end, DataType::I64);
                if property.parallel.is_parallel() {
                    if self.parallel_depth > 0 {
                        self.err
                            .get_or_insert_with(|| CodegenError::NestedParallel {
                                iter: iter.clone(),
                            });
                    }
                    self.line("#pragma omp parallel for");
                } else if property.vectorize {
                    self.simd_pragma(body);
                }
                let i = self.p.names.bind(iter);
                self.line(&format!(
                    "for (int64_t {i} = {begin_c}; {i} < {end_c}; ++{i}) {{"
                ));
                self.indent += 1;
                self.loop_depth += 1;
                if property.parallel.is_parallel() {
                    self.parallel_depth += 1;
                }
                self.stmt(body);
                if property.parallel.is_parallel() {
                    self.parallel_depth -= 1;
                }
                self.loop_depth -= 1;
                self.indent -= 1;
                self.line("}");
                self.p.names.unbind(iter);
                if let Some(k) = site {
                    self.line("clock_gettime(CLOCK_MONOTONIC, &__ft_t1);");
                    self.line(&format!(
                        "if (__ft_prof) __ft_prof[{k}] += \
                         (uint64_t)(__ft_t1.tv_sec - __ft_t0.tv_sec) * 1000000000u \
                         + (uint64_t)__ft_t1.tv_nsec - (uint64_t)__ft_t0.tv_nsec;"
                    ));
                    self.indent -= 1;
                    self.line("}");
                }
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                self.line(&format!("if ({}) {{", self.p.expr(cond, DataType::I64)));
                self.indent += 1;
                self.stmt(then);
                self.indent -= 1;
                if let Some(o) = otherwise {
                    self.line("} else {");
                    self.indent += 1;
                    self.stmt(o);
                    self.indent -= 1;
                }
                self.line("}");
            }
            StmtKind::Store {
                var,
                indices,
                value,
            } => self.assign(var, indices, None, value),
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                atomic,
            } => {
                if *atomic {
                    self.err
                        .get_or_insert_with(|| CodegenError::AtomicReduce { var: var.clone() });
                }
                self.assign(var, indices, Some(*op), value);
            }
            StmtKind::LibCall {
                kernel,
                inputs,
                outputs,
                attrs,
            } => {
                if kernel == "matmul" {
                    self.line(&format!(
                        "ft_lib_matmul({}, {}, {}, {}, {}, {});",
                        self.p.names.resolve(&inputs[0]),
                        self.p.names.resolve(&inputs[1]),
                        self.p.names.resolve(&outputs[0]),
                        attrs[0],
                        attrs[1],
                        attrs[2]
                    ));
                } else {
                    self.err
                        .get_or_insert_with(|| CodegenError::UnknownLibKernel {
                            kernel: kernel.clone(),
                        });
                }
            }
        }
    }
}

/// Make a tensor/iterator name a valid C identifier.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Whether `s` stores, folds into or computes `var`.
fn writes(s: &Stmt, var: &str) -> bool {
    let mut found = false;
    s.walk(&mut |st| {
        found |= match &st.kind {
            StmtKind::Store { var: v, .. } | StmtKind::ReduceTo { var: v, .. } => v == var,
            StmtKind::LibCall { outputs, .. } => outputs.iter().any(|o| o == var),
            _ => false,
        };
    });
    found
}

/// Emit the translation unit `cc` builds for a CPU-scheduled function,
/// [lowered](crate::lower_cpu_parallel) and
/// [scalar-lowered](crate::lower_scalar) (which decides what it prints),
/// under its memory plan: the preamble, the function, and the fixed-ABI
/// entry point.
///
/// The function takes a trailing `unsigned char* __ft_arena` parameter
/// (before `__ft_prof` when `profile` is set), and every def the plan
/// placed is a pointer at a static offset into that arena — one allocation
/// for the whole call instead of one `calloc` per def entry, zero-filled
/// via `memset` only where the plan's liveness analysis could not prove
/// write-before-read. The arena must not be NULL: the caller owns at least
/// the planned peak of it. Small constant-extent `CpuStack` defs keep their
/// stack-array emission, and so does a small constant-extent heap def
/// inside a parallel body, which must be thread-private and therefore
/// cannot take an arena offset; defs the plan could not size get `calloc`.
///
/// A *profiled* function brackets every outermost loop nest with
/// `clock_gettime(CLOCK_MONOTONIC)` pairs accumulating wall nanoseconds into
/// slot `k` of `__ft_prof` (NULL skips recording), `k` ↔ `sites[k]` of the
/// returned table.
///
/// The unit ends with `void ft_entry(void **params, const int64_t *sizes,
/// unsigned char *arena, uint64_t *prof)`: it unpacks the untyped array —
/// tensors, then sizes, in declaration order — and calls the function
/// (`prof` discarded when unprofiled, so the entry signature never varies).
/// The pass that printed the function prints it; they cannot disagree.
///
/// The plan must have been computed for this exact `func`: each def is
/// placed by its statement id ([`MemPlan::entry`]), and a def the plan has
/// no entry for gets `calloc`.
///
/// # Errors
///
/// [`CodegenError`] when `func` still holds an `atomic` reduction or a
/// nested parallel loop, or calls a library kernel the backend does not
/// provide.
pub fn emit_c(
    func: &Func,
    plan: &MemPlan,
    profile: bool,
) -> Result<(String, Vec<ProfSite>), CodegenError> {
    let (p, syms) = Printer::new(func);
    let mut em = Emitter {
        p,
        out: String::new(),
        indent: 0,
        prof: profile.then(Vec::new),
        loop_depth: 0,
        plan,
        parallel_depth: 0,
        err: None,
    };
    let mut sig = signature(func, &syms);
    sig.push("unsigned char* __ft_arena".to_string());
    if profile {
        sig.push("uint64_t *__ft_prof".to_string());
    }
    let mut out = [HEADERS, VECTOR_MATH, SCALAR_HELPERS, LIB_MATMUL].concat();
    if profile {
        out.push_str(PROF_PREAMBLE);
    }
    let _ = writeln!(out, "\nvoid {}({}) {{", syms.func, sig.join(", "));
    if !plan.entries.iter().any(|e| e.offset.is_some()) {
        out.push_str("    (void)__ft_arena;\n");
    }
    em.indent = 1;
    em.stmt(&func.body);
    if let Some(e) = em.err {
        return Err(e);
    }
    out.push_str(&em.out);
    out.push_str("}\n");
    out.push_str(
        "\nvoid ft_entry(void **params, const int64_t *sizes, \
         unsigned char *arena, uint64_t *prof) {\n",
    );
    if !profile {
        out.push_str("    (void)prof;\n");
    }
    let _ = write!(out, "    {}(", syms.func);
    for (i, p) in func.params.iter().enumerate() {
        let _ = write!(out, "({})params[{i}], ", pointer(p));
    }
    for i in 0..func.size_params.len() {
        let _ = write!(out, "sizes[{i}], ");
    }
    out.push_str(if profile {
        "arena, prof);\n}\n"
    } else {
        "arena);\n}\n"
    });
    Ok((out, em.prof.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;
    use std::collections::HashMap;

    fn sample() -> Func {
        Func::new("axpy")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::InOut)
            .size_param("n")
            .body(for_with(
                "i",
                0,
                var("n"),
                ForProperty::parallel(ParallelScope::OpenMp),
                store(
                    "y",
                    [var("i")],
                    load("y", [var("i")]) + load("x", [var("i")]) * 2.0f32,
                ),
            ))
    }

    /// `f`'s unit under its plan at no sizes, profiled or not, with the
    /// profiling sites.
    fn unit_of(f: &Func, profile: bool) -> Result<(String, Vec<ProfSite>), CodegenError> {
        emit_c(f, &MemPlan::plan(f, &HashMap::new()), profile)
    }

    /// `f`'s unprofiled unit under its plan at no sizes.
    fn unit(f: &Func) -> Result<String, CodegenError> {
        Ok(unit_of(f, false)?.0)
    }

    #[test]
    fn emits_signature_and_pragma() {
        let c = unit(&sample()).unwrap();
        assert!(
            c.contains("void axpy(const float* x, float* y, int64_t n, unsigned char* __ft_arena)"),
            "{c}"
        );
        assert!(c.contains("#pragma omp parallel for"), "{c}");
        assert!(c.contains("y[i] = (y[i] + (x[i] * 2.0f))"), "{c}");
    }

    /// `h[idx[i]] += 1` over a parallel `i`, flagged atomic by `parallelize`.
    fn histogram() -> Func {
        Func::new("f")
            .param("h", [4], DataType::F32, AccessType::Output)
            .param("idx", [64], DataType::I32, AccessType::Input)
            .body(for_with(
                "i",
                0,
                64,
                ForProperty::parallel(ParallelScope::OpenMp),
                Stmt::new(StmtKind::ReduceTo {
                    var: "h".to_string(),
                    indices: vec![Expr::cast(DataType::I64, load("idx", [var("i")]))],
                    op: ReduceOp::Add,
                    value: Expr::FloatConst(1.0),
                    atomic: true,
                }),
            ))
    }

    #[test]
    fn emits_stack_locals() {
        let f = Func::new("g")
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [8],
                DataType::F32,
                MemType::CpuStack,
                store("y", [0], load("t", [0])),
            ));
        let c = unit(&f).unwrap();
        assert!(c.contains("float t[8] = {0};"), "{c}");
    }

    #[test]
    fn unlowered_parallel_constructs_are_errors_not_pragmas() {
        assert_eq!(
            unit(&histogram()),
            Err(CodegenError::AtomicReduce {
                var: "h".to_string()
            })
        );
        let omp = || ForProperty::parallel(ParallelScope::OpenMp);
        let nested = Func::new("g")
            .param("y", [8, 8], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                8,
                omp(),
                for_with("j", 0, 8, omp(), store("y", [var("i"), var("j")], 1.0f32)),
            ));
        assert_eq!(
            unit_of(&nested, true).map(|(c, _)| c),
            Err(CodegenError::NestedParallel {
                iter: "j".to_string()
            })
        );
    }

    #[test]
    fn lowered_histogram_emits_chunk_rows_and_an_ordered_merge() {
        let f = histogram();
        let lowered = crate::lower_cpu_parallel(&f);
        let c = unit(&crate::lower_scalar(&lowered)).unwrap();
        assert!(
            !c.contains("omp atomic") && !c.contains("omp critical"),
            "{c}"
        );
        assert_eq!(c.matches("#pragma omp parallel for").count(), 2, "{c}");
        assert!(
            c.contains("h_part[(i_chunk) * (4) + (((int64_t)idx[i]))] += 1.0f;"),
            "{c}"
        );
        // Rows fold in ascending chunk order, into a register.
        assert!(
            c.contains("ft_a1 += h_part[(i_chunk_2) * (4) + (h_part_i0)];"),
            "{c}"
        );
        assert!(c.contains("h[h_part_i0] = ft_a1;"), "{c}");
        // The chunk loop keeps the loop's site; the merge nest has its own.
        let (_, sites) = unit_of(&lowered, true).unwrap();
        let descs: Vec<&str> = sites.iter().map(|p| p.desc.as_str()).collect();
        assert_eq!(descs, ["for i.chunk", "for h.part.i0"], "{sites:?}");
        let merge = ft_ir::find::find_loop(&lowered.body, "h.part.i0")
            .unwrap()
            .id;
        let ids: Vec<_> = sites.iter().map(|p| p.stmt).collect();
        assert_eq!(ids, [f.body.id, merge], "{sites:?}");
    }

    #[test]
    fn multi_dim_indexing_linearizes() {
        let f = Func::new("f")
            .param("a", [var("n"), var("m")], DataType::F64, AccessType::Output)
            .size_param("n")
            .size_param("m")
            .body(store("a", ft_ir::idx![var("n") - 1, 0], 1.0f64));
        let c = unit(&f).unwrap();
        assert!(c.contains("a[((n - 1)) * (m) + (0)] = 1.0;"), "{c}");
    }

    #[test]
    fn names_are_sanitized() {
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t.cache",
                [2],
                DataType::F32,
                MemType::CpuStack,
                store("y", [0], load("t.cache", [0])),
            ));
        let c = unit(&f).unwrap();
        assert!(c.contains("t_cache"), "{c}");
        assert!(!c.contains("t.cache["), "{c}");
    }

    #[test]
    fn colliding_param_names_get_distinct_identifiers() {
        // `x.y` and `x_y` both sanitize to `x_y`; the mangler must keep
        // them apart and the bound symbols are the emitted signature's.
        let f = Func::new("f")
            .param("x.y", [1], DataType::F32, AccessType::Input)
            .param("x_y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("m")
            .size_param("n")
            .body(store("x_y", [0], load("x.y", [0]) + 1.0f32));
        let syms = Printer::new(&f).1;
        assert_eq!(syms.params.len(), 2);
        assert_ne!(syms.params[0], syms.params[1], "{syms:?}");
        let sig = format!(
            "void {}(const float* {}, float* {}, int64_t m, int64_t n, unsigned char* __ft_arena",
            syms.func, syms.params[0], syms.params[1]
        );
        // The unit ends with the one `ft_entry`, v3 signature, which hands
        // over tensors then sizes in declaration order under the types the
        // function was printed with, and the two compile together without a
        // warning.
        let args = "f((const float*)params[0], (float*)params[1], sizes[0], sizes[1], arena";
        for (profile, call) in [
            (false, format!("    (void)prof;\n    {args});")),
            (true, format!("    {args}, prof);")),
        ] {
            let (c, _) = unit_of(&f, profile).unwrap();
            assert!(c.contains(&sig), "expected `{sig}` in:\n{c}");
            // The store targets the second param, the load reads the first.
            assert!(
                c.contains(&format!(
                    "{}[0] = ({}[0] + 1.0f);",
                    syms.params[1], syms.params[0]
                )),
                "{c}"
            );
            assert_eq!(c.matches("ft_entry").count(), 1, "{c}");
            let entry = format!(
                "}}\n\nvoid ft_entry(void **params, const int64_t *sizes, \
                 unsigned char *arena, uint64_t *prof) {{\n{call}\n}}\n"
            );
            assert!(c.ends_with(&entry), "{c}");
            if let Some(r) = cc_accepts(&c, &["-Wall", "-Werror"]) {
                r.unwrap();
            }
        }
    }

    #[test]
    fn local_colliding_with_param_is_suffixed() {
        // A local IR name `t.` sanitizes to `t_`; so does a sibling `t_`
        // param — and a local literally named `t` shadows the param. Both
        // cases must produce distinct identifiers with stores still routed
        // to the right buffer.
        let f = Func::new("f")
            .param("t", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [2],
                DataType::F32,
                MemType::CpuStack,
                store("t", [0], load("t", [1])),
            ));
        let c = unit(&f).unwrap();
        assert!(c.contains("float t_2[2] = {0};"), "{c}");
        // Inside the VarDef, `t` resolves to the inner binding.
        assert!(c.contains("t_2[0] = t_2[1];"), "{c}");
    }

    #[test]
    fn reserved_names_are_avoided() {
        // A function literally named `main` must not clash with a driver's
        // `main`, and a param named like a preamble helper must be renamed.
        let f = Func::new("main")
            .param("ft_fdiv", [1], DataType::F32, AccessType::Output)
            .body(store("ft_fdiv", [0], 1.0f32));
        let syms = Printer::new(&f).1;
        assert_ne!(syms.func, "main");
        assert_ne!(syms.params[0], "ft_fdiv");
        let mut m = Mangler::new();
        let c = unit(&f).unwrap();
        assert!(c.contains(&format!("void {}(", syms.func)), "{c}");
        // Nor anything the C library headers declare, in any float width:
        // the function symbol would conflict with it, and a tensor would
        // shadow a function the unit calls.
        for (name, ident) in [
            ("div", "div_2"),
            ("free", "free_2"),
            ("sinl", "sinl_2"),
            ("gat", "gat"),
        ] {
            assert_eq!(m.bind(name), ident);
        }
    }

    #[test]
    fn profiled_unit_brackets_outermost_loops_only() {
        // Two top-level nests, one with an inner loop: exactly two sites,
        // labelled like the interpreter's profile nodes, and the inner loop
        // is not bracketed.
        let inner = for_("j", 0, var("n"), store("y", [var("j")], 1.0f32));
        let f = Func::new("two_nests")
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(Stmt::new(StmtKind::Block(vec![
                for_("i", 0, var("n"), inner),
                for_("k", 0, var("n"), store("y", [var("k")], 2.0f32)),
            ])));
        let (c, sites) = unit_of(&f, true).unwrap();
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(sites[0].desc, "for i");
        assert_eq!(sites[1].desc, "for k");
        assert!(c.contains("uint64_t *__ft_prof"), "{c}");
        assert!(c.contains("#include <time.h>"), "{c}");
        assert!(c.contains("if (__ft_prof) __ft_prof[0] +="), "{c}");
        assert!(c.contains("if (__ft_prof) __ft_prof[1] +="), "{c}");
        assert_eq!(c.matches("clock_gettime").count(), 4, "{c}");
        // The unprofiled emission is untouched by the profiling machinery.
        let plain = unit(&f).unwrap();
        assert!(!plain.contains("__ft_prof"), "{plain}");
        assert!(!plain.contains("clock_gettime"), "{plain}");
    }

    #[test]
    fn planned_unit_places_defs_in_the_arena() {
        // A heap-sized local (CpuHeap, so the stack path does not claim it)
        // written before read: the planned unit must address it at a static
        // offset into the caller's arena with no memset, no calloc, and no
        // allocation of its own.
        let f = Func::new("f")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(var_def(
                "t",
                [var("n")],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    for_(
                        "i",
                        0,
                        var("n"),
                        store("t", [var("i")], load("x", [var("i")])),
                    ),
                    for_(
                        "i",
                        0,
                        var("n"),
                        store("y", [var("i")], load("t", [var("i")])),
                    ),
                ]),
            ));
        let sizes = HashMap::from([("n".to_string(), 256i64)]);
        let plan = ft_analysis::MemPlan::plan(&f, &sizes);
        assert!(plan.planned_peak_bytes > 0, "{plan:?}");
        let (c, sites) = emit_c(&f, &plan, false).unwrap();
        assert!(sites.is_empty());
        assert!(c.contains("unsigned char* __ft_arena"), "{c}");
        assert!(c.contains("float* t = (float*)(__ft_arena + 0);"), "{c}");
        assert!(!c.contains("calloc"), "{c}");
        assert!(!c.contains("malloc("), "{c}");
        assert!(!c.contains("__ft_arena_owned"), "{c}");
        // Write-before-read was proven, so no memset for `t`.
        assert!(!c.contains("memset(t"), "{c}");
        // At no sizes the plan cannot size `t`: it gets `calloc`, and the
        // arena parameter is unused.
        let c = unit(&f).unwrap();
        assert!(
            c.contains("float* t = (float*)calloc((n), sizeof(float));"),
            "{c}"
        );
        assert!(c.contains("    (void)__ft_arena;\n"), "{c}");
    }

    // -----------------------------------------------------------------
    // Scalar code: one positive and one negative case per rule of
    // `scalar.rs`, read off the text printed from its output.

    /// `f` over f32 tensors `x[64]`, `t[1]`, i32 `idx[64]` (inputs) and
    /// `y[64, 32]`, `z[64]` (outputs), size parameter `n`.
    fn over_f32(body: Stmt) -> String {
        let f = Func::new("f")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("t", [1], DataType::F32, AccessType::InOut)
            .param("idx", [64], DataType::I32, AccessType::Input)
            .param("y", [64, 32], DataType::F32, AccessType::Output)
            .param("z", [64], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(body);
        unit(&crate::lower_scalar(&f)).unwrap()
    }

    fn simd() -> ForProperty {
        ForProperty {
            vectorize: true,
            ..ForProperty::default()
        }
    }

    fn exp(e: Expr) -> Expr {
        Expr::unary(UnaryOp::Exp, e)
    }

    /// `y[i, c] = exp(x[i]) * x[idx[i] + c]` for `c` in `begin..end`.
    fn gather_row(begin: impl Into<Expr>, end: impl Into<Expr>, wrap: fn(Stmt) -> Stmt) -> String {
        let gathered = load(
            "x",
            [Expr::cast(DataType::I64, load("idx", [var("i")])) + var("c")],
        );
        let row = store(
            "y",
            ft_ir::idx![var("i"), var("c")],
            exp(load("x", [var("i")])) * gathered,
        );
        over_f32(for_("i", 0, var("n"), for_("c", begin, end, wrap(row))))
    }

    #[test]
    fn invariants_leave_a_loop_that_certainly_runs() {
        let c = gather_row(0, 32, |s| s);
        // `expf(x[i])` would round in an `f32` register: its load leaves.
        let decls = c.find("const float ft_h1 = x[i];").expect(&c);
        assert!(
            c.contains("const int64_t ft_h2 = ((int64_t)idx[i]);"),
            "{c}"
        );
        // In front of the loop they left — and still inside `i`, whose trip
        // count nobody knows.
        assert!(c.find("for (int64_t i = ").unwrap() < decls, "{c}");
        assert!(decls < c.find("for (int64_t c = ").unwrap(), "{c}");
        assert!(
            c.contains("y[(i) * (32) + (c)] = (expf(ft_h1) * x[(ft_h2 + c)]);"),
            "{c}"
        );
    }

    #[test]
    fn nothing_leaves_a_loop_that_may_not_run_or_an_if() {
        for c in [
            gather_row(0, var("n"), |s| s),
            gather_row(5, 5, |s| s),
            gather_row(0, 32, |s| if_(var("c").lt(var("n")), s)),
        ] {
            assert!(!c.contains("ft_h"), "{c}");
            assert!(
                c.contains("= (expf(x[i]) * x[(((int64_t)idx[i]) + c)]);"),
                "{c}"
            );
        }
    }

    #[test]
    fn what_the_loop_writes_or_rebinds_stays_inside() {
        // `t[0]` is read and written in the loop.
        let c = over_f32(for_(
            "c",
            0,
            8,
            block([
                store("z", [var("c")], load("t", [0]) * 2.0f32),
                store("t", [0], load("z", [var("c")])),
            ]),
        ));
        assert!(!c.contains("ft_h"), "{c}");
        // The `t` read in the loop is a def of the loop's, not the
        // parameter of that name that nothing writes.
        let c = over_f32(for_(
            "c",
            0,
            8,
            var_def(
                "t",
                [1],
                DataType::F32,
                MemType::CpuStack,
                store("z", [var("c")], load("t", [0]) * load("x", [0])),
            ),
        ));
        assert!(c.contains("const float ft_h1 = x[0];"), "{c}");
        assert!(c.contains("z[c] = (t_2[0] * ft_h1);"), "{c}");
        // A `select` arm is not evaluated on every path.
        let c = over_f32(for_(
            "c",
            0,
            8,
            store(
                "z",
                [var("c")],
                Expr::select(var("c").lt(var("n")), load("x", [var("n")]), 0.0f32.into()),
            ),
        ));
        assert!(!c.contains("ft_h"), "{c}");
    }

    #[test]
    fn a_repeated_value_is_computed_once_until_its_operand_is_written() {
        // An `f32` value with an operator in it would round in a register;
        // the load in it is what is computed once.
        let e = || exp(load("t", [0]));
        let c = over_f32(block([
            store("z", [0], e()),
            store("z", [1], e() / load("x", [1])),
            store("t", [0], 1.0f32),
            store("z", [2], e()),
        ]));
        assert_eq!(c.matches("t[0]").count(), 3, "{c}");
        let decl = c.find("const float ft_c1 = t[0];").expect(&c);
        assert!(decl < c.find("z[0] = expf(ft_c1);").expect(&c), "{c}");
        assert!(c.contains("z[1] = (expf(ft_c1) / x[1]);"), "{c}");
        assert!(c.contains("z[2] = expf(t[0]);"), "{c}");
        // Loads count, plain arithmetic is left to the C compiler.
        let c = over_f32(store(
            "z",
            [0],
            (load("x", [0]) - 1.0f32) * (load("x", [0]) - 1.0f32),
        ));
        assert!(c.contains("const float ft_c1 = x[0];"), "{c}");
        assert!(
            c.contains("z[0] = ((ft_c1 - 1.0f) * (ft_c1 - 1.0f));"),
            "{c}"
        );
    }

    /// `z[0] op= value` for `p` in `0..end`, marked `vectorize`.
    fn fold(op: ReduceOp, end: impl Into<Expr>, value: Expr) -> String {
        over_f32(for_with("p", 0, end, simd(), reduce("z", [0], op, value)))
    }

    #[test]
    fn an_invariant_reduction_target_becomes_a_simd_reduction() {
        let c = fold(ReduceOp::Add, 64, load("x", [var("p")]) * 0.5);
        for line in [
            "float ft_a1 = z[0];",
            "#pragma omp simd reduction(+: ft_a1)",
            "ft_a1 += (x[p] * 0.5f);",
            "z[0] = ft_a1;",
        ] {
            assert!(c.contains(line), "`{line}` missing:\n{c}");
        }
        assert!(!c.contains("if ("), "{c}");
        // A loop that may not run must not touch the element either.
        let c = fold(ReduceOp::Mul, var("n"), load("x", [var("p")]));
        assert!(c.contains("if ((0 < n)) {"), "{c}");
        assert!(c.contains("#pragma omp simd reduction(*: ft_a1)"), "{c}");
        // `fmaxf` drops a NaN, the clause's `max` need not: promoted, serial.
        let c = fold(ReduceOp::Max, 64, load("x", [var("p")]));
        assert!(c.contains("ft_a1 = fmaxf(ft_a1, x[p]);"), "{c}");
        assert!(!c.contains("#pragma omp simd"), "{c}");
    }

    #[test]
    fn a_simd_loop_left_with_a_carried_reduction_loses_its_pragma() {
        // The target is also read ...
        let c = fold(ReduceOp::Add, 64, load("x", [var("p")]) * load("z", [0]));
        assert!(
            !c.contains("ft_a1") && !c.contains("#pragma omp simd"),
            "{c}"
        );
        assert!(c.contains("z[0] += (x[p] * z[0]);"), "{c}");
        // ... or folded into conditionally.
        let guarded = if_(
            var("p").lt(var("n")),
            reduce("z", [0], ReduceOp::Add, load("x", [var("p")])),
        );
        let c = over_f32(for_with("p", 0, 64, simd(), guarded));
        assert!(
            !c.contains("ft_a1") && !c.contains("#pragma omp simd"),
            "{c}"
        );
        // One element per iteration is no carried dependence.
        let c = over_f32(for_with(
            "p",
            0,
            64,
            simd(),
            reduce("z", [var("p")], ReduceOp::Add, load("x", [var("p")])),
        ));
        assert!(c.contains("#pragma omp simd\n"), "{c}");
        assert!(c.contains("z[p] += x[p];"), "{c}");
    }

    #[test]
    fn elements_told_apart_by_a_constant_get_a_local_each() {
        let row = |k: i64| {
            reduce(
                "y",
                ft_ir::idx![var("i"), k],
                ReduceOp::Add,
                load("x", [var("p")]),
            )
        };
        let c = over_f32(for_(
            "i",
            0,
            64,
            for_("p", 0, 64, block([row(0), row(1), row(0)])),
        ));
        assert!(c.contains("float ft_a1 = y[(i) * (32) + (0)];"), "{c}");
        assert!(c.contains("float ft_a2 = y[(i) * (32) + (1)];"), "{c}");
        assert_eq!(c.matches("ft_a1 += ").count(), 2, "{c}");
        // `y[i, idx[p]]` may be either of them.
        let unknown = reduce(
            "y",
            ft_ir::idx![var("i"), Expr::cast(DataType::I64, load("idx", [var("p")]))],
            ReduceOp::Add,
            1.0f32,
        );
        let c = over_f32(for_("i", 0, 64, for_("p", 0, 64, block([row(0), unknown]))));
        assert!(!c.contains("ft_a1"), "{c}");
    }

    #[test]
    fn a_small_heap_row_in_a_parallel_body_is_an_array() {
        let rows = |cols: usize| {
            over_f32(for_with(
                "i",
                0,
                64,
                ForProperty::parallel(ParallelScope::OpenMp),
                var_def(
                    "row",
                    [cols],
                    DataType::F32,
                    MemType::CpuHeap,
                    store("z", [var("i")], load("row", [0])),
                ),
            ))
        };
        let c = rows(4096);
        assert!(
            c.contains("float row[4096] = {0};") && !c.contains("calloc"),
            "{c}"
        );
        let c = rows(4097);
        assert!(
            c.contains("float* row = (float*)calloc((4097), sizeof(float));"),
            "{c}"
        );
        // Outside a parallel body the arena keeps it.
        let c = over_f32(var_def(
            "row",
            [8],
            DataType::F32,
            MemType::CpuHeap,
            store("z", [0], load("row", [0])),
        ));
        assert!(c.contains("float* row = (float*)(__ft_arena + 0);"), "{c}");
    }

    #[test]
    fn operators_are_spelled_in_their_operands_type() {
        let body = |dt: DataType| {
            let x = || load("x", [0]);
            Func::new("f")
                .param("x", [1], dt, AccessType::Input)
                .param("y", [8], dt, AccessType::Output)
                .body(block([
                    store("y", [0], exp(x() * 0.5) / 3),
                    store("y", [1], x().max(0.0).min(x() % 2.5)),
                    store(
                        "y",
                        [2],
                        Expr::binary(BinaryOp::Pow, x(), Expr::IntConst(2)),
                    ),
                    store(
                        "y",
                        [3],
                        Expr::unary(UnaryOp::Sigmoid, Expr::unary(UnaryOp::Abs, x())),
                    ),
                    store("y", [4], Expr::select(x().lt(0.0), -x(), 1.5f32.into())),
                    store("y", [5], Expr::unary(UnaryOp::Sign, x())),
                    store("y", [6], f64::INFINITY),
                    reduce("y", [7], ReduceOp::Min, x() + 1),
                ]))
        };
        let emit = |dt| unit(&crate::lower_scalar(&body(dt))).unwrap();
        let single = emit(DataType::F32);
        for line in [
            "const float ft_c1 = x[0];",
            "y[0] = (expf((ft_c1 * 0.5f)) / 3);",
            "y[1] = fminf(fmaxf(ft_c1, 0.0f), ft_ffmodf(ft_c1, 2.5f));",
            "y[2] = powf(ft_c1, 2);",
            "y[3] = ft_sigmoidf(fabsf(ft_c1));",
            "y[4] = ((ft_c1 < 0.0f) ? (-ft_c1) : 1.5f);",
            "y[5] = ((float)((ft_c1 > 0) - (ft_c1 < 0)));",
            "y[6] = INFINITY;",
            "y[7] = fminf(y[7], (ft_c1 + 1));",
        ] {
            assert!(single.contains(line), "`{line}` missing:\n{single}");
        }
        let double = emit(DataType::F64);
        for line in [
            "y[0] = (exp((ft_c1 * 0.5)) / 3);",
            "y[1] = fmin(fmax(ft_c1, 0.0), ft_ffmod(ft_c1, 2.5));",
            "y[2] = pow(ft_c1, 2);",
            "y[3] = ft_sigmoid(fabs(ft_c1));",
            "y[4] = ((ft_c1 < 0.0) ? (-ft_c1) : 1.5);",
            "y[7] = fmin(y[7], (ft_c1 + 1));",
        ] {
            assert!(double.contains(line), "`{line}` missing:\n{double}");
        }
        // An integer meeting a float literal is a double, as in C; among
        // themselves integers compare exactly.
        let int = emit(DataType::I64);
        for line in [
            "y[1] = fmin(fmax(ft_c1, 0.0), ft_ffmod(ft_c1, 2.5));",
            "y[3] = ft_sigmoid(llabs(ft_c1));",
            "y[5] = ((ft_c1 > 0) - (ft_c1 < 0));",
            "y[7] = ((y[7]) < ((ft_c1 + 1)) ? (y[7]) : ((ft_c1 + 1)));",
        ] {
            assert!(int.contains(line), "`{line}` missing:\n{int}");
        }
    }

    #[test]
    fn an_unknown_library_kernel_is_an_error_not_a_comment() {
        let f = Func::new("f")
            .param("a", [4], DataType::F32, AccessType::Input)
            .param("b", [4], DataType::F32, AccessType::Output)
            .body(Stmt::new(StmtKind::LibCall {
                kernel: "fft".to_string(),
                inputs: vec!["a".to_string()],
                outputs: vec!["b".to_string()],
                attrs: vec![4],
            }));
        assert_eq!(
            unit(&f),
            Err(CodegenError::UnknownLibKernel {
                kernel: "fft".to_string()
            })
        );
    }

    /// Whether `cc -fsyntax-only -fopenmp <flags>` accepts `c`; `None`
    /// without a `cc` to ask.
    fn cc_accepts(c: &str, flags: &[&str]) -> Option<Result<(), String>> {
        use std::io::Write as _;
        use std::process::{Command, Stdio};
        let mut child = Command::new("cc")
            .args(["-fsyntax-only", "-fopenmp"])
            .args(flags)
            .args(["-xc", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .ok()?;
        child
            .stdin
            .as_mut()
            .expect("piped stdin")
            .write_all(c.as_bytes())
            .expect("write source");
        let out = child.wait_with_output().expect("cc runs");
        Some(if out.status.success() {
            Ok(())
        } else {
            Err(format!(
                "cc rejected:\n{}\n--- source ---\n{c}",
                String::from_utf8_lossy(&out.stderr)
            ))
        })
    }

    #[test]
    fn generated_c_compiles_if_cc_available() {
        for profile in [false, true] {
            let c = unit_of(&sample(), profile).unwrap().0;
            match cc_accepts(&c, &[]) {
                Some(r) => r.unwrap(),
                None => eprintln!("cc unavailable; skipping compile check"),
            }
        }
    }
}
