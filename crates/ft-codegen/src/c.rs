//! C99 + OpenMP emission for CPU schedules.

use ft_ir::{
    AccessType, BinaryOp, DataType, Expr, Func, MemType, ReduceOp, Stmt, StmtKind, UnaryOp,
};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Static preamble: headers and the tiny support library every generated
/// translation unit relies on.
pub const PREAMBLE: &str = r#"#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <stdbool.h>
#include <math.h>

static inline int64_t ft_fdiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static inline int64_t ft_fmod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
static inline double ft_sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }
static inline void ft_lib_matmul(const float* A, const float* B, float* C,
                                 int64_t m, int64_t k, int64_t n) {
    for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p)
            for (int64_t j = 0; j < n; ++j)
                C[i * n + j] += A[i * k + p] * B[p * n + j];
}
"#;

/// Extra headers a *profiled* translation unit needs (`clock_gettime`).
/// Appended to [`PREAMBLE`] by [`emit_c_profiled`] only, so the unprofiled
/// source — and therefore its artifact-cache key — is byte-identical to
/// what [`emit_c`] always produced.
pub const PROF_PREAMBLE: &str = "#include <time.h>\n";

fn ctype(dt: DataType) -> &'static str {
    match dt {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I32 => "int32_t",
        DataType::I64 => "int64_t",
        DataType::Bool => "bool",
    }
}

/// Coarse C-side type of an expression (for operator selection).
#[derive(Debug, Clone, Copy, PartialEq)]
enum CTy {
    Int,
    Float,
    Bool,
}

/// C identifiers every generated translation unit already uses (the
/// preamble's support library) plus the C99 keywords — IR names must never
/// mangle onto these.
const RESERVED: &[&str] = &[
    "ft_fdiv", "ft_fmod", "ft_sigmoid", "ft_lib_matmul", "ft_entry", "__ft_prof", "__ft_t0",
    "__ft_t1", "__ft_arena", "__ft_arena_base", "__ft_arena_owned", "auto", "break", "case", "char",
    "const", "continue", "default", "do", "double", "else", "enum", "extern", "float", "for",
    "goto", "if", "inline", "int", "long", "register", "restrict", "return", "short", "signed",
    "sizeof", "static", "struct", "switch", "typedef", "union", "unsigned", "void", "volatile",
    "while", "bool", "true", "false", "int32_t", "int64_t", "main",
];

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
    scopes: HashMap<String, Vec<String>>,
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
        while RESERVED.contains(&ident.as_str()) || self.used.contains(&ident) {
            n += 1;
            ident = format!("{base}_{n}");
        }
        self.used.insert(ident.clone());
        self.scopes
            .entry(name.to_string())
            .or_default()
            .push(ident.clone());
        ident
    }

    /// Leave the innermost binding of `name` (its identifier stays
    /// reserved, so a later re-binding of a colliding name cannot reuse it).
    pub fn unbind(&mut self, name: &str) {
        if let Some(stack) = self.scopes.get_mut(name) {
            stack.pop();
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
        match self.scopes.get(name).and_then(|v| v.last()) {
            Some(ident) => out.push_str(ident),
            None => out.push_str(&sanitize(name)),
        }
    }
}

/// The C identifiers a generated translation unit exposes at its ABI
/// boundary, in declaration order — what a driver needs to call the emitted
/// function (or wrap it in a `main`/`dlsym` entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CSymbols {
    /// Identifier of the emitted function.
    pub func: String,
    /// One identifier per tensor parameter, in declaration order.
    pub params: Vec<String>,
    /// One identifier per size parameter, in declaration order.
    pub size_params: Vec<String>,
}

/// The ABI identifiers [`emit_c`] will choose for `func` — computed by the
/// same mangler in the same order, so drivers stay in sync with the emitted
/// signature even when parameter names collide after sanitization.
pub fn c_symbols(func: &Func) -> CSymbols {
    let mut m = Mangler::new();
    bind_signature(&mut m, func)
}

/// Bind the function name and parameters in signature order (shared between
/// [`emit_c`] and [`c_symbols`] so both sides of the ABI agree).
fn bind_signature(m: &mut Mangler, func: &Func) -> CSymbols {
    CSymbols {
        func: m.bind(&func.name),
        params: func.params.iter().map(|p| m.bind(&p.name)).collect(),
        size_params: func.size_params.iter().map(|sp| m.bind(sp)).collect(),
    }
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

/// IR the C emitter refuses: parallel constructs that
/// [`lower_cpu_parallel`](crate::lower_cpu_parallel) rewrites away. Reaching
/// the emitter with one means the caller skipped the lowering; emitting a
/// pragma for it would be a silent nondeterministic (or serialized-nested)
/// kernel, so it is an error instead.
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
        }
    }
}

impl std::error::Error for CodegenError {}

/// Arena placement of one planned `VarDef`, precomputed from a
/// [`ft_analysis::MemPlan`] and consumed by the emitter in def pre-order.
#[derive(Debug, Clone)]
struct ArenaSlot {
    /// IR name of the def this slot was planned for; a mismatch (emitter
    /// and planner walking different trees) falls back to `calloc`.
    name: String,
    /// Byte offset inside the arena.
    offset: u64,
    /// Class size in bytes — the `memset` extent when zeroing is required.
    bytes: u64,
    /// Whether liveness failed to prove write-before-read, so the buffer
    /// must be zero-filled on (re-)entry.
    must_zero: bool,
}

struct Emitter {
    dtypes: HashMap<String, DataType>,
    shapes: HashMap<String, Vec<Expr>>,
    names: Mangler,
    out: String,
    indent: usize,
    tmp: usize,
    /// `Some` when emitting a profiled unit: the sites allocated so far.
    prof: Option<Vec<ProfSite>>,
    /// For-nesting depth; only depth-0 loops get a profiling site.
    loop_depth: usize,
    /// Arena placements indexed by def pre-order number (the planner's
    /// `def_idx`); empty when emitting without a memory plan.
    arena: Vec<Option<ArenaSlot>>,
    /// Pre-order counter of `VarDef`s encountered so far.
    def_idx: usize,
    /// Number of enclosing parallel (`omp parallel for`) loops. Defs inside
    /// a parallel body must stay thread-private (`calloc` per iteration);
    /// a shared arena offset would race across the team.
    parallel_depth: usize,
    /// First unlowered construct met; the unit is discarded when set.
    err: Option<CodegenError>,
}

impl Emitter {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    /// One line whose text `write` streams straight into the unit.
    fn line_with(&mut self, write: impl FnOnce(&Emitter, &mut String)) {
        let mut out = std::mem::take(&mut self.out);
        for _ in 0..self.indent {
            out.push_str("    ");
        }
        write(self, &mut out);
        out.push('\n');
        self.out = out;
    }

    fn ty(&self, e: &Expr) -> CTy {
        match e {
            Expr::IntConst(_) | Expr::Var(_) => CTy::Int,
            Expr::FloatConst(_) => CTy::Float,
            Expr::BoolConst(_) => CTy::Bool,
            Expr::Load { var, .. } => match self.dtypes.get(var) {
                Some(d) if d.is_float() => CTy::Float,
                Some(DataType::Bool) => CTy::Bool,
                _ => CTy::Int,
            },
            Expr::Unary { op, a } => match op {
                UnaryOp::Not => CTy::Bool,
                UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign => self.ty(a),
                _ => CTy::Float,
            },
            Expr::Binary { op, a, b } => {
                if op.is_comparison() {
                    CTy::Bool
                } else if self.ty(a) == CTy::Float || self.ty(b) == CTy::Float {
                    CTy::Float
                } else {
                    CTy::Int
                }
            }
            Expr::Select { then, .. } => self.ty(then),
            Expr::Cast { dtype, .. } => {
                if dtype.is_float() {
                    CTy::Float
                } else if *dtype == DataType::Bool {
                    CTy::Bool
                } else {
                    CTy::Int
                }
            }
        }
    }

    /// Append `var[linearized indices]` to `out`.
    fn put_index(&self, out: &mut String, var: &str, indices: &[Expr]) {
        let shape: &[Expr] = self.shapes.get(var).map_or(&[], Vec::as_slice);
        self.names.put(out, var);
        out.push('[');
        match indices {
            [] => out.push('0'),
            // Row-major Horner form: ((i0) * (n1) + (i1)) * (n2) + (i2).
            [first, rest @ ..] => {
                for _ in rest {
                    out.push('(');
                }
                self.put_expr(out, first);
                for (d, idx) in rest.iter().enumerate() {
                    out.push_str(") * (");
                    self.put_expr(out, &shape[d + 1]);
                    out.push_str(") + (");
                    self.put_expr(out, idx);
                    out.push(')');
                }
            }
        }
        out.push(']');
    }

    fn expr(&self, e: &Expr) -> String {
        let mut out = String::new();
        self.put_expr(&mut out, e);
        out
    }

    /// `open a sep b close`, streamed.
    fn put_pair(&self, out: &mut String, open: &str, a: &Expr, sep: &str, b: &Expr, close: &str) {
        out.push_str(open);
        self.put_expr(out, a);
        out.push_str(sep);
        self.put_expr(out, b);
        out.push_str(close);
    }

    /// Append the C spelling of `e` to `out` — one buffer for the whole
    /// expression tree, not a `String` per node: the engine re-emits the
    /// translation unit on every warm call.
    fn put_expr(&self, out: &mut String, e: &Expr) {
        match e {
            Expr::IntConst(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::FloatConst(v) => {
                if *v == f64::INFINITY {
                    out.push_str("INFINITY");
                } else if *v == f64::NEG_INFINITY {
                    out.push_str("-INFINITY");
                } else {
                    let _ = write!(out, "{v:?}");
                }
            }
            Expr::BoolConst(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Var(n) => self.names.put(out, n),
            Expr::Load { var, indices } => self.put_index(out, var, indices),
            Expr::Unary { op, a } => {
                let (open, close) = match op {
                    UnaryOp::Neg => ("(-", ")"),
                    UnaryOp::Not => ("(!", ")"),
                    UnaryOp::Abs if self.ty(a) == CTy::Float => ("fabs(", ")"),
                    UnaryOp::Abs => ("llabs(", ")"),
                    UnaryOp::Sqrt => ("sqrt(", ")"),
                    UnaryOp::Exp => ("exp(", ")"),
                    UnaryOp::Ln => ("log(", ")"),
                    UnaryOp::Sigmoid => ("ft_sigmoid(", ")"),
                    UnaryOp::Tanh => ("tanh(", ")"),
                    UnaryOp::Sign => {
                        let x = self.expr(a);
                        let _ = write!(out, "(({x} > 0) - ({x} < 0))");
                        return;
                    }
                };
                out.push_str(open);
                self.put_expr(out, a);
                out.push_str(close);
            }
            Expr::Binary { op, a, b } => {
                // Only these four spell differently on floats.
                let float = matches!(
                    op,
                    BinaryOp::Div | BinaryOp::Mod | BinaryOp::Min | BinaryOp::Max
                ) && (self.ty(a) == CTy::Float || self.ty(b) == CTy::Float);
                let (open, sep) = match op {
                    BinaryOp::Add => ("(", " + "),
                    BinaryOp::Sub => ("(", " - "),
                    BinaryOp::Mul => ("(", " * "),
                    BinaryOp::Div if float => ("(", " / "),
                    BinaryOp::Div => ("ft_fdiv(", ", "),
                    BinaryOp::Mod if float => ("fmod(", ", "),
                    BinaryOp::Mod => ("ft_fmod(", ", "),
                    BinaryOp::Min if float => ("fmin(", ", "),
                    BinaryOp::Max if float => ("fmax(", ", "),
                    BinaryOp::Min | BinaryOp::Max => {
                        let (x, y) = (self.expr(a), self.expr(b));
                        let cmp = if *op == BinaryOp::Min { '<' } else { '>' };
                        let _ = write!(out, "(({x}) {cmp} ({y}) ? ({x}) : ({y}))");
                        return;
                    }
                    BinaryOp::Pow => ("pow(", ", "),
                    BinaryOp::Eq => ("(", " == "),
                    BinaryOp::Ne => ("(", " != "),
                    BinaryOp::Lt => ("(", " < "),
                    BinaryOp::Le => ("(", " <= "),
                    BinaryOp::Gt => ("(", " > "),
                    BinaryOp::Ge => ("(", " >= "),
                    BinaryOp::And => ("(", " && "),
                    BinaryOp::Or => ("(", " || "),
                };
                self.put_pair(out, open, a, sep, b, ")");
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                self.put_pair(out, "(", cond, " ? ", then, " : ");
                self.put_expr(out, otherwise);
                out.push(')');
            }
            Expr::Cast { dtype, a } => {
                let _ = write!(out, "(({})", ctype(*dtype));
                self.put_expr(out, a);
                out.push(')');
            }
        }
    }

    fn numel(&self, shape: &[Expr]) -> String {
        if shape.is_empty() {
            return "1".to_string();
        }
        shape
            .iter()
            .map(|e| format!("({})", self.expr(e)))
            .collect::<Vec<_>>()
            .join(" * ")
    }

    fn stmt(&mut self, s: &Stmt) {
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
            } => {
                self.dtypes.insert(name.clone(), *dtype);
                self.shapes.insert(name.clone(), shape.clone());
                let ty = ctype(*dtype);
                // Extents are evaluated in the enclosing scope, before the
                // new name is bound.
                let n = self.numel(shape);
                let const_n: Option<i64> = shape
                    .iter()
                    .map(|e| ft_passes::const_fold_expr(e.clone()).as_int())
                    .try_fold(1i64, |a, b| b.map(|v| a * v));
                let slot = self.arena.get(self.def_idx).cloned().flatten();
                self.def_idx += 1;
                let ident = self.names.bind(name);
                self.line("{");
                self.indent += 1;
                let heap = match (mtype, const_n) {
                    // Small constant-extent stack defs beat any arena: no
                    // pointer chase, no shared cache lines.
                    (MemType::CpuStack, Some(n)) if n <= 4096 => {
                        self.line(&format!("{ty} {ident}[{n}] = {{0}};"));
                        false
                    }
                    _ => match slot {
                        Some(a) if a.name == *name && self.parallel_depth == 0 => {
                            self.line(&format!(
                                "{ty}* {ident} = ({ty}*)(__ft_arena_base + {});",
                                a.offset
                            ));
                            if a.must_zero {
                                self.line(&format!("memset({ident}, 0, {});", a.bytes));
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
                self.names.unbind(name);
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
                        // The fill, chunk and merge nests of one lowered
                        // loop share its id and therefore its slot.
                        let k = sites.iter().position(|p| p.stmt == s.id).unwrap_or_else(|| {
                            sites.push(ProfSite {
                                stmt: s.id,
                                desc: format!("for {iter}"),
                            });
                            sites.len() - 1
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
                if property.parallel.is_parallel() {
                    if self.parallel_depth > 0 {
                        self.err.get_or_insert_with(|| CodegenError::NestedParallel {
                            iter: iter.clone(),
                        });
                    }
                    self.line("#pragma omp parallel for");
                } else if property.vectorize {
                    self.line("#pragma omp simd");
                }
                // Bounds are evaluated in the enclosing scope; the iterator
                // is only in scope inside the loop.
                let begin = self.expr(begin);
                let end = self.expr(end);
                let i = self.names.bind(iter);
                self.line(&format!("for (int64_t {i} = {begin}; {i} < {end}; ++{i}) {{"));
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
                self.names.unbind(iter);
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
                self.line(&format!("if ({}) {{", self.expr(cond)));
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
            } => {
                self.line_with(|em, out| {
                    em.put_index(out, var, indices);
                    out.push_str(" = ");
                    em.put_expr(out, value);
                    out.push(';');
                });
            }
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
                match op {
                    ReduceOp::Add | ReduceOp::Mul => {
                        let o = if *op == ReduceOp::Add { " += " } else { " *= " };
                        self.line_with(|em, out| {
                            em.put_index(out, var, indices);
                            out.push_str(o);
                            em.put_expr(out, value);
                            out.push(';');
                        });
                    }
                    ReduceOp::Min | ReduceOp::Max => {
                        let mut lhs = String::new();
                        self.put_index(&mut lhs, var, indices);
                        let rhs = self.expr(value);
                        self.tmp += 1;
                        let raw = format!("ft_r{}", self.tmp);
                        let t = self.names.bind(&raw);
                        let f = if *op == ReduceOp::Min { "fmin" } else { "fmax" };
                        self.line("{");
                        self.indent += 1;
                        self.line(&format!("double {t} = {rhs};"));
                        self.line(&format!("{lhs} = {f}({lhs}, {t});"));
                        self.indent -= 1;
                        self.line("}");
                        self.names.unbind(&raw);
                    }
                }
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
                        self.names.resolve(&inputs[0]),
                        self.names.resolve(&inputs[1]),
                        self.names.resolve(&outputs[0]),
                        attrs[0],
                        attrs[1],
                        attrs[2]
                    ));
                } else {
                    self.line(&format!("/* unknown library kernel: {kernel} */"));
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

/// Emit a complete C translation unit (preamble + one function) for a
/// CPU-scheduled, [lowered](crate::lower_cpu_parallel) function.
///
/// # Errors
///
/// [`CodegenError`] when `func` still holds an `atomic` reduction or a
/// nested parallel loop (all three emitters).
pub fn emit_c(func: &Func) -> Result<String, CodegenError> {
    Ok(emit_unit(func, None, false)?.0)
}

/// Emit a *profiled* translation unit: the function gains a trailing
/// `uint64_t *__ft_prof` parameter and every outermost loop nest is
/// bracketed with `clock_gettime(CLOCK_MONOTONIC)` pairs accumulating wall
/// nanoseconds into its slot. Passing a NULL `__ft_prof` skips recording,
/// so one profiled artifact serves both timed and untimed calls. Returns
/// the source and the site table (slot `k` ↔ `sites[k]`).
pub fn emit_c_profiled(func: &Func) -> Result<(String, Vec<ProfSite>), CodegenError> {
    emit_unit(func, None, true)
}

/// Emit a translation unit with *planned* `VarDef` storage: the function
/// gains a trailing `unsigned char* __ft_arena` parameter (before
/// `__ft_prof` when `profile` is set) and every def the plan placed becomes
/// a pointer at a static offset into that arena — one allocation for the
/// whole call instead of one `calloc` per def entry, zero-filled via
/// `memset` only where the plan's liveness analysis could not prove
/// write-before-read. Callers passing a NULL arena get a function-local
/// `malloc`/`free` of the planned peak, so the kernel stays self-contained.
/// Small constant-extent `CpuStack` defs keep their stack-array emission;
/// defs the plan could not size fall back to `calloc` as before.
///
/// The plan must have been computed for this exact `func` (same `VarDef`
/// pre-order); a per-def name mismatch degrades that def to `calloc` rather
/// than aliasing the wrong storage.
pub fn emit_c_planned(
    func: &Func,
    plan: &ft_analysis::MemPlan,
    profile: bool,
) -> Result<(String, Vec<ProfSite>), CodegenError> {
    emit_unit(func, Some(plan), profile)
}

fn emit_unit(
    func: &Func,
    plan: Option<&ft_analysis::MemPlan>,
    profile: bool,
) -> Result<(String, Vec<ProfSite>), CodegenError> {
    let mut names = Mangler::new();
    let syms = bind_signature(&mut names, func);
    let arena: Vec<Option<ArenaSlot>> = plan.map_or_else(Vec::new, |pl| {
        let n_defs = pl.entries.iter().map(|e| e.def_idx + 1).max().unwrap_or(0);
        let mut v = vec![None; n_defs];
        for e in &pl.entries {
            if let (Some(offset), Some(bytes)) = (e.offset, e.bytes) {
                v[e.def_idx] = Some(ArenaSlot {
                    name: e.name.clone(),
                    offset,
                    bytes,
                    must_zero: e.must_zero,
                });
            }
        }
        v
    });
    let any_planned = arena.iter().any(Option::is_some);
    let mut em = Emitter {
        dtypes: HashMap::new(),
        shapes: HashMap::new(),
        names,
        out: String::new(),
        indent: 0,
        tmp: 0,
        prof: profile.then(Vec::new),
        loop_depth: 0,
        arena,
        def_idx: 0,
        parallel_depth: 0,
        err: None,
    };
    for p in &func.params {
        em.dtypes.insert(p.name.clone(), p.dtype);
        em.shapes.insert(p.name.clone(), p.shape.clone());
    }
    let mut sig: Vec<String> = Vec::new();
    for (p, ident) in func.params.iter().zip(&syms.params) {
        let c = ctype(p.dtype);
        let qual = if p.atype == AccessType::Input {
            "const "
        } else {
            ""
        };
        sig.push(format!("{qual}{c}* {ident}"));
    }
    for ident in &syms.size_params {
        sig.push(format!("int64_t {ident}"));
    }
    if plan.is_some() {
        sig.push("unsigned char* __ft_arena".to_string());
    }
    if profile {
        sig.push("uint64_t *__ft_prof".to_string());
    }
    let mut out = String::from(PREAMBLE);
    if profile {
        out.push_str(PROF_PREAMBLE);
    }
    let _ = writeln!(out, "\nvoid {}({}) {{", syms.func, sig.join(", "));
    if any_planned {
        // A NULL arena means the caller did not preallocate: own a
        // planned-peak-sized block for the duration of the call.
        let peak = plan.map_or(0, |pl| pl.planned_peak_bytes);
        out.push_str("    unsigned char* __ft_arena_base = __ft_arena;\n");
        out.push_str("    int __ft_arena_owned = 0;\n");
        let _ = writeln!(
            out,
            "    if (!__ft_arena_base) {{ __ft_arena_base = \
             (unsigned char*)malloc({peak}); __ft_arena_owned = 1; }}"
        );
    } else if plan.is_some() {
        out.push_str("    (void)__ft_arena;\n");
    }
    em.indent = 1;
    em.stmt(&func.body);
    if let Some(e) = em.err {
        return Err(e);
    }
    out.push_str(&em.out);
    if any_planned {
        out.push_str("    if (__ft_arena_owned) free(__ft_arena_base);\n");
    }
    out.push_str("}\n");
    Ok((out, em.prof.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;

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

    #[test]
    fn emits_signature_and_pragma() {
        let c = emit_c(&sample()).unwrap();
        assert!(c.contains("void axpy(const float* x, float* y, int64_t n)"), "{c}");
        assert!(c.contains("#pragma omp parallel for"), "{c}");
        assert!(c.contains("y[i] = (y[i] + (x[i] * 2.0))"), "{c}");
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
        let c = emit_c(&f).unwrap();
        assert!(c.contains("float t[8] = {0};"), "{c}");
    }

    #[test]
    fn unlowered_parallel_constructs_are_errors_not_pragmas() {
        assert_eq!(
            emit_c(&histogram()),
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
            emit_c_profiled(&nested).map(|(c, _)| c),
            Err(CodegenError::NestedParallel {
                iter: "j".to_string()
            })
        );
    }

    #[test]
    fn lowered_histogram_emits_chunk_rows_and_an_ordered_merge() {
        let f = histogram();
        let lowered = crate::lower_cpu_parallel(&f);
        let c = emit_c(&lowered).unwrap();
        assert!(!c.contains("omp atomic") && !c.contains("omp critical"), "{c}");
        assert_eq!(c.matches("#pragma omp parallel for").count(), 2, "{c}");
        assert!(c.contains("h_part[(i_chunk) * (4) + (((int64_t)idx[i]))] += 1.0;"), "{c}");
        assert!(c.contains("h[h_part_i0] += h_part[(i_chunk_2) * (4) + (h_part_i0)];"), "{c}");
        // One lowered loop, one profiling site.
        let (_, sites) = emit_c_profiled(&lowered).unwrap();
        assert_eq!(sites.len(), 1, "{sites:?}");
    }

    #[test]
    fn multi_dim_indexing_linearizes() {
        let f = Func::new("f")
            .param("a", [var("n"), var("m")], DataType::F64, AccessType::Output)
            .size_param("n")
            .size_param("m")
            .body(store("a", ft_ir::idx![var("n") - 1, 0], 1.0f64));
        let c = emit_c(&f).unwrap();
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
        let c = emit_c(&f).unwrap();
        assert!(c.contains("t_cache"), "{c}");
        assert!(!c.contains("t.cache["), "{c}");
    }

    #[test]
    fn colliding_param_names_get_distinct_identifiers() {
        // `x.y` and `x_y` both sanitize to `x_y`; the mangler must keep
        // them apart and `c_symbols` must agree with the emitted signature.
        let f = Func::new("f")
            .param("x.y", [1], DataType::F32, AccessType::Input)
            .param("x_y", [1], DataType::F32, AccessType::Output)
            .body(store("x_y", [0], load("x.y", [0]) + 1.0f32));
        let syms = c_symbols(&f);
        assert_eq!(syms.params.len(), 2);
        assert_ne!(syms.params[0], syms.params[1], "{syms:?}");
        let c = emit_c(&f).unwrap();
        let sig = format!(
            "void {}(const float* {}, float* {})",
            syms.func, syms.params[0], syms.params[1]
        );
        assert!(c.contains(&sig), "expected `{sig}` in:\n{c}");
        // The store targets the second param, the load reads the first.
        assert!(
            c.contains(&format!(
                "{}[0] = ({}[0] + 1.0);",
                syms.params[1], syms.params[0]
            )),
            "{c}"
        );
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
        let c = emit_c(&f).unwrap();
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
        let syms = c_symbols(&f);
        assert_ne!(syms.func, "main");
        assert_ne!(syms.params[0], "ft_fdiv");
        let c = emit_c(&f).unwrap();
        assert!(c.contains(&format!("void {}(", syms.func)), "{c}");
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
        let (c, sites) = emit_c_profiled(&f).unwrap();
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(sites[0].desc, "for i");
        assert_eq!(sites[1].desc, "for k");
        assert!(c.contains("uint64_t *__ft_prof"), "{c}");
        assert!(c.contains("#include <time.h>"), "{c}");
        assert!(c.contains("if (__ft_prof) __ft_prof[0] +="), "{c}");
        assert!(c.contains("if (__ft_prof) __ft_prof[1] +="), "{c}");
        assert_eq!(c.matches("clock_gettime").count(), 4, "{c}");
        // The unprofiled emission is untouched by the profiling machinery.
        let plain = emit_c(&f).unwrap();
        assert!(!plain.contains("__ft_prof"), "{plain}");
        assert!(!plain.contains("clock_gettime"), "{plain}");
    }

    #[test]
    fn planned_unit_places_defs_in_the_arena() {
        // A heap-sized local (CpuHeap, so the stack path does not claim it)
        // written before read: the planned unit must address it at a static
        // arena offset with no memset, no calloc, and a NULL-arena malloc
        // fallback sized to the planned peak.
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
                    for_("i", 0, var("n"), store("t", [var("i")], load("x", [var("i")]))),
                    for_("i", 0, var("n"), store("y", [var("i")], load("t", [var("i")]))),
                ]),
            ));
        let sizes = HashMap::from([("n".to_string(), 256i64)]);
        let plan = ft_analysis::MemPlan::plan(&f, &sizes);
        assert!(plan.planned_peak_bytes > 0, "{plan:?}");
        let (c, sites) = emit_c_planned(&f, &plan, false).unwrap();
        assert!(sites.is_empty());
        assert!(c.contains("unsigned char* __ft_arena"), "{c}");
        assert!(c.contains("float* t = (float*)(__ft_arena_base + 0);"), "{c}");
        assert!(!c.contains("calloc"), "{c}");
        assert!(
            c.contains(&format!("malloc({})", plan.planned_peak_bytes)),
            "{c}"
        );
        assert!(c.contains("if (__ft_arena_owned) free(__ft_arena_base);"), "{c}");
        // Write-before-read was proven, so no memset for `t`.
        assert!(!c.contains("memset(t"), "{c}");
        // The unplanned emission is byte-identical to what emit_c always
        // produced: no arena symbols anywhere.
        assert!(!emit_c(&f).unwrap().contains("__ft_arena"));
    }

    #[test]
    fn profiled_c_compiles_if_cc_available() {
        use std::io::Write as _;
        use std::process::{Command, Stdio};
        let (c, _) = emit_c_profiled(&sample()).unwrap();
        let Ok(mut child) = Command::new("cc")
            .args(["-fsyntax-only", "-fopenmp", "-xc", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
        else {
            eprintln!("cc unavailable; skipping compile check");
            return;
        };
        child
            .stdin
            .as_mut()
            .expect("piped stdin")
            .write_all(c.as_bytes())
            .expect("write source");
        let out = child.wait_with_output().expect("cc runs");
        assert!(
            out.status.success(),
            "cc rejected the profiled C:\n{}\n--- source ---\n{c}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn generated_c_compiles_if_cc_available() {
        use std::io::Write as _;
        use std::process::{Command, Stdio};
        let c = emit_c(&sample()).unwrap();
        let Ok(mut child) = Command::new("cc")
            .args(["-fsyntax-only", "-fopenmp", "-xc", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
        else {
            eprintln!("cc unavailable; skipping compile check");
            return;
        };
        child
            .stdin
            .as_mut()
            .expect("piped stdin")
            .write_all(c.as_bytes())
            .expect("write source");
        let out = child.wait_with_output().expect("cc runs");
        assert!(
            out.status.success(),
            "cc rejected the generated C:\n{}\n--- source ---\n{c}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
