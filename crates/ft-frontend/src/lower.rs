//! Lowering: name resolution, always-inlined calls, and partial evaluation.
//!
//! This stage implements two headline mechanisms of the paper:
//!
//! * **Always-inlined function calls** (§3.2): a call statement splices the
//!   callee's body into the caller, binding untyped parameters to *tensor
//!   views* (a base tensor plus an index prefix) or scalar expressions, so
//!   libop-style helpers co-optimize with the surrounding program.
//! * **Partial evaluation for dimension-free programming** (§3.3/§4.1,
//!   Figs. 6 and 9): tensor metadata (`.ndim`, `.shape(k)`) is a
//!   compile-time value; conditions over it fold to constants during
//!   lowering, so a finite recursion over `ndim` unrolls into a nested loop.

use crate::ast::{Module, SExpr, SFunc, SParam, SStmt};
use ft_ir::mutate::fresh_name;
use ft_ir::{builder, DataType, Expr, Func, Stmt, StmtKind};
use ft_passes::const_fold_expr;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A lowering failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Explanation.
    pub message: String,
    /// 1-based source line (0 when the error has no place in the text).
    pub line: usize,
    /// Whether `line` is a line of the library module
    /// ([`lower_with_library`]) rather than of the program's own text.
    pub in_library: bool,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.in_library) {
            (0, _) => write!(f, "lowering error: {}", self.message),
            (line, false) => write!(f, "lowering error at line {line}: {}", self.message),
            (line, true) => write!(
                f,
                "lowering error in the operator library at line {line}: {}",
                self.message
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// A tensor view: a base tensor restricted by an index prefix.
///
/// `A[i]` of a 3-D tensor is the 2-D view `{ base: A, prefix: [i] }`; its
/// `shape` holds the *remaining* dimensions — the compile-time metadata that
/// partial evaluation folds over.
#[derive(Debug, Clone)]
pub struct TensorView {
    /// Underlying tensor name (in the lowered program).
    pub base: String,
    /// Fixed leading indices.
    pub prefix: Vec<Expr>,
    /// Extents of the remaining dimensions.
    pub shape: Vec<Expr>,
    /// Element type.
    pub dtype: DataType,
}

impl TensorView {
    /// Remaining dimensionality.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }
}

#[derive(Debug, Clone)]
enum Binding {
    /// A scalar integer expression (loop iterator, size parameter, or a
    /// scalar argument of an inlined call).
    Scalar(Expr),
    /// A tensor view.
    View(TensorView),
}

#[derive(Debug, Clone)]
enum Value {
    Scalar(Expr),
    View(TensorView),
}

const MAX_INLINE_DEPTH: usize = 64;

struct Lowerer<'m> {
    module: &'m Module,
    library: Option<&'m Module>,
    /// Whether the body being lowered is a library function's.
    in_library: bool,
    scopes: Vec<HashMap<String, Binding>>,
    used_names: HashSet<Cow<'m, str>>,
    depth: usize,
}

/// Lower the function named `entry` of a parsed module to IR, inlining every
/// call and partially evaluating metadata conditions.
///
/// # Errors
///
/// Returns a [`LowerError`] for unknown names, rank mismatches, non-constant
/// metadata, unbounded recursion, and calls to undefined functions.
pub fn lower_module(module: &Module, entry: &str) -> Result<Func, LowerError> {
    Lowerer::new(module, None).entry(entry)
}

/// [`lower_module`] with a second, separately parsed module in scope: a
/// name `module` does not define is looked up in `library`, so the
/// program's own definitions shadow the library's. Error lines inside a
/// library function are lines of the library's text
/// ([`LowerError::in_library`]).
///
/// # Errors
///
/// As [`lower_module`].
pub fn lower_with_library(
    module: &Module,
    library: &Module,
    entry: &str,
) -> Result<Func, LowerError> {
    Lowerer::new(module, Some(library)).entry(entry)
}

impl<'m> Lowerer<'m> {
    fn new(module: &'m Module, library: Option<&'m Module>) -> Lowerer<'m> {
        Lowerer {
            module,
            library,
            in_library: false,
            scopes: vec![HashMap::new()],
            used_names: HashSet::new(),
            depth: 0,
        }
    }

    /// The function `name` and whether it is the library's.
    fn find(&self, name: &str) -> Option<(&'m SFunc, bool)> {
        match self.module.find(name) {
            Some(f) => Some((f, false)),
            None => Some((self.library?.find(name)?, true)),
        }
    }

    fn entry(mut self, entry: &str) -> Result<Func, LowerError> {
        let Some((sfunc, in_library)) = self.find(entry) else {
            return self.err(0, format!("no function named `{entry}`"));
        };
        self.in_library = in_library;
        let mut func = Func::new(entry);
        // Bind size parameters first: tensor shapes may reference them
        // regardless of declaration order.
        for p in &sfunc.params {
            if let SParam::Size { name } = p {
                func = func.size_param(name.clone());
                self.bind(name, Binding::Scalar(builder::var(name)));
                self.used_names.insert(Cow::Borrowed(name));
            }
        }
        for p in &sfunc.params {
            match p {
                SParam::Tensor {
                    name,
                    dtype,
                    shape,
                    mtype,
                    atype,
                } => {
                    let shape_ir: Vec<Expr> = shape
                        .iter()
                        .map(|e| self.lower_scalar(e, sfunc.line))
                        .collect::<Result<_, _>>()?;
                    func = func.param_on(name.clone(), shape_ir.clone(), *dtype, *mtype, *atype);
                    self.bind(
                        name,
                        Binding::View(TensorView {
                            base: name.clone(),
                            prefix: vec![],
                            shape: shape_ir,
                            dtype: *dtype,
                        }),
                    );
                    self.used_names.insert(Cow::Borrowed(name));
                }
                SParam::Size { .. } => {} // bound above
                SParam::Untyped { name } => {
                    return self.err(
                        sfunc.line,
                        format!("entry function parameter `{name}` needs a type annotation"),
                    )
                }
            }
        }
        let body = self.lower_block(&sfunc.body)?;
        Ok(func.body(body))
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), b);
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(b);
            }
        }
        None
    }

    fn err<T>(&self, line: usize, msg: impl Into<String>) -> Result<T, LowerError> {
        Err(LowerError {
            message: msg.into(),
            line,
            in_library: self.in_library && line > 0,
        })
    }

    fn lower_block(&mut self, stmts: &[SStmt]) -> Result<Stmt, LowerError> {
        let mut out: Vec<Stmt> = Vec::new();
        let mut i = 0;
        while i < stmts.len() {
            match &stmts[i] {
                SStmt::VarDef {
                    name,
                    shape,
                    dtype,
                    mtype,
                    line,
                } => {
                    // The rest of the block is the definition's scope.
                    let shape_ir: Vec<Expr> = shape
                        .iter()
                        .map(|e| self.lower_scalar(e, *line))
                        .collect::<Result<_, _>>()?;
                    let unique = fresh_name(name, &mut self.used_names);
                    self.scopes.push(HashMap::new());
                    self.bind(
                        name,
                        Binding::View(TensorView {
                            base: unique.clone(),
                            prefix: vec![],
                            shape: shape_ir.clone(),
                            dtype: *dtype,
                        }),
                    );
                    let rest = self.lower_block(&stmts[i + 1..])?;
                    self.scopes.pop();
                    out.push(builder::var_def(unique, shape_ir, *dtype, *mtype, rest));
                    return Ok(if out.len() == 1 {
                        out.pop().expect("len 1")
                    } else {
                        Stmt::new(StmtKind::Block(out))
                    });
                }
                s => out.push(self.lower_stmt(s)?),
            }
            i += 1;
        }
        Ok(match out.len() {
            0 => builder::empty(),
            1 => out.pop().expect("len 1"),
            _ => Stmt::new(StmtKind::Block(out)),
        })
    }

    fn lower_stmt(&mut self, s: &SStmt) -> Result<Stmt, LowerError> {
        match s {
            SStmt::Pass => Ok(builder::empty()),
            SStmt::VarDef { .. } => unreachable!("handled by lower_block"),
            SStmt::For {
                iter,
                begin,
                end,
                body,
                line,
            } => {
                let b = self.lower_scalar(begin, *line)?;
                let e = self.lower_scalar(end, *line)?;
                let unique = fresh_name(iter, &mut self.used_names);
                self.scopes.push(HashMap::new());
                self.bind(iter, Binding::Scalar(builder::var(&unique)));
                let body_ir = self.lower_block(body)?;
                self.scopes.pop();
                Ok(builder::for_(unique, b, e, body_ir))
            }
            SStmt::If {
                cond,
                then,
                otherwise,
                line,
            } => {
                let c = const_fold_expr(self.lower_scalar(cond, *line)?);
                // Partial evaluation: metadata conditions fold to constants,
                // so only the taken branch is lowered (paper Fig. 9).
                match c.as_bool() {
                    Some(true) => self.lower_block(then),
                    Some(false) => self.lower_block(otherwise),
                    None => {
                        let t = self.lower_block(then)?;
                        if otherwise.is_empty() {
                            Ok(builder::if_(c, t))
                        } else {
                            let o = self.lower_block(otherwise)?;
                            Ok(builder::if_else(c, t, o))
                        }
                    }
                }
            }
            SStmt::Assign {
                target,
                indices,
                value,
                line,
            } => {
                let (base, full) = self.lower_target(target, indices, *line)?;
                let v = self.lower_scalar(value, *line)?;
                Ok(builder::store(base, full, v))
            }
            SStmt::Reduce {
                target,
                indices,
                op,
                value,
                line,
            } => {
                let (base, full) = self.lower_target(target, indices, *line)?;
                let v = self.lower_scalar(value, *line)?;
                Ok(builder::reduce(base, full, *op, v))
            }
            SStmt::Call { callee, args, line } => self.lower_call(callee, args, *line),
        }
    }

    fn lower_target(
        &mut self,
        target: &str,
        indices: &[SExpr],
        line: usize,
    ) -> Result<(String, Vec<Expr>), LowerError> {
        let Some(Binding::View(view)) = self.lookup(target).cloned() else {
            return self.err(line, format!("`{target}` is not an assignable tensor"));
        };
        if indices.len() != view.ndim() {
            return self.err(
                line,
                format!(
                    "`{target}` expects {} indices, got {}",
                    view.ndim(),
                    indices.len()
                ),
            );
        }
        let mut full = view.prefix.clone();
        for idx in indices {
            full.push(self.lower_scalar(idx, line)?);
        }
        Ok((view.base, full))
    }

    fn lower_call(
        &mut self,
        callee: &str,
        args: &[SExpr],
        line: usize,
    ) -> Result<Stmt, LowerError> {
        let Some((func, in_library)) = self.find(callee) else {
            return self.err(line, format!("call to undefined function `{callee}`"));
        };
        if self.depth >= MAX_INLINE_DEPTH {
            return self.err(
                line,
                format!(
                    "inlining depth limit ({MAX_INLINE_DEPTH}) exceeded in `{callee}` — \
                     is a recursion missing its metadata base case?"
                ),
            );
        }
        if func.params.len() != args.len() {
            return self.err(
                line,
                format!(
                    "`{callee}` takes {} arguments, got {}",
                    func.params.len(),
                    args.len()
                ),
            );
        }
        // Evaluate arguments in the caller's scope.
        let mut bindings: Vec<(String, Binding)> = Vec::new();
        for (p, a) in func.params.iter().zip(args) {
            let value = self.lower_value(a, line)?;
            let binding = match (p, value) {
                (SParam::Tensor { dtype, shape, .. }, Value::View(v)) => {
                    if v.ndim() != shape.len() {
                        return self.err(
                            line,
                            format!(
                                "argument for `{}` of `{callee}` has rank {}, expected {}",
                                p.name(),
                                v.ndim(),
                                shape.len()
                            ),
                        );
                    }
                    if v.dtype != *dtype {
                        return self.err(
                            line,
                            format!(
                                "argument for `{}` of `{callee}` has dtype {}, expected {dtype}",
                                p.name(),
                                v.dtype
                            ),
                        );
                    }
                    Binding::View(v)
                }
                (SParam::Untyped { .. }, Value::View(v)) => Binding::View(v),
                (SParam::Size { .. } | SParam::Untyped { .. }, Value::Scalar(e)) => {
                    Binding::Scalar(e)
                }
                (SParam::Tensor { .. }, Value::Scalar(_)) => {
                    return self.err(
                        line,
                        format!("`{}` of `{callee}` expects a tensor argument", p.name()),
                    )
                }
                (SParam::Size { .. }, Value::View(_)) => {
                    return self.err(
                        line,
                        format!("`{}` of `{callee}` expects a scalar argument", p.name()),
                    )
                }
            };
            bindings.push((p.name().to_string(), binding));
        }
        // Callee sees only its parameters (no lexical capture).
        let saved_scopes = std::mem::replace(&mut self.scopes, vec![HashMap::new()]);
        for (name, b) in bindings {
            self.bind(&name, b);
        }
        self.depth += 1;
        let caller_in_library = std::mem::replace(&mut self.in_library, in_library);
        let body = self.lower_block(&func.body);
        self.in_library = caller_in_library;
        self.depth -= 1;
        self.scopes = saved_scopes;
        body
    }

    fn lower_scalar(&mut self, e: &SExpr, line: usize) -> Result<Expr, LowerError> {
        match self.lower_value(e, line)? {
            Value::Scalar(x) => Ok(x),
            Value::View(v) if v.ndim() == 0 => Ok(Expr::Load {
                var: v.base,
                indices: v.prefix,
            }),
            Value::View(v) => self.err(
                line,
                format!(
                    "tensor `{}` of rank {} used where a scalar is required",
                    v.base,
                    v.ndim()
                ),
            ),
        }
    }

    fn lower_value(&mut self, e: &SExpr, line: usize) -> Result<Value, LowerError> {
        Ok(match e {
            SExpr::Int(v) => Value::Scalar(Expr::IntConst(*v)),
            SExpr::Float(v) => Value::Scalar(Expr::FloatConst(*v)),
            SExpr::Bool(v) => Value::Scalar(Expr::BoolConst(*v)),
            SExpr::Inf => Value::Scalar(Expr::FloatConst(f64::INFINITY)),
            SExpr::Name(n) => match self.lookup(n) {
                Some(Binding::Scalar(x)) => Value::Scalar(x.clone()),
                Some(Binding::View(v)) => Value::View(v.clone()),
                None => return self.err(line, format!("undefined name `{n}`")),
            },
            SExpr::Index(base, indices) => {
                let Value::View(mut view) = self.lower_value(base, line)? else {
                    return self.err(line, "only tensors can be indexed");
                };
                if indices.len() > view.ndim() {
                    return self.err(
                        line,
                        format!(
                            "too many indices: `{}` has {} remaining dimensions",
                            view.base,
                            view.ndim()
                        ),
                    );
                }
                for idx in indices {
                    let x = self.lower_scalar(idx, line)?;
                    view.prefix.push(x);
                    view.shape.remove(0);
                }
                Value::View(view)
            }
            SExpr::Attr(base, attr) => {
                let Value::View(view) = self.lower_value(base, line)? else {
                    return self.err(line, "metadata attributes apply to tensors");
                };
                match attr.as_str() {
                    // Compile-time metadata: the pivot of partial evaluation.
                    "ndim" => Value::Scalar(Expr::IntConst(view.ndim() as i64)),
                    other => return self.err(line, format!("unknown attribute `.{other}`")),
                }
            }
            SExpr::ShapeOf(base, k) => {
                let Value::View(view) = self.lower_value(base, line)? else {
                    return self.err(line, "`.shape()` applies to tensors");
                };
                let kk = const_fold_expr(self.lower_scalar(k, line)?);
                let Some(d) = kk.as_int() else {
                    return self.err(line, "`.shape(k)` needs a compile-time constant k");
                };
                if d < 0 || d as usize >= view.ndim() {
                    return self.err(
                        line,
                        format!("`.shape({d})` out of range for rank {}", view.ndim()),
                    );
                }
                Value::Scalar(view.shape[d as usize].clone())
            }
            SExpr::Unary(op, a) => {
                let x = self.lower_scalar(a, line)?;
                Value::Scalar(Expr::unary(*op, x))
            }
            SExpr::Binary(op, a, b) => {
                let x = self.lower_scalar(a, line)?;
                let y = self.lower_scalar(b, line)?;
                Value::Scalar(Expr::binary(*op, x, y))
            }
            SExpr::Select(c, a, b) => {
                let cc = self.lower_scalar(c, line)?;
                let x = self.lower_scalar(a, line)?;
                let y = self.lower_scalar(b, line)?;
                Value::Scalar(Expr::select(cc, x, y))
            }
            SExpr::Cast(dt, a) => {
                let x = self.lower_scalar(a, line)?;
                Value::Scalar(Expr::cast(*dt, x))
            }
        })
    }
}

/// Check that the lowered entry is well-formed for the rest of the pipeline
/// (unique definition names — guaranteed by construction, asserted here).
pub fn validate(func: &Func) -> Result<(), LowerError> {
    if let Some(dup) = ft_analysis_free_duplicate(func) {
        return Err(LowerError {
            message: format!("duplicate tensor definition `{dup}` after lowering"),
            line: 0,
            in_library: false,
        });
    }
    Ok(())
}

fn ft_analysis_free_duplicate(func: &Func) -> Option<String> {
    let mut seen: HashSet<String> = func.params.iter().map(|p| p.name.clone()).collect();
    let mut dup = None;
    func.body.walk(&mut |s| {
        if let StmtKind::VarDef { name, .. } = &s.kind {
            if !seen.insert(name.clone()) && dup.is_none() {
                dup = Some(name.clone());
            }
        }
    });
    dup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use ft_ir::StmtKind;
    use ft_runtime::ExecutionEngine;

    fn lower(src: &str, entry: &str) -> Func {
        let m = parse(src).expect("parse ok");
        let f = lower_module(&m, entry).expect("lower ok");
        validate(&f).expect("validate ok");
        f
    }

    #[test]
    fn lowers_simple_loop() {
        let f = lower(
            "def f(x: f32[n] in, y: f32[n] out, n: size):\n  for i in range(0, n):\n    y[i] = x[i] * 2 + 1\n",
            "f",
        );
        let text = f.to_string();
        assert!(text.contains("y[i] = x[i] * 2 + 1"), "{text}");
        assert_eq!(f.size_params, vec!["n".to_string()]);
    }

    #[test]
    fn paper_fig6b_recursion_expands_to_nested_loops() {
        // Dimension-free add() with a finite recursion; calling it on 3-D
        // views must produce a 3-level loop nest (paper Fig. 9).
        let src = r#"
def add(A, B, C):
  if A.ndim == 0:
    C = A + B
  else:
    for i in range(A.shape(0)):
      add(A[i], B[i], C[i])

def entry(A: f32[2, 3, 4] in, B: f32[2, 3, 4] in, C: f32[2, 3, 4] out):
  add(A, B, C)
"#;
        let f = lower(src, "entry");
        let loops = ft_ir::find::find_stmts(&f.body, &|s| matches!(s.kind, StmtKind::For { .. }));
        assert_eq!(loops.len(), 3, "{f}");
        // No branches survive: all ndim tests folded at compile time.
        assert!(
            ft_ir::find::find_stmts(&f.body, &|s| { matches!(s.kind, StmtKind::If { .. }) })
                .is_empty()
        );
        let text = f.to_string();
        assert!(
            text.contains("C[i, i.1, i.2] = A[i, i.1, i.2] + B[i, i.1, i.2]"),
            "{text}"
        );
    }

    #[test]
    fn infinite_recursion_is_reported() {
        let src =
            "def loopy(A):\n  loopy(A)\n\ndef entry(A: f32[2] in, y: f32[1] out):\n  loopy(A)\n";
        let m = parse(src).unwrap();
        let err = lower_module(&m, "entry").unwrap_err();
        assert!(err.message.contains("depth limit"), "{err}");
    }

    #[test]
    fn create_var_scopes_rest_of_block() {
        let src = "def f(y: f32[4] out):\n  t = create_var((4,), \"f32\", \"cpu\")\n  t[0] = 1.0\n  y[0] = t[0]\n";
        let f = lower(src, "f");
        match &f.body.kind {
            StmtKind::VarDef { name, body, .. } => {
                assert_eq!(name, "t");
                assert!(matches!(body.kind, StmtKind::Block(_)));
            }
            other => panic!("expected VarDef at top, got {other:?}"),
        }
    }

    #[test]
    fn inlined_locals_are_renamed() {
        // Both calls declare `t`; lowering must uniquify.
        let src = r#"
def helper(X, i):
  t = create_var((), "f32", "cpu")
  t = X[i] * 2.0
  X[i] = t

def entry(x: f32[4] inout):
  helper(x, 0)
  helper(x, 1)
"#;
        let f = lower(src, "entry");
        let mut names = Vec::new();
        f.body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                names.push(name.clone());
            }
        });
        names.sort();
        assert_eq!(names, vec!["t".to_string(), "t.1".to_string()]);
    }

    #[test]
    fn views_compose_through_calls() {
        // Pass a row of a matrix; the callee indexes the remaining dim.
        let src = r#"
def fill(row, v, m: size):
  for j in range(m):
    row[j] = v

def entry(A: f32[3, 5] out):
  for i in range(3):
    fill(A[i], i * 10, 5)
"#;
        let f = lower(src, "entry");
        let text = f.to_string();
        assert!(text.contains("A[i, j] = i * 10"), "{text}");
    }

    #[test]
    fn longformer_style_listing_lowers() {
        // The paper's Fig. 5 inner computation (structure check only).
        let src = r#"
def fwd(Q: f32[64, 16] in, K: f32[64, 16] in, y: f32[64] out, w: size):
  for j in range(64):
    dot = create_var((2 * w + 1,), "f32", "cpu")
    for k in range(-w, w + 1):
      if j + k >= 0 and j + k < 64:
        dot[k + w] = 0.0
        for p in range(16):
          dot[k + w] += Q[j, p] * K[j + k, p]
    dot_max = create_var((), "f32", "cpu")
    dot_max = -inf
    for k2 in range(2 * w + 1):
      dot_max max= dot[k2]
    y[j] = dot_max
"#;
        let f = lower(src, "fwd");
        let text = f.to_string();
        assert!(
            text.contains("dot[k + w] += Q[j, p] * K[j + k, p]"),
            "{text}"
        );
        assert!(text.contains("dot_max[] max= dot[k2]"), "{text}");
    }

    #[test]
    fn errors_are_specific() {
        let m = parse("def f(y: f32[2] out):\n  y[0, 1] = 1\n").unwrap();
        let e = lower_module(&m, "f").unwrap_err();
        assert!(e.message.contains("expects 1 indices"), "{e}");
        let m = parse("def f(y: f32[2] out):\n  z[0] = 1\n").unwrap();
        let e = lower_module(&m, "f").unwrap_err();
        assert!(e.message.contains("not an assignable"), "{e}");
        let m = parse("def f(y: f32[2] out):\n  g(y)\n").unwrap();
        let e = lower_module(&m, "f").unwrap_err();
        assert!(e.message.contains("undefined function"), "{e}");
    }

    #[test]
    fn compiled_programs_execute() {
        // End-to-end with the runtime: dimension-free add on 2-D inputs.
        let src = r#"
def add(A, B, C):
  if A.ndim == 0:
    C = A + B
  else:
    for i in range(A.shape(0)):
      add(A[i], B[i], C[i])

def entry(A: f32[2, 3] in, B: f32[2, 3] in, C: f32[2, 3] out):
  add(A, B, C)
"#;
        let f = lower(src, "entry");
        let rt = ft_runtime::Runtime::new();
        let a = ft_runtime::TensorVal::from_f32(&[2, 3], (0..6).map(|x| x as f32).collect());
        let b = ft_runtime::TensorVal::from_f32(&[2, 3], vec![10.0; 6]);
        let inputs: std::collections::HashMap<String, ft_runtime::TensorVal> =
            [("A".to_string(), a), ("B".to_string(), b)]
                .into_iter()
                .collect();
        let r = rt.run(&f, &inputs, &Default::default()).unwrap();
        assert_eq!(
            r.output("C").to_f64_vec(),
            vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        );
    }
}
