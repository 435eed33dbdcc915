//! Recursive-descent parser producing the surface AST.

use crate::ast::{Module, SExpr, SFunc, SParam, SStmt};
use crate::lexer::{lex, LexError, Spanned, Tok};
use ft_ir::{AccessType, BinaryOp, DataType, MemType, ReduceOp, UnaryOp};
use std::fmt;

/// A parse failure with location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

struct Parser<'s> {
    toks: Vec<Spanned<'s>>,
    pos: usize,
}

/// Parse a whole module.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line.
pub fn parse(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut funcs = Vec::new();
    while !p.at(&Tok::Eof) {
        funcs.push(p.funcdef()?);
    }
    Ok(Module { funcs })
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Tok<'s> {
        self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == *t
    }

    fn bump(&mut self) -> Tok<'s> {
        let t = self.peek();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    fn expect_sym(&mut self, s: &'static str) -> Result<(), ParseError> {
        if self.at(&Tok::Sym(s)) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{s}`, found {}", self.peek()))
        }
    }

    fn expect_name(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Name(n) => {
                self.bump();
                Ok(n.to_string())
            }
            other => self.err(format!("expected a name, found {other}")),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Name(n) if n == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{kw}`, found {other}")),
        }
    }

    fn eat_newline(&mut self) -> Result<(), ParseError> {
        if self.at(&Tok::Newline) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected end of line, found {}", self.peek()))
        }
    }

    fn funcdef(&mut self) -> Result<SFunc, ParseError> {
        let line = self.line();
        self.expect_kw("def")?;
        let name = self.expect_name()?;
        self.expect_sym("(")?;
        let mut params = Vec::new();
        if !self.at(&Tok::Sym(")")) {
            loop {
                params.push(self.param()?);
                if self.at(&Tok::Sym(",")) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        self.expect_sym(":")?;
        self.eat_newline()?;
        let body = self.suite_body()?;
        Ok(SFunc {
            name,
            params,
            body,
            line,
        })
    }

    fn param(&mut self) -> Result<SParam, ParseError> {
        let name = self.expect_name()?;
        if !self.at(&Tok::Sym(":")) {
            return Ok(SParam::Untyped { name });
        }
        self.bump();
        let ty = self.expect_name()?;
        if ty == "size" {
            return Ok(SParam::Size { name });
        }
        let dtype = DataType::parse(&ty)
            .ok_or(())
            .or_else(|_| self.err::<DataType>(format!("unknown element type `{ty}`")))?;
        self.expect_sym("[")?;
        let mut shape = Vec::new();
        if !self.at(&Tok::Sym("]")) {
            loop {
                shape.push(self.expr()?);
                if self.at(&Tok::Sym(",")) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_sym("]")?;
        let mut mtype = MemType::CpuHeap;
        if self.at(&Tok::Sym("@")) {
            self.bump();
            let mut spec = self.expect_name()?;
            if self.at(&Tok::Sym("/")) {
                self.bump();
                spec = format!("{spec}/{}", self.expect_name()?);
            }
            mtype = MemType::parse(&spec)
                .ok_or(())
                .or_else(|_| self.err::<MemType>(format!("unknown memory type `{spec}`")))?;
        }
        let atype = match self.peek() {
            Tok::Name("in") => {
                self.bump();
                AccessType::Input
            }
            Tok::Name("out") => {
                self.bump();
                AccessType::Output
            }
            Tok::Name("inout") => {
                self.bump();
                AccessType::InOut
            }
            _ => AccessType::Input,
        };
        Ok(SParam::Tensor {
            name,
            dtype,
            shape,
            mtype,
            atype,
        })
    }

    fn suite_body(&mut self) -> Result<Vec<SStmt>, ParseError> {
        if !self.at(&Tok::Indent) {
            return self.err("expected an indented block");
        }
        self.bump();
        let mut stmts = Vec::new();
        while !self.at(&Tok::Dedent) && !self.at(&Tok::Eof) {
            stmts.push(self.stmt()?);
        }
        if self.at(&Tok::Dedent) {
            self.bump();
        }
        Ok(stmts)
    }

    fn suite(&mut self) -> Result<Vec<SStmt>, ParseError> {
        self.expect_sym(":")?;
        self.eat_newline()?;
        self.suite_body()
    }

    fn stmt(&mut self) -> Result<SStmt, ParseError> {
        let line = self.line();
        match self.peek() {
            Tok::Name("for") => {
                self.bump();
                let iter = self.expect_name()?;
                self.expect_kw("in")?;
                self.expect_kw("range")?;
                self.expect_sym("(")?;
                let first = self.expr()?;
                let (begin, end) = if self.at(&Tok::Sym(",")) {
                    self.bump();
                    let e = self.expr()?;
                    (first, e)
                } else {
                    (SExpr::Int(0), first)
                };
                self.expect_sym(")")?;
                let body = self.suite()?;
                Ok(SStmt::For {
                    iter,
                    begin,
                    end,
                    body,
                    line,
                })
            }
            Tok::Name("if") => {
                self.bump();
                let cond = self.expr()?;
                let then = self.suite()?;
                let otherwise = if matches!(self.peek(), Tok::Name("else")) {
                    self.bump();
                    self.suite()?
                } else {
                    Vec::new()
                };
                Ok(SStmt::If {
                    cond,
                    then,
                    otherwise,
                    line,
                })
            }
            Tok::Name("pass") => {
                self.bump();
                self.eat_newline()?;
                Ok(SStmt::Pass)
            }
            Tok::Name(_) => self.simple_stmt(line),
            other => self.err(format!("unexpected {other}")),
        }
    }

    fn simple_stmt(&mut self, line: usize) -> Result<SStmt, ParseError> {
        let name = self.expect_name()?;
        // Call statement: `f(args…)`.
        if self.at(&Tok::Sym("(")) {
            self.bump();
            let mut args = Vec::new();
            if !self.at(&Tok::Sym(")")) {
                loop {
                    args.push(self.expr()?);
                    if self.at(&Tok::Sym(",")) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect_sym(")")?;
            self.eat_newline()?;
            return Ok(SStmt::Call {
                callee: name,
                args,
                line,
            });
        }
        // Optional index list.
        let mut indices = Vec::new();
        if self.at(&Tok::Sym("[")) {
            self.bump();
            if !self.at(&Tok::Sym("]")) {
                loop {
                    indices.push(self.expr()?);
                    if self.at(&Tok::Sym(",")) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect_sym("]")?;
        }
        let op = match self.peek() {
            Tok::Sym("=") => None,
            Tok::Sym("+=") => Some(ReduceOp::Add),
            Tok::Sym("*=") => Some(ReduceOp::Mul),
            Tok::Sym("min=") => Some(ReduceOp::Min),
            Tok::Sym("max=") => Some(ReduceOp::Max),
            other => return self.err(format!("expected an assignment, found {other}")),
        };
        self.bump();
        // `create_var` definition.
        if op.is_none() && matches!(self.peek(), Tok::Name("create_var")) {
            self.bump();
            self.expect_sym("(")?;
            self.expect_sym("(")?;
            let mut shape = Vec::new();
            if !self.at(&Tok::Sym(")")) {
                loop {
                    shape.push(self.expr()?);
                    if self.at(&Tok::Sym(",")) {
                        self.bump();
                        if self.at(&Tok::Sym(")")) {
                            break; // trailing comma, e.g. `(m,)`
                        }
                    } else {
                        break;
                    }
                }
            }
            self.expect_sym(")")?;
            self.expect_sym(",")?;
            let Tok::Str(dt) = self.bump() else {
                return self.err("expected a dtype string");
            };
            let dtype = DataType::parse(dt)
                .ok_or(())
                .or_else(|_| self.err::<DataType>(format!("unknown element type `{dt}`")))?;
            self.expect_sym(",")?;
            let Tok::Str(mt) = self.bump() else {
                return self.err("expected a memory-type string");
            };
            let mtype = MemType::parse(mt)
                .ok_or(())
                .or_else(|_| self.err::<MemType>(format!("unknown memory type `{mt}`")))?;
            self.expect_sym(")")?;
            self.eat_newline()?;
            if !indices.is_empty() {
                return self.err("create_var target cannot be indexed");
            }
            return Ok(SStmt::VarDef {
                name,
                shape,
                dtype,
                mtype,
                line,
            });
        }
        let value = self.expr()?;
        self.eat_newline()?;
        Ok(match op {
            None => SStmt::Assign {
                target: name,
                indices,
                value,
                line,
            },
            Some(op) => SStmt::Reduce {
                target: name,
                indices,
                op,
                value,
                line,
            },
        })
    }

    // Expression precedence: or < and < not < cmp < add < mul < unary < postfix.
    fn expr(&mut self) -> Result<SExpr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.and_expr()?;
        while matches!(self.peek(), Tok::Name("or")) {
            self.bump();
            let r = self.and_expr()?;
            e = SExpr::Binary(BinaryOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.not_expr()?;
        while matches!(self.peek(), Tok::Name("and")) {
            self.bump();
            let r = self.not_expr()?;
            e = SExpr::Binary(BinaryOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<SExpr, ParseError> {
        if matches!(self.peek(), Tok::Name("not")) {
            self.bump();
            let e = self.not_expr()?;
            return Ok(SExpr::Unary(UnaryOp::Not, Box::new(e)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<SExpr, ParseError> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Tok::Sym("==") => Some(BinaryOp::Eq),
            Tok::Sym("!=") => Some(BinaryOp::Ne),
            Tok::Sym("<") => Some(BinaryOp::Lt),
            Tok::Sym("<=") => Some(BinaryOp::Le),
            Tok::Sym(">") => Some(BinaryOp::Gt),
            Tok::Sym(">=") => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let r = self.add_expr()?;
            Ok(SExpr::Binary(op, Box::new(e), Box::new(r)))
        } else {
            Ok(e)
        }
    }

    fn add_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("+") => BinaryOp::Add,
                Tok::Sym("-") => BinaryOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.mul_expr()?;
            e = SExpr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("*") => BinaryOp::Mul,
                Tok::Sym("/") => BinaryOp::Div,
                Tok::Sym("%") => BinaryOp::Mod,
                _ => break,
            };
            self.bump();
            let r = self.unary_expr()?;
            e = SExpr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<SExpr, ParseError> {
        if self.at(&Tok::Sym("-")) {
            self.bump();
            let e = self.unary_expr()?;
            return Ok(SExpr::Unary(UnaryOp::Neg, Box::new(e)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Tok::Sym("[") => {
                    self.bump();
                    let mut indices = Vec::new();
                    if !self.at(&Tok::Sym("]")) {
                        loop {
                            indices.push(self.expr()?);
                            if self.at(&Tok::Sym(",")) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect_sym("]")?;
                    e = SExpr::Index(Box::new(e), indices);
                }
                Tok::Sym(".") => {
                    self.bump();
                    let attr = self.expect_name()?;
                    if attr == "shape" {
                        self.expect_sym("(")?;
                        let k = self.expr()?;
                        self.expect_sym(")")?;
                        e = SExpr::ShapeOf(Box::new(e), Box::new(k));
                    } else {
                        e = SExpr::Attr(Box::new(e), attr);
                    }
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<SExpr, ParseError> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(SExpr::Int(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(SExpr::Float(v))
            }
            Tok::Sym("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Name(n) => {
                self.bump();
                match n {
                    "true" | "True" => return Ok(SExpr::Bool(true)),
                    "false" | "False" => return Ok(SExpr::Bool(false)),
                    "inf" => return Ok(SExpr::Inf),
                    _ => {}
                }
                if self.at(&Tok::Sym("(")) {
                    return self.builtin_call(n);
                }
                Ok(SExpr::Name(n.to_string()))
            }
            other => self.err(format!("unexpected {other} in expression")),
        }
    }

    fn builtin_call(&mut self, name: &str) -> Result<SExpr, ParseError> {
        let line = self.line();
        self.expect_sym("(")?;
        let mut args = Vec::new();
        if !self.at(&Tok::Sym(")")) {
            loop {
                args.push(self.expr()?);
                if self.at(&Tok::Sym(",")) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        let unary = |op: UnaryOp, mut args: Vec<SExpr>| -> Result<SExpr, ParseError> {
            if args.len() != 1 {
                return Err(ParseError {
                    message: format!("{op:?} takes one argument"),
                    line,
                });
            }
            Ok(SExpr::Unary(op, Box::new(args.remove(0))))
        };
        let binary = |op: BinaryOp, mut args: Vec<SExpr>| -> Result<SExpr, ParseError> {
            if args.len() != 2 {
                return Err(ParseError {
                    message: format!("{op:?} takes two arguments"),
                    line,
                });
            }
            let a = args.remove(0);
            let b = args.remove(0);
            Ok(SExpr::Binary(op, Box::new(a), Box::new(b)))
        };
        match name {
            "abs" => unary(UnaryOp::Abs, args),
            "sqrt" => unary(UnaryOp::Sqrt, args),
            "exp" => unary(UnaryOp::Exp, args),
            "ln" => unary(UnaryOp::Ln, args),
            "sigmoid" => unary(UnaryOp::Sigmoid, args),
            "tanh" => unary(UnaryOp::Tanh, args),
            "sign" => unary(UnaryOp::Sign, args),
            "min" => binary(BinaryOp::Min, args),
            "max" => binary(BinaryOp::Max, args),
            "pow" => binary(BinaryOp::Pow, args),
            "select" => {
                if args.len() != 3 {
                    return self.err("select takes three arguments");
                }
                let mut it = args.into_iter();
                Ok(SExpr::Select(
                    Box::new(it.next().expect("len 3")),
                    Box::new(it.next().expect("len 3")),
                    Box::new(it.next().expect("len 3")),
                ))
            }
            dt if DataType::parse(dt).is_some() => {
                if args.len() != 1 {
                    return self.err("casts take one argument");
                }
                Ok(SExpr::Cast(
                    DataType::parse(dt).expect("checked"),
                    Box::new(args.into_iter().next().expect("len 1")),
                ))
            }
            other => self.err(format!(
                "`{other}` is not a builtin (user calls are statements)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_signature() {
        let m = parse("def f(x: f32[n, m] @ gpu in, y: f32[n] out, n: size, m: size):\n  pass\n")
            .unwrap();
        let f = m.find("f").unwrap();
        assert_eq!(f.params.len(), 4);
        match &f.params[0] {
            SParam::Tensor {
                dtype,
                shape,
                mtype,
                atype,
                ..
            } => {
                assert_eq!(*dtype, DataType::F32);
                assert_eq!(shape.len(), 2);
                assert_eq!(*mtype, MemType::GpuGlobal);
                assert_eq!(*atype, AccessType::Input);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&f.params[2], SParam::Size { .. }));
    }

    #[test]
    fn parses_loops_conditions_and_reduces() {
        let src = "def f(y: f32[8] out):\n  for i in range(8):\n    if i % 2 == 0 and i < 6:\n      y[i] += i * 2\n    else:\n      y[i] = 0.0\n";
        let m = parse(src).unwrap();
        let f = m.find("f").unwrap();
        let SStmt::For { body, begin, .. } = &f.body[0] else {
            panic!()
        };
        assert_eq!(*begin, SExpr::Int(0));
        assert!(matches!(&body[0], SStmt::If { otherwise, .. } if !otherwise.is_empty()));
    }

    #[test]
    fn parses_create_var_and_metadata() {
        let src = "def f(A):\n  t = create_var((2, 3), \"f32\", \"gpu/shared\")\n  if A.ndim == 0:\n    t[0, 0] = A.shape(0)\n";
        let m = parse(src).unwrap();
        let f = m.find("f").unwrap();
        assert!(matches!(&f.params[0], SParam::Untyped { .. }));
        assert!(matches!(&f.body[0], SStmt::VarDef { shape, mtype, .. }
                if shape.len() == 2 && *mtype == MemType::GpuShared));
    }

    #[test]
    fn parses_scalar_create_var_and_trailing_comma() {
        let src = "def f(y: f32[1] out):\n  a = create_var((), \"f32\", \"cpu\")\n  b = create_var((4,), \"f32\", \"cpu\")\n  a = 1.0\n  y[0] = a\n";
        let m = parse(src).unwrap();
        let f = m.find("f").unwrap();
        assert!(matches!(&f.body[0], SStmt::VarDef { shape, .. } if shape.is_empty()));
        assert!(matches!(&f.body[1], SStmt::VarDef { shape, .. } if shape.len() == 1));
        // Bare-name assignment parses as a 0-index store.
        assert!(matches!(&f.body[2], SStmt::Assign { indices, .. } if indices.is_empty()));
    }

    #[test]
    fn parses_call_statements_and_builtins() {
        let src =
            "def f(A, B, C):\n  add(A[0], B[0], C[0])\n  C[1] = max(abs(A[1, 2]), exp(B[0]))\n";
        let m = parse(src).unwrap();
        let f = m.find("f").unwrap();
        assert!(matches!(&f.body[0], SStmt::Call { callee, args, .. }
            if callee == "add" && args.len() == 3));
        assert!(matches!(&f.body[1], SStmt::Assign { .. }));
    }

    #[test]
    fn parses_range_with_negative_bounds() {
        let src =
            "def f(y: f32[8] out, w: size):\n  for k in range(-w, w + 1):\n    y[k + w] = k\n";
        let m = parse(src).unwrap();
        let f = m.find("f").unwrap();
        let SStmt::For { begin, .. } = &f.body[0] else {
            panic!()
        };
        assert!(matches!(begin, SExpr::Unary(UnaryOp::Neg, _)));
    }

    #[test]
    fn error_reporting_includes_line() {
        let e = parse("def f(y: f32[1] out):\n  y[0] = = 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("def f(:\n  pass\n").is_err());
    }

    #[test]
    fn round_trips_printer_output() {
        use ft_ir::prelude::*;
        let f = Func::new("rt")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                if_(
                    var("i").lt(4),
                    store("y", [var("i")], load("x", [var("i")]) * 2.0f32),
                ),
            ));
        let text = f.to_string();
        let m = parse(&text).expect("printer output parses");
        assert!(m.find("rt").is_some());
    }
}
