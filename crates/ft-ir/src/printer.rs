//! Pretty-printer producing the paper's Python-like surface syntax.
//!
//! The output is also valid input for `ft-frontend`'s parser (round-trip
//! tested there), which makes dumps directly reusable.

use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::func::Func;
use crate::stmt::{Stmt, StmtKind};
use crate::types::ParallelScope;
use std::fmt::{self, Write as _};

fn indent(f: &mut fmt::Formatter<'_>, level: usize) -> fmt::Result {
    for _ in 0..level {
        f.write_str("  ")?;
    }
    Ok(())
}

/// Operator precedence for minimal parenthesization.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => 3,
            BinaryOp::Add | BinaryOp::Sub => 4,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 5,
            BinaryOp::Min | BinaryOp::Max | BinaryOp::Pow => 7,
        },
        Expr::Unary { op, .. } => match op {
            UnaryOp::Neg | UnaryOp::Not => 6,
            _ => 7,
        },
        _ => 8,
    }
}

/// Print an expression.
pub fn print_expr(out: &mut impl fmt::Write, e: &Expr) -> fmt::Result {
    print_expr_prec(out, e, 0)
}

fn print_expr_prec(out: &mut impl fmt::Write, e: &Expr, min_prec: u8) -> fmt::Result {
    let p = prec(e);
    let paren = p < min_prec;
    if paren {
        out.write_char('(')?;
    }
    match e {
        Expr::IntConst(v) => write!(out, "{v}")?,
        Expr::FloatConst(v) => {
            if *v == f64::INFINITY {
                out.write_str("inf")?;
            } else if *v == f64::NEG_INFINITY {
                out.write_str("-inf")?;
            } else if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(out, "{v:.1}")?;
            } else {
                write!(out, "{v}")?;
            }
        }
        Expr::BoolConst(v) => write!(out, "{v}")?,
        Expr::Var(n) => out.write_str(n)?,
        Expr::Load { var, indices } => {
            out.write_str(var)?;
            out.write_char('[')?;
            for (i, idx) in indices.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                print_expr_prec(out, idx, 0)?;
            }
            out.write_char(']')?;
        }
        Expr::Unary { op, a } => match op {
            UnaryOp::Neg => {
                out.write_char('-')?;
                print_expr_prec(out, a, p + 1)?;
            }
            UnaryOp::Not => {
                out.write_str("not ")?;
                print_expr_prec(out, a, p + 1)?;
            }
            _ => {
                write!(out, "{}(", op.name())?;
                print_expr_prec(out, a, 0)?;
                out.write_char(')')?;
            }
        },
        Expr::Binary { op, a, b } => match op {
            BinaryOp::Min | BinaryOp::Max | BinaryOp::Pow => {
                write!(out, "{}(", op.name())?;
                print_expr_prec(out, a, 0)?;
                out.write_str(", ")?;
                print_expr_prec(out, b, 0)?;
                out.write_char(')')?;
            }
            _ => {
                print_expr_prec(out, a, p)?;
                write!(out, " {} ", op.name())?;
                print_expr_prec(out, b, p + 1)?;
            }
        },
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            out.write_str("select(")?;
            print_expr_prec(out, cond, 0)?;
            out.write_str(", ")?;
            print_expr_prec(out, then, 0)?;
            out.write_str(", ")?;
            print_expr_prec(out, otherwise, 0)?;
            out.write_char(')')?;
        }
        Expr::Cast { dtype, a } => {
            write!(out, "{dtype}(")?;
            print_expr_prec(out, a, 0)?;
            out.write_char(')')?;
        }
    }
    if paren {
        out.write_char(')')?;
    }
    Ok(())
}

fn expr_str(e: &Expr) -> String {
    let mut s = String::new();
    let _ = print_expr(&mut s, e);
    s
}

/// Print a statement at an indentation level.
pub fn print_stmt(f: &mut fmt::Formatter<'_>, s: &Stmt, level: usize) -> fmt::Result {
    match &s.kind {
        StmtKind::Block(stmts) => {
            let mut printed = false;
            for st in stmts {
                if !matches!(st.kind, StmtKind::Empty) {
                    print_stmt(f, st, level)?;
                    printed = true;
                }
            }
            if !printed {
                indent(f, level)?;
                f.write_str("pass\n")?;
            }
            Ok(())
        }
        StmtKind::VarDef {
            name,
            shape,
            dtype,
            mtype,
            body,
            ..
        } => {
            indent(f, level)?;
            let dims: Vec<String> = shape.iter().map(expr_str).collect();
            writeln!(
                f,
                "{name} = create_var(({}), \"{dtype}\", \"{mtype}\")",
                dims.join(", ")
            )?;
            print_stmt(f, body, level)
        }
        StmtKind::For {
            iter,
            begin,
            end,
            property,
            body,
        } => {
            indent(f, level)?;
            let mut attrs = String::new();
            if property.parallel != ParallelScope::Serial {
                let _ = write!(attrs, "  # parallel={}", property.parallel);
            }
            if property.unroll {
                attrs.push_str("  # unroll");
            }
            if property.vectorize {
                attrs.push_str("  # vectorize");
            }
            if let Some(label) = &s.label {
                let _ = write!(attrs, "  # label={label}");
            }
            writeln!(
                f,
                "for {iter} in range({}, {}):{attrs}",
                expr_str(begin),
                expr_str(end)
            )?;
            print_stmt(f, body, level + 1)
        }
        StmtKind::If {
            cond,
            then,
            otherwise,
        } => {
            indent(f, level)?;
            writeln!(f, "if {}:", expr_str(cond))?;
            print_stmt(f, then, level + 1)?;
            if let Some(o) = otherwise {
                indent(f, level)?;
                f.write_str("else:\n")?;
                print_stmt(f, o, level + 1)?;
            }
            Ok(())
        }
        StmtKind::Store {
            var,
            indices,
            value,
        } => {
            indent(f, level)?;
            if indices.is_empty() {
                writeln!(f, "{var}[] = {}", expr_str(value))
            } else {
                let idx: Vec<String> = indices.iter().map(expr_str).collect();
                writeln!(f, "{var}[{}] = {}", idx.join(", "), expr_str(value))
            }
        }
        StmtKind::ReduceTo {
            var,
            indices,
            op,
            value,
            atomic,
        } => {
            indent(f, level)?;
            let atomic_mark = if *atomic { "  # atomic" } else { "" };
            if indices.is_empty() {
                writeln!(f, "{var}[] {op} {}{atomic_mark}", expr_str(value))
            } else {
                let idx: Vec<String> = indices.iter().map(expr_str).collect();
                writeln!(
                    f,
                    "{var}[{}] {op} {}{atomic_mark}",
                    idx.join(", "),
                    expr_str(value)
                )
            }
        }
        StmtKind::LibCall {
            kernel,
            inputs,
            outputs,
            attrs,
        } => {
            indent(f, level)?;
            writeln!(
                f,
                "lib.{kernel}(inputs=[{}], outputs=[{}], attrs={attrs:?})",
                inputs.join(", "),
                outputs.join(", ")
            )
        }
        StmtKind::Empty => {
            indent(f, level)?;
            f.write_str("pass\n")
        }
    }
}

/// Print a whole function as a `def`.
pub fn print_func(f: &mut fmt::Formatter<'_>, func: &Func) -> fmt::Result {
    let mut sig: Vec<String> = Vec::new();
    for p in &func.params {
        let dims: Vec<String> = p.shape.iter().map(expr_str).collect();
        sig.push(format!(
            "{}: {}[{}] @ {} {}",
            p.name,
            p.dtype,
            dims.join(", "),
            p.mtype,
            p.atype
        ));
    }
    for s in &func.size_params {
        sig.push(format!("{s}: size"));
    }
    writeln!(f, "def {}({}):", func.name, sig.join(", "))?;
    print_stmt(f, &func.body, 1)
}

#[cfg(test)]
mod tests {
    use crate::builder::*;
    use crate::stmt::ReduceOp;
    use crate::types::{AccessType, DataType, MemType};
    use crate::Func;

    #[test]
    fn prints_loop_nest() {
        let s = for_(
            "i",
            0,
            var("n"),
            store("y", [var("i")], load("x", [var("i")]) * 2 + 1),
        );
        let text = s.to_string();
        assert!(text.contains("for i in range(0, n):"));
        assert!(text.contains("y[i] = x[i] * 2 + 1"));
    }

    #[test]
    fn parenthesizes_by_precedence() {
        let e_text = {
            let s = store("y", [0], (var("a") + var("b")) * var("c"));
            s.to_string()
        };
        assert!(e_text.contains("(a + b) * c"), "{e_text}");
        let e2 = store("y", [0], var("a") + var("b") * var("c")).to_string();
        assert!(e2.contains("a + b * c"), "{e2}");
    }

    #[test]
    fn prints_reduce_and_vardef() {
        let s = var_def(
            "dot",
            [var("w") * 2 + 1],
            DataType::F32,
            MemType::GpuGlobal,
            reduce("dot", [var("k")], ReduceOp::Add, 1.0f32),
        );
        let text = s.to_string();
        assert!(
            text.contains("create_var((w * 2 + 1), \"f32\", \"gpu\")"),
            "{text}"
        );
        assert!(text.contains("dot[k] += 1.0"), "{text}");
    }

    #[test]
    fn prints_func_signature() {
        let f = Func::new("f")
            .param("x", [var("n")], DataType::F32, AccessType::Input)
            .size_param("n")
            .body(empty());
        let text = f.to_string();
        assert!(
            text.starts_with("def f(x: f32[n] @ cpu in, n: size):"),
            "{text}"
        );
    }

    #[test]
    fn prints_infinity() {
        let s = store("m", scalar(), f64::NEG_INFINITY);
        assert!(s.to_string().contains("-inf"));
    }
}
