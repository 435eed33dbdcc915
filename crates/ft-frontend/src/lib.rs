//! # ft-frontend — the textual FreeTensor DSL
//!
//! A Python-flavoured surface syntax matching the paper's listings (and the
//! `ft-ir` pretty-printer's output), compiled to the IR through:
//!
//! 1. an indentation-aware [`lexer`],
//! 2. a recursive-descent [`parser`] producing a surface AST,
//! 3. a [`lower`]ing stage that performs *always-inlined* function calls and
//!    *partial evaluation* over tensor metadata (`.ndim` / `.shape(k)`),
//!    expanding the paper's dimension-free finite recursions (Fig. 6/9) into
//!    nested loops at compile time.
//!
//! ```
//! let src = r#"
//! def scale(x: f32[n] in, y: f32[n] out, n: size):
//!   for i in range(0, n):
//!     y[i] = x[i] * 2 + 1
//! "#;
//! let func = ft_frontend::compile_str(src, "scale").expect("compiles");
//! assert_eq!(func.params.len(), 2);
//! ```

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{Module, SExpr, SFunc, SStmt};
pub use lower::{lower_module, lower_with_library, LowerError};
pub use parser::{parse, ParseError};

/// Parse a module and lower the function named `entry` (inlining all calls).
///
/// # Errors
///
/// Returns the parse or lowering error, stringified with location context.
pub fn compile_str(src: &str, entry: &str) -> Result<ft_ir::Func, String> {
    let module = parse(src).map_err(|e| e.to_string())?;
    lower_module(&module, entry).map_err(|e| e.to_string())
}
