//! Indentation-aware lexer for the textual DSL.
//!
//! Tokens borrow their text from the source: lexing allocates the token
//! vector and nothing else.

use std::fmt;

/// A lexical token, borrowing names and strings from the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'s> {
    /// Identifier or keyword.
    Name(&'s str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal (without quotes).
    Str(&'s str),
    /// Punctuation or operator, e.g. `"+="`, `"("`.
    Sym(&'static str),
    /// End of a logical line.
    Newline,
    /// Increase of indentation.
    Indent,
    /// Decrease of indentation.
    Dedent,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Name(n) => write!(f, "`{n}`"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Sym(s) => write!(f, "`{s}`"),
            Tok::Newline => write!(f, "newline"),
            Tok::Indent => write!(f, "indent"),
            Tok::Dedent => write!(f, "dedent"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'s> {
    /// The token.
    pub tok: Tok<'s>,
    /// 1-based line number.
    pub line: usize,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Explanation.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

/// The punctuation or operator at the start of `rest`, longest first.
/// `min=` / `max=` are lexed with names.
fn symbol(rest: &[u8]) -> Option<&'static str> {
    Some(match rest {
        [b'+', b'=', ..] => "+=",
        [b'*', b'=', ..] => "*=",
        [b'=', b'=', ..] => "==",
        [b'!', b'=', ..] => "!=",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b'(', ..] => "(",
        [b')', ..] => ")",
        [b'[', ..] => "[",
        [b']', ..] => "]",
        [b':', ..] => ":",
        [b',', ..] => ",",
        [b'+', ..] => "+",
        [b'-', ..] => "-",
        [b'*', ..] => "*",
        [b'/', ..] => "/",
        [b'%', ..] => "%",
        [b'<', ..] => "<",
        [b'>', ..] => ">",
        [b'=', ..] => "=",
        [b'@', ..] => "@",
        [b'.', ..] => ".",
        _ => return None,
    })
}

/// The end of the run of bytes from `i` on that satisfy `pred`.
fn scan(bytes: &[u8], mut i: usize, pred: impl Fn(u8) -> bool) -> usize {
    while i < bytes.len() && pred(bytes[i]) {
        i += 1;
    }
    i
}

/// Tokenize a source string, producing INDENT/DEDENT pairs from leading
/// whitespace (spaces only; tabs are rejected). Comments (`# …`) and blank
/// lines are skipped; brackets suppress newline significance.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut out: Vec<Spanned<'_>> = Vec::with_capacity(src.len() / 3);
    let mut indents: Vec<usize> = vec![0];
    let mut depth = 0usize; // bracket nesting
    let mut last_line = 0;
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        last_line = line;
        let err = |m: &str| LexError {
            message: m.to_string(),
            line,
        };
        if raw.contains('\t') {
            return Err(err("tabs are not allowed; use spaces"));
        }
        // Strip comments (no string literals contain '#').
        let code = match raw.find('#') {
            Some(pos) if !raw[..pos].contains('"') => &raw[..pos],
            _ => raw,
        };
        if code.trim().is_empty() {
            continue;
        }
        let bytes = code.as_bytes();
        let mut i = code.len() - code.trim_start().len();
        let mut push = |tok| out.push(Spanned { tok, line });
        if depth == 0 {
            let indent = i;
            let current = *indents.last().expect("never empty");
            if indent > current {
                indents.push(indent);
                push(Tok::Indent);
            } else {
                while indent < *indents.last().expect("never empty") {
                    indents.pop();
                    push(Tok::Dedent);
                }
                if indent != *indents.last().expect("never empty") {
                    return Err(err("inconsistent indentation"));
                }
            }
        }
        while i < bytes.len() {
            let c = bytes[i];
            if c == b' ' {
                i += 1;
            } else if c == b'"' {
                let end = code[i + 1..]
                    .find('"')
                    .ok_or_else(|| err("unterminated string"))?;
                push(Tok::Str(&code[i + 1..i + 1 + end]));
                i += end + 2;
            } else if c.is_ascii_digit() {
                let start = i;
                i = scan(bytes, i, |b| b.is_ascii_digit());
                let mut is_float = false;
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    i = scan(bytes, i + 1, |b| b.is_ascii_digit());
                }
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    let j = i + usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
                    if bytes.get(j + 1).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i = scan(bytes, j + 1, |b| b.is_ascii_digit());
                    }
                }
                let text = &code[start..i];
                push(if is_float {
                    Tok::Float(text.parse().map_err(|_| err("bad float literal"))?)
                } else {
                    Tok::Int(text.parse().map_err(|_| err("bad integer literal"))?)
                });
            } else if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                i = scan(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'_');
                let name = &code[start..i];
                // `min=` / `max=` reduce operators.
                if (name == "min" || name == "max")
                    && bytes.get(i) == Some(&b'=')
                    && bytes.get(i + 1) != Some(&b'=')
                {
                    push(Tok::Sym(if name == "min" { "min=" } else { "max=" }));
                    i += 1;
                } else {
                    push(Tok::Name(name));
                }
            } else if let Some(sym) = symbol(&bytes[i..]) {
                match sym {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    _ => {}
                }
                push(Tok::Sym(sym));
                i += sym.len();
            } else {
                let c = code[i..].chars().next().expect("i is inside the line");
                return Err(err(&format!("unexpected character `{c}`")));
            }
        }
        if depth == 0 {
            push(Tok::Newline);
        }
    }
    while indents.len() > 1 {
        indents.pop();
        out.push(Spanned {
            tok: Tok::Dedent,
            line: last_line,
        });
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line: last_line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        let t = toks("x = a[i] + 2.5\n");
        assert_eq!(
            t,
            vec![
                Tok::Name("x"),
                Tok::Sym("="),
                Tok::Name("a"),
                Tok::Sym("["),
                Tok::Name("i"),
                Tok::Sym("]"),
                Tok::Sym("+"),
                Tok::Float(2.5),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn indentation_blocks() {
        let t = toks("for i in range(0, n):\n  x[i] = 1\ny[0] = 2\n");
        let indents = t.iter().filter(|t| **t == Tok::Indent).count();
        let dedents = t.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(indents, 1);
        assert_eq!(dedents, 1);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let t = toks("# a comment\n\nx = 1  # trailing\n");
        assert!(t.iter().all(|t| !matches!(t, Tok::Str(_))));
        assert_eq!(t.iter().filter(|t| **t == Tok::Newline).count(), 1);
    }

    #[test]
    fn reduce_operators() {
        let t = toks("a[i] += 1\nb min= 2\nc max= 3\nd *= 4\n");
        assert!(t.contains(&Tok::Sym("+=")));
        assert!(t.contains(&Tok::Sym("min=")));
        assert!(t.contains(&Tok::Sym("max=")));
        assert!(t.contains(&Tok::Sym("*=")));
    }

    #[test]
    fn brackets_suppress_newlines() {
        let t = toks("x = create_var((2,\n  3), \"f32\", \"cpu\")\n");
        assert_eq!(t.iter().filter(|t| **t == Tok::Newline).count(), 1);
        assert!(t.contains(&Tok::Str("f32")));
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(toks("x = 1e-3\n")[2], Tok::Float(1e-3));
        assert_eq!(toks("x = 2.5e2\n")[2], Tok::Float(250.0));
    }

    #[test]
    fn errors_have_lines() {
        let e = lex("x = 1\ny = $\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(lex("\tx = 1\n").is_err());
        assert!(lex("x = \"abc\n").is_err());
    }

    #[test]
    fn inconsistent_indent_rejected() {
        let e = lex("if a:\n    x = 1\n  y = 2\n").unwrap_err();
        assert!(e.message.contains("indentation"));
    }
}
