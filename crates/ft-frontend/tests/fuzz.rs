//! Fuzz test: arbitrary bytes and shuffled token soup never make the
//! frontend panic, and every error points at a line of the text it was
//! given (or, inside an operator-library function, a line of the library).

use ft_frontend::{lower_module, parse};
use proptest::prelude::*;

/// Words and punctuation of the DSL, some junk, and line breaks with and
/// without indentation.
const VOCABULARY: &[&str] = &[
    "def",
    "f",
    "g",
    "x",
    "y",
    "A",
    "n",
    "i",
    "for",
    "in",
    "range",
    "if",
    "else",
    "pass",
    "create_var",
    "(",
    ")",
    "[",
    "]",
    ":",
    ",",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "+=",
    "*=",
    "min=",
    "max=",
    "==",
    "!=",
    "<",
    "<=",
    ">=",
    ".",
    "@",
    "ndim",
    "shape",
    "f32",
    "i32",
    "size",
    "in",
    "out",
    "inout",
    "\"f32\"",
    "\"cpu\"",
    "0",
    "1",
    "3",
    "2.5",
    "1e-3",
    "inf",
    "and",
    "or",
    "not",
    "abs",
    "max",
    "select",
    "add",
    "zeros",
    "matmul",
    "softmax1d",
    "\n",
    "\n  ",
    "\n    ",
    "\n\n",
    "#",
    "\t",
    "\"",
    "$",
    "é",
    "99999999999999999999",
];

/// A well-formed program: mutations of it reach the lowering.
const SEED: &[&str] = &[
    "def",
    "f",
    "(",
    "x",
    ":",
    "f32",
    "[",
    "4",
    ",",
    "8",
    "]",
    "in",
    ",",
    "y",
    ":",
    "f32",
    "[",
    "4",
    ",",
    "8",
    "]",
    "out",
    ",",
    "n",
    ":",
    "size",
    ")",
    ":",
    "\n  ",
    "t",
    "=",
    "create_var",
    "(",
    "(",
    "8",
    ",",
    ")",
    ",",
    "\"f32\"",
    ",",
    "\"cpu\"",
    ")",
    "\n  ",
    "for",
    "i",
    "in",
    "range",
    "(",
    "4",
    ")",
    ":",
    "\n    ",
    "add",
    "(",
    "x",
    "[",
    "i",
    "]",
    ",",
    "x",
    "[",
    "i",
    "]",
    ",",
    "y",
    "[",
    "i",
    "]",
    ")",
    "\n    ",
    "if",
    "x",
    ".",
    "ndim",
    "==",
    "2",
    ":",
    "\n      ",
    "y",
    "[",
    "i",
    ",",
    "0",
    "]",
    "max=",
    "t",
    "[",
    "i",
    "]",
    "+",
    "n",
    "\n",
];

fn lines(text: &str) -> usize {
    text.lines().count().max(1)
}

/// A `compile_with_libop` error names a line of `text`, a line of the
/// library, or no line at all (an entry that does not exist).
fn check_message(msg: &str, text: &str) {
    let Some((head, rest)) = msg.split_once("at line ") else {
        assert!(
            msg.starts_with("lowering error: no function named"),
            "{msg}"
        );
        return;
    };
    let line: usize = rest
        .split(':')
        .next()
        .and_then(|n| n.parse().ok())
        .expect(msg);
    let within = if head.contains("operator library") {
        ft_libop::prelude_source().lines().count()
    } else {
        lines(text)
    };
    assert!((1..=within).contains(&line), "{msg}\n--- text ---\n{text}");
}

fn check(text: &str) {
    match parse(text) {
        Err(e) => assert!((1..=lines(text)).contains(&e.line), "{e}\n{text}"),
        Ok(module) => {
            if let Err(e) = lower_module(&module, "f") {
                assert!(!e.in_library, "{e}");
                assert!(e.line <= lines(text), "{e}\n{text}");
                assert!(
                    e.line > 0 || e.message.starts_with("no function named"),
                    "{e}"
                );
            }
        }
    }
    if let Err(msg) = ft_libop::compile_with_libop(text, "f") {
        check_message(&msg, text);
    }
}

fn soup(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&k| VOCABULARY[k % VOCABULARY.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn printable_bytes_never_panic(bytes in proptest::collection::vec(32u8..127, 0..200)) {
        let text: String = bytes.iter().map(|&b| if b == b'~' { '\n' } else { b as char }).collect();
        check(&text);
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..1000, 0..60)) {
        check(&soup(&picks));
    }

    #[test]
    fn mutated_programs_never_panic(
        edits in proptest::collection::vec((0usize..1000, 0usize..1000, 0usize..3), 1..4)
    ) {
        let mut toks: Vec<&str> = SEED.to_vec();
        for (at, pick, how) in edits {
            let at = at % (toks.len() + 1);
            let tok = VOCABULARY[pick % VOCABULARY.len()];
            match how {
                0 if at < toks.len() => toks[at] = tok,
                1 if at < toks.len() => {
                    toks.remove(at);
                }
                _ => toks.insert(at, tok),
            }
        }
        check(&toks.join(" "));
    }
}

#[test]
fn the_seed_program_compiles() {
    let text = SEED.join(" ");
    ft_libop::compile_with_libop(&text, "f").expect("the unmutated program compiles");
}
