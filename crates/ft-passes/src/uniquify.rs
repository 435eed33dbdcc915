//! Renaming of local definitions so every `VarDef` name is unique.
//!
//! Function inlining (and libop expansion) can introduce clashing tensor
//! names; the dependence engine and the runtime key tensors by name, so the
//! pipeline uniquifies names right after inlining.

use ft_ir::mutate::{fresh_name, mutate_stmt_walk, rename_var_stmt};
use ft_ir::{Func, Mutator, Stmt, StmtKind};
use std::borrow::Cow;
use std::collections::HashSet;

struct Uniquify<'a> {
    taken: HashSet<Cow<'a, str>>,
}

impl Mutator for Uniquify<'_> {
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        if let StmtKind::VarDef {
            name,
            shape,
            dtype,
            mtype,
            atype,
            body,
        } = s.kind
        {
            let new_name = fresh_name(&name, &mut self.taken);
            let body = if new_name == name {
                *body
            } else {
                rename_var_stmt(*body, &name, &new_name)
            };
            let body = self.mutate_stmt(body);
            Stmt {
                id: s.id,
                label: s.label,
                kind: StmtKind::VarDef {
                    name: new_name,
                    shape,
                    dtype,
                    mtype,
                    atype,
                    body: Box::new(body),
                },
            }
        } else {
            mutate_stmt_walk(self, s)
        }
    }
}

/// Alpha-rename local definitions so that every tensor name in the
/// function (parameters and `VarDef`s) is unique, keeping statement ids.
///
/// Shadowing is legal IR, but whole-function facts keyed by name — the
/// dependence engine's, the runtime's, autodiff's tapes — merge distinct
/// tensors when names repeat: inlining and libop expansion produce such
/// clashes, and so does caching one parameter twice (two `Q.cache` defs).
/// The walk is top-down and takes [`fresh_name`]s outside the parameter and
/// size names: a colliding definition is renamed with its whole body (an
/// inner shadowing def of the same name follows, keeping resolution, and
/// then gets its own fresh name when the walk reaches it).
pub fn uniquify_defs(mut func: Func) -> Func {
    let body = func.body.take();
    let params = func.params.iter().map(|p| p.name.as_str());
    let sizes = func.size_params.iter().map(String::as_str);
    let taken = params.chain(sizes).map(Cow::Borrowed).collect();
    func.body = Uniquify { taken }.mutate_stmt(body);
    func
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::DataType;

    #[test]
    fn shadowing_defs_are_renamed() {
        let f = Func::new("f")
            .param("y", [2], DataType::F32, AccessType::Output)
            .body(block([
                var_def(
                    "t",
                    [1],
                    DataType::F32,
                    MemType::CpuHeap,
                    store("y", [0], load("t", [0])),
                ),
                var_def(
                    "t",
                    [1],
                    DataType::F32,
                    MemType::CpuHeap,
                    store("y", [1], load("t", [0])),
                ),
            ]));
        let out = uniquify_defs(f.clone());
        let mut names = Vec::new();
        out.body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                names.push(name.clone());
            }
        });
        names.sort();
        assert_eq!(names, vec!["t".to_string(), "t.1".to_string()]);
        // The load inside the renamed def follows the rename.
        let text = out.to_string();
        assert!(text.contains("y[1] = t.1[0]"), "{text}");
        assert!(text.contains("y[0] = t[0]"), "{text}");
    }

    #[test]
    fn param_names_are_reserved() {
        let f = Func::new("f")
            .param("x", [1], DataType::F32, AccessType::Input)
            .body(var_def(
                "x",
                [1],
                DataType::F32,
                MemType::CpuHeap,
                store("x", [0], 1.0f32),
            ));
        let out = uniquify_defs(f.clone());
        match &out.body.kind {
            StmtKind::VarDef { name, .. } => assert_eq!(name, "x.1"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn uniquify_renames_sibling_defs_and_preserves_shadowing() {
        // Two sibling defs named "Q.cache" (the double-`cache` shape), the
        // second one containing a *nested* shadowing "Q.cache" as well.
        let mk = |body: Stmt| var_def("Q.cache", [4], DataType::F32, MemType::CpuStack, body);
        let first = mk(store("Q.cache", [0], load("Q", [0])));
        let second = mk(block([
            store("Q.cache", [1], load("Q", [1])),
            mk(store("Q.cache", [2], 0.0f32)),
        ]));
        let f = Func::new("f")
            .param("Q", [4], DataType::F32, AccessType::Input)
            .body(block([first, second]));
        let out = uniquify_defs(f);
        // All def names distinct, and none collide with the parameter.
        let mut defs = Vec::new();
        out.body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                defs.push(name.clone());
            }
        });
        assert_eq!(defs.len(), 3);
        let uniq: std::collections::HashSet<_> = defs.iter().collect();
        assert_eq!(uniq.len(), 3, "{defs:?}");
        assert!(!defs.contains(&"Q".to_string()));
        // Every Store targets the name of its innermost enclosing def.
        fn check(s: &Stmt, encl: Option<&str>) {
            match &s.kind {
                StmtKind::VarDef { name, body, .. } => check(body, Some(name)),
                StmtKind::Block(ss) => ss.iter().for_each(|st| check(st, encl)),
                StmtKind::Store { var, .. } => assert_eq!(Some(var.as_str()), encl),
                _ => {}
            }
        }
        check(&out.body, None);
        // Loads of the untouched parameter survive by name.
        let mut loads_q = 0;
        out.body.walk(&mut |s| {
            if let StmtKind::Store { value, .. } = &s.kind {
                if matches!(value, Expr::Load { var, .. } if var == "Q") {
                    loads_q += 1;
                }
            }
        });
        assert_eq!(loads_q, 2);
    }

    #[test]
    fn uniquify_is_identity_on_distinct_names() {
        let f = Func::new("f")
            .param("x", [2], DataType::F32, AccessType::Input)
            .body(var_def(
                "a",
                [2],
                DataType::F32,
                MemType::CpuStack,
                var_def(
                    "b",
                    [2],
                    DataType::F32,
                    MemType::CpuStack,
                    store("b", [0], load("a", [0])),
                ),
            ));
        assert_eq!(uniquify_defs(f.clone()), f);
    }
}
