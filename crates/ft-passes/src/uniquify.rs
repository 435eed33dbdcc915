//! Renaming of local definitions so every `VarDef` name is unique.
//!
//! Function inlining (and libop expansion) can introduce clashing tensor
//! names; the dependence engine and the runtime key tensors by name, so the
//! pipeline uniquifies names right after inlining.

use ft_ir::mutate::{mutate_stmt_walk, rename_var_stmt};
use ft_ir::{Func, Mutator, Stmt, StmtKind};
use std::collections::HashSet;

struct Uniquify {
    taken: HashSet<String>,
}

impl Uniquify {
    fn fresh(&mut self, base: &str) -> String {
        if self.taken.insert(base.to_string()) {
            return base.to_string();
        }
        for k in 1.. {
            let cand = format!("{base}.{k}");
            if self.taken.insert(cand.clone()) {
                return cand;
            }
        }
        unreachable!()
    }
}

impl Mutator for Uniquify {
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
            let new_name = self.fresh(&name);
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

/// Rename local definitions so that every tensor name in the function
/// (parameters + `VarDef`s) is unique. Inner shadowing definitions are
/// renamed to `name.1`, `name.2`, ….
pub fn uniquify_defs(mut func: Func) -> Func {
    let mut u = Uniquify {
        taken: func
            .params
            .iter()
            .map(|p| p.name.clone())
            .chain(func.size_params.iter().cloned())
            .collect(),
    };
    func.body = u.mutate_stmt(func.body.take());
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
}
