//! Which intermediate values the backward pass needs, and whether each is
//! stored (taped) or recomputed — §5.2's selective materialization.

use crate::deriv::pullback;
use ft_ir::{Expr, Func, Stmt, StmtKind};
use std::collections::{HashMap, HashSet};

/// User-selectable materialization strategy (paper Fig. 18's lever).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TapePolicy {
    /// Materialize every needed intermediate — the paper's FT(-) baseline.
    All,
    /// Balance storing vs recomputing per tensor — the paper's FT(+).
    #[default]
    Selective,
    /// Recompute everything recomputable; error otherwise.
    None,
}

/// Per-tensor decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaterializeDecision {
    /// Snapshot the tensor into a tape in the forward pass.
    Store,
    /// Re-emit the defining statement(s) in the backward pass.
    Recompute,
}

/// Facts about one local tensor relevant to the decision.
#[derive(Debug, Clone, Default)]
pub struct TensorFacts {
    /// The backward pass reads this tensor's forward value.
    pub needed: bool,
    /// Every write is a plain `Store` (no reductions) — a necessary
    /// condition for re-emitting the definition in the backward pass
    /// (paper Fig. 15(c)).
    pub store_only: bool,
    /// Tensors whose *values* the defining stores read. Recomputation is
    /// possible when these are all function inputs or materialized tensors.
    pub dep_loads: HashSet<String>,
    /// Total operation count of the defining expressions (recompute cost).
    pub def_cost: usize,
    /// Number of extra tape dimensions (enclosing loops of the `VarDef`) —
    /// the symbolic version count of §5.1.
    pub version_dims: usize,
}

/// Collect facts about every local (VarDef) tensor of a function, for the
/// active-set `active` (tensors that carry gradients).
pub fn tensor_facts(func: &Func, active: &dyn Fn(&str) -> bool) -> HashMap<String, TensorFacts> {
    let mut facts: HashMap<String, TensorFacts> = HashMap::new();
    let param_names: HashSet<String> = func.params.iter().map(|p| p.name.clone()).collect();
    // Register locals with their version-dimension counts.
    fn register(
        s: &Stmt,
        depth: usize,
        facts: &mut HashMap<String, TensorFacts>,
    ) {
        match &s.kind {
            StmtKind::VarDef { name, body, .. } => {
                facts.entry(name.clone()).or_default().version_dims = depth;
                register(body, depth, facts);
            }
            StmtKind::For { body, .. } => register(body, depth + 1, facts),
            _ => {
                for c in s.children() {
                    register(c, depth, facts);
                }
            }
        }
    }
    register(&func.body, 0, &mut facts);

    // Needed: tensors whose values appear in some pullback contribution.
    let mut needed: HashSet<String> = HashSet::new();
    func.body.walk(&mut |s| {
        let value = match &s.kind {
            StmtKind::Store { value, .. } | StmtKind::ReduceTo { value, .. } => value,
            _ => return,
        };
        if let Ok(contribs) = pullback(value, &Expr::FloatConst(1.0), active) {
            for c in &contribs {
                for v in c.value.loaded_vars() {
                    needed.insert(v);
                }
            }
        }
    });
    for n in needed {
        if let Some(f) = facts.get_mut(&n) {
            f.needed = true;
        }
    }

    // Write-site structure: store-only? which tensors do definitions read?
    let _ = &param_names;
    struct Site {
        is_store: bool,
        cost: usize,
        loads: HashSet<String>,
    }
    let mut write_sites: HashMap<String, Vec<Site>> = HashMap::new();
    func.body.walk(&mut |s| match &s.kind {
        StmtKind::Store {
            var,
            value,
            indices,
        } => {
            let mut loads = value.loaded_vars();
            for i in indices {
                loads.extend(i.loaded_vars());
            }
            write_sites.entry(var.clone()).or_default().push(Site {
                is_store: true,
                cost: value.value_op_count(),
                loads,
            });
        }
        StmtKind::ReduceTo { var, value, .. } => {
            write_sites.entry(var.clone()).or_default().push(Site {
                is_store: false,
                cost: value.value_op_count(),
                loads: value.loaded_vars(),
            });
        }
        _ => {}
    });
    for (name, sites) in write_sites {
        if let Some(f) = facts.get_mut(&name) {
            f.store_only = !sites.is_empty() && sites.iter().all(|s| s.is_store);
            f.def_cost = sites.iter().map(|s| s.cost).sum();
            for s in &sites {
                f.dep_loads.extend(s.loads.iter().cloned());
            }
            // Self-references disqualify re-emission.
            if f.dep_loads.contains(&name) {
                f.store_only = false;
            }
        }
    }
    facts
}

/// Decide store-vs-recompute for every *needed* local tensor.
///
/// The selective balance (paper §5.2): recompute when the defining
/// expressions are cheap (`def_cost <= threshold`) — the materialization
/// overhead (one tape slot per version × element) then outweighs redoing the
/// arithmetic; store otherwise. A recomputed definition may read function
/// inputs *and* materialized (taped) tensors, so decisions are iterated to a
/// fixpoint: a candidate falls back to `Store` when one of its dependencies
/// ends up un-materialized and un-recomputable.
pub fn decide(
    facts: &HashMap<String, TensorFacts>,
    params: &HashSet<String>,
    policy: TapePolicy,
    threshold: usize,
) -> HashMap<String, MaterializeDecision> {
    let mut out: HashMap<String, MaterializeDecision> = HashMap::new();
    // Initial assignment.
    for (name, f) in facts {
        if !f.needed {
            continue;
        }
        let want_recompute = match policy {
            TapePolicy::All => false,
            TapePolicy::None => true,
            TapePolicy::Selective => f.store_only && f.def_cost <= threshold,
        };
        out.insert(
            name.clone(),
            if want_recompute && f.store_only {
                MaterializeDecision::Recompute
            } else {
                MaterializeDecision::Store
            },
        );
    }
    // Fixpoint: a recompute candidate's value-dependencies must be function
    // inputs or tensors available in the backward pass (taped tensors).
    loop {
        let mut changed = false;
        let available: HashSet<String> = params
            .iter()
            .cloned()
            .chain(
                out.iter()
                    .filter(|(_, d)| **d == MaterializeDecision::Store)
                    .map(|(n, _)| n.clone()),
            )
            .collect();
        for (name, d) in out.clone() {
            if d != MaterializeDecision::Recompute {
                continue;
            }
            let f = &facts[&name];
            let deps_ok = f.dep_loads.iter().all(|dep| available.contains(dep));
            if !deps_ok {
                out.insert(name, MaterializeDecision::Store);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    /// The paper's Fig. 15 program:
    /// for i: t = a[i]*b[i]; y[i] = t*c[i]; z[i] = t*d[i]
    fn fig15() -> Func {
        Func::new("fig15")
            .param("a", [var("n")], DataType::F32, AccessType::Input)
            .param("b", [var("n")], DataType::F32, AccessType::Input)
            .param("c", [var("n")], DataType::F32, AccessType::Input)
            .param("d", [var("n")], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .param("z", [var("n")], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_(
                "i",
                0,
                var("n"),
                var_def(
                    "t",
                    scalar(),
                    DataType::F32,
                    MemType::CpuStack,
                    block([
                        store(
                            "t",
                            scalar(),
                            load("a", [var("i")]) * load("b", [var("i")]),
                        ),
                        store(
                            "y",
                            [var("i")],
                            load("t", scalar()) * load("c", [var("i")]),
                        ),
                        store(
                            "z",
                            [var("i")],
                            load("t", scalar()) * load("d", [var("i")]),
                        ),
                    ]),
                ),
            ))
    }

    #[test]
    fn fig15_facts() {
        let f = fig15();
        let facts = tensor_facts(&f, &|_| true);
        let t = &facts["t"];
        assert!(t.needed, "t's value is used by the y and z pullbacks");
        assert!(t.store_only && t.dep_loads.iter().all(|d| ["a","b"].contains(&d.as_str())),
            "t = a[i]*b[i] reads only inputs");
        assert_eq!(t.version_dims, 1, "one enclosing loop = one version dim");
        assert_eq!(t.def_cost, 1, "t = a[i]*b[i] is one multiply");
    }

    #[test]
    fn policies_differ_on_fig15() {
        let f = fig15();
        let facts = tensor_facts(&f, &|_| true);
        let params: HashSet<String> = f.params.iter().map(|p| p.name.clone()).collect();
        let all = decide(&facts, &params, TapePolicy::All, 16);
        let sel = decide(&facts, &params, TapePolicy::Selective, 16);
        assert_eq!(all["t"], MaterializeDecision::Store);
        assert_eq!(sel["t"], MaterializeDecision::Recompute);
        // An expensive definition flips selective to Store.
        let strict = decide(&facts, &params, TapePolicy::Selective, 0);
        assert_eq!(strict["t"], MaterializeDecision::Store);
    }

    #[test]
    fn selective_boundary_at_default_threshold() {
        // `def_cost == recompute_threshold` recomputes (the comparison is
        // `<=`); one op more stores. Pinned at the default threshold of 16
        // so a change to either the default or the comparison direction
        // fails this test.
        let default_threshold = crate::GradOptions::default().recompute_threshold;
        assert_eq!(default_threshold, 16);
        let params: HashSet<String> = ["x".to_string()].into();
        for (cost, expected) in [
            (default_threshold, MaterializeDecision::Recompute),
            (default_threshold + 1, MaterializeDecision::Store),
        ] {
            let facts: HashMap<String, TensorFacts> = [(
                "t".to_string(),
                TensorFacts {
                    needed: true,
                    store_only: true,
                    dep_loads: ["x".to_string()].into(),
                    def_cost: cost,
                    version_dims: 1,
                },
            )]
            .into();
            let d = decide(&facts, &params, TapePolicy::Selective, default_threshold);
            assert_eq!(d["t"], expected, "def_cost {cost}");
        }
    }

    #[test]
    fn reduce_written_tensors_are_not_recomputable() {
        let f = Func::new("f")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(var_def(
                "acc",
                scalar(),
                DataType::F32,
                MemType::CpuStack,
                block([
                    for_(
                        "i",
                        0,
                        8,
                        reduce("acc", scalar(), ReduceOp::Add, load("x", [var("i")])),
                    ),
                    for_(
                        "j",
                        0,
                        8,
                        store("y", [var("j")], load("acc", scalar()) * load("x", [var("j")])),
                    ),
                ]),
            ));
        let facts = tensor_facts(&f, &|_| true);
        assert!(facts["acc"].needed);
        assert!(!facts["acc"].store_only);
        let params: HashSet<String> = f.params.iter().map(|p| p.name.clone()).collect();
        let sel = decide(&facts, &params, TapePolicy::Selective, 16);
        assert_eq!(sel["acc"], MaterializeDecision::Store);
    }
}
