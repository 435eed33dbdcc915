//! Integer satisfiability of conjunction systems, Omega-test style.
//!
//! The solver proceeds in two phases:
//!
//! 1. **Equality elimination.** Every `e = 0` conjunct is normalized by the
//!    GCD test (if the GCD of the variable coefficients does not divide the
//!    constant, the system is empty) and, when some variable has a ±1
//!    coefficient, eliminated exactly by substitution. Equalities that cannot
//!    be eliminated this way are relaxed to two inequalities, which keeps
//!    "empty" answers sound but downgrades "non-empty" answers to
//!    [`Sat::Unknown`].
//! 2. **Fourier–Motzkin elimination** over the inequalities, run in two
//!    modes: the *real shadow* (the rational projection — its emptiness
//!    implies the original is empty) and the *dark shadow* (a stronger
//!    projection whose satisfiability implies the original is satisfiable).
//!    When a variable's coefficient in one side of every eliminated pair is
//!    ±1 the two shadows coincide and the elimination is exact.
//!
//! All arithmetic is checked; any overflow or size blow-up degrades the
//! answer to `Unknown`, never to a wrong verdict.

use crate::constraint::{CmpOp, Constraint, System};
use crate::linexpr::LinExpr;

/// Result of an integer satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sat {
    /// The system has no integer solution.
    Empty,
    /// The system has at least one integer solution.
    NonEmpty,
    /// The solver could not decide (treated conservatively by callers).
    Unknown,
}

/// Hard caps keeping Fourier–Motzkin from exploding.
const MAX_INEQS: usize = 4000;
const MAX_VARS: usize = 64;

impl System {
    /// Decide whether this conjunction has an integer solution.
    pub fn satisfiable(&self) -> Sat {
        // Phase 1: split into equalities / inequalities.
        let mut eqs: Vec<LinExpr> = Vec::new();
        let mut ineqs: Vec<LinExpr> = Vec::new();
        for c in &self.constraints {
            match c.op {
                CmpOp::Eq0 => eqs.push(c.expr.clone()),
                CmpOp::Ge0 => ineqs.push(c.expr.clone()),
            }
        }

        let mut exact_eqs = true;
        loop {
            // Normalize every equality: constants decide immediately, the GCD
            // feasibility test may refute, coprime coefficients are canonical.
            let mut normalized: Vec<LinExpr> = Vec::new();
            for eq in eqs.drain(..) {
                if eq.is_constant() {
                    if eq.constant_term() != 0 {
                        return Sat::Empty;
                    }
                    continue;
                }
                let g = eq.coeff_gcd();
                if eq.constant_term() % g != 0 {
                    // GCD feasibility test: no integer solution.
                    return Sat::Empty;
                }
                normalized.push(eq.exact_div_coeffs_and_const(g));
            }
            eqs = normalized;

            // Pick one equality with a unit-coefficient variable and
            // substitute it away everywhere (exact integer step).
            let pick = eqs.iter().enumerate().find_map(|(i, eq)| {
                eq.iter_terms()
                    .find(|(_, c)| c.abs() == 1)
                    .map(|(n, c)| (i, n.to_string(), c))
            });
            let Some((idx, name, c)) = pick else { break };
            let eq = eqs.swap_remove(idx);
            // c*x + rest = 0  =>  x = -rest * sign(c)   (|c| = 1)
            let rest = eq - LinExpr::term(name.clone(), c);
            let value = rest.scaled(-c.signum());
            for e in eqs.iter_mut() {
                *e = e.subst(&name, &value);
            }
            for e in ineqs.iter_mut() {
                *e = e.subst(&name, &value);
            }
        }

        // Relax undissolved equalities to two inequalities each. Emptiness
        // stays sound; non-emptiness becomes unknown.
        if !eqs.is_empty() {
            exact_eqs = false;
            for eq in eqs.drain(..) {
                ineqs.push(eq.clone());
                ineqs.push(-eq);
            }
        }

        let real = fm_eliminate(ineqs.clone(), Shadow::Real);
        if real == FmResult::Empty {
            return Sat::Empty;
        }
        if exact_eqs {
            let dark = fm_eliminate(ineqs, Shadow::Dark);
            if dark == FmResult::Satisfiable {
                return Sat::NonEmpty;
            }
        }
        Sat::Unknown
    }
}

impl LinExpr {
    /// Divide all coefficients by `g` and floor-divide the constant.
    ///
    /// Used after the GCD test: callers guarantee `g` divides the constant.
    fn exact_div_coeffs_and_const(&self, g: i64) -> LinExpr {
        if g <= 1 {
            return self.clone();
        }
        self.exact_div(g)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shadow {
    Real,
    Dark,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FmResult {
    Empty,
    Satisfiable,
    Overflow,
}

/// Eliminate all variables by Fourier–Motzkin, under the chosen shadow.
fn fm_eliminate(mut ineqs: Vec<LinExpr>, shadow: Shadow) -> FmResult {
    loop {
        // Constant constraints decide immediately or drop out.
        let mut vars: Vec<String> = Vec::new();
        {
            let mut seen = std::collections::BTreeSet::new();
            for e in &ineqs {
                if e.is_constant() {
                    if e.constant_term() < 0 {
                        return FmResult::Empty;
                    }
                } else {
                    for v in e.vars() {
                        seen.insert(v.to_string());
                    }
                }
            }
            vars.extend(seen);
        }
        ineqs.retain(|e| !e.is_constant());
        prune(&mut ineqs);
        if vars.is_empty() {
            return FmResult::Satisfiable;
        }
        if vars.len() > MAX_VARS || ineqs.len() > MAX_INEQS {
            return FmResult::Overflow;
        }

        // Pick the variable minimizing the product of lower and upper bounds.
        let (var, _) = vars
            .iter()
            .map(|v| {
                let lowers = ineqs.iter().filter(|e| e.coeff(v) > 0).count();
                let uppers = ineqs.iter().filter(|e| e.coeff(v) < 0).count();
                // Variables with no bound on one side are free: cost 0.
                (v.clone(), lowers.saturating_mul(uppers))
            })
            .min_by_key(|(_, cost)| *cost)
            .expect("vars is non-empty");

        let (with_var, rest): (Vec<LinExpr>, Vec<LinExpr>) =
            ineqs.into_iter().partition(|e| e.coeff(&var) != 0);
        let lowers: Vec<&LinExpr> = with_var.iter().filter(|e| e.coeff(&var) > 0).collect();
        let uppers: Vec<&LinExpr> = with_var.iter().filter(|e| e.coeff(&var) < 0).collect();
        let mut next = rest;
        // If the variable is unbounded on one side, all its constraints can be
        // satisfied by pushing it far enough: simply project them away.
        if !lowers.is_empty() && !uppers.is_empty() {
            for l in &lowers {
                for u in &uppers {
                    // l: a*x + p >= 0 (a > 0)  =>  x >= ceil(-p / a)
                    // u: -b*x + q >= 0 (b > 0) =>  x <= floor(q / b)
                    let a = l.coeff(&var);
                    let b = -u.coeff(&var);
                    debug_assert!(a > 0 && b > 0);
                    // Real shadow: b*p + a*q >= 0.
                    // Dark shadow: b*p + a*q >= (a-1)(b-1).
                    let Some(lp) = l.checked_scaled(b) else {
                        return FmResult::Overflow;
                    };
                    let Some(uq) = u.checked_scaled(a) else {
                        return FmResult::Overflow;
                    };
                    let Some(mut combined) = lp.checked_add(&uq) else {
                        return FmResult::Overflow;
                    };
                    if shadow == Shadow::Dark {
                        let Some(slack) = (a - 1).checked_mul(b - 1) else {
                            return FmResult::Overflow;
                        };
                        combined = combined - slack;
                    }
                    // Tighten by the GCD of the coefficients (integer rounding).
                    let g = combined.coeff_gcd();
                    if g > 1 {
                        combined = combined.floor_div_const(g);
                    }
                    next.push(combined);
                }
            }
            if next.len() > MAX_INEQS {
                return FmResult::Overflow;
            }
        }
        ineqs = next;
    }
}

impl LinExpr {
    /// `(Σ cᵢxᵢ + c) / g` where `g` divides every `cᵢ`: coefficients divide
    /// exactly, the constant floor-divides (sound tightening for `>= 0`).
    fn floor_div_const(&self, g: i64) -> LinExpr {
        debug_assert!(g > 1);
        let mut out = LinExpr::zero();
        for (n, c) in self.iter_terms() {
            out = out + LinExpr::term(n, c / g);
        }
        out + self.constant_term().div_euclid(g)
    }
}

/// Keep, of the inequalities with identical coefficient vectors, only the
/// tightest (smallest constant). The order left behind is structural —
/// what Fourier–Motzkin decides depends on the set, not on the order.
fn prune(ineqs: &mut Vec<LinExpr>) {
    ineqs.sort_unstable();
    ineqs.dedup_by(|later, kept| later.same_terms(kept));
}

/// The per-depth disjuncts of the lexicographic order `p >lex q`.
///
/// `pairs[d] = (p_d, q_d)` names the iterators of the two statement instances
/// at common loop depth `d` (outermost first). The returned vector contains,
/// for each depth `d`, the conjunction
/// `p_0 = q_0 ∧ … ∧ p_{d-1} = q_{d-1} ∧ p_d ≥ q_d + 1` — i.e. "the dependence
/// is carried by loop `d`".
pub fn lex_order_systems(pairs: &[(String, String)]) -> Vec<System> {
    let mut out = Vec::with_capacity(pairs.len());
    for d in 0..pairs.len() {
        let mut sys = System::new();
        for (p, q) in &pairs[..d] {
            sys.push(Constraint::eq(LinExpr::var(p.clone()), LinExpr::var(q.clone())));
        }
        let (p, q) = &pairs[d];
        sys.push(Constraint::gt(
            LinExpr::var(p.clone()),
            LinExpr::var(q.clone()),
        ));
        out.push(sys);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;

    fn v(n: &str) -> LinExpr {
        LinExpr::var(n)
    }

    fn c(x: i64) -> LinExpr {
        LinExpr::constant(x)
    }

    #[test]
    fn trivial_systems() {
        assert_eq!(System::new().satisfiable(), Sat::NonEmpty);
        let sys = System::new().with(Constraint::ge0(c(-1)));
        assert_eq!(sys.satisfiable(), Sat::Empty);
        let sys = System::new().with(Constraint::eq0(c(3)));
        assert_eq!(sys.satisfiable(), Sat::Empty);
    }

    #[test]
    fn simple_box() {
        // 0 <= i < 10
        let sys = System::new()
            .with(Constraint::ge(v("i"), c(0)))
            .with(Constraint::lt(v("i"), c(10)));
        assert_eq!(sys.satisfiable(), Sat::NonEmpty);
        // 0 <= i < 0 — empty
        let sys = System::new()
            .with(Constraint::ge(v("i"), c(0)))
            .with(Constraint::lt(v("i"), c(0)));
        assert_eq!(sys.satisfiable(), Sat::Empty);
    }

    #[test]
    fn gcd_infeasibility() {
        // 2i = 1 — no integer solution.
        let sys = System::new().with(Constraint::eq(v("i").scaled(2), c(1)));
        assert_eq!(sys.satisfiable(), Sat::Empty);
        // 2i = 4 — fine.
        let sys = System::new().with(Constraint::eq(v("i").scaled(2), c(4)));
        assert_eq!(sys.satisfiable(), Sat::NonEmpty);
    }

    #[test]
    fn equality_substitution_chains() {
        // i = j + 1, j = k + 1, k = 5, i = 7
        let sys = System::new()
            .with(Constraint::eq(v("i"), v("j") + 1))
            .with(Constraint::eq(v("j"), v("k") + 1))
            .with(Constraint::eq(v("k"), c(5)))
            .with(Constraint::eq(v("i"), c(7)));
        assert_eq!(sys.satisfiable(), Sat::NonEmpty);
        let sys = System::new()
            .with(Constraint::eq(v("i"), v("j") + 1))
            .with(Constraint::eq(v("j"), c(5)))
            .with(Constraint::eq(v("i"), c(7)));
        assert_eq!(sys.satisfiable(), Sat::Empty);
    }

    #[test]
    fn classic_dependence_example() {
        // Paper Section 4.2.1: write a[i+1, j], read a[i-1, j+1] in
        // 1 <= i < N-1, 1 <= j < M-1 (N, M free). Dependence system:
        // i1 + 1 = i2 - 1, j1 = j2 + 1 with both in the domain — satisfiable.
        let dom = |i: &str, j: &str| {
            vec![
                Constraint::ge(v(i), c(1)),
                Constraint::lt(v(i), v("N") - 1),
                Constraint::ge(v(j), c(1)),
                Constraint::lt(v(j), v("M") - 1),
            ]
        };
        let mut sys = System::new()
            .with(Constraint::eq(v("i1") + 1, v("i2") - 1))
            .with(Constraint::eq(v("j1"), v("j2") + 1));
        for cst in dom("i1", "j1").into_iter().chain(dom("i2", "j2")) {
            sys.push(cst);
        }
        assert_eq!(sys.satisfiable(), Sat::NonEmpty);
    }

    #[test]
    fn strided_no_overlap() {
        // i and j both in [0, 100), 2i = 2j + 1 never holds.
        let sys = System::new()
            .with(Constraint::ge(v("i"), c(0)))
            .with(Constraint::lt(v("i"), c(100)))
            .with(Constraint::ge(v("j"), c(0)))
            .with(Constraint::lt(v("j"), c(100)))
            .with(Constraint::eq(v("i").scaled(2), v("j").scaled(2) + 1));
        assert_eq!(sys.satisfiable(), Sat::Empty);
    }

    #[test]
    fn dark_shadow_decides_divisibility_free_case() {
        // 3 <= 2x <= 5 has the integer solution x = 2 — requires integer
        // reasoning (rationally it is obviously non-empty, but FM must
        // produce a certified integer answer through the dark shadow).
        let sys = System::new()
            .with(Constraint::ge(v("x").scaled(2), c(3)))
            .with(Constraint::le(v("x").scaled(2), c(5)));
        assert_eq!(sys.satisfiable(), Sat::NonEmpty);
    }

    #[test]
    fn omega_classic_empty_interval() {
        // 2x in [2k+1, 2k+1] for integer x has no solution: 2x = 2k+1.
        let sys = System::new().with(Constraint::eq(
            v("x").scaled(2),
            v("k").scaled(2) + 1,
        ));
        assert_eq!(sys.satisfiable(), Sat::Empty);
    }

    #[test]
    fn lex_order_systems_shape() {
        let pairs = vec![
            ("i1".to_string(), "i2".to_string()),
            ("j1".to_string(), "j2".to_string()),
        ];
        let systems = lex_order_systems(&pairs);
        assert_eq!(systems.len(), 2);
        // Depth 0: i1 > i2.
        assert_eq!(systems[0].constraints.len(), 1);
        // Depth 1: i1 = i2 and j1 > j2.
        assert_eq!(systems[1].constraints.len(), 2);
    }

    #[test]
    fn unbounded_variable_is_projected() {
        // x >= 10 with no upper bound: satisfiable.
        let sys = System::new().with(Constraint::ge(v("x"), c(10)));
        assert_eq!(sys.satisfiable(), Sat::NonEmpty);
        // x >= 10 and x <= 5: empty.
        let sys = System::new()
            .with(Constraint::ge(v("x"), c(10)))
            .with(Constraint::le(v("x"), c(5)));
        assert_eq!(sys.satisfiable(), Sat::Empty);
    }

    /// Brute-force integer enumeration over a small box, as ground truth.
    fn brute_force(sys: &System, bound: i64) -> bool {
        let vars: Vec<String> = sys.vars().into_iter().collect();
        let n = vars.len();
        let mut assign = vec![-bound; n];
        loop {
            let ok = sys.constraints.iter().all(|cst| {
                let mut val = cst.expr.constant_term();
                for (name, coeff) in cst.expr.iter_terms() {
                    let idx = vars.iter().position(|v| v == name).unwrap();
                    val += coeff * assign[idx];
                }
                match cst.op {
                    CmpOp::Ge0 => val >= 0,
                    CmpOp::Eq0 => val == 0,
                }
            });
            if ok {
                return true;
            }
            // Next assignment.
            let mut i = 0;
            loop {
                if i == n {
                    return false;
                }
                assign[i] += 1;
                if assign[i] <= bound {
                    break;
                }
                assign[i] = -bound;
                i += 1;
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_random_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let names = ["x", "y", "z"];
        for case in 0..300 {
            let mut sys = System::new();
            // Bound the box so brute force is exact ground truth within it.
            for n in names {
                sys.push(Constraint::ge(v(n), c(-4)));
                sys.push(Constraint::le(v(n), c(4)));
            }
            let n_extra = rng.gen_range(1..5);
            for _ in 0..n_extra {
                let mut e = LinExpr::constant(rng.gen_range(-6..=6));
                for n in names {
                    e = e + LinExpr::term(n, rng.gen_range(-3..=3i64));
                }
                if rng.gen_bool(0.3) {
                    sys.push(Constraint::eq0(e));
                } else {
                    sys.push(Constraint::ge0(e));
                }
            }
            let truth = brute_force(&sys, 4);
            match sys.satisfiable() {
                Sat::Empty => assert!(!truth, "case {case}: solver Empty but brute found a solution: {sys}"),
                Sat::NonEmpty => assert!(truth, "case {case}: solver NonEmpty but brute found none: {sys}"),
                Sat::Unknown => {} // always sound
            }
        }
    }
}
