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
use crate::linexpr::{gcd, LinExpr};

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
    ///
    /// The variables are numbered in name order and the system is solved as
    /// [`Rows`]: where two variables tie for a pivot, the one whose name
    /// sorts first is taken.
    pub fn satisfiable(&self) -> Sat {
        let mut names: Vec<&str> = self
            .constraints
            .iter()
            .flat_map(|c| c.expr.vars())
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut rows = Rows::new(names.len());
        for c in &self.constraints {
            let mut row = vec![0; names.len() + 1];
            for (name, coeff) in c.expr.iter_terms() {
                row[names.binary_search(&name).expect("collected above")] = coeff;
            }
            row[names.len()] = c.expr.constant_term();
            rows.push(c.op, row);
        }
        rows.satisfiable()
    }
}

/// A conjunction of affine constraints over integer variables numbered
/// `0..width`, each a dense row: `width` coefficients, then the constant.
///
/// The numbering is the pivot order: equality substitution takes the first
/// equality (in push order) with a ±1 coefficient and, in it, the
/// lowest-numbered such variable; Fourier–Motzkin eliminates the variable
/// with the fewest lower × upper bound pairs, the lowest-numbered on a tie.
/// [`System::satisfiable`] numbers variables in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rows {
    width: usize,
    eqs: Vec<Vec<i64>>,
    ineqs: Vec<Vec<i64>>,
}

impl Rows {
    /// The empty conjunction over `width` variables.
    pub fn new(width: usize) -> Rows {
        Rows {
            width,
            ..Rows::default()
        }
    }

    /// Conjoin `row op 0`.
    ///
    /// # Panics
    ///
    /// Panics unless `row` holds `width` coefficients and the constant.
    pub fn push(&mut self, op: CmpOp, row: Vec<i64>) {
        assert_eq!(
            row.len(),
            self.width + 1,
            "a row is the coefficients and the constant"
        );
        match op {
            CmpOp::Eq0 => self.eqs.push(row),
            CmpOp::Ge0 => self.ineqs.push(row),
        }
    }

    /// Decide whether the conjunction has an integer solution.
    pub fn satisfiable(self) -> Sat {
        let Rows {
            width,
            mut eqs,
            mut ineqs,
        } = self;
        loop {
            // Normalize every equality: constants decide immediately, the GCD
            // feasibility test may refute, coprime coefficients are canonical.
            let mut kept = 0;
            for k in 0..eqs.len() {
                let g = coeff_gcd(&eqs[k]);
                let c = eqs[k][width];
                if g == 0 {
                    if c != 0 {
                        return Sat::Empty;
                    }
                    continue;
                }
                if c % g != 0 {
                    // GCD feasibility test: no integer solution.
                    return Sat::Empty;
                }
                if g > 1 {
                    eqs[k].iter_mut().for_each(|x| *x /= g);
                }
                eqs.swap(kept, k);
                kept += 1;
            }
            eqs.truncate(kept);

            // Pick one equality with a unit-coefficient variable and
            // substitute it away everywhere (exact integer step).
            let pick = eqs.iter().enumerate().find_map(|(i, eq)| {
                eq[..width]
                    .iter()
                    .position(|c| c.abs() == 1)
                    .map(|x| (i, x))
            });
            let Some((idx, x)) = pick else { break };
            let mut value = eqs.swap_remove(idx);
            // c*x + rest = 0  =>  x = -c * rest   (|c| = 1)
            if std::mem::take(&mut value[x]) == 1 && negate(&mut value).is_none() {
                return Sat::Unknown;
            }
            for row in eqs.iter_mut().chain(ineqs.iter_mut()) {
                if substitute(row, x, &value).is_none() {
                    return Sat::Unknown;
                }
            }
        }

        // Relax undissolved equalities to two inequalities each. Emptiness
        // stays sound; non-emptiness becomes unknown.
        let exact_eqs = eqs.is_empty();
        for eq in eqs {
            let mut neg = eq.clone();
            if negate(&mut neg).is_none() {
                return Sat::Unknown;
            }
            ineqs.push(eq);
            ineqs.push(neg);
        }

        let real = fm_eliminate(ineqs.clone(), width, Shadow::Real);
        if real == FmResult::Empty {
            return Sat::Empty;
        }
        if exact_eqs && fm_eliminate(ineqs, width, Shadow::Dark) == FmResult::Satisfiable {
            return Sat::NonEmpty;
        }
        Sat::Unknown
    }
}

/// GCD of a row's coefficients (0 when they are all zero).
fn coeff_gcd(row: &[i64]) -> i64 {
    let (_, coeffs) = row.split_last().expect("a row ends in its constant");
    coeffs.iter().fold(0, |g, &c| gcd(g, c))
}

/// Negate a row in place; `None` on overflow.
fn negate(row: &mut [i64]) -> Option<()> {
    for c in row {
        *c = c.checked_neg()?;
    }
    Some(())
}

/// `row` with variable `x` replaced by `value` (whose own `x` coefficient is
/// zero); `None` on overflow.
fn substitute(row: &mut [i64], x: usize, value: &[i64]) -> Option<()> {
    let c = std::mem::take(&mut row[x]);
    if c != 0 {
        for (r, v) in row.iter_mut().zip(value) {
            *r = r.checked_add(c.checked_mul(*v)?)?;
        }
    }
    Some(())
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
fn fm_eliminate(mut ineqs: Vec<Vec<i64>>, width: usize, shadow: Shadow) -> FmResult {
    loop {
        // Constant constraints decide immediately or drop out.
        for row in &ineqs {
            if row[..width].iter().all(|&c| c == 0) && row[width] < 0 {
                return FmResult::Empty;
            }
        }
        ineqs.retain(|row| row[..width].iter().any(|&c| c != 0));
        prune(&mut ineqs, width);
        let vars: Vec<usize> = (0..width)
            .filter(|&v| ineqs.iter().any(|row| row[v] != 0))
            .collect();
        if vars.is_empty() {
            return FmResult::Satisfiable;
        }
        if vars.len() > MAX_VARS || ineqs.len() > MAX_INEQS {
            return FmResult::Overflow;
        }

        // Pick the variable minimizing the product of lower and upper bounds
        // (a variable unbounded on one side costs 0).
        let cost = |v: usize| {
            let lowers = ineqs.iter().filter(|row| row[v] > 0).count();
            let uppers = ineqs.iter().filter(|row| row[v] < 0).count();
            lowers.saturating_mul(uppers)
        };
        let var = vars
            .into_iter()
            .min_by_key(|&v| cost(v))
            .expect("vars is non-empty");

        let (with_var, mut next): (Vec<Vec<i64>>, Vec<Vec<i64>>) =
            ineqs.into_iter().partition(|row| row[var] != 0);
        // If the variable is unbounded on one side, all its constraints can be
        // satisfied by pushing it far enough: simply project them away.
        for l in with_var.iter().filter(|row| row[var] > 0) {
            for u in with_var.iter().filter(|row| row[var] < 0) {
                // l: a*x + p >= 0 (a > 0)  =>  x >= ceil(-p / a)
                // u: -b*x + q >= 0 (b > 0) =>  x <= floor(q / b)
                // Real shadow: b*p + a*q >= 0.
                // Dark shadow: b*p + a*q >= (a-1)(b-1).
                let (a, b) = (l[var], -u[var]);
                let Some(mut combined) = l
                    .iter()
                    .zip(u)
                    .map(|(p, q)| p.checked_mul(b)?.checked_add(q.checked_mul(a)?))
                    .collect::<Option<Vec<i64>>>()
                else {
                    return FmResult::Overflow;
                };
                if shadow == Shadow::Dark {
                    let slack = (a - 1).checked_mul(b - 1);
                    let Some(c) = slack.and_then(|s| combined[width].checked_sub(s)) else {
                        return FmResult::Overflow;
                    };
                    combined[width] = c;
                }
                // Tighten by the GCD of the coefficients (integer rounding):
                // coefficients divide exactly, the constant floor-divides.
                let g = coeff_gcd(&combined);
                if g > 1 {
                    combined[..width].iter_mut().for_each(|x| *x /= g);
                    combined[width] = combined[width].div_euclid(g);
                }
                next.push(combined);
            }
        }
        if next.len() > MAX_INEQS {
            return FmResult::Overflow;
        }
        ineqs = next;
    }
}

/// Keep, of the inequalities with identical coefficient vectors, only the
/// tightest (smallest constant). What Fourier–Motzkin decides depends on
/// the set left behind, not on its order.
fn prune(ineqs: &mut Vec<Vec<i64>>, width: usize) {
    ineqs.sort_unstable();
    ineqs.dedup_by(|later, kept| later[..width] == kept[..width]);
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
            sys.push(Constraint::eq(
                LinExpr::var(p.clone()),
                LinExpr::var(q.clone()),
            ));
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
        let sys = System::new().with(Constraint::eq(v("x").scaled(2), v("k").scaled(2) + 1));
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
                Sat::Empty => assert!(
                    !truth,
                    "case {case}: solver Empty but brute found a solution: {sys}"
                ),
                Sat::NonEmpty => assert!(
                    truth,
                    "case {case}: solver NonEmpty but brute found none: {sys}"
                ),
                Sat::Unknown => {} // always sound
            }
        }
    }
}
