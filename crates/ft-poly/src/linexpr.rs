//! Affine (linear + constant) integer expressions over named variables.

use std::collections::BTreeMap;
use std::fmt;
use std::ops;

/// An affine expression `Σ cᵢ·xᵢ + c` with `i64` coefficients.
///
/// Variables are identified by name; a zero coefficient is never stored.
/// The order is structural: by term map, then by constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    /// Non-zero coefficients, keyed by variable name (sorted for determinism).
    terms: BTreeMap<String, i64>,
    /// The constant term.
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> LinExpr {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// A single variable with coefficient 1.
    pub fn var(name: impl Into<String>) -> LinExpr {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), 1);
        LinExpr { terms, constant: 0 }
    }

    /// A single variable with an explicit coefficient.
    pub fn term(name: impl Into<String>, coeff: i64) -> LinExpr {
        let mut e = LinExpr::zero();
        e.add_term(name.into(), coeff);
        e
    }

    /// The coefficient of `name` (0 if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Iterate over (variable, coefficient) pairs.
    pub fn iter_terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Whether this expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Names of the variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(String::as_str)
    }

    /// Whether both expressions have the same variable coefficients
    /// (constants aside).
    pub(crate) fn same_terms(&self, other: &LinExpr) -> bool {
        self.terms == other.terms
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    fn add_term(&mut self, name: String, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let entry = self.terms.entry(name).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            // Re-borrowing to remove requires the key; rebuild via retain.
            self.terms.retain(|_, v| *v != 0);
        }
    }

    /// `self * k`.
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|(n, c)| (n.clone(), c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Like [`LinExpr::scaled`] but detecting `i64` overflow.
    pub fn checked_scaled(&self, k: i64) -> Option<LinExpr> {
        if k == 0 {
            return Some(LinExpr::zero());
        }
        let mut terms = BTreeMap::new();
        for (n, c) in &self.terms {
            terms.insert(n.clone(), c.checked_mul(k)?);
        }
        Some(LinExpr {
            terms,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// `self + other`, detecting overflow.
    pub fn checked_add(&self, other: &LinExpr) -> Option<LinExpr> {
        let mut out = self.clone();
        for (n, c) in &other.terms {
            let entry = out.terms.entry(n.clone()).or_insert(0);
            *entry = entry.checked_add(*c)?;
        }
        out.terms.retain(|_, v| *v != 0);
        out.constant = out.constant.checked_add(other.constant)?;
        Some(out)
    }

    /// Substitute variable `name` with expression `value`.
    pub fn subst(&self, name: &str, value: &LinExpr) -> LinExpr {
        match self.terms.get(name) {
            None => self.clone(),
            Some(&c) => {
                let mut out = self.clone();
                out.terms.remove(name);
                out + value.scaled(c)
            }
        }
    }

    /// GCD of the variable coefficients (0 when there are none).
    pub fn coeff_gcd(&self) -> i64 {
        self.terms.values().fold(0i64, |g, &c| gcd(g, c.abs()))
    }

    /// Divide all coefficients and the constant by `d` (must divide exactly).
    ///
    /// # Panics
    ///
    /// Panics if `d` does not divide every coefficient and the constant.
    pub fn exact_div(&self, d: i64) -> LinExpr {
        assert!(d != 0, "division by zero");
        assert!(
            self.constant % d == 0 && self.terms.values().all(|c| c % d == 0),
            "exact_div: {d} does not divide {self}"
        );
        LinExpr {
            terms: self.terms.iter().map(|(n, c)| (n.clone(), c / d)).collect(),
            constant: self.constant / d,
        }
    }
}

/// Greatest common divisor (non-negative).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl ops::Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (n, c) in rhs.terms {
            self.add_term(n, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl ops::Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + rhs.scaled(-1)
    }
}

impl ops::Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-1)
    }
}

impl ops::Add<i64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: i64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl ops::Sub<i64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: i64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    c => write!(f, "{c}{n}")?,
                }
                first = false;
            } else if *c >= 0 {
                if *c == 1 {
                    write!(f, " + {n}")?;
                } else {
                    write!(f, " + {c}{n}")?;
                }
            } else if *c == -1 {
                write!(f, " - {n}")?;
            } else {
                write!(f, " - {}{n}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_cancels_terms() {
        let e = LinExpr::var("i") + LinExpr::var("j") - LinExpr::var("i");
        assert_eq!(e.coeff("i"), 0);
        assert_eq!(e.coeff("j"), 1);
        assert_eq!(e.num_vars(), 1);
    }

    #[test]
    fn substitution_is_affine() {
        // 2i + j + 3, with i := k - 1  =>  2k + j + 1
        let e = LinExpr::term("i", 2) + LinExpr::var("j") + 3;
        let v = LinExpr::var("k") - 1;
        let s = e.subst("i", &v);
        assert_eq!(s.coeff("k"), 2);
        assert_eq!(s.coeff("j"), 1);
        assert_eq!(s.coeff("i"), 0);
        assert_eq!(s.constant_term(), 1);
    }

    #[test]
    fn gcd_and_exact_div() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(-4, 6), 2);
        let e = LinExpr::term("i", 4) + LinExpr::term("j", -6) + 8;
        let d = e.exact_div(2);
        assert_eq!(d.coeff("i"), 2);
        assert_eq!(d.coeff("j"), -3);
        assert_eq!(d.constant_term(), 4);
        assert_eq!(e.coeff_gcd(), 2);
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::term("i", 2) - LinExpr::var("j") + 5;
        assert_eq!(e.to_string(), "2i - j + 5");
        assert_eq!(LinExpr::constant(-3).to_string(), "-3");
        assert_eq!(LinExpr::zero().to_string(), "0");
    }

    #[test]
    fn checked_ops_detect_overflow() {
        let big = LinExpr::term("i", i64::MAX);
        assert!(big.checked_scaled(2).is_none());
        assert!(big.checked_add(&LinExpr::term("i", 1)).is_none());
        assert!(big.checked_add(&LinExpr::term("j", 1)).is_some());
    }
}
