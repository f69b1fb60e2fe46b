//! Exact arithmetic for the oracles, on machine integers and apart from
//! the program's own number types. Every operation is checked: an
//! overflow is an oracle error, never a silently wrong verdict.

use std::cmp::Ordering;

/// Checked product.
pub fn mul(a: i128, b: i128) -> Result<i128, String> {
    a.checked_mul(b)
        .ok_or_else(|| format!("oracle overflow: {a} * {b}"))
}

/// Checked sum.
pub fn add(a: i128, b: i128) -> Result<i128, String> {
    a.checked_add(b)
        .ok_or_else(|| format!("oracle overflow: {a} + {b}"))
}

/// Checked difference.
pub fn sub(a: i128, b: i128) -> Result<i128, String> {
    a.checked_sub(b)
        .ok_or_else(|| format!("oracle overflow: {a} - {b}"))
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Sign of `p + q·√d` for `d ≥ 0`, decided without floating point.
pub fn sign_plus_sqrt(p: i128, q: i128, d: i128) -> Result<Ordering, String> {
    if q == 0 || d == 0 {
        return Ok(p.cmp(&0));
    }
    let qs = q.cmp(&0);
    if p == 0 || p.cmp(&0) == qs {
        return Ok(qs);
    }
    // Opposite signs: compare p² with q²·d.
    let lhs = mul(p, p)?;
    let rhs = mul(mul(q, q)?, d)?;
    Ok(match p.cmp(&0) {
        Ordering::Greater => lhs.cmp(&rhs),
        _ => rhs.cmp(&lhs),
    })
}

/// A rational `num/den` with `den > 0`, in lowest terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Q {
    /// Numerator.
    pub num: i128,
    /// Denominator (positive).
    pub den: i128,
}

impl Q {
    /// `num/den`, normalized.
    pub fn new(num: i128, den: i128) -> Q {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den).max(1);
        let s = if den < 0 { -1 } else { 1 };
        Q {
            num: s * num / g,
            den: s * den / g,
        }
    }

    /// The integer `n`.
    pub fn int(n: i64) -> Q {
        Q::new(i128::from(n), 1)
    }

    /// Checked sum.
    pub fn plus(self, o: Q) -> Result<Q, String> {
        Ok(Q::new(
            add(mul(self.num, o.den)?, mul(o.num, self.den)?)?,
            mul(self.den, o.den)?,
        ))
    }

    /// Source text, as CALC_F and the server's `VALUES` rows read it.
    pub fn text(self) -> String {
        if self.den == 1 {
            self.num.to_string()
        } else {
            format!("{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Q {
    fn partial_cmp(&self, o: &Q) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Q {
    fn cmp(&self, o: &Q) -> Ordering {
        (self.num * o.den).cmp(&(o.num * self.den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_of_quadratic_irrationals() {
        // 3 - 2·√2 ≈ 0.17 > 0; 2 - 3·√2 < 0; -1 + √1 = 0.
        assert_eq!(sign_plus_sqrt(3, -2, 2).unwrap(), Ordering::Greater);
        assert_eq!(sign_plus_sqrt(2, -3, 2).unwrap(), Ordering::Less);
        assert_eq!(sign_plus_sqrt(-1, 1, 1).unwrap(), Ordering::Equal);
        assert_eq!(sign_plus_sqrt(-5, 2, 7).unwrap(), Ordering::Greater);
        assert_eq!(sign_plus_sqrt(0, -1, 3).unwrap(), Ordering::Less);
        assert!(sign_plus_sqrt(i128::MAX / 2, -i128::MAX / 2, 2).is_err());
    }

    #[test]
    fn rationals_normalize_and_order() {
        assert_eq!(Q::new(2, -4), Q::new(-1, 2));
        assert!(Q::new(1, 3) < Q::new(1, 2));
        assert_eq!(Q::new(1, 3).plus(Q::new(1, 6)).unwrap(), Q::new(1, 2));
        assert_eq!(Q::new(-7, 2).text(), "-7/2");
        assert_eq!(Q::int(4).text(), "4");
    }
}
