//! Reading answers back. A `SELECT` answer arrives as the server's text
//! rendering of a quantifier-free relation; the program's CALC_F parser
//! turns it into a formula, and the benchmark evaluates that formula at
//! rational points with its own evaluator. Nothing here runs quantifier
//! elimination, so no oracle decides membership with the program's QE.

use cdb_calcf::{parse_formula, CFormula, CTerm};
use cdb_constraints::RelOp;
use cdb_num::{Int, Rat, Sign};
use cdb_server::Response;
use std::collections::BTreeSet;

/// The answer text of a `SELECT` response.
pub fn rows_text(r: &Response) -> Result<&str, String> {
    match r {
        Response::Rows { text, .. } => Ok(text),
        other => Err(format!("expected rows, got `{other}`")),
    }
}

/// Parse an answer's text.
pub fn parse(text: &str) -> Result<CFormula, String> {
    parse_formula(text).map_err(|e| format!("unreadable answer `{text}`: {e}"))
}

/// `n/d` as the program's rational (answers are evaluated with it).
pub fn rat(num: i128, den: i128) -> Rat {
    Rat::new(Int::from(num), Int::from(den))
}

fn lookup<'a>(env: &'a [(&str, Rat)], name: &str) -> Result<&'a Rat, String> {
    env.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("answer mentions unbound variable {name}"))
}

/// Value of a polynomial term at a point.
pub fn value(t: &CTerm, env: &[(&str, Rat)]) -> Result<Rat, String> {
    Ok(match t {
        CTerm::Var(v) => lookup(env, v)?.clone(),
        CTerm::Const(c) => c.clone(),
        CTerm::Add(a, b) => &value(a, env)? + &value(b, env)?,
        CTerm::Sub(a, b) => &value(a, env)? - &value(b, env)?,
        CTerm::Mul(a, b) => &value(a, env)? * &value(b, env)?,
        CTerm::Neg(a) => -&value(a, env)?,
        CTerm::Pow(a, n) => {
            let base = value(a, env)?;
            let mut out = Rat::one();
            for _ in 0..*n {
                out = &out * &base;
            }
            out
        }
        CTerm::Apply(..) | CTerm::Agg(..) => {
            return Err("answer holds a non-polynomial term".to_owned())
        }
    })
}

fn satisfies(op: RelOp, s: Sign) -> bool {
    match op {
        RelOp::Eq => s == Sign::Zero,
        RelOp::Ne => s != Sign::Zero,
        RelOp::Lt => s == Sign::Neg,
        RelOp::Le => s != Sign::Pos,
        RelOp::Gt => s == Sign::Pos,
        RelOp::Ge => s != Sign::Neg,
    }
}

/// Truth of a quantifier-free answer at a point.
pub fn holds(f: &CFormula, env: &[(&str, Rat)]) -> Result<bool, String> {
    Ok(match f {
        CFormula::True => true,
        CFormula::False => false,
        CFormula::Cmp(a, op, b) => satisfies(*op, (&value(a, env)? - &value(b, env)?).sign()),
        CFormula::Not(g) => !holds(g, env)?,
        CFormula::And(gs) => {
            for g in gs {
                if !holds(g, env)? {
                    return Ok(false);
                }
            }
            true
        }
        CFormula::Or(gs) => {
            for g in gs {
                if holds(g, env)? {
                    return Ok(true);
                }
            }
            false
        }
        _ => return Err("answer is not quantifier-free and relation-free".to_owned()),
    })
}

/// The disjuncts of an answer (a lone conjunction is one disjunct).
pub fn disjuncts(f: &CFormula) -> Vec<&CFormula> {
    match f {
        CFormula::Or(gs) => gs.iter().collect(),
        CFormula::False => Vec::new(),
        g => vec![g],
    }
}

fn conjuncts(f: &CFormula) -> Vec<&CFormula> {
    match f {
        CFormula::And(gs) => gs.iter().collect(),
        g => vec![g],
    }
}

/// Solve `lhs = rhs`, affine in `var`, for `var`.
fn solve_affine(a: &CTerm, b: &CTerm, var: &str) -> Result<Rat, String> {
    let d = CTerm::Sub(Box::new(a.clone()), Box::new(b.clone()));
    let at0 = value(&d, &[(var, Rat::zero())])?;
    let at1 = value(&d, &[(var, Rat::one())])?;
    let slope = &at1 - &at0;
    let at2 = value(&d, &[(var, Rat::from(2i64))])?;
    if slope.is_zero() || &at2 - &at1 != slope {
        return Err(format!("equation is not affine in {var}"));
    }
    Ok(&(-&at0) / &slope)
}

/// The value of `var` in an answer of the form `k·var − m = 0` (how the
/// server renders an aggregate's scalar).
pub fn scalar(f: &CFormula, var: &str) -> Result<Rat, String> {
    match disjuncts(f).as_slice() {
        [CFormula::Cmp(a, RelOp::Eq, b)] => solve_affine(a, b, var),
        _ => Err("expected one equation".to_owned()),
    }
}

/// The explicit points of an answer: every disjunct whose conjuncts are
/// one affine equation per variable of `vars`. Other disjuncts are
/// returned apart, for the caller to judge.
pub fn points<'a>(f: &'a CFormula, vars: &[&str]) -> (Vec<Vec<Rat>>, Vec<&'a CFormula>) {
    let mut pts = Vec::new();
    let mut rest = Vec::new();
    'disjunct: for d in disjuncts(f) {
        let mut coords: Vec<Option<Rat>> = vec![None; vars.len()];
        for c in conjuncts(d) {
            let CFormula::Cmp(a, RelOp::Eq, b) = c else {
                rest.push(d);
                continue 'disjunct;
            };
            let mut mentioned = BTreeSet::new();
            a.collect_vars(&mut mentioned);
            b.collect_vars(&mut mentioned);
            let (Some(v), 1) = (mentioned.iter().next(), mentioned.len()) else {
                rest.push(d);
                continue 'disjunct;
            };
            let (Some(pos), Ok(val)) = (vars.iter().position(|n| n == v), solve_affine(a, b, v))
            else {
                rest.push(d);
                continue 'disjunct;
            };
            coords[pos] = Some(val);
        }
        match coords.into_iter().collect::<Option<Vec<Rat>>>() {
            Some(p) => pts.push(p),
            None => rest.push(d),
        }
    }
    (pts, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_scalars_and_points_read_back() {
        let f = parse("(x - 1 >= 0 and 2*x - 3 <= 0) or (x^2 - 16 = 0)").unwrap();
        let at = |n: i128, d: i128| holds(&f, &[("x", rat(n, d))]).unwrap();
        assert!(at(1, 1) && at(3, 2) && at(4, 1) && at(-4, 1));
        assert!(!at(2, 1) && !at(0, 1) && !at(8, 5));
        assert!(holds(&parse("(true)").unwrap(), &[]).unwrap());
        assert!(!holds(&parse("false").unwrap(), &[]).unwrap());
        // The server renders SURFACE = 18 as `z - 18 = 0`, others as k·a − m.
        assert_eq!(
            scalar(&parse("(z - 18 = 0)").unwrap(), "z").unwrap(),
            rat(18, 1)
        );
        assert_eq!(
            scalar(&parse("(4*a - 7 = 0)").unwrap(), "a").unwrap(),
            rat(7, 4)
        );
        assert!(scalar(&parse("(a^2 - 2 = 0)").unwrap(), "a").is_err());
        let g = parse("(x - 1 = 0 and 4*y + 3 = 0) or (x - 2 = 0 and y - 5 <= 0)").unwrap();
        let (pts, rest) = points(&g, &["x", "y"]);
        assert_eq!(pts, vec![vec![rat(1, 1), rat(-3, 4)]]);
        assert_eq!(rest.len(), 1);
        assert!(holds(&parse("(y - 1 = 0)").unwrap(), &[]).is_err());
    }
}
