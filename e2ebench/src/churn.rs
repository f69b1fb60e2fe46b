//! `view_churn`: one session keeps an edge relation `E` — point edges
//! along a chain plus linear segment edges `y = x + c, a ≤ x ≤ a + 1` —
//! under the materialised transitive closure `T`. A cycle extends the
//! chain by three edges one at a time (incremental maintenance), reads
//! after each, then deletes all three in one statement (the full
//! recompute with cache invalidation) and reads again, back in its
//! starting state.
//!
//! A read joins the view with one more edge, `∃y (T(x, y) ∧ E(y, z))`:
//! the pairs joined by a path of two or more edges. It eliminates `y`
//! from a DNF of the view's size times the edges' (substitution and FM).
//! A bare `SELECT T(x, y)` costs about 3 ms, so a descheduled thread on
//! a shared host doubles it and its tail is noise.

use crate::answer;
use crate::exact::Q;
use crate::rng::Rng;
use crate::workload::{Kind, Stmt, Workload};
use cdb_server::Response;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Chain nodes in the base relation.
pub const CHAIN: usize = 12;
/// Edges a cycle inserts and then deletes.
pub const CHURN: usize = 3;
/// Chain positions where a unit segment edge starts; each jumps three
/// nodes ahead.
const SEGMENTS_AT: [usize; 2] = [1, 6];

/// The benchmark's own copy of the edges.
#[derive(Clone, Debug, Default)]
pub struct Edges {
    /// Point edges `(u, v)`.
    pub points: Vec<(i64, i64)>,
    /// Segment edges `(a, c)`: `y = x + c` for `a ≤ x ≤ a + 1`.
    pub segments: Vec<(i64, i64)>,
}

impl Edges {
    /// The ends of every edge leaving `z`.
    fn step(&self, z: Q) -> Vec<Q> {
        let mut next = Vec::new();
        for &(u, v) in &self.points {
            if z == Q::int(u) {
                next.push(Q::int(v));
            }
        }
        for &(a, c) in &self.segments {
            if Q::int(a) <= z && z <= Q::int(a + 1) {
                next.push(z.plus(Q::int(c)).expect("small values"));
            }
        }
        next
    }

    /// Every value reachable from `x` in one or more steps. Every edge
    /// moves forward, so the search ends.
    pub fn reach(&self, x: Q) -> BTreeSet<Q> {
        let mut seen = BTreeSet::new();
        let mut frontier = vec![x];
        while let Some(z) = frontier.pop() {
            for n in self.step(z) {
                if seen.insert(n) {
                    frontier.push(n);
                }
            }
        }
        seen
    }

    /// Every value reachable from `x` in two or more steps.
    pub fn reach2(&self, x: Q) -> BTreeSet<Q> {
        self.reach(x)
            .into_iter()
            .flat_map(|y| self.step(y))
            .collect()
    }

    /// Sample abscissae: every node, and points inside every segment's
    /// domain (ends included).
    fn sample_xs(&self) -> Vec<Q> {
        let mut xs: Vec<Q> = self
            .points
            .iter()
            .flat_map(|&(u, v)| [Q::int(u), Q::int(v)])
            .collect();
        for &(a, _) in &self.segments {
            for (n, d) in [(0, 1), (1, 3), (1, 2), (5, 7), (1, 1)] {
                xs.push(Q::new(i128::from(a) * d + n, d));
            }
        }
        xs.sort();
        xs.dedup();
        xs
    }
}

/// Check a read of pairs `(x, z)` against `reach`: at every sample `x`
/// and at every point the answer lists, `(x, z)` is in the answer exactly
/// when `z ∈ reach(x)`. Candidate `z`s are every reachable value, every
/// node, and near misses beside each reachable value.
pub fn check_pairs(
    edges: &Edges,
    reach: impl Fn(&Edges, Q) -> BTreeSet<Q>,
    text: &str,
) -> Result<(), String> {
    let f = answer::parse(text)?;
    let (listed, _) = answer::points(&f, &["x", "z"]);
    let mut xs = edges.sample_xs();
    for p in &listed {
        let x: Q = parse_q(&p[0])?;
        let y: Q = parse_q(&p[1])?;
        if !reach(edges, x).contains(&y) {
            return Err(format!(
                "answer lists ({}, {}), which is not reachable",
                x.text(),
                y.text()
            ));
        }
        xs.push(x);
    }
    xs.sort();
    xs.dedup();
    let nodes: BTreeSet<Q> = edges.sample_xs().into_iter().collect();
    for x in xs {
        let reach = reach(edges, x);
        let mut ys: BTreeSet<Q> = nodes.clone();
        for y in &reach {
            ys.insert(*y);
            ys.insert(y.plus(Q::new(1, 5)).map_err(|e| e.to_string())?);
            ys.insert(y.plus(Q::new(-1, 5)).map_err(|e| e.to_string())?);
        }
        let xr = answer::rat(x.num, x.den);
        for y in ys {
            let want = reach.contains(&y);
            let got = answer::holds(&f, &[("x", xr.clone()), ("z", answer::rat(y.num, y.den))])?;
            if got != want {
                return Err(format!(
                    "({}, {}): answer {got}, reachability {want}",
                    x.text(),
                    y.text()
                ));
            }
        }
    }
    Ok(())
}

fn parse_q(r: &cdb_num::Rat) -> Result<Q, String> {
    let text = r.to_string();
    let (n, d) = text.split_once('/').unwrap_or((&text, "1"));
    match (n.parse::<i128>(), d.parse::<i128>()) {
        (Ok(n), Ok(d)) => Ok(Q::new(n, d)),
        _ => Err(format!("answer coordinate {text} out of range")),
    }
}

fn check_update(r: &Response, inserted: usize, retracted: usize) -> Result<(), String> {
    match r {
        Response::Updated {
            inserted: i,
            retracted: d,
            refreshed,
            ..
        } if *i == inserted && *d == retracted && *refreshed >= 1 => Ok(()),
        other => Err(format!(
            "expected +{inserted} -{retracted} with the view refreshed, got `{other}`"
        )),
    }
}

fn read(edges: &Edges) -> Stmt {
    let edges = Arc::new(edges.clone());
    Stmt::select(
        "SELECT exists y (T(x, y) and E(y, z));".to_owned(),
        "view.read",
        move |text| check_pairs(&edges, Edges::reach2, text),
    )
}

/// The workload for `seed`.
pub fn workload(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 3);
    let mut nodes = vec![rng.range(0, 9)];
    for _ in 1..CHAIN + CHURN {
        let last = *nodes.last().expect("nonempty");
        nodes.push(last + rng.range(2, 5));
    }
    let base = Edges {
        points: (0..CHAIN - 1).map(|i| (nodes[i], nodes[i + 1])).collect(),
        segments: SEGMENTS_AT
            .iter()
            .map(|&i| (nodes[i], nodes[i + 3] - nodes[i]))
            .collect(),
    };
    let churn: Vec<(i64, i64)> = (CHAIN - 1..CHAIN - 1 + CHURN)
        .map(|i| (nodes[i], nodes[i + 1]))
        .collect();

    let mut setup = vec![
        Stmt::expect(
            "CREATE RELATION E(x, y);".to_owned(),
            "setup.create",
            "created",
        ),
        Stmt::expect(
            format!(
                "INSERT INTO E VALUES {};",
                base.points
                    .iter()
                    .map(|(u, v)| format!("({u}, {v})"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            "setup.insert",
            "updated",
        ),
    ];
    for &(a, c) in &base.segments {
        setup.push(Stmt::expect(
            format!(
                "INSERT INTO E CONSTRAINT y - x = {c} and x >= {a} and x <= {};",
                a + 1
            ),
            "setup.insert",
            "updated",
        ));
    }
    setup.push(Stmt::expect(
        "DATALOG { T(x, y) :- E(x, y). T(x, y) :- T(x, z), E(z, y). };".to_owned(),
        "setup.datalog",
        "fixpoint",
    ));

    let mut script = vec![read(&base)];
    let mut state = base.clone();
    for &(u, v) in &churn {
        state.points.push((u, v));
        script.push(Stmt::new(
            format!("INSERT INTO E VALUES ({u}, {v});"),
            Kind::Write,
            "view.insert",
            |r| check_update(r, 1, 0),
        ));
        script.push(read(&state));
    }
    script.push(Stmt::new(
        format!(
            "DELETE FROM E VALUES {};",
            churn
                .iter()
                .map(|(u, v)| format!("({u}, {v})"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Kind::Write,
        "view.delete",
        |r| check_update(r, 0, CHURN),
    ));
    script.push(read(&base));
    Workload {
        name: "view_churn",
        setup,
        sessions: vec![script],
        read_tail_pct: 95.0,
        setup_reps: 15,
        inputs: vec![
            ("point_edges", base.points.len().to_string()),
            ("segment_edges", base.segments.len().to_string()),
            ("churned_edges_per_cycle", CHURN.to_string()),
            ("nodes", format!("{:?}", &nodes[..CHAIN])),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Edges {
        // 0 → 2 → 5 → 9, plus y = x + 5 on [2, 3].
        Edges {
            points: vec![(0, 2), (2, 5), (5, 9)],
            segments: vec![(2, 5)],
        }
    }

    #[test]
    fn hand_worked_reachability() {
        let e = chain();
        let ints = |v: &[i64]| v.iter().map(|&k| Q::int(k)).collect::<BTreeSet<_>>();
        // From 0: 2, 5, 9 along the chain, and 2 + 5 = 7 by the segment.
        assert_eq!(e.reach(Q::int(0)), ints(&[2, 5, 7, 9]));
        // Inside the segment: 5/2 → 15/2 only.
        assert_eq!(e.reach(Q::new(5, 2)), [Q::new(15, 2)].into_iter().collect());
        // The segment's end 3 → 8; 9 is a sink.
        assert_eq!(e.reach(Q::int(3)), ints(&[8]));
        assert!(e.reach(Q::int(9)).is_empty());
        // Two or more steps from 0: 5, 9 and 7 (0 → 2 → 7); not 2.
        assert_eq!(e.reach2(Q::int(0)), ints(&[5, 7, 9]));
        assert!(e.reach2(Q::new(5, 2)).is_empty());
    }

    #[test]
    fn pair_checks_are_semantic() {
        let e = chain();
        let full = "(x = 0 and z = 2) or (x = 0 and z = 5) or (x = 0 and z = 7) or \
                    (x = 0 and z = 9) or (x = 2 and z = 5) or (x = 2 and z = 9) or \
                    (x = 5 and z = 9) or (z - x = 5 and x >= 2 and x <= 3)";
        check_pairs(&e, Edges::reach, full).unwrap();
        // An infeasible extra disjunct changes the form, not the set.
        let padded = format!("{full} or (x - 1 >= 0 and 2*x - 3 <= 0 and x - 9 = 0)");
        check_pairs(&e, Edges::reach, &padded).unwrap();
        // Missing the segment: (5/2, 15/2) is reachable but not listed.
        let cut = full.replace(" or (z - x = 5 and x >= 2 and x <= 3)", "");
        assert!(check_pairs(&e, Edges::reach, &cut).is_err());
        // An unreachable pair listed.
        assert!(check_pairs(&e, Edges::reach, &format!("{full} or (x = 9 and z = 0)")).is_err());
        // Two or more steps: 0 → 5, 7, 9 and 2 → 9.
        let two =
            "(x = 0 and z = 5) or (x = 0 and z = 7) or (x = 0 and z = 9) or (x = 2 and z = 9)";
        check_pairs(&e, Edges::reach2, two).unwrap();
        assert!(check_pairs(&e, Edges::reach2, full).is_err());
    }

    #[test]
    fn cycle_returns_to_its_start() {
        let w = workload(11);
        let s = &w.sessions[0];
        assert_eq!(s.len(), 2 * CHURN + 3);
        assert_eq!(s.first().unwrap().text, s.last().unwrap().text);
        assert_eq!(
            s.iter().filter(|t| t.kind == Kind::Write).count(),
            CHURN + 1
        );
    }
}
