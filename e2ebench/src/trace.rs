//! The traced run, separate from the timed runs. Each cycle makes three
//! passes over the workload's statements:
//!
//! 1. a timed pass through `Session::execute`, exactly as the timed run
//!    (it gives the wall time the trace is compared with, and the
//!    server's batch counters);
//! 2. a replay pass that sends every statement through the public calls
//!    that make it up, each timed: `parse_statement`, `parse_formula`,
//!    `instantiate`/`to_nnf`/`to_prenex`/`to_dnf` + `simplify` +
//!    `prune_empty_boxes`, `plan::eliminate_prefix`, `apply_aggregate`,
//!    `numerical_evaluation`, `canonicalized`, the rendering, and
//!    `insert_tuples`/`retract_tuples` — on a copy of the session's
//!    database taken at the cycle's start;
//! 3. an admission pass that times every read twice on one snapshot:
//!    through `Session::execute` and through `ConstraintDb::query`.
//!
//! Replayed answers are judged by the same oracles as served ones.

use crate::run::{self, Tally, Verifier};
use crate::workload::{Kind, Stmt, Workload};
use crate::{Metric, Report};
use cdb_agg::aggregate::AggOutput;
use cdb_agg::{apply_aggregate, Aggregate};
use cdb_calcf::{parse_formula, CFormula, CTerm, CalcFEngine};
use cdb_constraints::{Atom, ConstraintRelation, Formula, GeneralizedTuple, RelOp};
use cdb_poly::MPoly;
use cdb_qe::{numerical_evaluation, plan, QeContext};
use cdb_server::{parse_statement, Response, Rows, ServerConfig, Statement};
use constraintdb::ConstraintDb;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer accumulators over all traced cycles.
#[derive(Default)]
struct Acc {
    /// Top-level spans: `name → (total ms, calls)`. Spans never nest, so
    /// their sum is the replay's covered time.
    spans: BTreeMap<&'static str, (f64, u64)>,
    /// Counters summed over all cycles.
    counts: BTreeMap<&'static str, f64>,
    /// Wall time of every replayed statement, summed.
    replay_ms: f64,
    /// Wall time of the same statements in the timed passes, summed.
    timed_ms: f64,
    /// `Session::execute` minus `ConstraintDb::query`, summed over reads.
    admission_ms: f64,
    admission_reads: u64,
}

impl Acc {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let e = self.spans.entry(name).or_default();
        e.0 += t0.elapsed().as_secs_f64() * 1e3;
        e.1 += 1;
        out
    }

    fn count(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_default() += v as f64;
    }

    fn covered_ms(&self) -> f64 {
        self.spans.values().map(|s| s.0).sum()
    }

    /// Planner, CAD and (for a context with its own cache) cache counters
    /// of a finished evaluation context.
    fn absorb(&mut self, ctx: &QeContext, own_cache: bool) {
        let p = ctx.plan_stats();
        for (name, v) in [
            ("qe.plan.subst", p.subst),
            ("qe.plan.fm", p.fm),
            ("qe.plan.quad", p.quad),
            ("qe.plan.cad", p.cad),
            ("qe.plan.subst_ns", p.subst_nanos),
            ("qe.plan.fm_ns", p.fm_nanos),
            ("qe.plan.quad_ns", p.quad_nanos),
            ("qe.plan.cad_ns", p.cad_nanos),
            ("qe.cad.cells", ctx.cells_built.get()),
            ("qe.sign_evals", ctx.sign_evals.get()),
        ] {
            self.count(name, v);
        }
        if own_cache {
            self.count("qe.cache.hits", ctx.cache.hits());
            self.count("qe.cache.misses", ctx.cache.misses());
        }
    }
}

/// The engine's lowering of a polynomial CALC_F formula to a pure
/// formula, for formulas without aggregates or analytic terms. The engine
/// keeps its own lowering private, so this copy is glue between the timed
/// calls, not a layer.
fn lower(f: &CFormula, index: &BTreeMap<String, usize>, n: usize) -> Result<Formula, String> {
    let var = |v: &str| {
        index
            .get(v)
            .copied()
            .ok_or_else(|| format!("unknown variable {v}"))
    };
    Ok(match f {
        CFormula::True => Formula::True,
        CFormula::False => Formula::False,
        CFormula::Cmp(a, op, b) => {
            Formula::Atom(Atom::new(&term(a, index, n)? - &term(b, index, n)?, *op))
        }
        CFormula::Rel(name, args) => Formula::Rel(
            name.clone(),
            args.iter().map(|a| var(a)).collect::<Result<_, _>>()?,
        ),
        CFormula::Not(g) => Formula::not(lower(g, index, n)?),
        CFormula::And(gs) => Formula::And(
            gs.iter()
                .map(|g| lower(g, index, n))
                .collect::<Result<_, _>>()?,
        ),
        CFormula::Or(gs) => Formula::Or(
            gs.iter()
                .map(|g| lower(g, index, n))
                .collect::<Result<_, _>>()?,
        ),
        CFormula::Exists(v, g) => Formula::exists(var(v)?, lower(g, index, n)?),
        CFormula::Forall(v, g) => Formula::forall(var(v)?, lower(g, index, n)?),
        CFormula::EvalPred(..) => return Err("EVAL below the top level".to_owned()),
    })
}

fn term(t: &CTerm, index: &BTreeMap<String, usize>, n: usize) -> Result<MPoly, String> {
    Ok(match t {
        CTerm::Var(v) => MPoly::var(
            *index
                .get(v)
                .ok_or_else(|| format!("unknown variable {v}"))?,
            n,
        ),
        CTerm::Const(c) => MPoly::constant(c.clone(), n),
        CTerm::Add(a, b) => &term(a, index, n)? + &term(b, index, n)?,
        CTerm::Sub(a, b) => &term(a, index, n)? - &term(b, index, n)?,
        CTerm::Mul(a, b) => &term(a, index, n)? * &term(b, index, n)?,
        CTerm::Neg(a) => -&term(a, index, n)?,
        CTerm::Pow(a, k) => term(a, index, n)?.pow(*k),
        CTerm::Apply(..) | CTerm::Agg(..) => return Err("not a polynomial term".to_owned()),
    })
}

/// Does any term of `f` satisfy `p`?
fn any_term(f: &CFormula, p: &dyn Fn(&CTerm) -> bool) -> bool {
    match f {
        CFormula::True | CFormula::False | CFormula::Rel(..) => false,
        CFormula::Cmp(a, _, b) => p(a) || p(b),
        CFormula::EvalPred(..) => true,
        CFormula::Not(g) | CFormula::Exists(_, g) | CFormula::Forall(_, g) => any_term(g, p),
        CFormula::And(gs) | CFormula::Or(gs) => gs.iter().any(|g| any_term(g, p)),
    }
}

fn is_plain(f: &CFormula) -> bool {
    !any_term(f, &|t| t.has_analytic() || t.has_aggregate())
}

/// The replay of one statement against `db`.
struct Replay<'a> {
    db: &'a mut ConstraintDb,
    engine: &'a CalcFEngine,
    acc: &'a mut Acc,
}

type Evaluated = (ConstraintRelation, Vec<String>);

impl Replay<'_> {
    /// A polynomial formula through the QE pipeline's public steps.
    fn plain(&mut self, f: &CFormula) -> Result<Evaluated, String> {
        let names = f.all_vars_in_order();
        let nvars = names.len().max(1);
        let index: BTreeMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        // Untimed glue: the engine exposes no lowering call of its own.
        let formula = lower(f, &index, nvars)?;
        let raw = self.db.raw();
        let (matrix_rel, prefix, matrix, free) = self.acc.time("constraints.normalize", || {
            let pure = formula.instantiate(raw, nvars)?;
            let free: Vec<usize> = pure.free_vars().into_iter().collect();
            let (prefix, matrix) = pure.to_nnf().to_prenex();
            let rel = matrix.to_dnf(nvars)?.simplify().prune_empty_boxes();
            Ok::<_, String>((rel, prefix, matrix, free))
        })?;
        self.acc.count(
            "constraints.dnf_disjuncts",
            matrix_rel.tuples().len() as u64,
        );
        let ctx = QeContext::exact()
            .with_workers(1)
            .with_cache(self.db.cache())
            .with_plan_mode(self.engine.plan_mode);
        let rel = self.acc.time("qe.eliminate", || {
            plan::eliminate_prefix(&matrix, matrix_rel, &prefix, &free, nvars, &ctx)
        });
        self.acc.absorb(&ctx, false);
        Ok((rel.map_err(|e| e.to_string())?, names))
    }

    /// An aggregate's body: through the pipeline's steps when polynomial,
    /// through `CalcFEngine::evaluate_ast` otherwise.
    fn body(&mut self, f: &CFormula) -> Result<Evaluated, String> {
        if is_plain(f) {
            return self.plain(f);
        }
        let (engine, raw) = (self.engine, self.db.raw());
        let out = self
            .acc
            .time("calcf.evaluate", || engine.evaluate_ast(raw, f))
            .map_err(|e| e.to_string())?;
        Ok((out.relation, out.var_names))
    }

    fn positions(vars: &[String], names: &[String]) -> Result<Vec<usize>, String> {
        vars.iter()
            .map(|v| {
                names
                    .iter()
                    .position(|n| n == v)
                    .ok_or_else(|| format!("{v} unused"))
            })
            .collect()
    }

    /// A context like the engine's for aggregates: its own cold cache.
    fn agg_ctx(&self) -> QeContext {
        QeContext::exact()
            .with_workers(1)
            .with_plan_mode(self.engine.plan_mode)
    }

    fn formula(&mut self, f: &CFormula) -> Result<Evaluated, String> {
        match f {
            CFormula::Cmp(CTerm::Var(z), RelOp::Eq, CTerm::Agg(agg, vars, body))
                if *agg != Aggregate::Eval =>
            {
                let (rel, names) = self.body(body)?;
                let inner = Self::positions(vars, &names)?;
                let ctx = self.agg_ctx();
                let eps = &self.engine.eps;
                let out = self.acc.time("agg.apply", || {
                    apply_aggregate(*agg, &rel, &inner, eps, &ctx)
                });
                self.acc.absorb(&ctx, true);
                let AggOutput::Scalar(v) = out.map_err(|e| e.to_string())? else {
                    return Err("aggregate gave no scalar".to_owned());
                };
                self.plain(&CFormula::Cmp(
                    CTerm::Var(z.clone()),
                    RelOp::Eq,
                    CTerm::Const(v.value),
                ))
            }
            CFormula::EvalPred(vars, body) => {
                let (rel, names) = self.body(body)?;
                let inner = Self::positions(vars, &names)?;
                let ctx = self.agg_ctx();
                let eps = &self.engine.eps;
                let pts = self.acc.time("qe.numeric", || {
                    numerical_evaluation(&rel, &inner, eps, &ctx)
                });
                self.acc.absorb(&ctx, true);
                let Some(pts) = pts.map_err(|e| e.to_string())? else {
                    return Ok((rel, names));
                };
                let n = rel.nvars();
                let tuples = pts
                    .into_iter()
                    .map(|p| {
                        let atoms = inner
                            .iter()
                            .zip(&p.coords)
                            .map(|(&v, c)| {
                                Atom::new(
                                    &MPoly::var(v, n) - &MPoly::constant(c.clone(), n),
                                    RelOp::Eq,
                                )
                            })
                            .collect();
                        GeneralizedTuple::new(n, atoms)
                    })
                    .collect();
                Ok((ConstraintRelation::new(n, tuples), names))
            }
            f if is_plain(f) => self.plain(f),
            f => self.body(f),
        }
    }

    fn select(&mut self, query: &str) -> Result<Response, String> {
        let ast = self
            .acc
            .time("calcf.parse", || parse_formula(query))
            .map_err(|e| e.to_string())?;
        let (rel, names) = self.formula(&ast)?;
        let rel = self
            .acc
            .time("constraints.canonicalize", || rel.canonicalized());
        self.acc
            .count("constraints.answer_disjuncts", rel.tuples().len() as u64);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let text = self.acc.time("server.render", || rel.display_with(&refs));
        Ok(Response::Rows {
            text,
            exact: is_plain(&ast),
        })
    }

    fn update(&mut self, name: &str, rows: &Rows, insert: bool) -> Result<Response, String> {
        let Rows::Points(points) = rows else {
            return Err("constraint rows are not replayed".to_owned());
        };
        let arity = self
            .db
            .relation(name)
            .map(ConstraintRelation::nvars)
            .ok_or_else(|| format!("no relation {name}"))?;
        let tuples = ConstraintRelation::from_points(arity, points)
            .tuples()
            .to_vec();
        let db = &mut *self.db;
        let report = if insert {
            self.acc
                .time("core.insert", || db.insert_tuples(name, &tuples))
        } else {
            self.acc
                .time("core.retract", || db.retract_tuples(name, &tuples))
        }
        .map_err(|e| e.to_string())?;
        self.acc
            .count("core.incremental_reruns", report.incremental_reruns as u64);
        self.acc
            .count("core.full_reruns", report.full_reruns as u64);
        self.acc.count(
            "core.cache_invalidations",
            u64::from(report.cache_invalidated),
        );
        Ok(Response::Updated {
            relation: report.relation,
            inserted: report.inserted,
            retracted: report.retracted,
            refreshed: report.refreshed_views.len() + report.refreshed_heads.len(),
        })
    }

    fn statement(&mut self, stmt: &Stmt) -> Result<Response, String> {
        let parsed = self
            .acc
            .time("server.parse", || parse_statement(&stmt.text))
            .map_err(|e| e.to_string())?;
        match parsed {
            Statement::Select { query } => self.select(&query),
            Statement::Insert { name, rows } => self.update(&name, &rows, true),
            Statement::Delete { name, rows } => self.update(&name, &rows, false),
            other => Err(format!("statement not replayed: {other}")),
        }
    }
}

/// One replay pass over a cycle, from the first session's current state.
fn replay_pass(w: &Workload, l: &run::Loaded, acc: &mut Acc, v: &mut Verifier, tally: &mut Tally) {
    let mut db = l.sessions[0].snapshot().clone();
    let engine = db.engine_mut().clone();
    let (hits0, misses0) = (db.cache().hits(), db.cache().misses());
    let intern0 = cdb_poly::intern::stats();
    // Deltas of the process-global filter and resultant counters.
    let probe = QeContext::exact();
    for (si, script) in w.sessions.iter().enumerate() {
        for (k, stmt) in script.iter().enumerate() {
            let t0 = Instant::now();
            let out = Replay {
                db: &mut db,
                engine: &engine,
                acc,
            }
            .statement(stmt);
            acc.replay_ms += t0.elapsed().as_secs_f64() * 1e3;
            let out = out.map_err(cdb_server::ServerError::Db);
            v.judge((si, k), stmt, &out, tally);
        }
    }
    let intern1 = cdb_poly::intern::stats();
    let rs = probe.resultant_strategies();
    for (name, value) in [
        ("qe.cache.hits", db.cache().hits().saturating_sub(hits0)),
        (
            "qe.cache.misses",
            db.cache().misses().saturating_sub(misses0),
        ),
        (
            "poly.intern.hits",
            intern1.hits.saturating_sub(intern0.hits),
        ),
        (
            "poly.intern.misses",
            intern1.misses.saturating_sub(intern0.misses),
        ),
        ("num.filter.hits", probe.filter_hits()),
        ("num.filter.fallbacks", probe.filter_fallbacks()),
        ("poly.resultant.prs", rs.prs),
        ("poly.resultant.eval_interp", rs.eval_interp),
        ("poly.resultant.crt", rs.crt),
        ("poly.resultant.fallbacks", rs.fallbacks),
    ] {
        acc.count(name, value);
    }
}

/// Time every read through `Session::execute` and through
/// `ConstraintDb::query` on the same snapshot.
fn admission_pass(w: &Workload, l: &mut run::Loaded, acc: &mut Acc, tally: &mut Tally) {
    for (si, script) in w.sessions.iter().enumerate() {
        for stmt in script.iter().filter(|s| s.kind == Kind::Read) {
            let Ok(Statement::Select { query }) = parse_statement(&stmt.text) else {
                continue;
            };
            let s = &mut l.sessions[si];
            let t0 = Instant::now();
            let direct = s.snapshot().query(&query);
            let query_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let served = s.execute(&stmt.text);
            let exec_ms = t1.elapsed().as_secs_f64() * 1e3;
            let e = tally.classes.entry(stmt.class).or_default();
            e.0 += 2;
            e.1 += u64::from(direct.is_err()) + u64::from(served.is_err());
            acc.admission_ms += exec_ms - query_ms;
            acc.admission_reads += 1;
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run.
pub fn run(w: &Workload, cfg: &ServerConfig, seconds: f64) -> Report {
    let mut tally = Tally::default();
    let mut replay_tally = Tally::default();
    let mut v = Verifier::default();
    let mut rv = Verifier::default();
    let (mut l, warm, _) = run::set_up(w, cfg);
    run::judge_setup(w, &l, &mut v, &mut tally);
    run::judge_cycle(w, &warm, &mut v, &mut tally);
    let (iterations, qe_calls) = l
        .setup_responses
        .iter()
        .find_map(|r| match r {
            Ok(Response::Fixpoint {
                iterations,
                qe_calls,
            }) => Some((*iterations, *qe_calls)),
            _ => None,
        })
        .unwrap_or((0, 0));
    let mut acc = Acc::default();
    let (mut batches, mut batched_reads, mut cycles) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    loop {
        let before = l.server.stats();
        let (outs, _) = run::cycle(&mut l.sessions, w);
        let after = l.server.stats();
        batches += after.batches - before.batches;
        batched_reads += after.batched_reads - before.batched_reads;
        acc.timed_ms += outs.iter().flatten().map(|o| o.ms).sum::<f64>();
        run::judge_cycle(w, &outs, &mut v, &mut tally);
        replay_pass(w, &l, &mut acc, &mut rv, &mut replay_tally);
        admission_pass(w, &mut l, &mut acc, &mut replay_tally);
        cycles += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let per_cycle =
        |acc: &Acc, name: &str| acc.counts.get(name).copied().unwrap_or(0.0) / cycles as f64;
    let mean_ms = |acc: &Acc, name: &str| {
        acc.spans
            .get(name)
            .map_or(0.0, |&(ms, n)| ratio(ms, n as f64))
    };
    let plan_ms = |acc: &Acc, s: &str, ns: &str| ratio(per_cycle(acc, ns) / 1e6, per_cycle(acc, s));
    let hit_ratio = |acc: &Acc, h: &str, m: &str| {
        let (h, m) = (per_cycle(acc, h), per_cycle(acc, m));
        ratio(h, h + m)
    };
    const MS: &str = "ms";
    const N: &str = "count/cycle";
    const R: &str = "ratio";
    let a = &acc;
    let metrics: Vec<Metric> = vec![
        ("server.parse_ms", mean_ms(a, "server.parse"), MS),
        (
            "server.admission_ms",
            ratio(a.admission_ms, a.admission_reads as f64),
            MS,
        ),
        (
            "server.batch_size_mean",
            ratio(batched_reads as f64, batches as f64),
            "reads/batch",
        ),
        ("server.render_ms", mean_ms(a, "server.render"), MS),
        ("calcf.parse_ms", mean_ms(a, "calcf.parse"), MS),
        ("calcf.evaluate_ms", mean_ms(a, "calcf.evaluate"), MS),
        (
            "constraints.normalize_ms",
            mean_ms(a, "constraints.normalize"),
            MS,
        ),
        (
            "constraints.dnf_disjuncts",
            per_cycle(a, "constraints.dnf_disjuncts"),
            N,
        ),
        (
            "constraints.canonicalize_ms",
            mean_ms(a, "constraints.canonicalize"),
            MS,
        ),
        (
            "constraints.answer_disjuncts",
            per_cycle(a, "constraints.answer_disjuncts"),
            N,
        ),
        ("qe.eliminate_ms", mean_ms(a, "qe.eliminate"), MS),
        ("qe.plan.subst", per_cycle(a, "qe.plan.subst"), N),
        ("qe.plan.fm", per_cycle(a, "qe.plan.fm"), N),
        ("qe.plan.quad", per_cycle(a, "qe.plan.quad"), N),
        ("qe.plan.cad", per_cycle(a, "qe.plan.cad"), N),
        (
            "qe.plan.subst_ms",
            plan_ms(a, "qe.plan.subst", "qe.plan.subst_ns"),
            MS,
        ),
        (
            "qe.plan.fm_ms",
            plan_ms(a, "qe.plan.fm", "qe.plan.fm_ns"),
            MS,
        ),
        (
            "qe.plan.quad_ms",
            plan_ms(a, "qe.plan.quad", "qe.plan.quad_ns"),
            MS,
        ),
        (
            "qe.plan.cad_ms",
            plan_ms(a, "qe.plan.cad", "qe.plan.cad_ns"),
            MS,
        ),
        ("qe.cad.cells", per_cycle(a, "qe.cad.cells"), N),
        ("qe.sign_evals", per_cycle(a, "qe.sign_evals"), N),
        ("qe.cache.hits", per_cycle(a, "qe.cache.hits"), N),
        ("qe.cache.misses", per_cycle(a, "qe.cache.misses"), N),
        (
            "qe.cache.hit_ratio",
            hit_ratio(a, "qe.cache.hits", "qe.cache.misses"),
            R,
        ),
        ("qe.numeric_ms", mean_ms(a, "qe.numeric"), MS),
        ("poly.resultant.prs", per_cycle(a, "poly.resultant.prs"), N),
        (
            "poly.resultant.eval_interp",
            per_cycle(a, "poly.resultant.eval_interp"),
            N,
        ),
        ("poly.resultant.crt", per_cycle(a, "poly.resultant.crt"), N),
        (
            "poly.resultant.fallbacks",
            per_cycle(a, "poly.resultant.fallbacks"),
            N,
        ),
        ("poly.intern.hits", per_cycle(a, "poly.intern.hits"), N),
        ("poly.intern.misses", per_cycle(a, "poly.intern.misses"), N),
        (
            "poly.intern.hit_ratio",
            hit_ratio(a, "poly.intern.hits", "poly.intern.misses"),
            R,
        ),
        ("num.filter.hits", per_cycle(a, "num.filter.hits"), N),
        (
            "num.filter.fallbacks",
            per_cycle(a, "num.filter.fallbacks"),
            N,
        ),
        (
            "num.filter.hit_ratio",
            hit_ratio(a, "num.filter.hits", "num.filter.fallbacks"),
            R,
        ),
        ("agg.apply_ms", mean_ms(a, "agg.apply"), MS),
        ("core.insert_ms", mean_ms(a, "core.insert"), MS),
        ("core.retract_ms", mean_ms(a, "core.retract"), MS),
        (
            "core.incremental_reruns",
            per_cycle(a, "core.incremental_reruns"),
            N,
        ),
        ("core.full_reruns", per_cycle(a, "core.full_reruns"), N),
        (
            "core.cache_invalidations",
            per_cycle(a, "core.cache_invalidations"),
            N,
        ),
        ("datalog.qe_calls", qe_calls as f64, "count"),
        ("datalog.iterations", iterations as f64, "count"),
        ("trace.coverage", ratio(a.covered_ms(), a.replay_ms), R),
        ("trace.overhead", ratio(a.replay_ms, a.timed_ms), R),
    ];
    let mut notes = vec![format!(
        "traced: {cycles} cycles; replay {:.3} ms, covered {:.3} ms, timed passes {:.3} ms",
        a.replay_ms,
        a.covered_ms(),
        a.timed_ms
    )];
    for (name, (ms, n)) in &a.spans {
        notes.push(format!("span {name}: {n} calls, {ms:.3} ms"));
    }
    for (class, (att, failed)) in &replay_tally.classes {
        notes.push(format!(
            "replayed {class}: attempted {att}, failed {failed}"
        ));
    }
    tally.mismatches.extend(
        replay_tally
            .mismatches
            .into_iter()
            .map(|m| format!("replay: {m}")),
    );
    let replay_failed = replay_tally.classes.values().map(|c| c.1).sum::<u64>();
    if replay_failed > 0 {
        tally
            .mismatches
            .push(format!("{replay_failed} replayed operations failed"));
    }
    Report {
        tally,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowering_matches_the_engine() {
        // The same relation through the engine and through the replay's
        // own lowering and pipeline steps.
        let mut db = ConstraintDb::new();
        db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")
            .unwrap();
        let q = "exists y (S(x, y) and y <= 0)";
        let served = db.query(q).unwrap().display();
        let engine = db.engine_mut().clone();
        let mut acc = Acc::default();
        let mut replay = Replay {
            db: &mut db,
            engine: &engine,
            acc: &mut acc,
        };
        let Response::Rows { text, .. } = replay.select(q).unwrap() else {
            panic!("rows expected");
        };
        assert_eq!(text, served);
        assert!(acc.spans.contains_key("qe.eliminate"));
        assert_eq!(per(&acc, "qe.plan.cad"), 0.0);
    }

    fn per(acc: &Acc, name: &str) -> f64 {
        acc.counts.get(name).copied().unwrap_or(0.0)
    }

    #[test]
    fn aggregates_and_eval_replay() {
        let mut db = ConstraintDb::new();
        db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")
            .unwrap();
        let engine = db.engine_mut().clone();
        let mut acc = Acc::default();
        let mut replay = Replay {
            db: &mut db,
            engine: &engine,
            acc: &mut acc,
        };
        let Response::Rows { text, .. } = replay
            .select("z = SURFACE[x, y]{ S(x, y) and y <= 9 }")
            .unwrap()
        else {
            panic!("rows expected");
        };
        assert_eq!(text, "(z - 18 = 0)");
        let Response::Rows { text, .. } = replay.select("EVAL[x]{ x^2 - 4 = 0 }").unwrap() else {
            panic!("rows expected");
        };
        assert_eq!(text, "(x + 2 = 0) or (x - 2 = 0)");
        assert_eq!(acc.spans["agg.apply"].1, 1);
        assert_eq!(acc.spans["qe.numeric"].1, 1);
    }

    #[test]
    fn polynomial_formulas_are_told_apart() {
        assert!(is_plain(&parse_formula("exists y (x^2 + y <= 1)").unwrap()));
        assert!(!is_plain(&parse_formula("y <= exp(x)").unwrap()));
        assert!(!is_plain(
            &parse_formula("z = LENGTH[x]{ x >= 0 and x <= 1 }").unwrap()
        ));
        assert!(!is_plain(&parse_formula("EVAL[x]{ x^2 = 4 }").unwrap()));
    }
}
