//! Driving the server: set-up, whole cycles through `Session::execute`
//! with one thread per client session, and verification of every
//! response. Oracles run between cycles, never inside a timed statement.

use crate::workload::{Stmt, Workload};
use cdb_server::{Response, Server, ServerConfig, ServerError, Session};
use std::collections::BTreeMap;
use std::time::Instant;

/// One executed statement.
pub struct Outcome {
    /// Latency at the submitting session, in ms.
    pub ms: f64,
    /// What the server returned.
    pub result: Result<Response, ServerError>,
}

/// Attempted and failed operations per statement class, plus oracle
/// mismatches.
#[derive(Default)]
pub struct Tally {
    /// `class → (attempted, failed)`.
    pub classes: BTreeMap<&'static str, (u64, u64)>,
    /// Oracle mismatches (each one makes the run incorrect).
    pub mismatches: Vec<String>,
}

impl Tally {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.0).sum()
    }

    /// Operations that returned an error.
    pub fn failed(&self) -> u64 {
        self.classes.values().map(|c| c.1).sum()
    }
}

/// Verifies responses: the first response of each statement is judged by
/// its oracle and kept as reference; later ones that match it byte for
/// byte pass, any other goes to the oracle again. Every statement of a
/// workload expects an answer, so an error is counted as failed and is a
/// mismatch too: a change that makes statements error out cannot pass.
#[derive(Default)]
pub struct Verifier {
    reference: BTreeMap<(usize, usize), String>,
}

impl Verifier {
    /// Judge one outcome of statement `stmt` at `key` (session, index).
    pub fn judge(
        &mut self,
        key: (usize, usize),
        stmt: &Stmt,
        out: &Result<Response, ServerError>,
        tally: &mut Tally,
    ) {
        let entry = tally.classes.entry(stmt.class).or_default();
        entry.0 += 1;
        let resp = match out {
            Ok(r) => r,
            Err(e) => {
                entry.1 += 1;
                tally.mismatches.push(format!(
                    "{}: error instead of an answer: {e}\n  statement: {}",
                    stmt.class,
                    truncate(&stmt.text)
                ));
                return;
            }
        };
        let text = resp.to_string();
        if self.reference.get(&key) == Some(&text) {
            return;
        }
        match (stmt.check)(resp) {
            Ok(()) => {
                self.reference.insert(key, text);
            }
            Err(why) => tally.mismatches.push(format!(
                "{}: {why}\n  statement: {}",
                stmt.class,
                truncate(&stmt.text)
            )),
        }
    }
}

fn truncate(s: &str) -> String {
    if s.len() <= 200 {
        s.to_owned()
    } else {
        format!(
            "{}…",
            &s[..s.char_indices().nth(200).map_or(s.len(), |(i, _)| i)]
        )
    }
}

/// Run every session's script once, the sessions concurrently; returns
/// outcomes per session and the cycle's wall time in seconds.
pub fn cycle(sessions: &mut [Session], w: &Workload) -> (Vec<Vec<Outcome>>, f64) {
    let run = |s: &mut Session, script: &[Stmt]| -> Vec<Outcome> {
        script
            .iter()
            .map(|stmt| {
                let t0 = Instant::now();
                let result = s.execute(&stmt.text);
                Outcome {
                    ms: t0.elapsed().as_secs_f64() * 1e3,
                    result,
                }
            })
            .collect()
    };
    let t0 = Instant::now();
    let outs = if sessions.len() == 1 {
        vec![run(&mut sessions[0], &w.sessions[0])]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .zip(&w.sessions)
                .map(|(s, script)| scope.spawn(move || run(s, script)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect()
        })
    };
    (outs, t0.elapsed().as_secs_f64())
}

/// Judge a whole cycle's outcomes.
pub fn judge_cycle(w: &Workload, outs: &[Vec<Outcome>], v: &mut Verifier, tally: &mut Tally) {
    for (si, (script, outs)) in w.sessions.iter().zip(outs).enumerate() {
        for (k, (stmt, out)) in script.iter().zip(outs).enumerate() {
            v.judge((si, k), stmt, &out.result, tally);
        }
    }
}

/// A loaded server with its client sessions.
pub struct Loaded {
    /// The server, in its default configuration.
    pub server: Server,
    /// One session per script.
    pub sessions: Vec<Session>,
    /// Set-up responses, in order.
    pub setup_responses: Vec<Result<Response, ServerError>>,
}

/// Set up: start the server with `cfg`, load, open the sessions and run one warm-up
/// cycle. Returns the loaded server, the warm-up outcomes and the set-up
/// time in seconds (oracles excluded).
pub fn set_up(w: &Workload, cfg: &ServerConfig) -> (Loaded, Vec<Vec<Outcome>>, f64) {
    let t0 = Instant::now();
    let server = Server::new(cfg.clone());
    let mut loader = server.session();
    let setup_responses: Vec<_> = w.setup.iter().map(|s| loader.execute(&s.text)).collect();
    let mut sessions: Vec<Session> = std::iter::once(loader)
        .chain((1..w.sessions.len()).map(|_| server.session()))
        .collect();
    let (warm, _) = cycle(&mut sessions, w);
    let secs = t0.elapsed().as_secs_f64();
    (
        Loaded {
            server,
            sessions,
            setup_responses,
        },
        warm,
        secs,
    )
}

/// Judge set-up responses (keys after every script's own).
pub fn judge_setup(w: &Workload, l: &Loaded, v: &mut Verifier, tally: &mut Tally) {
    for (k, (stmt, out)) in w.setup.iter().zip(&l.setup_responses).enumerate() {
        v.judge((usize::MAX, k), stmt, out, tally);
    }
}

/// Nearest-rank percentile of unsorted samples (`p` in percent).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of `p` and the lower ladder percentiles that still has at
/// least ten samples beyond it.
pub fn tail_percentile(n: usize, p: f64) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&q| q <= p)
        .find(|&q| (n as f64) * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(tail_percentile(100_000, 99.9), 99.9);
        assert_eq!(tail_percentile(5_000, 99.9), 99.0);
        assert_eq!(tail_percentile(500, 99.0), 95.0);
        assert_eq!(tail_percentile(500, 95.0), 95.0);
        assert_eq!(tail_percentile(150, 95.0), 90.0);
    }
}
