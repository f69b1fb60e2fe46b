//! What a workload is: set-up statements, then one fixed statement script
//! per client session, replayed in whole cycles. Every statement carries
//! the oracle that judges its response.

use cdb_server::Response;

/// Read (`SELECT`) or write (`INSERT`/`DELETE`) — latencies are reported
/// per kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Answered through admission from the session's snapshot.
    Read,
    /// Applied to the master through the update path.
    Write,
}

/// Judges one response; `Err` carries what was wrong.
pub type Check = Box<dyn Fn(&Response) -> Result<(), String> + Send + Sync>;

/// One statement with its oracle.
pub struct Stmt {
    /// Statement text as sent to `Session::execute`.
    pub text: String,
    /// Read or write.
    pub kind: Kind,
    /// Statement class, for failure accounting.
    pub class: &'static str,
    /// The oracle.
    pub check: Check,
}

impl Stmt {
    /// A statement judged by `check`.
    pub fn new(
        text: String,
        kind: Kind,
        class: &'static str,
        check: impl Fn(&Response) -> Result<(), String> + Send + Sync + 'static,
    ) -> Stmt {
        Stmt {
            text,
            kind,
            class,
            check: Box::new(check),
        }
    }

    /// A `SELECT` whose answer text is judged by `check`.
    pub fn select(
        text: String,
        class: &'static str,
        check: impl Fn(&str) -> Result<(), String> + Send + Sync + 'static,
    ) -> Stmt {
        Stmt::new(text, Kind::Read, class, move |r| {
            check(crate::answer::rows_text(r)?)
        })
    }

    /// A set-up statement that must answer with exactly `expected`.
    pub fn expect(text: String, class: &'static str, expected: &'static str) -> Stmt {
        Stmt::new(text, Kind::Write, class, move |r| {
            let got = r.to_string();
            if got.starts_with(expected) {
                Ok(())
            } else {
                Err(format!("expected `{expected}…`, got `{got}`"))
            }
        })
    }
}

/// A workload instance for one seed.
pub struct Workload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Loading statements, run once per set-up on one session.
    pub setup: Vec<Stmt>,
    /// One script per client session; a cycle runs every script once,
    /// the sessions concurrently.
    pub sessions: Vec<Vec<Stmt>>,
    /// Percentile reported as `read_tail_ms` (the highest percentile with
    /// at least ten samples beyond it at this workload's sample count).
    pub read_tail_pct: f64,
    /// Set-ups per timed run (odd, so that their median is one of them);
    /// more for a workload whose set-up is short and so noisier.
    pub setup_reps: usize,
    /// Make-up of the generated inputs, printed in the run header.
    pub inputs: Vec<(&'static str, String)>,
}

impl Workload {
    /// Statements per cycle, all sessions together.
    pub fn cycle_len(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }
}
