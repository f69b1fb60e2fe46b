//! `e2ebench`: the end-to-end and per-layer benchmark of constraintdb.
//!
//! ```text
//! e2ebench --workload <alibi_serve|curved_regions|view_churn> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Statements go through `cdb_server::Session::execute` on a server in its
//! default configuration. Every answer is checked by an oracle kept apart
//! from the program. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. The exit code is nonzero on any oracle mismatch.
//!
//! `--batching 0` turns batched admission off, for reference figures only.
//! `--setup-only 1` is how a timed run starts its cold set-ups in child
//! processes: it sets up once and prints the set-up time and operations.

mod alibi;
mod answer;
mod churn;
mod curved;
mod exact;
mod rng;
mod run;
mod trace;
mod workload;

use cdb_server::ServerConfig;
use run::{Tally, Verifier};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Kind, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    batching: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut batching, mut setup_only) = (true, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--batching" => batching = value != "0",
            "--setup-only" => setup_only = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        batching,
        setup_only,
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run reports.
pub struct Report {
    /// Operation accounting and oracle mismatches.
    pub tally: Tally,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Further human-readable lines.
    pub notes: Vec<String>,
}

/// Set up once and judge the set-up and warm-up responses.
fn fresh(
    w: &Workload,
    cfg: &ServerConfig,
    setup_secs: &mut Vec<f64>,
    v: &mut Verifier,
    tally: &mut Tally,
) -> run::Loaded {
    let (l, warm, secs) = run::set_up(w, cfg);
    setup_secs.push(secs);
    run::judge_setup(w, &l, v, tally);
    run::judge_cycle(w, &warm, v, tally);
    l
}

/// One cold set-up in a child process: this program with `--setup-only 1`.
/// Returns the child's set-up time in seconds; its operations go into
/// `tally`, and a child that fails or finds a mismatch is a mismatch.
fn child_setup(w: &Workload, args: &Args, tally: &mut Tally) -> Option<f64> {
    let run = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", "0", "--trace", "0", "--setup-only", "1"])
            .args(["--batching", if args.batching { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
    });
    let out = match run {
        Ok(out) if out.status.success() => out,
        Ok(out) => {
            tally
                .mismatches
                .push(format!("set-up child process: {}", out.status));
            return None;
        }
        Err(e) => {
            tally.mismatches.push(format!("set-up child process: {e}"));
            return None;
        }
    };
    let classes: Vec<&'static str> = w
        .setup
        .iter()
        .chain(w.sessions.iter().flatten())
        .map(|s| s.class)
        .collect();
    let mut secs = None;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["setup_secs", v] => secs = v.parse::<f64>().ok(),
            ["ops", class, a, n] => {
                let found = classes.iter().find(|c| *c == class);
                match (found, a.parse::<u64>(), n.parse::<u64>()) {
                    (Some(class), Ok(a), Ok(n)) => {
                        let e = tally.classes.entry(class).or_default();
                        e.0 += a;
                        e.1 += n;
                    }
                    _ => tally
                        .mismatches
                        .push(format!("set-up child process printed `{line}`")),
                }
            }
            _ => {}
        }
    }
    if secs.is_none() {
        tally
            .mismatches
            .push("set-up child process printed no set-up time".to_owned());
    }
    secs
}

/// `--setup-only 1`: set up once, judge it and print the set-up time and
/// the operations for `child_setup`. Mismatches go to standard error.
fn setup_only(w: &Workload, cfg: &ServerConfig) -> ExitCode {
    let mut tally = Tally::default();
    let mut v = Verifier::default();
    let mut secs = Vec::new();
    drop(fresh(w, cfg, &mut secs, &mut v, &mut tally));
    println!("setup_secs {}", secs[0]);
    for (class, (attempted, failed)) in &tally.classes {
        println!("ops {class} {attempted} {failed}");
    }
    for m in &tally.mismatches {
        eprintln!("oracle mismatch: {m}");
    }
    if tally.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The timed run: whole cycles for `seconds` of wall time, not counting
/// set-ups. `setup_s` is the median of `w.setup_reps` set-ups. The first
/// one, in this process, sets up the serving server. The others run in
/// child processes, one after each `seconds / setup_reps` of cycles, so
/// that the set-up samples span the run as the latency samples do. Every
/// set-up is cold: a fresh process has an empty interner and zeroed
/// process-global counters, and the serving process's memory is not
/// disturbed.
fn timed(w: &Workload, cfg: &ServerConfig, args: &Args) -> Report {
    let mut tally = Tally::default();
    let mut v = Verifier::default();
    let mut setup_secs = Vec::new();
    let mut l = fresh(w, cfg, &mut setup_secs, &mut v, &mut tally);
    let before = l.server.stats();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut busy, mut cycles, mut rates) = (0.0, 0usize, Vec::new());
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut setups, mut setup_wall) = (1usize, 0.0);
    let start = Instant::now();
    loop {
        let (outs, secs) = run::cycle(&mut l.sessions, w);
        busy += secs;
        cycles += 1;
        rates.push(w.cycle_len() as f64 / secs);
        for (script, o) in w.sessions.iter().zip(&outs) {
            // An errored statement is a mismatch (see `Verifier::judge`);
            // its latency is not a sample.
            for (st, o) in script.iter().zip(o).filter(|(_, o)| o.result.is_ok()) {
                by_class.entry(st.class).or_default().push(o.ms);
                match st.kind {
                    Kind::Read => reads.push(o.ms),
                    Kind::Write => writes.push(o.ms),
                }
            }
        }
        run::judge_cycle(w, &outs, &mut v, &mut tally);
        let elapsed = start.elapsed().as_secs_f64() - setup_wall;
        if setups < w.setup_reps && elapsed >= args.seconds * setups as f64 / w.setup_reps as f64 {
            let t0 = Instant::now();
            setup_secs.extend(child_setup(w, args, &mut tally));
            setups += 1;
            setup_wall += t0.elapsed().as_secs_f64();
        } else if elapsed >= args.seconds && setups == w.setup_reps {
            break;
        }
    }
    let after = l.server.stats();
    let batches = after.batches - before.batches;
    let batched_reads = after.batched_reads - before.batched_reads;
    let statements = cycles * w.cycle_len();
    let (nr, nw) = (reads.len(), writes.len());
    let read_pct = run::tail_percentile(nr, w.read_tail_pct);
    let write_pct = run::tail_percentile(nw, 95.0);
    let mut notes = vec![
        format!(
            "timed: {cycles} cycles, {statements} statements in {busy:.3} s of cycles ({:.3} stmt/s overall)",
            statements as f64 / busy
        ),
        format!(
            "read latency: p50 over {nr} samples; tail = p{read_pct} ({} samples beyond)",
            nr - (nr as f64 * read_pct / 100.0).ceil() as usize
        ),
        format!(
            "admission: {batched_reads} batched reads in {batches} batches (mean batch {:.3})",
            batched_reads as f64 / batches.max(1) as f64
        ),
        format!("setup_s samples: {setup_secs:?}"),
    ];
    for (class, ms) in &by_class {
        notes.push(format!(
            "class {class}: {} statements, median {:.4} ms",
            ms.len(),
            run::median(ms)
        ));
    }
    if nw > 0 {
        let w50 = run::percentile(&writes, 50.0);
        let wt = run::percentile(&writes, write_pct);
        notes.push(format!(
            "write latency over {nw} samples: write_p50_ms = {w50}, write_tail_ms = {wt} (p{write_pct})"
        ));
    }
    let metrics = vec![
        ("throughput_stmt_s", run::median(&rates), "stmt/s"),
        ("read_p50_ms", run::percentile(&reads, 50.0), "ms"),
        ("read_tail_ms", run::percentile(&reads, read_pct), "ms"),
        ("peak_rss_mb", run::peak_rss_mb(), "MB"),
        ("setup_s", run::median(&setup_secs), "s"),
    ];
    Report {
        tally,
        metrics,
        notes,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <alibi_serve|curved_regions|view_churn> --seed <n> --seconds <s> --trace <0|1> [--batching <0|1>] [--setup-only <0|1>]");
            return ExitCode::from(2);
        }
    };
    let w = match args.workload.as_str() {
        "alibi_serve" => alibi::workload(args.seed),
        "curved_regions" => curved::workload(args.seed),
        "view_churn" => churn::workload(args.seed),
        other => {
            eprintln!("e2ebench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    // The benchmark's figures use the default configuration; `--batching 0`
    // exists for reference figures only.
    let cfg = ServerConfig {
        batching: args.batching,
        ..ServerConfig::default()
    };
    if args.setup_only {
        return setup_only(&w, &cfg);
    }
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} hardware_threads={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "# server: workers={} max_batch={} batching={}; sessions={}; statements per cycle={}; set-ups per timed run={}",
        cfg.workers,
        cfg.max_batch,
        cfg.batching,
        w.sessions.len(),
        w.cycle_len(),
        w.setup_reps
    );
    for (k, v) in &w.inputs {
        println!("# input {k} = {v}");
    }
    let report = if args.trace {
        trace::run(&w, &cfg, args.seconds)
    } else {
        timed(&w, &cfg, &args)
    };
    for n in &report.notes {
        println!("# {n}");
    }
    for (class, (attempted, failed)) in &report.tally.classes {
        println!(
            "# ops {}/{class}: attempted {attempted}, failed {failed}",
            w.name
        );
    }
    for m in &report.tally.mismatches {
        eprintln!("oracle mismatch: {m}");
    }
    let correct = report.tally.mismatches.is_empty();
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.tally.attempted(),
        report.tally.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
