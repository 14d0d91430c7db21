//! End-to-end and per-layer benchmark of the indoor-semantics engine.
//!
//! ```text
//! perfbench --workload <bulk_vita|query_day|serve_mall> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny] [--out <dir>]
//! ```
//!
//! Every run prints a header (host, commit, seed), a readable report, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the workload runs once untraced and once traced, and the
//! metrics are the per-layer ones, with the spans written to
//! `<out>/trace-<workload>-seed<seed>.tsv`. An untraced run sets up
//! [`SETUP_REPS`] times and reports the median as `setup_s`; a traced run,
//! which does not report `setup_s`, sets up once per pass. A failed
//! operation or output check makes the run exit with code 1.

use perfbench::harness::{self, peak_rss_mb, Ctx};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use perfbench::{bulk, day, serve, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups of an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20,
        trace: false,
        tiny: false,
        out: PathBuf::from(".perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--scale" => match value.as_str() {
                "full" => args.tiny = false,
                "tiny" => args.tiny = true,
                other => return Err(format!("--scale {other}: expected full or tiny")),
            },
            "--out" => args.out = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git commit, or `unknown` outside a git checkout. The
/// search stops at the working directory, so a repository around the
/// checkout is never read.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn run_workload(ctx: &mut Ctx<'_>, workload: &str) -> Result<(), String> {
    match workload {
        "bulk_vita" => bulk::run(ctx),
        "query_day" => day::run(ctx),
        _ => serve::run(ctx),
    }
}

/// What the result line reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: harness::Metrics,
    notes: Vec<String>,
}

/// Runs one pass; an aborted pass counts one more failed operation.
fn pass(ctx: &mut Ctx<'_>, workload: &str) {
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_workload(ctx, workload)));
    match result {
        Ok(Ok(())) => {}
        Ok(Err(e)) => ctx.checks.fail(format!("aborted: {e}")),
        Err(_) => ctx.checks.fail("aborted: panic".into()),
    }
}

/// Time-like end-to-end metrics, oriented so that larger is slower.
fn slowdown(traced: f64, untraced: f64, name: &str) -> f64 {
    if name == "queries_per_s" {
        untraced / traced
    } else {
        traced / untraced
    }
}

fn run(args: &Args, started: Instant, work_dir: PathBuf) -> Outcome {
    let off = Tracer::new(false);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut untraced = Ctx::new(
        args.seed,
        args.seconds,
        args.tiny,
        reps,
        started,
        &off,
        work_dir.clone(),
    );
    println!("pass: untraced");
    pass(&mut untraced, &args.workload);
    untraced
        .e2e
        .set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    if !args.trace {
        return Outcome {
            attempted: untraced.checks.attempted,
            failed: untraced.checks.failed,
            metrics: untraced.e2e,
            notes: untraced.checks.notes,
        };
    }
    let on = Tracer::new(true);
    let mut traced = Ctx::new(
        args.seed,
        args.seconds,
        args.tiny,
        1,
        Instant::now(),
        &on,
        work_dir,
    );
    println!("pass: traced");
    pass(&mut traced, &args.workload);
    println!("trace overhead (traced / untraced, larger is slower):");
    let mut ratios = Vec::new();
    for (name, value, _) in untraced.e2e.iter() {
        if matches!(name, "setup_s" | "peak_rss_mb") {
            continue;
        }
        let t = traced.e2e.get(name).unwrap_or(f64::NAN);
        let r = slowdown(t, value, name);
        println!("  {name}: {r:.4}");
        ratios.push(r);
    }
    traced.layer.set("trace.overhead_ratio", median(&ratios));
    println!("layer self time (spans: count, total s, self s):");
    for (name, t) in on.layer_times() {
        println!(
            "  {name:<28} {:>8} {:>10.4} {:>10.4}",
            t.count, t.total_s, t.self_s
        );
    }
    let path = args
        .out
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    match on.write_tsv(&path) {
        Ok(n) => println!("spans: {n} written to {}", path.display()),
        Err(e) => traced.checks.fail(format!("writing spans: {e}")),
    }
    let mut notes = untraced.checks.notes;
    notes.extend(traced.checks.notes);
    Outcome {
        attempted: untraced.checks.attempted + traced.checks.attempted,
        failed: untraced.checks.failed + traced.checks.failed,
        metrics: traced.layer,
        notes,
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} scale={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!(
        "host: nproc={nproc} cpu=\"{}\" commit={}",
        cpu_model(),
        git_commit()
    );
    let work_dir = args
        .out
        .join(format!("work-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, started, work_dir.clone());
    // The snapshots are large; only the span file stays.
    let _ = std::fs::remove_dir_all(&work_dir);

    println!("metrics:");
    let mut finite = true;
    for (name, value, unit) in outcome.metrics.iter() {
        println!("  {name:<32} {value:>16.6} {unit}");
        finite &= value.is_finite();
    }
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_ratio = {ratio} ({} of {} operations)",
        outcome.failed, outcome.attempted
    );
    for note in &outcome.notes {
        println!("FAILED: {note}");
    }
    if !finite {
        println!("FAILED: a metric was not measured");
    }
    let correct = outcome.failed == 0 && finite;
    let metrics = if finite {
        outcome.metrics.json()
    } else {
        "{}".to_string()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1),
        outcome.failed + u64::from(!finite)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
