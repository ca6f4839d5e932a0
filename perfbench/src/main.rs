//! The repository benchmark: four workloads over the public library API.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --self-test
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! emits the per-layer metrics and the tracing overhead. The last line of
//! standard output is the JSON result; the lines before it repeat every
//! figure by name, with its unit and the run context. See `README.md`.

mod chaos;
mod grid;
mod image;
mod lifetime;
mod report;
mod trace;

use report::{guarded, median, peak_rss_mb, result_json, Context, Metrics, Stopwatch, Tally};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The seed every figure in `README.md` was tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while the benchmark was written, for confirming a claim.
pub const HOLDOUT_SEED: u64 = 20_140_601;

/// Set-ups per end-to-end run: at least this many, and more until this
/// much wall time has passed; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

/// One workload, set up and ready to run closed-loop operations.
pub trait Workload {
    /// One closed-loop operation (operation index `k`), checked as it
    /// completes. Returns the work it completed, in the workload's unit.
    /// With `tr` enabled it records spans of the calls it makes.
    fn op(&mut self, k: u64, tr: &Tracer, tally: &mut Tally) -> f64;

    /// Checks that need the whole timed phase (run after it, untimed).
    fn verify(&mut self, tally: &mut Tally);

    /// Switches operations to the call-by-call form that the traced run
    /// records, so both halves of the tracing-overhead measurement run the
    /// same code. Most workloads have one form only.
    fn call_by_call(&mut self) {}

    /// Per-layer metrics: from the spans the traced operations recorded,
    /// plus probes that call single layers directly.
    fn layers(&mut self, tr: &Tracer, tally: &mut Tally, m: &mut Metrics);

    /// Deterministic counts of a fixed slice of the workload, for the
    /// self-test (two passes of one seed must agree exactly).
    fn counts(&mut self) -> Vec<(String, u64)>;
}

/// A workload's name, its throughput metric and its set-up.
struct Spec {
    name: &'static str,
    rate_name: &'static str,
    setup: fn(u64, usize) -> Box<dyn Workload>,
}

const SPECS: [Spec; 4] = [
    Spec {
        name: "chaos-explore",
        rate_name: "chaos_runs_per_s",
        setup: chaos::setup,
    },
    Spec {
        name: "ber-grid",
        rate_name: "ber_point_blocks_per_s",
        setup: grid::setup,
    },
    Spec {
        name: "underlay-image",
        rate_name: "image_packets_per_s",
        setup: image::setup,
    },
    Spec {
        name: "network-lifetime",
        rate_name: "lifetime_deployments_per_s",
        setup: lifetime::setup,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: perfbench --workload <{}|all> [--seed N (default {DEFAULT_SEED}, hold-out {HOLDOUT_SEED})] \
         [--seconds S] [--trace 0|1] [--self-test]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !SPECS.iter().any(|s| s.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Sets up a workload `reps` times, and again until `min_s` of wall time
/// has passed, returning the last set-up and the median unstolen time of a
/// set-up: its wall time less the host's share of steal over all the
/// set-ups (see [`Stopwatch::stolen_share`]). A set-up that panics is a
/// failed operation.
fn set_up(
    spec: &Spec,
    seed: u64,
    pool: usize,
    (reps, min_s): (usize, f64),
    tally: &mut Tally,
) -> Option<(Box<dyn Workload>, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    let all = Stopwatch::start();
    while times.len() < reps || all.wall_s() < min_s {
        let clock = Stopwatch::start();
        match guarded(|| (spec.setup)(seed, pool)) {
            Ok(w) => last = Some(w),
            Err(why) => {
                tally.check(Err(format!("{} set-up panicked: {why}", spec.name)));
                return None;
            }
        }
        times.push(clock.wall_s());
    }
    let unstolen = 1.0 - all.stolen_share();
    Some((
        last.expect("at least one set-up"),
        median(&times) * unstolen,
    ))
}

/// What a timed phase completed, over how long, and the share of that
/// time the host stole.
struct Phase {
    work: f64,
    wall_s: f64,
    stolen: f64,
}

impl Phase {
    /// Work completed per second of the phase's unstolen wall time: idle
    /// pool threads and lock waits count against the workload, the time
    /// the host gave to other virtual machines does not.
    fn rate(&self) -> f64 {
        self.work / (self.wall_s * (1.0 - self.stolen))
    }
}

/// Runs operations closed-loop (the next starts when the previous ends)
/// until `budget` of wall time has elapsed, at least one. Each is guarded
/// so a panic counts as one failed operation.
fn run_ops(w: &mut dyn Workload, tr: &Tracer, budget: Duration, tally: &mut Tally) -> Phase {
    let mut work = 0.0;
    let clock = Stopwatch::start();
    for k in 0.. {
        if k > 0 && clock.wall_s() >= budget.as_secs_f64() {
            break;
        }
        match guarded(|| w.op(k, tr, tally)) {
            Ok(done) => work += done,
            Err(why) => tally.check(Err(format!("operation {k} panicked: {why}"))),
        }
    }
    Phase {
        work,
        wall_s: clock.wall_s(),
        stolen: clock.stolen_share(),
    }
}

/// The end-to-end run: set-up, then the untraced timed phase.
fn end_to_end(spec: &Spec, args: &Args, pool: usize, tally: &mut Tally, m: &mut Metrics) {
    let Some((mut w, setup_s)) = set_up(spec, args.seed, pool, (SETUP_REPS, SETUP_MIN_S), tally)
    else {
        return;
    };
    let off = Tracer::new(false);
    let phase = run_ops(
        w.as_mut(),
        &off,
        Duration::from_secs_f64(args.seconds),
        tally,
    );
    if let Err(why) = guarded(|| w.verify(tally)) {
        tally.check(Err(format!("verification panicked: {why}")));
    }
    let rate = phase.rate();
    m.put("throughput_per_s", rate, "1/s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "{}: {} = {:.6} 1/s on {pool} pool threads over {:.3} s of wall time, {:.1}% of it stolen \
         by the host ({:.6} 1/s of plain wall time)",
        spec.name,
        spec.rate_name,
        rate,
        phase.wall_s,
        phase.stolen * 100.0,
        phase.work / phase.wall_s,
    );
}

/// The traced run. The named workload runs its closed loop untraced and
/// then traced for half the budget each (their ratio is the tracing
/// overhead) and its per-layer metrics come from those spans; the other
/// workloads run one traced operation each, so every per-layer metric is
/// emitted on every traced run.
fn traced(
    spec: &Spec,
    args: &Args,
    pool: usize,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Vec<trace::Span> {
    let mut spans = Vec::new();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    for other in SPECS.iter() {
        let primary = other.name == spec.name;
        let Some((mut w, _)) = set_up(other, args.seed, pool, (1, 0.0), tally) else {
            continue;
        };
        w.call_by_call();
        let tr = Tracer::new(true);
        if primary {
            let rate_off = run_ops(w.as_mut(), &Tracer::new(false), half, tally).rate();
            let rate_on = run_ops(w.as_mut(), &tr, half, tally).rate();
            m.put(
                "trace.overhead_pct",
                (1.0 - rate_on / rate_off) * 100.0,
                "%",
            );
            println!(
                "{}: tracing overhead: untraced {rate_off:.6} 1/s, traced {rate_on:.6} 1/s",
                spec.name
            );
        } else {
            run_ops(w.as_mut(), &tr, Duration::ZERO, tally);
        }
        if let Err(why) = guarded(|| {
            w.verify(tally);
            w.layers(&tr, tally, m);
        }) {
            tally.check(Err(format!("{} layer pass panicked: {why}", other.name)));
        }
        spans.extend(tr.spans());
    }
    spans
}

/// Two passes of one seed must produce identical counts.
fn self_test(spec: &Spec, args: &Args, pool: usize, tally: &mut Tally) {
    let pass = |tally: &mut Tally| {
        guarded(|| (spec.setup)(args.seed, pool).counts()).unwrap_or_else(|why| {
            tally.check(Err(format!("{} count pass panicked: {why}", spec.name)));
            Vec::new()
        })
    };
    let (a, b) = (pass(tally), pass(tally));
    for (x, y) in a.iter().zip(&b) {
        println!("{}: count {} = {} / {}", spec.name, x.0, x.1, y.1);
        tally.check(if x == y {
            Ok(())
        } else {
            Err(format!(
                "{}: {} differs across passes: {} vs {}",
                spec.name, x.0, x.1, y.1
            ))
        });
    }
    tally.check(if a.len() == b.len() && !a.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: count lists differ in length", spec.name))
    });
}

/// Writes the traced run's spans, with the run context, to `perfbench/out/`.
fn write_trace(ctx: &Context, args: &Args, spans: &[trace::Span]) -> std::io::Result<String> {
    use std::io::Write;
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"context\": {}, \"spans\": [", ctx.json())?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()?;
    Ok(path.display().to_string())
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for spec in SPECS.iter() {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        if args.self_test {
            cmd.arg("--self-test");
        } else {
            cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        }
        let status = cmd.status().expect("spawning a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // at most nproc pool threads; the vendored pool reads this once
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map_or(nproc, |n| n.min(nproc));
    std::env::set_var("RAYON_NUM_THREADS", width.to_string());
    let ctx = Context::detect();
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .expect("validated by parse_args");
    println!("{}", ctx.line());

    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if args.self_test {
        self_test(spec, &args, ctx.pool, &mut tally);
    } else if args.trace {
        let spans = traced(spec, &args, ctx.pool, &mut tally, &mut m);
        for (name, (n, total, own)) in trace::self_times(&spans) {
            println!(
                "span {name}: n={n} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        match write_trace(&ctx, &args, &spans) {
            Ok(path) => println!("trace written to {path}"),
            Err(e) => tally.check(Err(format!("writing the trace: {e}"))),
        }
    } else {
        end_to_end(spec, &args, ctx.pool, &mut tally, &mut m);
    }

    for (name, value, unit) in &m.0 {
        println!("{}: {name} = {value} {unit}", spec.name);
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{}: failed_frac = {failed_frac} ({} of {} operations)",
        spec.name, tally.failed, tally.attempted
    );
    for why in &tally.reasons {
        eprintln!("FAILED: {why}");
    }
    println!("{}", result_json(&tally, &m));
    if tally.failed == 0 && tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
