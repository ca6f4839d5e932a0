//! Times RC-C2 beamformer pairing (`core::cluster_beam`) of a K = 256
//! interweave cluster against the pinned O(K²) exhaustive oracle:
//!
//! * `rc2` — [`ClusterBeamformer::pair_up`], the greedy nearest-pair
//!   selection run through a per-cluster spatial grid, O(K) expected;
//! * `exhaustive` — [`ClusterBeamformer::pair_up_exhaustive`], the same
//!   selection by a full scan per anchor.
//!
//! Their pair lists are asserted identical before anything is timed,
//! and the ratio of the two is the hardware-independent speedup the
//! absolute gate defends.
//!
//! Each engine is timed over **5 runs** (median reported, min/max
//! recorded, determinism across repeats asserted), and a trajectory
//! entry is **appended** to `BENCH_net.json` with the git commit, so the
//! file accumulates a perf history instead of overwriting it —
//! `mcperf`/`BENCH_mc.json` style.
//!
//! Usage:
//! `cargo run --release -p comimo-bench --bin netperf [-- [--gate]]`
//!
//! With `--gate` the run fails when the RC-C2/exhaustive pairing speedup
//! falls under the **absolute floor** [`RC2_GATE_FLOOR`] — losing it
//! means the heuristic degenerated back into a scan, on any hardware.

use std::time::Instant;

use comimo_bench::EXPERIMENT_SEED;
use comimo_channel::geometry::Point;
use comimo_core::cluster_beam::ClusterBeamformer;
use comimo_math::rng::derive;
use rand::Rng;
use serde::{Serialize, Value};

/// Timing repeats per engine; the median is reported, min/max recorded.
const RUNS: usize = 5;

/// Absolute `--gate` floor on the RC-C2 pairing speedup over the
/// exhaustive oracle at K = 256. The heuristic scans O(K) expected
/// against the oracle's O(K²); falling under this floor means the grid
/// path degenerated, not that the runner was slow.
const RC2_GATE_FLOOR: f64 = 1.5;

/// Elements of the RC-C2 benchmark cluster (the "100+-element" regime
/// where the O(K²) scan visibly loses to the grid heuristic).
const RC2_CLUSTER_K: usize = 256;

/// RC-C2 pairing repetitions per timed run.
const RC2_REPS: usize = 200;

/// One timed engine configuration.
#[derive(Debug, Clone, Serialize)]
struct EngineRow {
    /// `"rc2"` or `"exhaustive"`.
    engine: String,
    /// Threads the engine ran on (both engines are serial).
    threads: usize,
    /// Median wall-clock seconds over [`RUNS`] repeats.
    seconds: f64,
    /// Timing repeats behind the median.
    runs: usize,
    /// Pairings per second at the median time.
    ops_per_sec: f64,
    /// Worst ops-per-second across the repeats.
    ops_per_sec_min: f64,
    /// Best ops-per-second across the repeats.
    ops_per_sec_max: f64,
}

/// One appended trajectory entry of `BENCH_net.json`.
#[derive(Debug, Clone, Serialize)]
struct NetEntry {
    /// `git rev-parse --short HEAD` at measurement time (`"unknown"`
    /// outside a work tree).
    commit: String,
    /// Unix timestamp (seconds) of the run.
    unix_time: u64,
    /// Seed of the run (the cluster layout is a pure function of it).
    seed: u64,
    /// Elements of the paired cluster.
    cluster_k: usize,
    /// RC-C2 pairing speedup over the exhaustive oracle at K = 256 —
    /// the hardware-independent ratio the absolute floor defends.
    speedup_rc2_over_exhaustive: f64,
    /// Timed rows.
    engines: Vec<EngineRow>,
}

/// Times `f` [`RUNS`] times, asserts every repeat returns identical
/// results, and returns the ascending times with the result.
fn bench<R: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut times = Vec::with_capacity(RUNS);
    let mut result: Option<R> = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        match &result {
            None => result = Some(r),
            Some(prev) => assert_eq!(*prev, r, "engine is not deterministic across repeats"),
        }
    }
    // total_cmp: a NaN timing (impossible, but cheap to be total about)
    // sorts instead of panicking mid-benchmark
    times.sort_by(f64::total_cmp);
    (times, result.unwrap())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reads the existing trajectory (`{"entries": [...]}`), tolerating a
/// missing file.
fn read_entries(path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    match doc.field("entries") {
        Ok(Value::Seq(list)) => list.clone(),
        _ => Vec::new(),
    }
}

/// Prints usage and exits non-zero — a bad invocation must never reach
/// (let alone corrupt) the committed perf trajectory.
fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: netperf [--gate]");
    eprintln!(
        "  --gate    fail if the RC-C2/exhaustive pairing speedup fell below {RC2_GATE_FLOOR:.1}x"
    );
    std::process::exit(2);
}

fn main() {
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        if arg == "--gate" {
            gate = true;
        } else if arg.parse::<usize>().is_ok() {
            // a bare count (the old `n_nodes` argument) is accepted and
            // ignored so existing `netperf <n> --gate` invocations run
            eprintln!("note: ignoring n_nodes {arg}: netperf times RC-C2 pairing only");
        } else {
            usage(&format!("unknown argument {arg:?}"));
        }
    }
    let seed = EXPERIMENT_SEED;
    let path = "BENCH_net.json";

    let cluster: Vec<Point> = {
        let mut rng = derive(seed, 0x9C2);
        (0..RC2_CLUSTER_K)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    };
    let wavelength = 0.1199;
    {
        let fast = ClusterBeamformer::pair_up(&cluster, wavelength);
        let slow = ClusterBeamformer::pair_up_exhaustive(&cluster, wavelength);
        assert_eq!(
            fast.pairs(),
            slow.pairs(),
            "RC-C2 diverged from the exhaustive oracle"
        );
    }
    let (t_rc2, rc2_virtual) = bench(|| {
        let mut acc = 0usize;
        for _ in 0..RC2_REPS {
            acc += ClusterBeamformer::pair_up(&cluster, wavelength).n_virtual_antennas();
        }
        acc
    });
    let (t_exh, exh_virtual) = bench(|| {
        let mut acc = 0usize;
        for _ in 0..RC2_REPS {
            acc += ClusterBeamformer::pair_up_exhaustive(&cluster, wavelength).n_virtual_antennas();
        }
        acc
    });
    assert_eq!(rc2_virtual, exh_virtual);

    let median = |times: &[f64]| times[RUNS / 2];
    let speedup_rc2 = median(&t_exh) / median(&t_rc2);
    let row = |engine: &str, times: &[f64]| EngineRow {
        engine: engine.into(),
        threads: 1,
        seconds: median(times),
        runs: RUNS,
        ops_per_sec: RC2_REPS as f64 / median(times),
        ops_per_sec_min: RC2_REPS as f64 / times[times.len() - 1],
        ops_per_sec_max: RC2_REPS as f64 / times[0],
    };
    let entry = NetEntry {
        commit: git_commit(),
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        seed,
        cluster_k: RC2_CLUSTER_K,
        speedup_rc2_over_exhaustive: speedup_rc2,
        engines: vec![row("rc2", &t_rc2), row("exhaustive", &t_exh)],
    };

    let json = match serde_json::to_string_pretty(&entry) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: could not serialise the trajectory entry: {e}");
            std::process::exit(1);
        }
    };
    println!("{json}");
    println!(
        "rc2 {:.4}s vs exhaustive {:.4}s ({speedup_rc2:.2}x) at K={RC2_CLUSTER_K}",
        median(&t_rc2),
        median(&t_exh),
    );

    let mut entries = read_entries(path);
    entries.push(entry.to_value());
    let doc = Value::Map(vec![("entries".to_string(), Value::Seq(entries))]);
    let doc_json = match serde_json::to_string_pretty(&doc) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: could not serialise {path}: {e}");
            std::process::exit(1);
        }
    };
    // atomic commit (temp + rename): a crash mid-write can truncate only
    // the temp file, never the committed trajectory
    let tmp = format!("{path}.tmp");
    if let Err(e) = std::fs::write(&tmp, doc_json).and_then(|()| std::fs::rename(&tmp, path)) {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }

    if gate {
        if speedup_rc2 < RC2_GATE_FLOOR {
            eprintln!(
                "PERF GATE FAILED: RC-C2/exhaustive speedup {speedup_rc2:.2}x fell below the \
                 absolute floor {RC2_GATE_FLOOR:.1}x"
            );
            std::process::exit(1);
        }
        println!(
            "perf gate OK: RC-C2/exhaustive speedup {speedup_rc2:.2}x >= absolute floor \
             {RC2_GATE_FLOOR:.1}x"
        );
    }
}
