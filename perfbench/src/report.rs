//! Metric records, correctness tallies, run context and the JSON result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one checked operation; `Err` marks it failed.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.fail(why);
        }
    }

    /// Marks an already-counted operation failed.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(why);
        }
    }
}

/// Runs `f`, turning a panic into an `Err` with its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The machine's CPU time so far, summed over its CPUs, in seconds:
/// `(busy, stolen)`. Busy is user, nice, system, irq and softirq time;
/// stolen is the time a CPU had work but the host ran another virtual
/// machine. Read from the `cpu` line of `/proc/stat` (`USER_HZ` ticks, 100
/// per second on Linux); zeros where it is absent.
pub fn host_cpu_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .map_while(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let at = |i: usize| ticks.get(i).copied().unwrap_or(0.0) / 100.0;
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Wall time since `start`, and the share of the machine's CPU demand the
/// host withheld over it.
pub struct Stopwatch {
    wall: Instant,
    cpu: (f64, f64),
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: host_cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Stolen time over stolen plus busy time since `start`, summed over
    /// the CPUs: a CPU accrues steal only while it has work, so a serial
    /// stretch on an otherwise idle machine and a stretch with every CPU
    /// busy both get the share their own CPUs lost. 0 with no steal.
    pub fn stolen_share(&self) -> f64 {
        let (busy, stolen) = host_cpu_s();
        let (busy, stolen) = (busy - self.cpu.0, stolen - self.cpu.1);
        if stolen > 0.0 {
            stolen / (stolen + busy)
        } else {
            0.0
        }
    }
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the figures were measured on and with.
pub struct Context {
    pub nproc: usize,
    pub pool: usize,
    pub simd: &'static str,
    pub commit: String,
    pub source_digest: String,
}

impl Context {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            pool: rayon::current_num_threads(),
            simd: comimo_math::simd::active().name(),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            source_digest: source_digest(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "context: nproc={} pool_width={} simd={} commit={} source_digest={}",
            self.nproc, self.pool, self.simd, self.commit, self.source_digest
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"pool_width\": {}, \"simd\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.nproc, self.pool, self.simd, self.commit, self.source_digest
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing outside the checkout).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.chars().take(12).collect());
    };
    let hash = std::fs::read_to_string(format!(".git/{refname}"))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(refname))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        })?;
    Some(hash.trim().chars().take(12).collect())
}

/// FNV-1a over the workspace sources the benchmark builds (manifests and
/// every file under `crates/` and `vendor/`, in path order): identifies
/// the measured code where no git metadata is present.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("vendor".as_ref(), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Formats an f64 for JSON; non-finite values have no JSON form.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        )
        .expect("writing to a String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    )
}
