//! The campaign supervisor: executes a deterministic shard plan under
//! panic isolation, bounded retries, periodic atomic checkpoints and
//! graceful-stop handling.
//!
//! # Execution model
//!
//! The pending shards (everything the checkpoint does not already mark
//! done or quarantined) are processed in *chunks* of
//! [`CampaignConfig::checkpoint_every_shards`]. Within a chunk, shards
//! run on the rayon pool (serially with [`CampaignConfig::serial`] or
//! `RAYON_NUM_THREADS=1`); each shard execution is wrapped in
//! `catch_unwind`, retried with bounded exponential backoff on panic,
//! and quarantined after [`CampaignConfig::max_attempts`] failures —
//! the sweep keeps going instead of aborting. After every chunk the
//! merged state is committed atomically to the checkpoint file, and the
//! stop conditions (stop flag, wall-clock budget) are polled; a stop
//! returns a partial result with a Wilson interval plus a resumable
//! checkpoint.
//!
//! # Determinism
//!
//! Each shard's counts are a pure function of `(seed, shard label)` —
//! callers must draw from `derive(seed, label)` inside the shard — and
//! counts merge by addition. Completion order therefore never matters:
//! a campaign killed at any point and resumed from its checkpoint, at
//! any thread count, merges to counts bit-identical to an uninterrupted
//! run.

use crate::checkpoint::{self, Checkpoint, LoadError, Quarantined};
use comimo_faults::CampaignFaultPlan;
use comimo_stbc::sim::BerResult;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Everything the supervisor needs to run (and re-run) a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Simulation seed; shard `label` must draw from
    /// `derive(seed, label)` so resume and thread count cannot change
    /// the result.
    pub seed: u64,
    /// Fingerprint of the campaign parameters (see
    /// [`crate::fingerprint64`]). A checkpoint with a different
    /// fingerprint, seed or shard count is rejected at resume.
    pub fingerprint: u64,
    /// Attempts per shard before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based): `backoff_base · 2^(k−1)`,
    /// capped at [`backoff_cap`](Self::backoff_cap).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load an existing checkpoint instead of starting fresh.
    pub resume: bool,
    /// Shards per chunk — a checkpoint is committed after every chunk.
    pub checkpoint_every_shards: usize,
    /// Retries for a failed checkpoint write before giving up on *that
    /// write* (the campaign itself continues either way).
    pub io_retries: u32,
    /// Graceful-stop budget: the campaign stops at the next chunk
    /// boundary once this much wall clock has elapsed.
    pub wall_clock_budget: Option<Duration>,
    /// Cooperative stop flag (e.g. from [`crate::install_sigint_stop`]),
    /// polled at chunk boundaries.
    pub stop: Option<Arc<AtomicBool>>,
    /// Force serial chunk execution on the calling thread (the two modes
    /// are bit-identical; this exists so tests can prove it).
    pub serial: bool,
    /// Deterministic fault injection (disabled by default).
    pub faults: CampaignFaultPlan,
}

impl CampaignConfig {
    /// Sensible defaults: 3 attempts, 10 ms base backoff capped at 1 s,
    /// checkpoint every 64 shards, no checkpoint file, no stop sources.
    pub fn new(seed: u64, fingerprint: u64) -> Self {
        Self {
            seed,
            fingerprint,
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            checkpoint: None,
            resume: false,
            checkpoint_every_shards: 64,
            io_retries: 3,
            wall_clock_budget: None,
            stop: None,
            serial: false,
            faults: CampaignFaultPlan::disabled(),
        }
    }
}

/// How a campaign run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Every shard is done or quarantined.
    Complete,
    /// Stopped gracefully (stop flag or wall budget); the checkpoint is
    /// resumable and [`CampaignReport::counts`] is the partial merge.
    Stopped,
}

/// The supervisor's account of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Complete or gracefully stopped.
    pub status: CampaignStatus,
    /// Merged counts over every completed shard (partial when stopped,
    /// excludes quarantined shards), summed across streams. For a
    /// single-stream campaign this is *the* result; for a grid campaign
    /// prefer [`CampaignReport::stream_counts`].
    pub counts: BerResult,
    /// Merged counts per stream (one entry per grid configuration for a
    /// grid campaign; a single entry equal to
    /// [`CampaignReport::counts`] otherwise).
    pub stream_counts: Vec<BerResult>,
    /// Shards in the plan.
    pub total_shards: u64,
    /// Shards whose counts are merged.
    pub completed_shards: u64,
    /// Shards abandoned after bounded retries — reported, not fatal.
    pub quarantined: Vec<Quarantined>,
    /// Shards that panicked at least once but succeeded on retry.
    pub retried_ok: u64,
    /// Checkpoint writes that failed even after retries (campaign
    /// continued; the previous committed snapshot stayed intact).
    pub checkpoint_failures: u64,
    /// Shards already done when this run started (0 for a fresh start).
    pub resumed_shards: u64,
    /// A corrupt checkpoint (truncated / bit-flipped / stale version)
    /// was detected at resume and discarded; the campaign restarted
    /// from scratch, which is sound because shard results are pure
    /// functions of the seed.
    pub recovered_from_corruption: bool,
    /// 95 % Wilson confidence interval on the BER at these counts.
    pub wilson_95: (f64, f64),
}

impl CampaignReport {
    /// Measured BER of the merged counts.
    pub fn ber(&self) -> f64 {
        self.counts.ber()
    }
}

/// A campaign could not start.
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint belongs to a different campaign.
    Mismatch {
        /// Which field disagreed (`"seed"`, `"fingerprint"`,
        /// `"total_shards"`, `"n_streams"`).
        field: &'static str,
        /// Value this campaign expected.
        expected: u64,
        /// Value found in the checkpoint.
        found: u64,
    },
    /// The checkpoint file exists but cannot be read (permissions, ...).
    Io(std::io::Error),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint belongs to a different campaign: {field} is {found}, expected {expected}"
            ),
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

thread_local! {
    /// Set while a supervised shard runs on this thread: the global
    /// panic hook stays silent for caught, retried panics instead of
    /// spraying backtraces over the campaign's output.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once) a panic hook that suppresses output for panics the
/// supervisor is about to catch, delegating everything else to the
/// previously installed hook.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// `catch_unwind` with panic output suppressed on this thread.
fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn Any + Send>> {
    QUIET_PANICS.with(|q| q.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    r
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The backoff before 1-based retry `k`.
fn backoff(base: Duration, cap: Duration, k: u32) -> Duration {
    base.checked_mul(1u32 << (k - 1).min(16))
        .unwrap_or(cap)
        .min(cap)
}

/// Maps `f` over `items` on the rayon pool unless `serial` is set, in
/// which case it runs in order on the calling thread. Output order always
/// matches input order.
fn par_map<T, R, F>(items: &[T], serial: bool, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    if serial {
        items.iter().map(f).collect()
    } else {
        use rayon::prelude::*;
        items.par_iter().map(f).collect()
    }
}

/// Outcome of supervising one shard.
struct ShardOutcome {
    label: u64,
    /// `None` after `max_attempts` panics → quarantine.
    result: Option<Vec<BerResult>>,
    attempts: u32,
}

/// Runs `shards` (the deterministic plan: `(label, blocks)`, labels
/// `0..n` in order) under supervision. `run_shard(label, blocks)` must
/// be a pure function of `(config seed, label)` — draw only from
/// `derive(seed, label)` — or the bit-identical-resume contract breaks.
///
/// Returns the report; errors only when an existing checkpoint belongs
/// to a different campaign or is unreadable at the IO level. Panicking
/// shards and failing checkpoint writes are *handled*, not errors.
pub fn run_campaign<F>(
    cfg: &CampaignConfig,
    shards: &[(u64, usize)],
    run_shard: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(u64, usize) -> BerResult + Send + Sync,
{
    run_campaign_multi(cfg, shards, 1, |label, blocks| {
        vec![run_shard(label, blocks)]
    })
}

/// [`run_campaign`] for multi-stream shard functions: `run_shard` returns
/// one [`BerResult`] per stream (one grid configuration each for a CRN
/// grid campaign), and the checkpoint, resume validation and report all
/// carry the per-stream counts. Everything else — panic isolation,
/// retries, quarantine, atomic checkpoints, graceful stop, bit-identical
/// resume — is the single-stream supervisor unchanged.
pub fn run_campaign_multi<F>(
    cfg: &CampaignConfig,
    shards: &[(u64, usize)],
    n_streams: usize,
    run_shard: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(u64, usize) -> Vec<BerResult> + Send + Sync,
{
    assert!(cfg.max_attempts >= 1, "max_attempts must be at least 1");
    assert!(n_streams >= 1, "a campaign needs at least one stream");
    for (i, &(label, _)) in shards.iter().enumerate() {
        assert_eq!(label, i as u64, "shard labels must be 0..n in order");
    }
    install_quiet_hook();
    let total = shards.len() as u64;

    // ---- load or create the state --------------------------------------
    let mut recovered = false;
    let mut state = match (&cfg.checkpoint, cfg.resume) {
        (Some(path), true) => match checkpoint::load(path) {
            Ok(ck) => {
                validate(&ck, cfg, total, n_streams)?;
                ck
            }
            Err(LoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                Checkpoint::new_multi(cfg.seed, cfg.fingerprint, total, n_streams)
            }
            Err(LoadError::Io(e)) => return Err(CampaignError::Io(e)),
            Err(LoadError::Codec(_)) => {
                // detected corruption (including retired format
                // versions): discard and restart — shard results are
                // pure functions of the seed, so a restart reproduces
                // the lost counts exactly
                recovered = true;
                Checkpoint::new_multi(cfg.seed, cfg.fingerprint, total, n_streams)
            }
        },
        _ => Checkpoint::new_multi(cfg.seed, cfg.fingerprint, total, n_streams),
    };
    let resumed_shards = state.done_count();

    // ---- supervise the pending shards ----------------------------------
    let started = Instant::now();
    let mut write_index = 0u64;
    let mut checkpoint_failures = 0u64;
    let mut retried_ok = 0u64;
    let mut stopped = false;
    let pending = state.pending();

    let run_one = |&label: &u64| -> ShardOutcome {
        let blocks = shards[label as usize].1;
        for attempt in 0..cfg.max_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff(cfg.backoff_base, cfg.backoff_cap, attempt));
            }
            let injected = cfg.faults.shard_panics(label, attempt);
            let outcome = quiet_catch(|| {
                if injected {
                    panic!("injected shard fault (shard {label}, attempt {attempt})");
                }
                run_shard(label, blocks)
            });
            if let Ok(result) = outcome {
                return ShardOutcome {
                    label,
                    result: Some(result),
                    attempts: attempt + 1,
                };
            }
        }
        ShardOutcome {
            label,
            result: None,
            attempts: cfg.max_attempts,
        }
    };

    for chunk in pending.chunks(cfg.checkpoint_every_shards.max(1)) {
        if stop_requested(cfg, started) {
            stopped = true;
            break;
        }
        for o in par_map(chunk, cfg.serial, run_one) {
            match o.result {
                Some(r) => {
                    state.mark_done_multi(o.label, &r);
                    if o.attempts > 1 {
                        retried_ok += 1;
                    }
                }
                None => state.quarantine(o.label, o.attempts),
            }
        }
        if let Some(path) = &cfg.checkpoint {
            if !save_with_retries(path, &state, cfg, &mut write_index) {
                checkpoint_failures += 1;
            }
        }
    }

    let counts = state
        .counts
        .iter()
        .fold(BerResult { bits: 0, errors: 0 }, |acc, c| BerResult {
            bits: acc.bits + c.bits,
            errors: acc.errors + c.errors,
        });
    Ok(CampaignReport {
        status: if stopped {
            CampaignStatus::Stopped
        } else {
            CampaignStatus::Complete
        },
        counts,
        stream_counts: state.counts.clone(),
        total_shards: total,
        completed_shards: state.done_count(),
        quarantined: state.quarantined.clone(),
        retried_ok,
        checkpoint_failures,
        resumed_shards,
        recovered_from_corruption: recovered,
        wilson_95: crate::wilson_interval(counts.errors, counts.bits, 1.96),
    })
}

fn validate(
    ck: &Checkpoint,
    cfg: &CampaignConfig,
    total: u64,
    n_streams: usize,
) -> Result<(), CampaignError> {
    let checks = [
        ("seed", cfg.seed, ck.seed),
        ("fingerprint", cfg.fingerprint, ck.fingerprint),
        ("total_shards", total, ck.total_shards),
        ("n_streams", n_streams as u64, ck.n_streams() as u64),
    ];
    for (field, expected, found) in checks {
        if expected != found {
            return Err(CampaignError::Mismatch {
                field,
                expected,
                found,
            });
        }
    }
    Ok(())
}

fn stop_requested(cfg: &CampaignConfig, started: Instant) -> bool {
    // the process-wide SIGINT flag is polled by every campaign, so a bin
    // only has to call install_sigint_stop() once — no plumbing needed
    if SIGINT_STOP.load(Ordering::Relaxed) {
        return true;
    }
    if let Some(flag) = &cfg.stop {
        if flag.load(Ordering::Relaxed) {
            return true;
        }
    }
    if let Some(budget) = cfg.wall_clock_budget {
        if started.elapsed() >= budget {
            return true;
        }
    }
    false
}

/// Commits `state` atomically, retrying on (possibly injected) IO
/// errors. Returns whether a write was committed; on `false` the
/// previously committed snapshot is still intact on disk.
fn save_with_retries(
    path: &std::path::Path,
    state: &Checkpoint,
    cfg: &CampaignConfig,
    write_index: &mut u64,
) -> bool {
    let image = state.encode();
    for _ in 0..=cfg.io_retries {
        let idx = *write_index;
        *write_index += 1;
        let result = if cfg.faults.checkpoint_write_fails(idx) {
            Err(std::io::Error::other("injected checkpoint io fault"))
        } else {
            checkpoint::save_atomic(path, &image)
        };
        if result.is_ok() {
            return true;
        }
    }
    false
}

/// The process-wide graceful-stop flag, polled by every campaign at
/// chunk boundaries (in addition to any per-campaign
/// [`CampaignConfig::stop`] flag).
static SIGINT_STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigint(_signum: i32) {
    // only async-signal-safe work: a relaxed atomic store
    SIGINT_STOP.store(true, Ordering::Relaxed);
}

/// Installs (once) a SIGINT handler that turns the first Ctrl-C into a
/// graceful stop: every running campaign finishes its current chunk,
/// commits a resumable checkpoint and returns
/// [`CampaignStatus::Stopped`] instead of the process dying mid-write.
/// Returns the flag for callers that want to poll or set it themselves.
/// On non-Unix targets no handler is installed (the flag still works as
/// a cooperative stop).
pub fn install_sigint_stop() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            const SIGINT: i32 = 2;
            let handler: extern "C" fn(i32) = on_sigint;
            #[allow(clippy::fn_to_numeric_cast_any, clippy::fn_to_numeric_cast)]
            unsafe {
                signal(SIGINT, handler as usize);
            }
        });
    }
    &SIGINT_STOP
}

// ---------------------------------------------------------------------
// Supervised map: the campaign treatment (panic isolation, bounded
// retries, quarantine) for arbitrary deterministic work lists — the
// table/figure runners ride on this.
// ---------------------------------------------------------------------

/// Retry policy for [`supervised_map`].
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Attempts per item before giving up (≥ 1).
    pub max_attempts: u32,
    /// Base backoff before a retry (doubles per retry).
    pub backoff_base: Duration,
    /// Cap on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// An item that panicked on every attempt.
#[derive(Debug, Clone)]
pub struct SupervisedFailure {
    /// Index of the item in the input slice.
    pub index: usize,
    /// Attempts spent.
    pub attempts: u32,
    /// Payload of the final panic.
    pub message: String,
}

impl std::fmt::Display for SupervisedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item #{} failed after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Maps `f` over `items` under the supervisor's panic isolation and
/// bounded retries, on the rayon pool.
/// Output order matches input order; an item whose every attempt
/// panicked yields `Err` instead of unwinding through the whole map.
pub fn supervised_map<T, R, F>(
    cfg: &SuperviseConfig,
    items: &[T],
    f: F,
) -> Vec<Result<R, SupervisedFailure>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Send + Sync,
{
    assert!(cfg.max_attempts >= 1, "max_attempts must be at least 1");
    install_quiet_hook();
    let indexed: Vec<usize> = (0..items.len()).collect();
    par_map(&indexed, false, |&i| {
        let mut last_message = String::new();
        for attempt in 0..cfg.max_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff(cfg.backoff_base, cfg.backoff_cap, attempt));
            }
            match quiet_catch(|| f(i, &items[i])) {
                Ok(r) => return Ok(r),
                Err(payload) => last_message = panic_message(payload.as_ref()),
            }
        }
        Err(SupervisedFailure {
            index: i,
            attempts: cfg.max_attempts,
            message: last_message,
        })
    })
}

/// [`supervised_map`] for callers that need every item: quarantined
/// items are escalated as a single panic naming the campaign `label`
/// and the first failure, after the whole map has run (so one bad item
/// cannot hide the others' diagnostics).
pub fn supervised_map_strict<T, R, F>(
    label: &str,
    cfg: &SuperviseConfig,
    items: &[T],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Send + Sync,
{
    let (mut ok, mut failures) = (Vec::with_capacity(items.len()), Vec::new());
    for r in supervised_map(cfg, items, f) {
        match r {
            Ok(v) => ok.push(v),
            Err(e) => failures.push(e),
        }
    }
    if let Some(first) = failures.first() {
        panic!(
            "{label}: {}/{} item(s) failed after retries; first: {first}",
            failures.len(),
            items.len()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn supervised_map_preserves_order_and_values() {
        let items: Vec<u32> = (0..100).collect();
        let out = supervised_map(&SuperviseConfig::default(), &items, |i, &x| {
            assert_eq!(i as u32, x);
            x * 2
        });
        let values: Vec<u32> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn transient_panic_is_retried_persistent_panic_quarantines() {
        // item 3 panics on its first attempt only; item 7 always panics
        let attempts = AtomicU32::new(0);
        let cfg = SuperviseConfig {
            max_attempts: 2,
            ..Default::default()
        };
        let items: Vec<usize> = (0..10).collect();
        let out = supervised_map(&cfg, &items, |_, &x| {
            if x == 3 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            if x == 7 {
                panic!("persistent failure on {x}");
            }
            x
        });
        assert_eq!(*out[3].as_ref().unwrap(), 3, "item 3 should recover");
        let err = out[7].as_ref().unwrap_err();
        assert_eq!(err.index, 7);
        assert_eq!(err.attempts, 2);
        assert!(err.message.contains("persistent failure"));
        for (i, r) in out.iter().enumerate() {
            if i != 7 {
                assert!(r.is_ok(), "item {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unit-test-map: 1/3")]
    fn strict_map_escalates_with_context() {
        supervised_map_strict(
            "unit-test-map",
            &SuperviseConfig {
                max_attempts: 1,
                ..Default::default()
            },
            &[1, 2, 3],
            |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            },
        );
    }

    #[test]
    fn backoff_is_bounded() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        assert_eq!(backoff(base, cap, 1), Duration::from_millis(10));
        assert_eq!(backoff(base, cap, 2), Duration::from_millis(20));
        assert_eq!(backoff(base, cap, 5), cap);
        assert_eq!(backoff(base, cap, 40), cap, "shift amount is clamped");
    }

    #[test]
    fn sigint_flag_is_stable() {
        let a = install_sigint_stop();
        let b = install_sigint_stop();
        assert!(std::ptr::eq(a, b));
        assert!(!a.load(Ordering::Relaxed));
    }
}
