//! # comimo-sensing
//!
//! Fault-tolerant cooperative spectrum sensing with hardened decision
//! fusion. The paper assumes the spectrum holes its three paradigms
//! exploit are already known; this crate builds the cooperative sensing
//! stage that finds them — and makes it survive the fault world of
//! `comimo-faults`:
//!
//! * [`detector`] — per-SU energy detection: the gamma/chi-square
//!   threshold test on the `comimo-math` special-function machinery,
//!   with exact and CLT/Q-function `Pd`/`Pfa` and a CFAR threshold
//!   solver;
//! * [`markov`] — the slotted Markov ON/OFF primary-activity model,
//!   per-channel derived streams, stationary start;
//! * [`fusion`] — cluster-head decision fusion (AND / OR / k-out-of-N
//!   with `k` re-derived as reporters churn) degrading gracefully to OR
//!   and then to head-local sensing, plus the closed-form binomial tail
//!   for pinning fused curves; Byzantine-resilient mode scales each
//!   reporter's decoded posterior by its trust weight and drops
//!   quarantined reporters before quorum-k re-derivation;
//! * [`reputation`] — per-reporter Beta-posterior trust trackers
//!   updated from agreement with the fused verdict, with a
//!   quarantine → probation → readmit state machine;
//! * [`byz`] — the byzantine-fraction sweep campaign: Pd/Pfa with
//!   reputation weighting on vs off under deterministic SSDF
//!   adversaries, riding the checkpointable campaign supervisor;
//! * [`round`] — one hardened round end to end: detector draws under
//!   reporter faults, report transport over `comimo_net::report`
//!   (timeout, bounded backoff retry, loss/stale/duplicate handling) —
//!   either as clean booleans (the pinned oracle) or as BPSK report
//!   words over the noisy block-Rayleigh long-haul — then fusion;
//! * [`roc`] — Pd/Pfa ROC campaigns on the `comimo-campaign`
//!   supervisor: checkpointable, crash-resumable, bit-identical at any
//!   thread count.

pub mod byz;
pub mod detector;
pub mod fusion;
pub mod markov;
pub mod reputation;
pub mod roc;
pub mod round;

pub use byz::{byz_shard_counts, run_byz_campaign, ByzCell, ByzSweepSpec};
pub use detector::EnergyDetector;
pub use fusion::{
    fuse, fuse_reports, fuse_soft, fused_positive_prob, quorum_of, FusionConfig, FusionDecision,
    FusionRule, LadderEvidence, RuleUsed,
};
pub use markov::MarkovOnOff;
pub use reputation::{
    ReporterTrust, ReputationConfig, ReputationTracker, ReputationView, TrustState,
};
pub use roc::{
    roc_shard_counts, roc_shard_counts_with_view, run_roc_campaign, RocGridPoint, RocGridSpec,
    RocPoint,
};
pub use round::{
    run_round, run_round_byz, run_round_faulted, ReportChannelConfig, ReportSummary, RoundOutcome,
    SensingError, SensingRound, SweepError,
};
