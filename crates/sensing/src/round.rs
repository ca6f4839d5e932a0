//! One hardened sensing round, end to end: local detection under
//! reporter faults → report transport over the *noisy virtual-MIMO
//! long-haul* (or the clean-boolean oracle path) → decision fusion with
//! graceful degradation.
//!
//! The round is a pure function of `(config, channel state, reporter
//! states, report-channel states, seed, round index)`: every detector
//! draws from its own `derive(seed, ROUND_SALT ^ round ^ reporter)`
//! stream, every report word from its own `derive(seed,
//! REPORT_WORD_SALT ^ round ^ reporter)` stream, and the transport
//! uses the split-stream discipline of [`comimo_net::report`]. Stuck
//! reporters still *burn their detector draws*, dead reporters still
//! burn their report-word draws, and report-channel faults scale noise
//! and gain downstream of the draws — toggling any fault never shifts
//! any other stream.
//!
//! The clean path is the pinned oracle for the noisy one: at report
//! SNR → ∞ the decoded posteriors saturate to exactly 0/1 and
//! [`fuse_soft`] reproduces the clean path's k-out-of-N decisions
//! count for count (`oracle_equivalence` test below).

use crate::detector::EnergyDetector;
use crate::fusion::{fuse_reports, fuse_soft, FusionConfig, FusionDecision, LadderEvidence};
use crate::reputation::ReputationView;
use comimo_campaign::CampaignError;
use comimo_channel::BlockRayleigh;
use comimo_faults::byzantine::ReportOverride;
use comimo_faults::report_channel::ReportChannelState;
use comimo_faults::sensing::ReporterState;
use comimo_math::db::db_to_lin;
use comimo_math::rng::derive;
use comimo_net::report::{try_collect_reports, ReportConfig, ReportError, Reporter};
use comimo_sim::time::SimTime;
use comimo_stbc::report::{transmit_report_word, ReportWordConfig, SoftReport};

/// Salt separating per-round detector draws from every other consumer
/// of the workspace seed.
const ROUND_SALT: u64 = 0x5EA5_E000_0002;

/// Salt separating per-round report-word channel draws: the noisy
/// long-haul gets its own stream family, so the detector streams stay
/// byte-identical to the clean-transport era.
const REPORT_WORD_SALT: u64 = 0x5EA5_E000_0005;

/// How sensing reports reach the fusion center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportChannelConfig {
    /// Shape and power of the BPSK report words on the long-haul.
    pub word: ReportWordConfig,
    /// The pinned oracle flag: `true` bypasses the long-haul entirely
    /// and delivers clean booleans (PR 7 semantics, bit for bit).
    pub clean_transport: bool,
}

impl ReportChannelConfig {
    /// The clean-boolean oracle: ideal transport, no channel draws.
    pub fn clean() -> Self {
        Self {
            word: ReportWordConfig::from_report_snr_db(2, 1, 2, f64::INFINITY),
            clean_transport: true,
        }
    }

    /// Reports ride an Alamouti-shaped (2×1, 2-block) long-haul at the
    /// given report SNR. `f64::INFINITY` keeps the channel noiseless
    /// while still exercising the full soft decode path.
    pub fn noisy(report_snr_db: f64) -> Self {
        Self {
            word: ReportWordConfig::from_report_snr_db(2, 1, 2, report_snr_db),
            clean_transport: false,
        }
    }
}

/// Everything a sensing round needs to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensingRound {
    /// The per-SU energy detector (every reporter runs the same one).
    pub detector: EnergyDetector,
    /// Fusion rule and degradation threshold at the head.
    pub fusion: FusionConfig,
    /// Report-transport knobs (timeout, retry, deadline).
    pub transport: ReportConfig,
    /// How reports reach the head: noisy long-haul or clean oracle.
    pub report_channel: ReportChannelConfig,
    /// Linear SNR of the primary signal at each reporter when the
    /// channel is busy.
    pub snr: f64,
}

impl SensingRound {
    /// The experiments' default round: 16-sample CFAR detector at 10 %
    /// per-SU false alarm, majority fusion, lossless clean transport.
    pub fn paper(snr: f64) -> Self {
        Self {
            detector: EnergyDetector::from_target_pfa(16, 0.1),
            fusion: FusionConfig::paper(),
            transport: ReportConfig::default(),
            report_channel: ReportChannelConfig::clean(),
            snr,
        }
    }

    /// The noisy-long-haul default: same detector and transport, LLR
    /// fusion (majority, reliability floor 0.65) over report words at
    /// `report_snr_db`.
    pub fn paper_noisy(snr: f64, report_snr_db: f64) -> Self {
        Self {
            fusion: FusionConfig::paper_llr(0.65),
            report_channel: ReportChannelConfig::noisy(report_snr_db),
            ..Self::paper(snr)
        }
    }
}

/// Typed failure of a sensing round — the chaos explorer reaches this
/// path with fault-scaled configs, so bad inputs must surface as values
/// rather than panics inside the detector or transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensingError {
    /// The report transport rejected its config.
    Transport(ReportError),
    /// The primary SNR is negative, NaN or infinite.
    InvalidSnr(f64),
    /// A reporter's delay fault is negative or non-finite.
    InvalidDelay {
        /// The offending reporter.
        reporter: usize,
        /// The bad delay (s).
        delay_s: f64,
    },
    /// A sweep/campaign spec failed validation before any shard ran
    /// (see [`crate::byz::ByzSweepSpec::validate`] and
    /// [`crate::roc::RocGridSpec::validate`]).
    InvalidSpec {
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for SensingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "report transport: {e}"),
            Self::InvalidSnr(snr) => write!(f, "primary SNR {snr} is not finite and >= 0"),
            Self::InvalidDelay { reporter, delay_s } => {
                write!(
                    f,
                    "reporter {reporter} delay {delay_s} s is not finite and >= 0"
                )
            }
            Self::InvalidSpec { what } => write!(f, "invalid sweep spec: {what}"),
        }
    }
}

impl std::error::Error for SensingError {}

impl From<ReportError> for SensingError {
    fn from(e: ReportError) -> Self {
        Self::Transport(e)
    }
}

/// A sensing sweep campaign (ROC grid or byzantine sweep) could not run.
#[derive(Debug)]
pub enum SweepError {
    /// The sweep spec failed validation; no shard ran.
    Spec(SensingError),
    /// The campaign supervisor refused to start.
    Campaign(CampaignError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spec(e) => write!(f, "{e}"),
            Self::Campaign(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<CampaignError> for SweepError {
    fn from(e: CampaignError) -> Self {
        Self::Campaign(e)
    }
}

/// One delivered report as the reputation tracker consumes it: who
/// said what, with how much decode confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportSummary {
    /// The reporting SU.
    pub reporter: usize,
    /// Its (possibly falsified) hard decision as the head decoded it.
    pub busy: bool,
    /// Decode confidence in `[0.5, 1]` (`1.0` on the clean path).
    pub confidence: f64,
}

/// What one round produced, decision and transport accounting together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// The fused verdict with its quorum evidence.
    pub decision: FusionDecision,
    /// The ladder bookkeeping behind it (rung eligibility evidence).
    pub ladder: LadderEvidence,
    /// Mean effective report SNR over the delivered reports (linear);
    /// `inf` on the clean path, `0.0` when nothing was delivered.
    pub mean_report_snr: f64,
    /// Reports that reached the head in time.
    pub delivered: usize,
    /// Live reporters whose report never made it.
    pub missing: usize,
    /// Report frames put on the air (retries included).
    pub frames_sent: u64,
    /// Deduplicated lost-ack retransmissions.
    pub duplicates: u64,
    /// Post-deadline arrivals, dropped.
    pub stale: u64,
}

/// Runs one sensing round with a nominal (fault-free) report channel.
/// `channel_busy` is the ground-truth primary state this slot,
/// `states[i]` is reporter `i`'s fault condition, and `head_local` is
/// the head's own detector decision (the last rung of the ladder).
pub fn run_round(
    cfg: &SensingRound,
    channel_busy: bool,
    states: &[ReporterState],
    head_local: bool,
    seed: u64,
    round: u64,
) -> Result<RoundOutcome, SensingError> {
    run_round_faulted(cfg, channel_busy, states, &[], head_local, seed, round)
}

/// [`run_round`] with per-reporter report-channel fault states.
/// `report_states[i]` is reporter `i`'s long-haul condition; reporters
/// past the end of the slice see a nominal channel. Ignored entirely on
/// the clean-transport oracle path.
pub fn run_round_faulted(
    cfg: &SensingRound,
    channel_busy: bool,
    states: &[ReporterState],
    report_states: &[ReportChannelState],
    head_local: bool,
    seed: u64,
    round: u64,
) -> Result<RoundOutcome, SensingError> {
    run_round_byz(
        cfg,
        channel_busy,
        states,
        report_states,
        &[],
        head_local,
        seed,
        round,
        None,
    )
    .map(|(outcome, _)| outcome)
}

/// [`run_round_faulted`] under Byzantine adversaries and an optional
/// reputation view — the full-stack entry point:
///
/// * `overrides[i]` is reporter `i`'s SSDF falsification this round
///   (from `comimo_faults::byzantine`), applied *after* the detector
///   draw and after the honest fault-state override, so toggling an
///   adversary never shifts any stream (reporters past the end are
///   honest);
/// * `rep` is the head's trust snapshot: quarantined reporters are
///   dropped before quorum-k re-derivation on every rung, and on the
///   soft path the weighted LLR rung scales posteriors by trust.
///
/// Also returns the delivered report summaries so the caller can fold
/// the round into a [`crate::reputation::ReputationTracker`] —
/// quarantined reporters still transmit and still appear here (the
/// machine controls fusion eligibility, never the evidence flow).
#[allow(clippy::too_many_arguments)]
pub fn run_round_byz(
    cfg: &SensingRound,
    channel_busy: bool,
    states: &[ReporterState],
    report_states: &[ReportChannelState],
    overrides: &[ReportOverride],
    head_local: bool,
    seed: u64,
    round: u64,
    rep: Option<&ReputationView>,
) -> Result<(RoundOutcome, Vec<ReportSummary>), SensingError> {
    if !cfg.snr.is_finite() || cfg.snr < 0.0 {
        return Err(SensingError::InvalidSnr(cfg.snr));
    }
    let truth_snr = if channel_busy { cfg.snr } else { 0.0 };
    let round_mix = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);

    // stage 1: local detection — fixed draw count per reporter; faults
    // and falsifications override the payload downstream, never the
    // stream position
    let mut bits: Vec<bool> = Vec::with_capacity(states.len());
    let mut faults: Vec<(SimTime, Option<SimTime>)> = Vec::with_capacity(states.len());
    for (i, &state) in states.iter().enumerate() {
        let mut rng = derive(seed, ROUND_SALT ^ round_mix ^ (i as u64));
        let own = cfg
            .detector
            .decide(cfg.detector.sample_statistic(&mut rng, truth_snr));
        let (mut bit, mut extra_delay, mut dies_at) = (own, SimTime::ZERO, None);
        match state {
            ReporterState::Healthy => {}
            ReporterState::StuckH0 => bit = false,
            ReporterState::StuckH1 => bit = true,
            ReporterState::Delayed { delay_s } => {
                if !delay_s.is_finite() || delay_s < 0.0 {
                    return Err(SensingError::InvalidDelay {
                        reporter: i,
                        delay_s,
                    });
                }
                extra_delay = SimTime::from_secs_f64(delay_s);
            }
            ReporterState::Dead => dies_at = Some(SimTime::ZERO),
        }
        // the SSDF falsification is the last override: a stuck-at-H1
        // vandal still lies on top of its stuck bit, and the detector
        // draw above burned either way
        bit = overrides
            .get(i)
            .copied()
            .unwrap_or(ReportOverride::None)
            .apply(bit);
        bits.push(bit);
        faults.push((extra_delay, dies_at));
    }

    if cfg.report_channel.clean_transport {
        // the pinned oracle: clean booleans, zero channel draws
        let reporters: Vec<Reporter<bool>> = bits
            .iter()
            .zip(&faults)
            .enumerate()
            .map(|(i, (&bit, &(extra_delay, dies_at)))| Reporter {
                id: i,
                payload: bit,
                extra_delay,
                dies_at,
            })
            .collect();
        let out = try_collect_reports(&reporters, &cfg.transport, seed, round)?;
        let (decision, ladder) = fuse_reports(&cfg.fusion, &out.delivered, head_local, rep);
        let summaries: Vec<ReportSummary> = out
            .delivered
            .iter()
            .map(|&(reporter, busy)| ReportSummary {
                reporter,
                busy,
                confidence: 1.0,
            })
            .collect();
        return Ok((
            RoundOutcome {
                decision,
                ladder,
                mean_report_snr: f64::INFINITY,
                delivered: out.delivered.len(),
                missing: out.missing.len(),
                frames_sent: out.frames_sent,
                duplicates: out.duplicates,
                stale: out.stale,
            },
            summaries,
        ));
    }

    // stage 2: every reporter's decision rides a BPSK report word over
    // the block-Rayleigh long-haul, one derived stream per reporter —
    // dead reporters still burn their draws
    let long_haul = BlockRayleigh::unit();
    let soft: Vec<SoftReport> = bits
        .iter()
        .enumerate()
        .map(|(i, &bit)| {
            let rc = report_states
                .get(i)
                .copied()
                .unwrap_or_else(ReportChannelState::nominal);
            let mut word = cfg.report_channel.word;
            // collapse inflates the noise; desync erodes the coherent
            // gain — both applied after the draws (burn-their-draws)
            word.n0 *= db_to_lin(rc.snr_drop_db);
            let mut rng = derive(seed, REPORT_WORD_SALT ^ round_mix ^ (i as u64));
            transmit_report_word(bit, rc.gain, &word, &long_haul, &mut rng)
        })
        .collect();
    let reporters: Vec<Reporter<SoftReport>> = soft
        .iter()
        .zip(&faults)
        .enumerate()
        .map(|(i, (&payload, &(extra_delay, dies_at)))| Reporter {
            id: i,
            payload,
            extra_delay,
            dies_at,
        })
        .collect();
    let out = try_collect_reports(&reporters, &cfg.transport, seed, round)?;
    let (decision, ladder) = fuse_soft(&cfg.fusion, &out.delivered, head_local, rep);
    let summaries: Vec<ReportSummary> = out
        .delivered
        .iter()
        .map(|&(reporter, r)| ReportSummary {
            reporter,
            busy: r.hard_bit(),
            confidence: r.confidence(),
        })
        .collect();
    let mean_report_snr = if out.delivered.is_empty() {
        0.0
    } else {
        out.delivered.iter().map(|(_, r)| r.report_snr).sum::<f64>() / out.delivered.len() as f64
    };
    Ok((
        RoundOutcome {
            decision,
            ladder,
            mean_report_snr,
            delivered: out.delivered.len(),
            missing: out.missing.len(),
            frames_sent: out.frames_sent,
            duplicates: out.duplicates,
            stale: out.stale,
        },
        summaries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::RuleUsed;
    use comimo_faults::report_channel::{
        build_report_channel_schedule, ReportChannelFaultConfig, ReportChannelTimeline,
    };
    use comimo_faults::sensing::{build_reporter_schedule, ReporterFaultConfig, ReporterTimeline};

    /// High-SNR round where every healthy detector is essentially exact.
    fn sharp_round() -> SensingRound {
        SensingRound {
            detector: EnergyDetector::from_target_pfa(32, 1e-4),
            snr: 30.0, // Pd ≈ 1 at this margin
            ..SensingRound::paper(30.0)
        }
    }

    /// The sharp round with its reports on the noisy long-haul.
    fn sharp_noisy(report_snr_db: f64) -> SensingRound {
        SensingRound {
            fusion: FusionConfig::paper_llr(0.65),
            report_channel: ReportChannelConfig::noisy(report_snr_db),
            ..sharp_round()
        }
    }

    #[test]
    fn healthy_round_detects_both_channel_states() {
        let cfg = sharp_round();
        let states = vec![ReporterState::Healthy; 6];
        let busy = run_round(&cfg, true, &states, true, 2013, 0).unwrap();
        assert!(busy.decision.busy);
        assert_eq!(busy.decision.rule_used, RuleUsed::Configured);
        assert_eq!(busy.delivered, 6);
        assert_eq!(busy.mean_report_snr, f64::INFINITY);
        let idle = run_round(&cfg, false, &states, false, 2013, 1).unwrap();
        assert!(!idle.decision.busy);
        assert_eq!(idle.missing, 0);
    }

    #[test]
    fn rounds_are_pure_functions_of_seed_and_round() {
        let cfg = SensingRound::paper(1.0);
        let states = vec![ReporterState::Healthy; 5];
        let a = run_round(&cfg, true, &states, true, 42, 9).unwrap();
        assert_eq!(a, run_round(&cfg, true, &states, true, 42, 9).unwrap());
        assert_ne!(
            a.decision.busy,
            run_round(&cfg, false, &states, false, 42, 9)
                .unwrap()
                .decision
                .busy,
            "a high-SNR busy slot and an idle slot should usually differ"
        );
    }

    #[test]
    fn stuck_at_h0_reporters_vote_idle_on_a_busy_channel() {
        let cfg = sharp_round();
        // 3 healthy + 2 stuck-at-H0 on a busy channel: majority of the 5
        // arrived reports is 3, the healthy ones carry it
        let states = vec![
            ReporterState::Healthy,
            ReporterState::Healthy,
            ReporterState::Healthy,
            ReporterState::StuckH0,
            ReporterState::StuckH0,
        ];
        let out = run_round(&cfg, true, &states, true, 2013, 2).unwrap();
        assert!(
            out.decision.busy,
            "3-of-5 healthy majority must still detect"
        );
        assert_eq!(out.decision.quorum, 3);
        // flip the balance: 4 stuck-at-H0 outvote the 1 healthy reporter
        let mostly_stuck = vec![
            ReporterState::Healthy,
            ReporterState::StuckH0,
            ReporterState::StuckH0,
            ReporterState::StuckH0,
            ReporterState::StuckH0,
        ];
        let out = run_round(&cfg, true, &mostly_stuck, true, 2013, 3).unwrap();
        assert!(!out.decision.busy, "stuck-at-H0 majority causes the miss");
    }

    #[test]
    fn mid_window_kills_rederive_k_and_walk_the_ladder() {
        let cfg = sharp_round();
        // 8 nominal reporters, 5 dead: quorum re-derives over the 3 alive
        let mut states = vec![ReporterState::Dead; 8];
        states[0] = ReporterState::Healthy;
        states[1] = ReporterState::Healthy;
        states[2] = ReporterState::Healthy;
        let out = run_round(&cfg, true, &states, true, 2013, 4).unwrap();
        assert_eq!(out.delivered, 3);
        assert_eq!(out.decision.rule_used, RuleUsed::Configured);
        assert_eq!(out.decision.quorum, 2, "k must shrink with the roster");
        assert!(out.decision.busy);
        // 7 dead → one report → below min_quorum → OR fallback
        let mut states = vec![ReporterState::Dead; 8];
        states[0] = ReporterState::Healthy;
        let out = run_round(&cfg, true, &states, true, 2013, 5).unwrap();
        assert_eq!(out.decision.rule_used, RuleUsed::OrFallback);
        assert!(out.decision.busy);
        // all dead → zero reports → head-local, and no division anywhere
        let states = vec![ReporterState::Dead; 8];
        let out = run_round(&cfg, true, &states, true, 2013, 6).unwrap();
        assert_eq!(out.decision.rule_used, RuleUsed::HeadLocal);
        assert_eq!(out.delivered, 0);
        assert_eq!(out.frames_sent, 0);
        assert!(out.decision.busy, "the head's own sensing still protects");
    }

    #[test]
    fn deterministic_fault_schedule_exercises_the_whole_ladder() {
        // drive reporter states from a real derive(seed, unit) schedule —
        // a hot death rate kills everyone well before the horizon ends,
        // so walking time walks the ladder Configured → ... → HeadLocal
        // deaths only: stuck episodes would make "every rung detects"
        // probabilistic instead of structural
        let fcfg = ReporterFaultConfig {
            death_rate_hz: 0.08,
            ..ReporterFaultConfig::disabled(200.0)
        };
        let n = 6usize;
        let tl = ReporterTimeline::from_schedule(&build_reporter_schedule(&fcfg, n, 77));
        let cfg = sharp_round();
        let mut rungs_seen = Vec::new();
        for (round, t) in (0..2000).map(|s| (s as u64, s as f64 * 1.0)) {
            let states: Vec<_> = (0..n).map(|r| tl.state_at(t, r)).collect();
            let out = run_round(&cfg, true, &states, true, 77, round).unwrap();
            assert!(
                out.decision.busy,
                "busy channel at high SNR must be detected on every rung (t={t})"
            );
            if !rungs_seen.contains(&out.decision.rule_used) {
                rungs_seen.push(out.decision.rule_used);
            }
        }
        assert!(
            rungs_seen.contains(&RuleUsed::Configured) && rungs_seen.contains(&RuleUsed::HeadLocal),
            "schedule must exercise the ladder ends, saw {rungs_seen:?}"
        );
        assert_eq!(tl.alive_at(2000.0, n), 0, "everyone should be dead by now");
    }

    #[test]
    fn lossy_transport_shrinks_the_quorum_not_the_safety() {
        let mut cfg = sharp_round();
        cfg.transport.loss_prob = 0.6;
        let states = vec![ReporterState::Healthy; 6];
        let out = run_round(&cfg, true, &states, true, 11, 0).unwrap();
        assert_eq!(out.delivered + out.missing, 6);
        assert!(out.decision.busy, "high-SNR busy must survive 60% loss");
        assert!(out.decision.quorum <= out.decision.reports_used.max(1));
    }

    #[test]
    fn invalid_configs_surface_typed_errors() {
        let states = vec![ReporterState::Healthy; 3];
        let mut cfg = sharp_round();
        cfg.snr = f64::NAN;
        assert!(matches!(
            run_round(&cfg, true, &states, true, 1, 0),
            Err(SensingError::InvalidSnr(_))
        ));
        let mut cfg = sharp_round();
        cfg.transport.loss_prob = 1.5;
        assert!(matches!(
            run_round(&cfg, true, &states, true, 1, 0),
            Err(SensingError::Transport(ReportError::InvalidLossProb(_)))
        ));
        let cfg = sharp_round();
        let bad = vec![ReporterState::Delayed { delay_s: -2.0 }];
        assert_eq!(
            run_round(&cfg, true, &bad, true, 1, 0),
            Err(SensingError::InvalidDelay {
                reporter: 0,
                delay_s: -2.0
            })
        );
    }

    #[test]
    fn oracle_equivalence_noisy_at_infinite_snr_matches_clean_count_for_count() {
        // THE acceptance property: the full soft path — report words,
        // channel draws, LLR decode, soft fusion — at report SNR → ∞
        // must reproduce the clean k-out-of-N decisions count for count,
        // under a live reporter-fault schedule
        let clean = sharp_round();
        let noisy = sharp_noisy(f64::INFINITY);
        let n = 6usize;
        let fcfg = ReporterFaultConfig::nominal(500.0).scaled(3.0);
        let tl = ReporterTimeline::from_schedule(&build_reporter_schedule(&fcfg, n, 2013));
        let mut busy_clean = 0u64;
        let mut busy_noisy = 0u64;
        for (round, t) in (0..500).map(|s| (s as u64, s as f64)) {
            let states: Vec<_> = (0..n).map(|r| tl.state_at(t, r)).collect();
            let truth = round % 3 != 0;
            let head = truth;
            let a = run_round(&clean, truth, &states, head, 2013, round).unwrap();
            let b = run_round(&noisy, truth, &states, head, 2013, round).unwrap();
            assert_eq!(
                a.decision.busy, b.decision.busy,
                "decision diverged at round {round}"
            );
            assert_eq!(a.decision.quorum, b.decision.quorum);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.frames_sent, b.frames_sent, "transport must not shift");
            assert!(b.ladder.soft_path);
            busy_clean += u64::from(a.decision.busy);
            busy_noisy += u64::from(b.decision.busy);
        }
        assert_eq!(busy_clean, busy_noisy);
        assert!(
            busy_clean > 0 && busy_clean < 500,
            "both verdicts exercised"
        );
    }

    #[test]
    fn report_channel_faults_walk_the_soft_ladder() {
        // a hot collapse/desync schedule must push rounds off the soft
        // rung into hard decoding while the roster stays full
        let cfg = sharp_noisy(25.0);
        let n = 6usize;
        let rcfg = ReportChannelFaultConfig::nominal(400.0).scaled(8.0);
        let tl = ReportChannelTimeline::from_schedule(&build_report_channel_schedule(&rcfg, n, 99));
        let states = vec![ReporterState::Healthy; n];
        let mut soft_rounds = 0u64;
        let mut hard_rounds = 0u64;
        for (round, t) in (0..400).map(|s| (s as u64, s as f64)) {
            let rstates: Vec<_> = (0..n).map(|r| tl.state_at(t, r)).collect();
            let out = run_round_faulted(&cfg, true, &states, &rstates, true, 99, round).unwrap();
            match out.decision.rule_used {
                RuleUsed::LlrSoft => soft_rounds += 1,
                RuleUsed::HardDecode => hard_rounds += 1,
                other => panic!("full roster cannot reach {other:?}"),
            }
            assert!(out.decision.busy, "30 dB busy must survive every rung");
        }
        assert!(soft_rounds > 0, "nominal stretches must fuse softly");
        assert!(hard_rounds > 0, "collapses must force hard decoding");
    }

    #[test]
    fn byz_round_with_no_adversaries_and_no_view_is_the_identity() {
        // run_round_byz(.., &[], .., None) must be run_round_faulted
        // bit for bit, on both transport paths, and the summaries must
        // mirror the delivered set
        let states = vec![ReporterState::Healthy; 5];
        for cfg in [sharp_round(), sharp_noisy(18.0)] {
            let base = run_round_faulted(&cfg, true, &states, &[], true, 31, 4).unwrap();
            let (byz, summaries) =
                run_round_byz(&cfg, true, &states, &[], &[], true, 31, 4, None).unwrap();
            assert_eq!(base, byz);
            assert_eq!(summaries.len(), byz.delivered);
            for s in &summaries {
                assert!(s.reporter < 5);
                assert!((0.5..=1.0).contains(&s.confidence));
            }
        }
    }

    #[test]
    fn reputation_contains_an_always_no_coalition_end_to_end() {
        // f = floor((n-1)/3) = 2 always-no vandals of n = 7: train the
        // tracker on live rounds, then check the converged weighted
        // head detects where the unweighted head (same falsified
        // reports) is measurably degraded
        use crate::reputation::{ReputationConfig, ReputationTracker};
        use comimo_faults::byzantine::{ByzantineConfig, ByzantineSuite};
        let n = 7usize;
        let cfg = SensingRound {
            fusion: FusionConfig {
                rule: crate::fusion::FusionRule::Llr {
                    k_frac: 0.75,
                    reliability_floor: 0.65,
                },
                min_quorum: 2,
            },
            report_channel: ReportChannelConfig::noisy(25.0),
            ..SensingRound::paper(30.0)
        };
        let states = vec![ReporterState::Healthy; n];
        let suite = ByzantineSuite::new(&ByzantineConfig::always_no(2), n, 2013);
        let mut tracker = ReputationTracker::new(ReputationConfig::paper(), n);
        let mut unweighted_misses = 0u64;
        let mut weighted_misses_converged = 0u64;
        let mut converged_rounds = 0u64;
        for round in 0..120u64 {
            let truth = round % 2 == 0;
            let ov = suite.overrides(round);
            let view = tracker.view();
            let (weighted, summaries) = run_round_byz(
                &cfg,
                truth,
                &states,
                &[],
                &ov,
                truth,
                2013,
                round,
                Some(&view),
            )
            .unwrap();
            let (unweighted, _) =
                run_round_byz(&cfg, truth, &states, &[], &ov, truth, 2013, round, None).unwrap();
            if truth {
                unweighted_misses += u64::from(!unweighted.decision.busy);
                if view.converged() {
                    converged_rounds += 1;
                    weighted_misses_converged += u64::from(!weighted.decision.busy);
                }
            }
            let reports: Vec<(usize, bool, f64)> = summaries
                .iter()
                .map(|s| (s.reporter, s.busy, s.confidence))
                .collect();
            tracker.observe_round(weighted.decision.busy, &reports);
        }
        assert!(
            unweighted_misses > 10,
            "2-of-7 vandals at k_frac 0.75 must measurably degrade \
             unweighted fusion (saw {unweighted_misses} misses)"
        );
        assert!(converged_rounds > 20, "the tracker must converge");
        assert_eq!(
            weighted_misses_converged, 0,
            "after convergence the weighted head must contain the vandals"
        );
        let (_, q, _) = tracker.census();
        assert_eq!(q, 2, "exactly the two vandals end up quarantined");
    }

    #[test]
    fn noisy_rounds_are_pure_and_fault_scaling_never_shifts_streams() {
        let cfg = sharp_noisy(12.0);
        let states = vec![ReporterState::Healthy; 5];
        let nominal = vec![ReportChannelState::nominal(); 5];
        let a = run_round_faulted(&cfg, true, &states, &nominal, true, 7, 3).unwrap();
        assert_eq!(
            a,
            run_round_faulted(&cfg, true, &states, &nominal, true, 7, 3).unwrap()
        );
        // an empty report-state slice means a nominal channel
        assert_eq!(a, run_round(&cfg, true, &states, true, 7, 3).unwrap());
        // a desync on reporter 0 must not change reporter 1+'s llrs:
        // compare through the fused mean at full vs scaled gain
        let mut desynced = nominal.clone();
        desynced[0] = ReportChannelState {
            snr_drop_db: 0.0,
            gain: 0.0,
        };
        let b = run_round_faulted(&cfg, true, &states, &desynced, true, 7, 3).unwrap();
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.delivered, b.delivered);
        assert!(
            b.ladder.mean_confidence < a.ladder.mean_confidence,
            "killing one reporter's coherence must only erode confidence"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use comimo_faults::report_channel::{
        build_report_channel_schedule, ReportChannelFaultConfig, ReportChannelTimeline,
    };
    use comimo_faults::sensing::{build_reporter_schedule, ReporterFaultConfig, ReporterTimeline};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Under arbitrary reporter and report-channel fault timelines,
        /// every round lands on exactly one rung: the per-rung counters
        /// always sum to the rounds run, on both transport paths.
        #[test]
        fn prop_rule_used_accounting_sums_to_rounds_run(
            seed in 0u64..1000,
            lambda in 0.0f64..6.0,
            report_snr_db in -5.0f64..30.0,
            clean in any::<bool>(),
        ) {
            let n = 5usize;
            let horizon = 60.0;
            let rtl = ReporterTimeline::from_schedule(&build_reporter_schedule(
                &ReporterFaultConfig::nominal(horizon).scaled(lambda), n, seed));
            let ctl = ReportChannelTimeline::from_schedule(&build_report_channel_schedule(
                &ReportChannelFaultConfig::nominal(horizon).scaled(lambda), n, seed));
            let cfg = if clean {
                SensingRound::paper(4.0)
            } else {
                SensingRound::paper_noisy(4.0, report_snr_db)
            };
            let rounds = 60u64;
            let mut counts = [0u64; 6];
            for round in 0..rounds {
                let t = round as f64;
                let states: Vec<_> = (0..n).map(|r| rtl.state_at(t, r)).collect();
                let rstates: Vec<_> = (0..n).map(|r| ctl.state_at(t, r)).collect();
                let out = run_round_faulted(
                    &cfg, round % 2 == 0, &states, &rstates, false, seed, round,
                ).unwrap();
                counts[out.decision.rule_used.rung_index() as usize] += 1;
                prop_assert_eq!(out.decision.rule_used, out.ladder.rung);
            }
            prop_assert_eq!(counts.iter().sum::<u64>(), rounds);
            if clean {
                // the clean path never reaches the soft rungs
                prop_assert_eq!(counts[0] + counts[1] + counts[2], 0);
            } else {
                // the soft path never lands on the clean Configured
                // rung, and without a reputation view never on the
                // weighted rung
                prop_assert_eq!(counts[0] + counts[3], 0);
            }
        }
    }
}
