//! Byzantine-fraction sweep campaigns on the Monte-Carlo supervisor.
//!
//! Each sweep point is an always-no SSDF coalition size `f`; each shard
//! is an independent replicate that trains a fresh
//! [`ReputationTracker`] on live rounds (the warmup window) and then
//! counts missed detections, false alarms and weighted-rung usage for
//! the *same falsified rounds* fused two ways — with the reputation
//! view (weighted) and without (unweighted). Shard counts are pure
//! functions of `(spec, seed, shard label)`, so the supervisor's
//! checkpoint/crash-resume and any-thread-count bit-identity guarantees
//! apply unchanged: the reputation state never needs checkpointing
//! because every resume replays the shard's training from its derived
//! streams.
//!
//! The containment pin lives here: with `f = ⌊(n−1)/3⌋` always-no
//! adversaries the unweighted head measurably violates the
//! missed-detect budget while the weighted head, once the tracker has
//! converged (the warmup window), restores `Pd`
//! (`f_adversaries_degrade_unweighted_and_weighted_restores_pd`
//! below). The zero-adversary end of the axis doubles as the oracle:
//! see `crate::roc` for the count-for-count uniform-weights pin.

use crate::detector::EnergyDetector;
use crate::fusion::{FusionConfig, FusionRule, RuleUsed};
use crate::reputation::{ReputationConfig, ReputationTracker};
use crate::round::{run_round_byz, ReportChannelConfig, SensingError, SensingRound, SweepError};
use comimo_campaign::{fingerprint64, run_campaign_multi, CampaignConfig, CampaignReport};
use comimo_faults::byzantine::{ByzantineConfig, ByzantineSuite};
use comimo_faults::sensing::ReporterState;
use comimo_math::db::db_to_lin;
use comimo_net::report::ReportConfig;
use comimo_stbc::sim::BerResult;
use serde::Serialize;

/// Streams per sweep point: `[H1 misses, H0 false alarms, weighted-rung
/// rounds]`, weighted mode first, then unweighted.
const STREAMS_PER_POINT: usize = 6;

/// The byzantine-fraction axis a sweep campaign walks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ByzSweepSpec {
    /// Samples per detector decision.
    pub n_samples: usize,
    /// Per-SU target false-alarm rate fixing the CFAR threshold.
    pub target_pfa: f64,
    /// Cooperating reporters per fused decision (adversaries included).
    pub n_reporters: usize,
    /// Primary SNR at each reporter (dB).
    pub snr_db: f64,
    /// Report-channel SNR of the noisy long-haul (dB); `+inf` keeps the
    /// soft path noiseless.
    pub report_snr_db: f64,
    /// k-out-of-N fraction of the LLR rule.
    pub k_frac: f64,
    /// Mean-confidence floor of the soft LLR rungs.
    pub reliability_floor: f64,
    /// Reports below which the head abandons the configured rule.
    pub min_quorum: usize,
    /// The sweep axis: always-no adversary counts, one point each.
    pub byz_counts: Vec<usize>,
    /// Training rounds per shard before counting starts — the
    /// reputation-convergence window.
    pub warmup_rounds: u64,
    /// Counted rounds per shard after warmup.
    pub rounds_per_shard: u64,
    /// Shards (independent replicates) in the campaign.
    pub n_shards: u64,
}

impl ByzSweepSpec {
    /// The experiments' default sweep: the paper's 16-sample detector
    /// at 10 % per-SU Pfa, a 7-reporter cluster at 30 dB with its
    /// reports on a 25 dB long-haul, 3-of-4 LLR fusion, and the
    /// `f = 0, 1, 2 = ⌊(n−1)/3⌋` always-no axis.
    pub fn paper() -> Self {
        Self {
            n_samples: 16,
            target_pfa: 0.1,
            n_reporters: 7,
            snr_db: 30.0,
            report_snr_db: 25.0,
            k_frac: 0.75,
            reliability_floor: 0.65,
            min_quorum: 2,
            byz_counts: vec![0, 1, 2],
            warmup_rounds: 40,
            rounds_per_shard: 80,
            n_shards: 8,
        }
    }

    /// Rejects every spec a shard could not run to completion — the
    /// typed front door for the asserts inside the detector CFAR
    /// solver, the fusion quorum maths and the adversary caster.
    pub fn validate(&self) -> Result<(), SensingError> {
        if self.n_samples == 0 {
            return Err(SensingError::InvalidSpec {
                what: "n_samples must be >= 1",
            });
        }
        if !self.target_pfa.is_finite() || self.target_pfa <= 0.0 || self.target_pfa >= 1.0 {
            return Err(SensingError::InvalidSpec {
                what: "target_pfa must be in (0, 1)",
            });
        }
        if self.n_reporters == 0 {
            return Err(SensingError::InvalidSpec {
                what: "n_reporters must be >= 1",
            });
        }
        if !self.snr_db.is_finite() {
            return Err(SensingError::InvalidSpec {
                what: "snr_db must be finite",
            });
        }
        if self.report_snr_db.is_nan() {
            return Err(SensingError::InvalidSpec {
                what: "report_snr_db must not be NaN",
            });
        }
        if !self.k_frac.is_finite() || self.k_frac <= 0.0 || self.k_frac > 1.0 {
            return Err(SensingError::InvalidSpec {
                what: "k_frac must be in (0, 1]",
            });
        }
        if !self.reliability_floor.is_finite() || !(0.0..=1.0).contains(&self.reliability_floor) {
            return Err(SensingError::InvalidSpec {
                what: "reliability_floor must be in [0, 1]",
            });
        }
        if self.min_quorum == 0 {
            return Err(SensingError::InvalidSpec {
                what: "min_quorum must be >= 1",
            });
        }
        if self.byz_counts.is_empty() {
            return Err(SensingError::InvalidSpec {
                what: "byz_counts axis must not be empty",
            });
        }
        if self.byz_counts.iter().any(|&f| f > self.n_reporters) {
            return Err(SensingError::InvalidSpec {
                what: "a byz count exceeds the roster",
            });
        }
        if self.rounds_per_shard == 0 || self.n_shards == 0 {
            return Err(SensingError::InvalidSpec {
                what: "rounds_per_shard and n_shards must be >= 1",
            });
        }
        Ok(())
    }

    /// Checkpoint fingerprint of the sweep: any change to any axis —
    /// including the warmup window, which shapes every counted stream —
    /// invalidates a resume instead of silently merging mismatched
    /// counts.
    pub fn fingerprint(&self) -> u64 {
        let mut words = vec![
            self.n_samples as u64,
            self.target_pfa.to_bits(),
            self.n_reporters as u64,
            self.snr_db.to_bits(),
            self.report_snr_db.to_bits(),
            self.k_frac.to_bits(),
            self.reliability_floor.to_bits(),
            self.min_quorum as u64,
            self.warmup_rounds,
            self.rounds_per_shard,
            self.n_shards,
            self.byz_counts.len() as u64,
        ];
        words.extend(self.byz_counts.iter().map(|&f| f as u64));
        fingerprint64(&words)
    }

    /// The sensing round every shard runs (transport is the lossless
    /// default — adversaries, not the channel, are this sweep's axis).
    fn round_config(&self) -> SensingRound {
        SensingRound {
            detector: EnergyDetector::from_target_pfa(self.n_samples, self.target_pfa),
            fusion: FusionConfig {
                rule: FusionRule::Llr {
                    k_frac: self.k_frac,
                    reliability_floor: self.reliability_floor,
                },
                min_quorum: self.min_quorum,
            },
            transport: ReportConfig::default(),
            report_channel: ReportChannelConfig::noisy(self.report_snr_db),
            snr: db_to_lin(self.snr_db),
        }
    }
}

/// One measured sweep cell: a `(byz count, weighting mode)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ByzCell {
    /// Always-no adversaries at this point.
    pub byz_count: usize,
    /// `true` when fusion saw the live reputation view.
    pub weighted: bool,
    /// Counted busy slots.
    pub busy_rounds: u64,
    /// Busy slots the head missed.
    pub missed: u64,
    /// Counted idle slots.
    pub idle_rounds: u64,
    /// Idle slots the head called busy.
    pub false_alarms: u64,
    /// All counted slots.
    pub rounds: u64,
    /// Counted slots fused on the weighted-LLR rung.
    pub weighted_rung_rounds: u64,
}

impl ByzCell {
    /// Measured fused detection probability over the counted window.
    pub fn pd(&self) -> f64 {
        if self.busy_rounds == 0 {
            0.0
        } else {
            1.0 - self.missed as f64 / self.busy_rounds as f64
        }
    }

    /// Measured fused false-alarm probability over the counted window.
    pub fn pfa(&self) -> f64 {
        if self.idle_rounds == 0 {
            0.0
        } else {
            self.false_alarms as f64 / self.idle_rounds as f64
        }
    }
}

/// The pure per-shard function: one independent replicate per point —
/// cast the adversaries, train a fresh reputation tracker through the
/// warmup window on weighted verdicts, then count `rounds` slots for
/// both fusion modes over the *same* falsified draws. Streamed as
/// `[point0 w-miss, w-fa, w-rung, u-miss, u-fa, u-rung, point1 ...]`.
///
/// The spec must be [`ByzSweepSpec::validate`]-clean; rounds cannot
/// fail afterwards (healthy roster, default transport, finite SNR).
pub fn byz_shard_counts(
    spec: &ByzSweepSpec,
    seed: u64,
    label: u64,
    rounds: usize,
) -> Vec<BerResult> {
    let cfg = spec.round_config();
    let n = spec.n_reporters;
    let states = vec![ReporterState::Healthy; n];
    let mut out = Vec::with_capacity(STREAMS_PER_POINT * spec.byz_counts.len());
    for (bi, &byz) in spec.byz_counts.iter().enumerate() {
        // one derived adversary cast and one disjoint round window per
        // (shard, point), so replicates never share a stream
        let mix = label.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((bi as u64) << 20);
        let suite = ByzantineSuite::new(&ByzantineConfig::always_no(byz), n, seed ^ mix);
        let round_base = (label << 32) | ((bi as u64) << 24);
        let mut tracker = ReputationTracker::new(ReputationConfig::paper(), n);
        let (mut w_miss, mut w_fa, mut w_rung) = (0u64, 0u64, 0u64);
        let (mut u_miss, mut u_fa, mut u_rung) = (0u64, 0u64, 0u64);
        let (mut busy_rounds, mut idle_rounds) = (0u64, 0u64);
        for r in 0..spec.warmup_rounds + rounds as u64 {
            let round = round_base + r;
            let truth = r % 2 == 0;
            let ov = suite.overrides(round);
            let view = tracker.view();
            let (weighted, summaries) = run_round_byz(
                &cfg,
                truth,
                &states,
                &[],
                &ov,
                truth,
                seed,
                round,
                Some(&view),
            )
            .expect("a validated byz sweep cannot fail a sensing round");
            if r >= spec.warmup_rounds {
                let (unweighted, _) =
                    run_round_byz(&cfg, truth, &states, &[], &ov, truth, seed, round, None)
                        .expect("a validated byz sweep cannot fail a sensing round");
                if truth {
                    busy_rounds += 1;
                    w_miss += u64::from(!weighted.decision.busy);
                    u_miss += u64::from(!unweighted.decision.busy);
                } else {
                    idle_rounds += 1;
                    w_fa += u64::from(weighted.decision.busy);
                    u_fa += u64::from(unweighted.decision.busy);
                }
                w_rung += u64::from(weighted.decision.rule_used == RuleUsed::WeightedLlr);
                u_rung += u64::from(unweighted.decision.rule_used == RuleUsed::WeightedLlr);
            }
            // the tracker always trains on the weighted verdict — the
            // head it models is the one actually deployed
            let reports: Vec<(usize, bool, f64)> = summaries
                .iter()
                .map(|s| (s.reporter, s.busy, s.confidence))
                .collect();
            tracker.observe_round(weighted.decision.busy, &reports);
        }
        let total = busy_rounds + idle_rounds;
        out.push(BerResult {
            bits: busy_rounds,
            errors: w_miss,
        });
        out.push(BerResult {
            bits: idle_rounds,
            errors: w_fa,
        });
        out.push(BerResult {
            bits: total,
            errors: w_rung,
        });
        out.push(BerResult {
            bits: busy_rounds,
            errors: u_miss,
        });
        out.push(BerResult {
            bits: idle_rounds,
            errors: u_fa,
        });
        out.push(BerResult {
            bits: total,
            errors: u_rung,
        });
    }
    out
}

/// Runs the byzantine sweep under `cfg` (checkpointing, crash-resume,
/// stop flags and thread-count bit-identity all inherited from the
/// supervisor) and folds the merged stream counts into sweep cells,
/// weighted mode first at every point.
pub fn run_byz_campaign(
    spec: &ByzSweepSpec,
    cfg: &CampaignConfig,
) -> Result<(CampaignReport, Vec<ByzCell>), SweepError> {
    spec.validate().map_err(SweepError::Spec)?;
    let shards: Vec<(u64, usize)> = (0..spec.n_shards)
        .map(|l| (l, spec.rounds_per_shard as usize))
        .collect();
    let n_streams = STREAMS_PER_POINT * spec.byz_counts.len();
    let seed = cfg.seed;
    let spec_for_shards = spec.clone();
    let report = run_campaign_multi(cfg, &shards, n_streams, move |label, rounds| {
        byz_shard_counts(&spec_for_shards, seed, label, rounds)
    })?;
    let mut cells = Vec::with_capacity(2 * spec.byz_counts.len());
    for (bi, &byz) in spec.byz_counts.iter().enumerate() {
        for (weighted, off) in [(true, 0usize), (false, 3)] {
            let s = &report.stream_counts[STREAMS_PER_POINT * bi + off..];
            cells.push(ByzCell {
                byz_count: byz,
                weighted,
                busy_rounds: s[0].bits,
                missed: s[0].errors,
                idle_rounds: s[1].bits,
                false_alarms: s[1].errors,
                rounds: s[2].bits,
                weighted_rung_rounds: s[2].errors,
            });
        }
    }
    Ok((report, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comimo_campaign::CampaignStatus;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const SEED: u64 = 2013;

    fn small_spec() -> ByzSweepSpec {
        ByzSweepSpec {
            byz_counts: vec![0, 2],
            warmup_rounds: 30,
            rounds_per_shard: 40,
            n_shards: 6,
            ..ByzSweepSpec::paper()
        }
    }

    fn base_cfg() -> CampaignConfig {
        let mut cfg = CampaignConfig::new(SEED, small_spec().fingerprint());
        cfg.backoff_base = Duration::ZERO;
        cfg.checkpoint_every_shards = 2;
        cfg
    }

    fn temp_ck(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("comimo_byz_{name}_{}.ck", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn f_adversaries_degrade_unweighted_and_weighted_restores_pd() {
        // THE acceptance pin: f = floor((n-1)/3) = 2 always-no vandals
        // of n = 7 at k_frac 0.75 make the unweighted head miss busy
        // slots wholesale, while the weighted head — counting only
        // post-warmup slots, after reputation convergence — holds the
        // missed-detect budget (zero misses at 30 dB)
        let spec = small_spec();
        let (report, cells) = run_byz_campaign(&spec, &base_cfg()).unwrap();
        assert_eq!(report.status, CampaignStatus::Complete);
        assert_eq!(cells.len(), 4);
        let cell = |byz: usize, weighted: bool| {
            *cells
                .iter()
                .find(|c| c.byz_count == byz && c.weighted == weighted)
                .unwrap()
        };
        let total = spec.rounds_per_shard * spec.n_shards;
        for c in &cells {
            assert_eq!(c.rounds, total);
            assert_eq!(c.busy_rounds + c.idle_rounds, total);
        }

        // zero adversaries: both modes detect everything, and neither
        // false-alarms its way past the other
        let (w0, u0) = (cell(0, true), cell(0, false));
        assert_eq!(w0.missed, 0, "clean weighted head must not miss");
        assert_eq!(u0.missed, 0, "clean unweighted head must not miss");
        assert!((w0.pfa() - u0.pfa()).abs() < 0.05, "{w0:?} vs {u0:?}");
        assert!(
            w0.weighted_rung_rounds > w0.rounds / 2,
            "the weighted rung must carry a healthy cluster: {w0:?}"
        );
        assert_eq!(u0.weighted_rung_rounds, 0, "no view, no weighted rung");

        // f adversaries: unweighted collapses, weighted is restored
        let (w2, u2) = (cell(2, true), cell(2, false));
        assert!(
            u2.pd() < 0.5,
            "2-of-7 always-no at k_frac 0.75 must gut unweighted Pd, got {}",
            u2.pd()
        );
        assert_eq!(
            w2.missed, 0,
            "the converged weighted head must contain f vandals: {w2:?}"
        );
        assert!(
            w2.weighted_rung_rounds > w2.rounds / 2,
            "containment must happen on the weighted rung: {w2:?}"
        );
    }

    #[test]
    fn shard_counts_are_pure_and_decorrelated_across_shards() {
        let spec = small_spec();
        let a = byz_shard_counts(&spec, SEED, 3, 20);
        assert_eq!(a, byz_shard_counts(&spec, SEED, 3, 20));
        assert_eq!(a.len(), STREAMS_PER_POINT * spec.byz_counts.len());
        // at 30 dB every shard detects perfectly, so decorrelation only
        // shows at a marginal SNR where per-shard randomness matters
        let marginal = ByzSweepSpec {
            snr_db: 0.0,
            byz_counts: vec![0],
            warmup_rounds: 0,
            ..small_spec()
        };
        let b = byz_shard_counts(&marginal, SEED, 3, 60);
        let c = byz_shard_counts(&marginal, SEED, 4, 60);
        assert_ne!(b, c, "different shards must draw different streams");
    }

    #[test]
    fn fingerprint_covers_every_axis() {
        let spec = small_spec();
        let mut wider = spec.clone();
        wider.byz_counts.push(3);
        let mut warmer = spec.clone();
        warmer.warmup_rounds += 1;
        let mut floored = spec.clone();
        floored.reliability_floor = 0.5;
        assert_ne!(spec.fingerprint(), wider.fingerprint());
        assert_ne!(spec.fingerprint(), warmer.fingerprint());
        assert_ne!(spec.fingerprint(), floored.fingerprint());
        assert_eq!(spec.fingerprint(), small_spec().fingerprint());
    }

    #[test]
    fn invalid_specs_surface_typed_errors_not_panics() {
        let cases: Vec<(ByzSweepSpec, &str)> = vec![
            (
                ByzSweepSpec {
                    n_samples: 0,
                    ..small_spec()
                },
                "n_samples",
            ),
            (
                ByzSweepSpec {
                    target_pfa: 1.5,
                    ..small_spec()
                },
                "target_pfa",
            ),
            (
                ByzSweepSpec {
                    n_reporters: 0,
                    ..small_spec()
                },
                "n_reporters",
            ),
            (
                ByzSweepSpec {
                    snr_db: f64::NAN,
                    ..small_spec()
                },
                "snr_db",
            ),
            (
                ByzSweepSpec {
                    report_snr_db: f64::NAN,
                    ..small_spec()
                },
                "report_snr_db",
            ),
            (
                ByzSweepSpec {
                    k_frac: 0.0,
                    ..small_spec()
                },
                "k_frac",
            ),
            (
                ByzSweepSpec {
                    reliability_floor: 2.0,
                    ..small_spec()
                },
                "reliability_floor",
            ),
            (
                ByzSweepSpec {
                    min_quorum: 0,
                    ..small_spec()
                },
                "min_quorum",
            ),
            (
                ByzSweepSpec {
                    byz_counts: vec![],
                    ..small_spec()
                },
                "byz_counts",
            ),
            (
                ByzSweepSpec {
                    byz_counts: vec![8],
                    ..small_spec()
                },
                "byz count",
            ),
            (
                ByzSweepSpec {
                    rounds_per_shard: 0,
                    ..small_spec()
                },
                "rounds_per_shard",
            ),
        ];
        for (spec, needle) in cases {
            let err = spec.validate().unwrap_err();
            match err {
                SensingError::InvalidSpec { what } => {
                    assert!(what.contains(needle), "{what:?} should mention {needle:?}");
                }
                other => panic!("expected InvalidSpec, got {other:?}"),
            }
            // the campaign front door returns the same typed error
            let cfg = CampaignConfig::new(SEED, 0);
            assert!(matches!(
                run_byz_campaign(&spec, &cfg),
                Err(SweepError::Spec(SensingError::InvalidSpec { .. }))
            ));
        }
    }

    #[test]
    fn serial_and_parallel_campaigns_are_bit_identical() {
        let spec = small_spec();
        let mut serial = base_cfg();
        serial.serial = true;
        let (a, cells_a) = run_byz_campaign(&spec, &serial).unwrap();
        let (b, cells_b) = run_byz_campaign(&spec, &base_cfg()).unwrap();
        assert_eq!(a.stream_counts, b.stream_counts);
        assert_eq!(cells_a, cells_b);
    }

    #[test]
    fn stopped_and_resumed_campaign_matches_uninterrupted_counts() {
        // the reputation state rides the resume for free: every shard
        // replays its own training window from derived streams, so a
        // mid-campaign stop loses nothing
        let spec = small_spec();
        let ck = temp_ck("resume");
        let (reference, _) = run_byz_campaign(&spec, &base_cfg()).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let mut cfg = base_cfg();
        cfg.checkpoint = Some(ck.clone());
        cfg.stop = Some(stop.clone());
        let shards: Vec<(u64, usize)> = (0..spec.n_shards)
            .map(|l| (l, spec.rounds_per_shard as usize))
            .collect();
        let n_streams = STREAMS_PER_POINT * spec.byz_counts.len();
        let stop_in = stop.clone();
        let executed = Arc::new(AtomicU64::new(0));
        let counter = executed.clone();
        let partial = run_campaign_multi(&cfg, &shards, n_streams, |label, rounds| {
            if counter.fetch_add(1, Ordering::SeqCst) + 1 >= 2 {
                stop_in.store(true, Ordering::SeqCst);
            }
            byz_shard_counts(&spec, SEED, label, rounds)
        })
        .unwrap();
        assert_eq!(partial.status, CampaignStatus::Stopped);
        assert!(partial.completed_shards < spec.n_shards);

        let mut cfg = base_cfg();
        cfg.checkpoint = Some(ck.clone());
        cfg.resume = true;
        let (full, _) = run_byz_campaign(&spec, &cfg).unwrap();
        assert_eq!(full.status, CampaignStatus::Complete);
        assert_eq!(full.resumed_shards, partial.completed_shards);
        assert_eq!(
            full.stream_counts, reference.stream_counts,
            "stopped-and-resumed byz counts must be bit-identical"
        );
        std::fs::remove_file(&ck).unwrap();
    }
}
