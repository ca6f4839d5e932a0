//! Cluster-head decision fusion with graceful degradation.
//!
//! The head fuses the local decisions that survived transport (Rossi et
//! al., MIMO decision fusion) under a configured rule — AND, OR,
//! k-out-of-N, or soft LLR fusion of reports decoded off the noisy
//! long-haul. The quorum is re-derived from the *distinct* reporters
//! that actually arrived, not from the nominal roster, so reporter
//! churn mid-window shrinks `k` instead of making the rule
//! unsatisfiable (and duplicate frames that slip past transport dedup
//! can never inflate it); when report quality or quantity thins, the
//! head degrades down a fixed ladder:
//!
//! ```text
//! weighted LLR  →  soft LLR  →  hard-decode  →  (configured rule)  →
//! OR over whatever arrived  →  head-local sensing
//! ```
//!
//! The first three rungs exist only on the soft path
//! ([`fuse_soft`]): when the head holds a
//! [`ReputationView`] (Byzantine-resilient mode) each reporter's
//! posterior is scaled by its trust weight and quarantined reporters
//! are dropped *before* quorum-k re-derivation — on every rung, OR and
//! head-local fallbacks included; without a view the unweighted soft
//! rung fuses the raw posteriors. When the mean decoder confidence of
//! the arrived [`SoftReport`]s drops below the [`FusionRule::Llr`]
//! reliability floor the head stops trusting the posteriors and
//! hard-decodes the LLR signs; the clean boolean path
//! ([`fuse`]/[`fuse_reports`]) starts at the configured rung. Every
//! decision records which rung produced it ([`RuleUsed`]) plus the
//! report count and quorum it used — the observability the
//! `INV-FUSION-QUORUM`, `INV-LLR-DEGRADE-ORDER` and
//! `INV-REPUTATION-SANE` invariants check.

use crate::reputation::ReputationView;
use comimo_math::special::ln_gamma;
use comimo_stbc::SoftReport;
use serde::Serialize;

/// The configured fusion rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FusionRule {
    /// Busy only if *every* report says busy (minimizes false alarms).
    And,
    /// Busy if *any* report says busy (minimizes missed detections).
    Or,
    /// Busy if at least `ceil(k_frac · n)` of the `n` arrived reports
    /// say busy — `k` is re-derived per round as reporters churn.
    KOutOfN {
        /// Fraction of arrived reports required, in `(0, 1]`.
        k_frac: f64,
    },
    /// Soft LLR fusion of reports decoded off the noisy long-haul: busy
    /// if the summed posterior "busy" probabilities reach the k-out-of-N
    /// quorum `ceil(k_frac · n)`. At report SNR → ∞ the posteriors
    /// saturate to exactly 0/1 and this reproduces [`Self::KOutOfN`]
    /// count for count. When the mean decoder confidence falls below
    /// `reliability_floor`, [`fuse_soft`] stops trusting the posteriors
    /// and degrades to hard-decoding the LLR signs.
    Llr {
        /// Fraction of arrived reports required, in `(0, 1]`.
        k_frac: f64,
        /// Mean per-report confidence (∈ [0.5, 1]) below which the soft
        /// rung is abandoned for hard decoding.
        reliability_floor: f64,
    },
}

/// Fusion rule plus the degradation threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FusionConfig {
    /// The rule used while the quorum holds.
    pub rule: FusionRule,
    /// Minimum arrived reports for the configured rule; below this the
    /// head falls back to OR, and with zero reports to local sensing.
    pub min_quorum: usize,
}

impl FusionConfig {
    /// The experiments' default: majority voting (k-out-of-N at ½) with
    /// the configured rule requiring at least 2 arrived reports.
    pub fn paper() -> Self {
        Self {
            rule: FusionRule::KOutOfN { k_frac: 0.5 },
            min_quorum: 2,
        }
    }

    /// The noisy-long-haul default: majority LLR fusion with the given
    /// reliability floor, same quorum threshold as [`Self::paper`].
    pub fn paper_llr(reliability_floor: f64) -> Self {
        Self {
            rule: FusionRule::Llr {
                k_frac: 0.5,
                reliability_floor,
            },
            min_quorum: 2,
        }
    }

    /// The reliability floor of the soft rung, or `+inf` when the rule
    /// has no soft rung at all (making that rung never eligible).
    pub fn reliability_floor(&self) -> f64 {
        match self.rule {
            FusionRule::Llr {
                reliability_floor, ..
            } => reliability_floor,
            _ => f64::INFINITY,
        }
    }
}

/// Which rung of the degradation ladder produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RuleUsed {
    /// Reputation-weighted soft LLR fusion ran: a reputation view was
    /// available, quorum held over the *eligible* reporters and the
    /// decoded posteriors were reliable enough to trust (soft path
    /// only).
    WeightedLlr,
    /// Soft LLR fusion ran: quorum held and the decoded posteriors were
    /// reliable enough to trust (soft path only).
    LlrSoft,
    /// Decoder confidence under the reliability floor: the LLR signs
    /// were hard-decoded and fused under the configured quorum (soft
    /// path only).
    HardDecode,
    /// The configured rule ran with a full-enough quorum (clean path).
    Configured,
    /// Too few reports for the configured rule: OR over what arrived.
    OrFallback,
    /// No reports at all: the head's own detector decided alone.
    HeadLocal,
}

impl RuleUsed {
    /// Position on the degradation ladder, `0` (most capable) to `5`
    /// (head-local). The `INV-LLR-DEGRADE-ORDER` invariant checks that
    /// every decision sits on the *first* eligible rung — the ladder is
    /// walked monotonically, never skipping upward.
    pub fn rung_index(self) -> u8 {
        match self {
            Self::WeightedLlr => 0,
            Self::LlrSoft => 1,
            Self::HardDecode => 2,
            Self::Configured => 3,
            Self::OrFallback => 4,
            Self::HeadLocal => 5,
        }
    }
}

/// The ladder bookkeeping behind one fused decision: everything the
/// `INV-LLR-DEGRADE-ORDER` invariant needs to independently recompute
/// which rung *should* have decided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LadderEvidence {
    /// Whether the soft (noisy long-haul) path fused this round; the
    /// clean boolean path has no soft or hard-decode rungs.
    pub soft_path: bool,
    /// Whether a reputation view was supplied, making the weighted rung
    /// eligible (soft path only).
    pub weighted: bool,
    /// The rung that actually decided.
    pub rung: RuleUsed,
    /// Distinct reporters whose reports were fused (after dedup).
    pub n_distinct: usize,
    /// Raw delivered reports before reporter dedup.
    pub n_raw: usize,
    /// Distinct quarantined reporters whose delivered reports were
    /// dropped *before* quorum-k re-derivation — `INV-REPUTATION-SANE`
    /// pins that they are never counted toward `k`.
    pub n_quarantined: usize,
    /// The effective quorum threshold `max(1, min_quorum)`.
    pub min_quorum: usize,
    /// Mean decoder confidence over the distinct reports (`1.0` on the
    /// clean path, `0.0` with no reports).
    pub mean_confidence: f64,
    /// The soft rung's reliability floor (`+inf` when the configured
    /// rule has no soft rung).
    pub reliability_floor: f64,
}

/// One fused decision, with the evidence it rests on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FusionDecision {
    /// The fused verdict: `true` = busy, stay off the channel.
    pub busy: bool,
    /// Which degradation rung decided.
    pub rule_used: RuleUsed,
    /// Reports that arrived and were fused (0 on the head-local rung).
    pub reports_used: usize,
    /// Busy votes required by the rung that decided (0 head-local).
    pub quorum: usize,
}

/// The quorum a rule demands over `n_reports` arrived reports. For
/// k-out-of-N this is where `k` is re-derived as reporters churn:
/// `max(1, ceil(k_frac · n_reports))` — never larger than `n_reports`,
/// never zero, and well-defined for any `n_reports ≥ 1`.
pub fn quorum_of(rule: FusionRule, n_reports: usize) -> usize {
    assert!(n_reports >= 1, "quorum of an empty report set is undefined");
    match rule {
        FusionRule::And => n_reports,
        FusionRule::Or => 1,
        FusionRule::KOutOfN { k_frac } | FusionRule::Llr { k_frac, .. } => {
            assert!(k_frac > 0.0 && k_frac <= 1.0, "k_frac must be in (0, 1]");
            ((k_frac * n_reports as f64).ceil() as usize).clamp(1, n_reports)
        }
    }
}

/// Keeps the first report from each distinct reporter, preserving
/// arrival order. Transport already dedupes in-round retransmissions,
/// but a duplicate that slips through late (e.g. a stale frame accepted
/// across a round boundary) must not inflate `n` — and with it the
/// re-derived `k` — past the number of distinct reporters.
fn dedupe_by_reporter<T: Copy>(reports: &[(usize, T)]) -> Vec<(usize, T)> {
    let mut seen: Vec<usize> = Vec::with_capacity(reports.len());
    let mut out = Vec::with_capacity(reports.len());
    for &(id, payload) in reports {
        if !seen.contains(&id) {
            seen.push(id);
            out.push((id, payload));
        }
    }
    out
}

/// Drops reports from quarantined reporters *before* dedup and quorum
/// re-derivation, returning the survivors plus the count of distinct
/// quarantined reporters whose reports were discarded. With no view
/// every report survives — the unweighted paths are bit-identical to
/// the pre-reputation era.
fn filter_eligible<T: Copy>(
    reports: &[(usize, T)],
    rep: Option<&ReputationView>,
) -> (Vec<(usize, T)>, usize) {
    let Some(view) = rep else {
        return (reports.to_vec(), 0);
    };
    let mut dropped: Vec<usize> = Vec::new();
    let kept: Vec<(usize, T)> = reports
        .iter()
        .filter(|&&(id, _)| {
            let ok = view.is_eligible(id);
            if !ok && !dropped.contains(&id) {
                dropped.push(id);
            }
            ok
        })
        .copied()
        .collect();
    (kept, dropped.len())
}

/// Median of a non-empty sample (total order over f64 bits; the mean of
/// the two middles for even sizes).
fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Robust-median outlier cut for the cold-start window: a report is an
/// outlier when its posterior sits more than `MAD_K × max(MAD,
/// MAD_FLOOR)` from the roster median. The floor keeps a saturated
/// honest majority (MAD = 0) from being unable to reject anything.
const MAD_K: f64 = 3.0;
const MAD_FLOOR: f64 = 0.05;

/// Fuses the arrived `reports` (one bool per surviving reporter) under
/// `cfg`, degrading to OR and then to the head's own `head_local`
/// decision as the quorum thins. Total: never panics, never divides by
/// a zero reporter count.
pub fn fuse(cfg: &FusionConfig, reports: &[bool], head_local: bool) -> FusionDecision {
    let n = reports.len();
    if n == 0 {
        return FusionDecision {
            busy: head_local,
            rule_used: RuleUsed::HeadLocal,
            reports_used: 0,
            quorum: 0,
        };
    }
    let positives = reports.iter().filter(|&&b| b).count();
    if n >= cfg.min_quorum.max(1) {
        let quorum = quorum_of(cfg.rule, n);
        FusionDecision {
            busy: positives >= quorum,
            rule_used: RuleUsed::Configured,
            reports_used: n,
            quorum,
        }
    } else {
        FusionDecision {
            busy: positives >= 1,
            rule_used: RuleUsed::OrFallback,
            reports_used: n,
            quorum: 1,
        }
    }
}

/// [`fuse`] over the *distinct* reporters in `reports` (`(reporter_id,
/// busy)` pairs, first report per reporter wins): the clean-path entry
/// point for callers that track provenance, closing the duplicate
/// quorum-inflation hole of bare [`fuse`]. Also returns the
/// [`LadderEvidence`] the chaos invariants consume.
///
/// Under a reputation view (`rep`), reports from quarantined reporters
/// are dropped *before* dedup, so they can never count toward the
/// re-derived quorum on any rung — the configured rule, the OR
/// fallback, and (when everyone delivered is quarantined) the
/// head-local rung all see only eligible reporters. The clean path has
/// no weighted rung (there are no posteriors to scale), so the view
/// only filters here; `None` fuses every reporter.
pub fn fuse_reports(
    cfg: &FusionConfig,
    reports: &[(usize, bool)],
    head_local: bool,
    rep: Option<&ReputationView>,
) -> (FusionDecision, LadderEvidence) {
    let (eligible, n_quarantined) = filter_eligible(reports, rep);
    let distinct = dedupe_by_reporter(&eligible);
    let bits: Vec<bool> = distinct.iter().map(|&(_, b)| b).collect();
    let decision = fuse(cfg, &bits, head_local);
    let evidence = LadderEvidence {
        soft_path: false,
        weighted: false,
        rung: decision.rule_used,
        n_distinct: distinct.len(),
        n_raw: reports.len(),
        n_quarantined,
        min_quorum: cfg.min_quorum.max(1),
        mean_confidence: if distinct.is_empty() { 0.0 } else { 1.0 },
        reliability_floor: cfg.reliability_floor(),
    };
    (decision, evidence)
}

/// Fuses soft reports decoded off the noisy long-haul, walking the full
/// degradation ladder:
///
/// 0. **weighted LLR** — only with a [`ReputationView`] (`rep`, the
///    Byzantine-resilient mode): quorum holds over the *eligible*
///    (non-quarantined, distinct) reporters, and the posteriors are
///    reliable: each reporter's posterior is scaled by its trust weight
///    and the normalized vote `n·Σwᵢpᵢ/Σwᵢ` is compared to the same
///    `k − ½` threshold as the unweighted rung. Under any *uniform*
///    weight vector the normalization cancels exactly and the rung
///    reproduces unweighted soft fusion count for count (the pinned
///    oracle). While the view is **not yet converged** (cold start,
///    near-prior weights), robust-median outlier rejection zeroes the
///    weight of reports whose posterior sits far from the roster
///    median — the guard that keeps an SSDF coalition from steering
///    verdicts before reputation has evidence to separate it;
/// 1. **soft LLR** — quorum holds *and* the mean decoder confidence is
///    at or above the rule's reliability floor: busy iff the summed
///    posteriors reach the re-derived `k`;
/// 2. **hard-decode** — quorum holds but the channel left the decoder
///    unsure: the LLR signs are fused as hard bits under the same `k`;
/// 3. **OR fallback** — below quorum: OR over the hard bits that made it;
/// 4. **head-local** — nothing arrived: the head decides alone.
///
/// Reports are deduped to distinct reporters first (first report wins),
/// so a duplicate can never inflate the re-derived quorum. Quarantined
/// reporters are dropped *before* dedup and quorum-k re-derivation on
/// every rung; with everyone quarantined the head decides alone. Total:
/// never panics, never divides by a zero reporter count.
pub fn fuse_soft(
    cfg: &FusionConfig,
    reports: &[(usize, SoftReport)],
    head_local: bool,
    rep: Option<&ReputationView>,
) -> (FusionDecision, LadderEvidence) {
    let (eligible, n_quarantined) = filter_eligible(reports, rep);
    let distinct = dedupe_by_reporter(&eligible);
    let n = distinct.len();
    let min_quorum = cfg.min_quorum.max(1);
    let floor = cfg.reliability_floor();
    let mean_confidence = if n == 0 {
        0.0
    } else {
        distinct.iter().map(|(_, r)| r.confidence()).sum::<f64>() / n as f64
    };
    let evidence = |rung| LadderEvidence {
        soft_path: true,
        weighted: rep.is_some(),
        rung,
        n_distinct: n,
        n_raw: reports.len(),
        n_quarantined,
        min_quorum,
        mean_confidence,
        reliability_floor: floor,
    };
    if n == 0 {
        return (
            FusionDecision {
                busy: head_local,
                rule_used: RuleUsed::HeadLocal,
                reports_used: 0,
                quorum: 0,
            },
            evidence(RuleUsed::HeadLocal),
        );
    }
    let hard_positives = distinct.iter().filter(|(_, r)| r.hard_bit()).count();
    if n >= min_quorum {
        let quorum = quorum_of(cfg.rule, n);
        if mean_confidence >= floor {
            // soft vote mass: busy iff it rounds to at least k busy
            // reporters. The half-vote slack matters: a strict `V ≥ k`
            // can never fire at `k = n` under finite SNR (n posteriors
            // of 1−ε sum below n forever). At report SNR → ∞ the
            // posteriors saturate to exactly 0/1, the sum is an exact
            // integer, and `V ≥ k − ½ ⟺ V ≥ k` — count-identical to
            // k-out-of-N
            let soft_votes: f64 = distinct.iter().map(|(_, r)| r.posterior_busy()).sum();
            match rep {
                Some(view) => {
                    let posteriors: Vec<f64> =
                        distinct.iter().map(|(_, r)| r.posterior_busy()).collect();
                    let mut weights: Vec<f64> =
                        distinct.iter().map(|&(id, _)| view.weight_of(id)).collect();
                    if !view.converged() && n >= 3 {
                        // cold-start guard: the weights are still near
                        // the prior, so reject outliers around the
                        // robust median instead of trusting them
                        let med = median(&posteriors);
                        let devs: Vec<f64> = posteriors.iter().map(|p| (p - med).abs()).collect();
                        let cut = MAD_K * median(&devs).max(MAD_FLOOR);
                        for (w, d) in weights.iter_mut().zip(&devs) {
                            if *d > cut {
                                *w = 0.0;
                            }
                        }
                    }
                    let w_sum: f64 = weights.iter().sum();
                    let uniform = weights.iter().all(|&w| w == weights[0]);
                    // a uniform weight vector cancels exactly: use the
                    // raw vote so the reduction to unweighted fusion is
                    // bit-identical, not merely close
                    let vote = if uniform || w_sum <= 0.0 {
                        soft_votes
                    } else {
                        let wp: f64 = weights.iter().zip(&posteriors).map(|(w, p)| w * p).sum();
                        n as f64 * wp / w_sum
                    };
                    (
                        FusionDecision {
                            busy: vote >= quorum as f64 - 0.5,
                            rule_used: RuleUsed::WeightedLlr,
                            reports_used: n,
                            quorum,
                        },
                        evidence(RuleUsed::WeightedLlr),
                    )
                }
                None => (
                    FusionDecision {
                        busy: soft_votes >= quorum as f64 - 0.5,
                        rule_used: RuleUsed::LlrSoft,
                        reports_used: n,
                        quorum,
                    },
                    evidence(RuleUsed::LlrSoft),
                ),
            }
        } else {
            (
                FusionDecision {
                    busy: hard_positives >= quorum,
                    rule_used: RuleUsed::HardDecode,
                    reports_used: n,
                    quorum,
                },
                evidence(RuleUsed::HardDecode),
            )
        }
    } else {
        (
            FusionDecision {
                busy: hard_positives >= 1,
                rule_used: RuleUsed::OrFallback,
                reports_used: n,
                quorum: 1,
            },
            evidence(RuleUsed::OrFallback),
        )
    }
}

/// Closed-form fused positive probability for k-out-of-N over `n` iid
/// reporters each positive with probability `p`: the binomial tail
/// `Σ_{i=k}^{n} C(n,i) pⁱ (1−p)^{n−i}`, computed in log space via
/// [`ln_gamma`] so large `n` stays stable. Feeding per-reporter `Pd`
/// gives the fused `Pd`; feeding per-reporter `Pfa` gives the fused
/// `Pfa`.
pub fn fused_positive_prob(n: usize, k: usize, p: f64) -> f64 {
    assert!(n >= 1 && k >= 1 && k <= n);
    assert!((0.0..=1.0).contains(&p));
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let (nf, lp, lq) = (n as f64, p.ln(), (1.0 - p).ln());
    let ln_choose = |i: f64| ln_gamma(nf + 1.0) - ln_gamma(i + 1.0) - ln_gamma(nf - i + 1.0);
    (k..=n)
        .map(|i| {
            let i = i as f64;
            (ln_choose(i) + i * lp + (nf - i) * lq).exp()
        })
        .sum::<f64>()
        .min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_is_rederived_as_the_arrived_report_count_churns() {
        // majority at ½: 8 reports need 4 busy votes, 4 need 2, 1 needs 1
        let rule = FusionRule::KOutOfN { k_frac: 0.5 };
        assert_eq!(quorum_of(rule, 8), 4);
        assert_eq!(quorum_of(rule, 5), 3); // ceil(2.5)
        assert_eq!(quorum_of(rule, 4), 2);
        assert_eq!(quorum_of(rule, 1), 1);
        // the quorum never exceeds what arrived, even at k_frac = 1
        assert_eq!(quorum_of(FusionRule::KOutOfN { k_frac: 1.0 }, 3), 3);
        assert_eq!(quorum_of(FusionRule::And, 6), 6);
        assert_eq!(quorum_of(FusionRule::Or, 6), 1);
    }

    #[test]
    fn zero_reports_fall_back_to_head_local_without_panicking() {
        let cfg = FusionConfig::paper();
        for head_local in [false, true] {
            let d = fuse(&cfg, &[], head_local);
            assert_eq!(d.rule_used, RuleUsed::HeadLocal);
            assert_eq!(d.busy, head_local);
            assert_eq!(d.reports_used, 0);
            assert_eq!(d.quorum, 0);
        }
    }

    #[test]
    fn sub_quorum_rounds_use_the_or_fallback() {
        let cfg = FusionConfig {
            rule: FusionRule::And,
            min_quorum: 3,
        };
        // 2 < min_quorum: AND would say idle here, OR must say busy
        let d = fuse(&cfg, &[true, false], false);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert!(d.busy);
        assert_eq!(d.quorum, 1);
        let d = fuse(&cfg, &[false, false], true);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert!(!d.busy, "OR fallback ignores the head-local bit");
    }

    #[test]
    fn configured_rules_have_their_textbook_semantics() {
        let and = FusionConfig {
            rule: FusionRule::And,
            min_quorum: 1,
        };
        assert!(fuse(&and, &[true, true, true], false).busy);
        assert!(!fuse(&and, &[true, false, true], false).busy);
        let or = FusionConfig {
            rule: FusionRule::Or,
            min_quorum: 1,
        };
        assert!(fuse(&or, &[false, false, true], false).busy);
        assert!(!fuse(&or, &[false, false, false], true).busy);
        let maj = FusionConfig::paper();
        assert!(fuse(&maj, &[true, true, false], false).busy);
        assert!(!fuse(&maj, &[true, false, false], false).busy);
    }

    #[test]
    fn every_decision_meets_its_own_quorum_accounting() {
        // the structural property INV-FUSION-QUORUM pins: whenever a
        // non-head-local rung decides, reports_used ≥ quorum ≥ 1
        let cfg = FusionConfig::paper();
        for n in 0..10usize {
            let reports = vec![true; n];
            let d = fuse(&cfg, &reports, false);
            if d.rule_used == RuleUsed::HeadLocal {
                assert_eq!(n, 0);
            } else {
                assert!(d.quorum >= 1 && d.reports_used >= d.quorum, "n = {n}");
            }
        }
    }

    /// A soft report with the given LLR (gain/SNR fields irrelevant to
    /// fusion).
    fn soft(llr: f64) -> SoftReport {
        SoftReport {
            llr,
            channel_gain: 1.0,
            report_snr: llr.abs(),
        }
    }

    #[test]
    fn duplicate_reporters_cannot_inflate_the_rederived_quorum() {
        // regression: three frames from ONE reporter used to count as
        // n = 3, deriving k = 2 under majority and jumping straight to
        // the configured rung — a single distinct reporter must walk
        // the OR fallback instead
        let cfg = FusionConfig::paper();
        let (d, ev) = fuse_reports(&cfg, &[(4, true), (4, true), (4, true)], false, None);
        assert_eq!(ev.n_raw, 3);
        assert_eq!(ev.n_distinct, 1);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert_eq!(d.reports_used, 1);
        assert!(d.quorum <= ev.n_distinct, "k must never exceed distinct");
        // first report per reporter wins; a later contradicting dupe is
        // discarded: majority over [(0,true),(1,false)] has k = 1 → busy
        let (d, _) = fuse_reports(&cfg, &[(0, true), (1, false), (0, false)], false, None);
        assert_eq!(d.reports_used, 2);
        assert_eq!(d.rule_used, RuleUsed::Configured);
        assert!(d.busy, "the late duplicate must not overwrite reporter 0");
        let (soft_d, soft_ev) = fuse_soft(
            &FusionConfig::paper_llr(0.6),
            &[(7, soft(50.0)), (7, soft(50.0))],
            false,
            None,
        );
        assert_eq!(soft_ev.n_distinct, 1);
        assert_eq!(soft_d.rule_used, RuleUsed::OrFallback);
    }

    #[test]
    fn soft_rung_decides_when_confident() {
        let cfg = FusionConfig::paper_llr(0.9);
        let (d, ev) = fuse_soft(
            &cfg,
            &[(0, soft(40.0)), (1, soft(35.0)), (2, soft(-42.0))],
            false,
            None,
        );
        assert_eq!(d.rule_used, RuleUsed::LlrSoft);
        assert_eq!(ev.rung, RuleUsed::LlrSoft);
        assert_eq!(d.quorum, 2);
        assert!(d.busy, "2 of 3 confident busy posteriors beat k = 2");
        assert!(ev.mean_confidence >= 0.9);
        assert!(!ev.weighted, "no reputation view was supplied");
        assert_eq!(ev.n_quarantined, 0);
        assert_eq!(ev.rung.rung_index(), 1);
    }

    #[test]
    fn low_confidence_degrades_to_hard_decoding() {
        // |llr| ≈ 0.2 → confidence ≈ 0.55, under a 0.9 floor
        let cfg = FusionConfig::paper_llr(0.9);
        let (d, ev) = fuse_soft(
            &cfg,
            &[(0, soft(0.2)), (1, soft(0.2)), (2, soft(-0.1))],
            false,
            None,
        );
        assert_eq!(d.rule_used, RuleUsed::HardDecode);
        assert!(ev.mean_confidence < 0.9);
        assert!(d.busy, "hard bits 2/3 busy meet k = 2");
        assert_eq!(ev.rung.rung_index(), 2);
    }

    #[test]
    fn sub_quorum_soft_rounds_use_the_or_fallback() {
        let cfg = FusionConfig::paper_llr(0.9);
        let (d, _) = fuse_soft(&cfg, &[(3, soft(100.0))], false, None);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert!(d.busy);
        let (d, _) = fuse_soft(&cfg, &[(3, soft(-100.0))], true, None);
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert!(!d.busy, "OR fallback ignores the head-local bit");
    }

    #[test]
    fn empty_soft_rounds_fall_back_to_head_local() {
        let cfg = FusionConfig::paper_llr(0.9);
        for head_local in [false, true] {
            let (d, ev) = fuse_soft(&cfg, &[], head_local, None);
            assert_eq!(d.rule_used, RuleUsed::HeadLocal);
            assert_eq!(d.busy, head_local);
            assert_eq!(ev.mean_confidence, 0.0);
            assert_eq!(ev.rung.rung_index(), 5);
        }
    }

    #[test]
    fn saturated_posteriors_reproduce_k_out_of_n_exactly() {
        // the SNR → ∞ oracle property at the fusion layer: ±inf LLRs
        // give posteriors of exactly 1.0/0.0, so the soft vote equals
        // the hard count bit for bit
        let soft_cfg = FusionConfig::paper_llr(0.9);
        let hard_cfg = FusionConfig::paper();
        for mask in 0..32u32 {
            let softs: Vec<(usize, SoftReport)> = (0..5)
                .map(|i| {
                    let bit = mask & (1 << i) != 0;
                    (
                        i,
                        soft(if bit {
                            f64::INFINITY
                        } else {
                            f64::NEG_INFINITY
                        }),
                    )
                })
                .collect();
            let bits: Vec<bool> = (0..5).map(|i| mask & (1 << i) != 0).collect();
            let (soft_d, ev) = fuse_soft(&soft_cfg, &softs, false, None);
            let hard_d = fuse(&hard_cfg, &bits, false);
            assert_eq!(soft_d.rule_used, RuleUsed::LlrSoft);
            assert_eq!(ev.mean_confidence, 1.0);
            assert_eq!(soft_d.busy, hard_d.busy, "mask {mask:05b}");
            assert_eq!(soft_d.quorum, hard_d.quorum);
            assert_eq!(soft_d.reports_used, hard_d.reports_used);
        }
    }

    #[test]
    fn non_llr_rules_never_reach_the_soft_rung() {
        // a KOutOfN rule has no reliability floor: its soft-path fusions
        // hard-decode even at perfect confidence
        let cfg = FusionConfig::paper();
        assert_eq!(cfg.reliability_floor(), f64::INFINITY);
        let (d, _) = fuse_soft(
            &cfg,
            &[(0, soft(f64::INFINITY)), (1, soft(80.0))],
            false,
            None,
        );
        assert_eq!(d.rule_used, RuleUsed::HardDecode);
        assert!(d.busy);
    }

    #[test]
    fn uniform_converged_weights_reproduce_unweighted_llr_count_for_count() {
        // THE pinned oracle at the fusion layer: under any uniform,
        // converged weight vector the weighted rung's normalization
        // cancels exactly — same busy bit, same quorum, same report
        // count as unweighted soft fusion, for saturated and finite
        // LLRs alike
        use crate::reputation::ReputationView;
        let cfg = FusionConfig::paper_llr(0.6);
        let view = ReputationView::uniform_converged(5);
        for mask in 0..32u32 {
            for scale in [0.4, 2.0, f64::INFINITY] {
                let softs: Vec<(usize, SoftReport)> = (0..5)
                    .map(|i| {
                        let bit = mask & (1 << i) != 0;
                        (i, soft(if bit { scale } else { -scale }))
                    })
                    .collect();
                let (unweighted, _) = fuse_soft(&cfg, &softs, false, None);
                let (weighted, ev) = fuse_soft(&cfg, &softs, false, Some(&view));
                if unweighted.rule_used == RuleUsed::LlrSoft {
                    assert_eq!(weighted.rule_used, RuleUsed::WeightedLlr);
                    assert!(ev.weighted);
                    assert_eq!(ev.rung.rung_index(), 0);
                } else {
                    assert_eq!(weighted.rule_used, unweighted.rule_used);
                }
                assert_eq!(weighted.busy, unweighted.busy, "mask {mask:05b} × {scale}");
                assert_eq!(weighted.quorum, unweighted.quorum);
                assert_eq!(weighted.reports_used, unweighted.reports_used);
            }
        }
    }

    #[test]
    fn quarantined_reporters_are_excluded_on_every_rung() {
        // satellite regression: quorum-k re-derivation must count only
        // eligible reporters — configured, OR and head-local included
        use crate::reputation::{ReputationConfig, ReputationTracker, TrustState};
        let mut tracker = ReputationTracker::new(ReputationConfig::paper(), 4);
        // quarantine reporter 3 with a disagreement streak
        while tracker.trust_of(3).state != TrustState::Quarantined {
            tracker.observe_round(true, &[(3, false, 1.0)]);
        }
        let view = tracker.view();
        assert_eq!(view.n_quarantined(), 1);

        // clean configured rung: 4 raw reporters, 3 eligible → k over 3
        let cfg = FusionConfig::paper();
        let all = [(0, true), (1, true), (2, false), (3, false)];
        let (d, ev) = fuse_reports(&cfg, &all, false, Some(&view));
        assert_eq!(ev.n_distinct, 3);
        assert_eq!(ev.n_quarantined, 1);
        assert_eq!(d.rule_used, RuleUsed::Configured);
        assert_eq!(d.quorum, 2, "k derives over the 3 eligible, not 4");
        assert!(d.busy);

        // OR fallback: only the quarantined vandal and one honest idle
        // arrive — the vandal's busy vote must not exist
        let (d, ev) = fuse_reports(&cfg, &[(3, true), (0, false)], false, Some(&view));
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert_eq!(ev.n_distinct, 1);
        assert!(!d.busy, "the quarantined busy vote must be dropped");

        // head-local: everyone delivered is quarantined
        let (d, ev) = fuse_reports(&cfg, &[(3, true)], false, Some(&view));
        assert_eq!(d.rule_used, RuleUsed::HeadLocal);
        assert_eq!(d.reports_used, 0);
        assert_eq!(ev.n_quarantined, 1);
        assert!(!d.busy);

        // and the soft path walks the same exclusions
        let soft_cfg = FusionConfig::paper_llr(0.6);
        let (d, ev) = fuse_soft(
            &soft_cfg,
            &[(3, soft(60.0)), (0, soft(-50.0))],
            false,
            Some(&view),
        );
        assert_eq!(d.rule_used, RuleUsed::OrFallback);
        assert_eq!(ev.n_distinct, 1);
        assert!(!d.busy);
        let (d, _) = fuse_soft(&soft_cfg, &[(3, soft(60.0))], true, Some(&view));
        assert_eq!(d.rule_used, RuleUsed::HeadLocal);
        assert!(d.busy, "with everyone quarantined the head decides alone");
    }

    #[test]
    fn cold_start_median_guard_rejects_always_no_outliers() {
        // unconverged near-prior weights cannot separate a coalition;
        // the robust-median cut must — 3 saturated honest busy reports
        // vs 2 always-no falsifiers at k = ceil(0.8·5) = 4 misses
        // unweighted but detects under the guard
        let cfg = FusionConfig {
            rule: FusionRule::Llr {
                k_frac: 0.8,
                reliability_floor: 0.6,
            },
            min_quorum: 2,
        };
        let reports: Vec<(usize, SoftReport)> = vec![
            (0, soft(50.0)),
            (1, soft(45.0)),
            (2, soft(55.0)),
            (3, soft(-60.0)),
            (4, soft(-60.0)),
        ];
        let (unweighted, _) = fuse_soft(&cfg, &reports, false, None);
        assert!(!unweighted.busy, "3 honest of 5 under k = 4 must miss");
        // a fresh (unconverged) tracker view: uniform prior weights
        let tracker = crate::reputation::ReputationTracker::new(
            crate::reputation::ReputationConfig::paper(),
            5,
        );
        let view = tracker.view();
        assert!(!view.converged());
        let (guarded, ev) = fuse_soft(&cfg, &reports, false, Some(&view));
        assert_eq!(guarded.rule_used, RuleUsed::WeightedLlr);
        assert!(guarded.busy, "the median cut must zero the outliers");
        assert_eq!(ev.n_quarantined, 0, "cold start quarantines nobody");
        // converged low weights achieve the same containment without
        // the median guard
        let mut t = crate::reputation::ReputationTracker::new(
            crate::reputation::ReputationConfig::paper(),
            5,
        );
        for _ in 0..30 {
            t.observe_round(
                true,
                &[
                    (0, true, 1.0),
                    (1, true, 1.0),
                    (2, true, 1.0),
                    (3, false, 1.0),
                    (4, false, 1.0),
                ],
            );
        }
        let view = t.view();
        assert!(view.converged());
        let (weighted, ev) = fuse_soft(&cfg, &reports, false, Some(&view));
        assert!(weighted.busy, "converged weights must restore detection");
        assert_eq!(ev.n_quarantined, 2, "the vandals are quarantined by now");
        assert_eq!(ev.n_distinct, 3);
    }

    #[test]
    fn binomial_tail_matches_hand_computable_points() {
        // n=3, k=2, p=0.5: 3·(1/8) + 1/8 = 0.5
        assert!((fused_positive_prob(3, 2, 0.5) - 0.5).abs() < 1e-12);
        // k=1 is the OR rule: 1 − (1−p)^n
        let p = 0.3f64;
        let or_exact = 1.0 - (1.0 - p).powi(5);
        assert!((fused_positive_prob(5, 1, p) - or_exact).abs() < 1e-12);
        // k=n is the AND rule: p^n
        assert!((fused_positive_prob(4, 4, p) - p.powi(4)).abs() < 1e-12);
        // edges
        assert_eq!(fused_positive_prob(6, 3, 0.0), 0.0);
        assert_eq!(fused_positive_prob(6, 3, 1.0), 1.0);
        // monotone in p
        assert!(fused_positive_prob(9, 5, 0.6) > fused_positive_prob(9, 5, 0.4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `fuse` is total over any report vector and config: no panic,
        /// and the quorum accounting is always internally consistent.
        #[test]
        fn prop_fuse_total_and_consistent(
            reports in proptest::collection::vec(any::<bool>(), 0..20),
            min_quorum in 0usize..8,
            rule_pick in 0u8..3,
            k_frac in 0.01f64..1.0,
        ) {
            let rule = match rule_pick {
                0 => FusionRule::And,
                1 => FusionRule::Or,
                _ => FusionRule::KOutOfN { k_frac },
            };
            let cfg = FusionConfig { rule, min_quorum };
            let d = fuse(&cfg, &reports, true);
            prop_assert_eq!(d.reports_used, reports.len());
            match d.rule_used {
                RuleUsed::HeadLocal => {
                    prop_assert!(reports.is_empty());
                    prop_assert!(d.busy);
                }
                _ => {
                    prop_assert!(d.quorum >= 1);
                    prop_assert!(d.quorum <= d.reports_used);
                    let positives = reports.iter().filter(|&&b| b).count();
                    prop_assert_eq!(d.busy, positives >= d.quorum);
                }
            }
        }

        /// `fuse_soft` is total and always lands on the *first*
        /// eligible rung of the ladder — the structural property
        /// `INV-LLR-DEGRADE-ORDER` pins at the world level. With a
        /// uniform converged view the decision bit matches unweighted
        /// fusion exactly.
        #[test]
        fn prop_fuse_soft_walks_the_ladder_in_order(
            ids in proptest::collection::vec(0usize..6, 0..16),
            llrs in proptest::collection::vec(-30.0f64..30.0, 0..16),
            min_quorum in 0usize..8,
            k_frac in 0.01f64..1.0,
            reliability_floor in 0.5f64..1.0,
            use_llr_rule in any::<bool>(),
            use_view in any::<bool>(),
        ) {
            let reports: Vec<(usize, f64)> =
                ids.iter().copied().zip(llrs.iter().copied()).collect();
            let rule = if use_llr_rule {
                FusionRule::Llr { k_frac, reliability_floor }
            } else {
                FusionRule::KOutOfN { k_frac }
            };
            let cfg = FusionConfig { rule, min_quorum };
            let softs: Vec<(usize, SoftReport)> = reports
                .iter()
                .map(|&(id, llr)| (id, SoftReport {
                    llr,
                    channel_gain: 1.0,
                    report_snr: llr.abs(),
                }))
                .collect();
            let view = crate::reputation::ReputationView::uniform_converged(6);
            let rep = if use_view { Some(&view) } else { None };
            let (d, ev) = fuse_soft(&cfg, &softs, true, rep);
            prop_assert!(ev.soft_path);
            prop_assert_eq!(ev.weighted, use_view);
            prop_assert_eq!(ev.n_quarantined, 0);
            prop_assert_eq!(ev.rung, d.rule_used);
            prop_assert!(ev.n_distinct <= ev.n_raw);
            prop_assert_eq!(d.reports_used, ev.n_distinct);
            let first_eligible = if ev.n_distinct == 0 {
                5
            } else if ev.n_distinct >= ev.min_quorum {
                if ev.mean_confidence >= ev.reliability_floor {
                    if ev.weighted { 0 } else { 1 }
                } else {
                    2
                }
            } else {
                4
            };
            prop_assert_eq!(ev.rung.rung_index(), first_eligible);
            if d.rule_used != RuleUsed::HeadLocal {
                prop_assert!(d.quorum >= 1 && d.quorum <= d.reports_used);
                prop_assert!(d.quorum <= ev.n_distinct, "k never exceeds distinct");
            }
            // the uniform converged view is the pinned oracle: the
            // weighted walk must agree with the unweighted one bit for
            // bit on every field but the rung name
            let (du, evu) = fuse_soft(&cfg, &softs, true, None);
            prop_assert_eq!(d.busy, du.busy);
            prop_assert_eq!(d.quorum, du.quorum);
            prop_assert_eq!(d.reports_used, du.reports_used);
            prop_assert_eq!(ev.n_distinct, evu.n_distinct);
        }
    }
}
