//! The chaos world: one end-to-end scenario that drives a fault schedule
//! through every guarded subsystem — the event queue, cooperative
//! spectrum sensing with hardened decision fusion, the three paradigm
//! degradation policies, cluster recruitment and a supervised mini
//! Monte-Carlo campaign — emitting an [`Observation`] stream the
//! invariant registry checks at every step.
//!
//! The interweave channel pick is *sensing-driven*: every alive node
//! runs its energy detector against the ground-truth primary state and
//! reports to the cluster head over the lossy intra-cluster transport;
//! the head fuses what arrives (degrading k-out-of-N → OR → head-local
//! as reporters churn) and its own ground-truth look vetoes fused
//! misses before any radiation. A primary returning *mid-slot* under an
//! active transmission is charged as a missed detection
//! (`INV-MISSED-DETECT-BUDGET`); the cluster then backs off for one full
//! slot, which is what keeps the streak within the paper budget of 1.
//!
//! The sensing stage is Byzantine-hostile: `n_byz` always-no SSDF
//! vandals are cast into the reporter roster and a per-reporter
//! reputation tracker trains on every fused round, so the weighted
//! fusion rung, the quarantine machinery and the two containment
//! invariants (`INV-BYZ-CONTAINMENT`, `INV-REPUTATION-SANE`) are
//! exercised on every run. Quarantined reporters are passed over when
//! recruitment elects the cluster head.
//!
//! Everything is a pure function of `(config, events)`: same inputs,
//! same observations, same violations — at any thread count. That is
//! what makes shrinking sound and replay bit-identical.

use crate::invariant::{InvariantRegistry, Observation, Violation, INV_CKPT_COUNTS};
use comimo_campaign::{fingerprint64, run_campaign, CampaignConfig, CampaignStatus};
use comimo_channel::geometry::Point;
use comimo_channel::pathloss::SquareLawLongHaul;
use comimo_core::cluster_beam::ClusterBeamformer;
use comimo_core::overlay::{Overlay, OverlayConfig};
use comimo_core::underlay::{Underlay, UnderlayConfig};
use comimo_energy::model::EnergyModel;
use comimo_faults::{
    beam_positions, build_report_channel_schedule, build_reporter_schedule, ByzantineConfig,
    ByzantineSuite, CampaignFaultPlan, FaultEvent, FaultKind, ReportChannelFaultConfig,
    ReportChannelState, ReportChannelTimeline, ReporterFaultConfig, ReporterState,
    ReporterTimeline, Timeline, Topology,
};
use comimo_math::rng::derive;
use comimo_net::graph::SuGraph;
use comimo_net::node::SuNode;
use comimo_net::recruit::{run_recruitment_excluding, RecruitConfig};
use comimo_sensing::{
    run_round_byz, ReportSummary, ReputationConfig, ReputationTracker, ReputationView,
    RoundOutcome, RuleUsed, SensingRound,
};
use comimo_sim::engine::{EventQueue, StepProbe};
use comimo_sim::time::SimTime;
use comimo_stbc::sim::BerResult;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Wavelength of the interweave nulling geometry (m) — the paper's
/// Table 1 carrier.
pub const WAVELENGTH_M: f64 = 0.1199;

/// Salt separating the mini-campaign's fault plan from the run seed.
const CAMPAIGN_PLAN_SALT: u64 = 0x43_48_41_4f_53_43_50_4c; // "CHAOSCPL"
/// Salt separating the mini-campaign's shard-count streams.
const CAMPAIGN_SHARD_SALT: u64 = 0x43_48_41_4f_53_53_48_44; // "CHAOSSHD"

/// Linear SNR of the primary at each sensing reporter when a channel is
/// busy (20 dB): sharp enough that fused misses come from faults, not
/// from detector noise — but not a genie; only the head's veto is.
const SENSE_SNR_LIN: f64 = 100.0;

/// Report-channel SNR (dB) of the noisy long-haul the sensing reports
/// ride: comfortable enough that nominal slots stay on the soft rung,
/// finite enough that SNR-collapse faults push rounds down the ladder.
const REPORT_SNR_DB: f64 = 25.0;

/// Everything one chaos run needs; [`ChaosConfig::paper`] fills in the
/// paper's evaluation constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Run seed; every derived stream (campaign plan, shard counts)
    /// descends from it.
    pub seed: u64,
    /// Scenario horizon (s).
    pub horizon_s: f64,
    /// Transmission-slot duration (s).
    pub slot_s: f64,
    /// Bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// Overlay relay count `m`.
    pub m_overlay: usize,
    /// Overlay direct-link distance `D1` (m).
    pub d1_m: f64,
    /// Underlay / interweave transmit-cluster size `mt`.
    pub mt: usize,
    /// Receive-cluster size `mr`.
    pub mr: usize,
    /// Long-haul distance (m).
    pub d_long_m: f64,
    /// Distance to the protected primary receiver (m).
    pub pu_distance_m: f64,
    /// Licensed channels the interweave cluster can hop between.
    pub n_channels: usize,
    /// Always-no SSDF vandals cast into the sensing reporter roster
    /// (clamped to the roster size; their report words are falsified
    /// *after* every detector draw — burn-their-draws discipline).
    pub n_byz: usize,
    /// Shards of the supervised mini-campaign.
    pub campaign_shards: u64,
    /// Injected per-(shard, attempt) panic probability of the campaign.
    pub campaign_panic_prob: f64,
    /// Attempts per campaign shard before quarantine.
    pub campaign_max_attempts: u32,
}

impl ChaosConfig {
    /// The paper's evaluation constants over `horizon_s` seconds, plus a
    /// small fault-injected campaign that exercises the supervisor's
    /// retry/quarantine accounting every run.
    pub fn paper(seed: u64, horizon_s: f64) -> Self {
        Self {
            seed,
            horizon_s,
            slot_s: 1.0,
            bandwidth_hz: 40_000.0,
            m_overlay: 4,
            d1_m: 250.0,
            mt: 4,
            mr: 3,
            d_long_m: 200.0,
            pu_distance_m: 600.0,
            n_channels: 3,
            n_byz: 1,
            campaign_shards: 12,
            campaign_panic_prob: 0.35,
            campaign_max_attempts: 2,
        }
    }

    /// The paper constants with the interweave transmit cluster scaled
    /// to 128 elements (64 virtual antennas after λ/2 pairing) — the
    /// large-cluster regime where RC-C2 pairing replaces the exhaustive
    /// scan. The underlay ladder still tops out at the 4×`mr` OSTBC
    /// rung; the extra elements serve null steering only.
    pub fn large_cluster(seed: u64, horizon_s: f64) -> Self {
        Self {
            mt: 128,
            ..Self::paper(seed, horizon_s)
        }
    }

    /// The fault-schedule topology this world exposes: one node pool
    /// shared by the overlay relays and the interweave/underlay
    /// transmit cluster, `n_channels` licensed channels, one cluster.
    pub fn topology(&self) -> Topology {
        Topology {
            n_nodes: self.m_overlay.max(self.mt),
            n_channels: self.n_channels,
            n_clusters: 1,
        }
    }

    /// Slots in the scenario.
    pub fn n_slots(&self) -> usize {
        (self.horizon_s / self.slot_s).floor() as usize
    }
}

/// What one chaos run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Every invariant violation, in observation order.
    pub violations: Vec<Violation>,
    /// Slots simulated.
    pub slots: usize,
    /// Fault events replayed.
    pub events: usize,
    /// Invariant checks consulted (observations × registered invariants).
    pub checks: u64,
    /// Whether recruitment completed (an all-dead membership is a typed
    /// error, reported here instead of aborting the run).
    pub recruit_completed: bool,
    /// Members recruitment joined.
    pub recruit_joined: usize,
    /// Members recruitment abandoned after bounded retries.
    pub recruit_abandoned: usize,
}

/// The [`StepProbe`] feeding every event pop to the registry.
struct RegistryProbe<'a> {
    reg: &'a InvariantRegistry,
    violations: Vec<Violation>,
    checks: u64,
}

impl StepProbe for RegistryProbe<'_> {
    fn on_event(&mut self, prev: SimTime, now: SimTime) {
        self.checks += self.reg.check(
            &Observation::EventPop {
                prev_ns: prev.as_nanos(),
                now_ns: now.as_nanos(),
            },
            &mut self.violations,
        );
    }
}

/// The config-derived state of the chaos world: the degradation ladders,
/// null-steering geometry and energy analyses every run consults. These
/// are *expensive* (each ladder rung runs a constellation optimisation)
/// and depend only on the config — never on the fault schedule — so the
/// shrinker builds one `ChaosWorld` and probes it hundreds of times.
#[derive(Debug)]
pub struct ChaosWorld {
    cfg: ChaosConfig,
    /// Overlay degradation decision per dead-relay count `k ∈ 0..=m`.
    ov_deg: Vec<Option<comimo_core::overlay::OverlayDegradation>>,
    /// Underlay fallback rung per alive-transmitter count `0..=mt`.
    un_deg: Vec<Option<comimo_core::underlay::FallbackStep>>,
    /// Transmit-cluster element positions.
    positions: Vec<Point>,
    /// The full-strength paired beamformer.
    full_beam: ClusterBeamformer,
    /// The protected primary receiver.
    pr: Point,
    /// The config-derived reporter-fault timeline (stuck/death/delay) —
    /// constant across ddmin probes, which keeps shrinking sound.
    reporter_tl: ReporterTimeline,
    /// The config-derived report-channel fault timeline (SNR collapse,
    /// phase desync) — constant across ddmin probes for the same reason.
    report_tl: ReportChannelTimeline,
    /// The sensing round every slot runs (detector, LLR fusion, noisy
    /// report long-haul, transport).
    sense: SensingRound,
}

impl ChaosWorld {
    /// Precomputes every config-derived analysis (the expensive part —
    /// amortise it across runs). Its `ē_b` solves hit the process-wide
    /// cache after the first world, so construction costs about 1 ms.
    pub fn new(cfg: &ChaosConfig) -> Self {
        let model = EnergyModel::paper();
        let ov = Overlay::new(
            &model,
            OverlayConfig::paper(cfg.m_overlay, cfg.bandwidth_hz),
        );
        // the OSTBC underlay caps at 4 transmit elements; clusters past
        // that (large-cluster interweave configs) still degrade through
        // the 4-rung ladder while every element beamforms
        let un = Underlay::new(
            &model,
            UnderlayConfig::paper(cfg.mt.min(4), cfg.mr, cfg.bandwidth_hz),
        );
        let pl = SquareLawLongHaul::paper_defaults();
        let positions = beam_positions(cfg.mt, WAVELENGTH_M);
        let full_beam = ClusterBeamformer::pair_up(&positions, WAVELENGTH_M);
        Self {
            cfg: *cfg,
            ov_deg: (0..=cfg.m_overlay)
                .map(|k| ov.degrade(cfg.d1_m, k))
                .collect(),
            un_deg: (0..=cfg.mt)
                .map(|alive| un.degrade(cfg.d_long_m, &pl, cfg.pu_distance_m, alive))
                .collect(),
            positions,
            full_beam,
            pr: Point::new(cfg.pu_distance_m, cfg.pu_distance_m / 3.0),
            reporter_tl: ReporterTimeline::from_schedule(&build_reporter_schedule(
                &ReporterFaultConfig::nominal(cfg.horizon_s),
                cfg.topology().n_nodes,
                cfg.seed,
            )),
            report_tl: ReportChannelTimeline::from_schedule(&build_report_channel_schedule(
                &ReportChannelFaultConfig::nominal(cfg.horizon_s),
                cfg.topology().n_nodes,
                cfg.seed,
            )),
            sense: SensingRound::paper_noisy(SENSE_SNR_LIN, REPORT_SNR_DB),
        }
    }

    /// The config this world was built from.
    pub fn cfg(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Drives `events` through the full chaos world under `reg`,
    /// returning every violation. Pure function of `(config, events,
    /// registry bounds)`; `serial` forces the mini-campaign onto one
    /// thread (results are bit-identical either way — that is the
    /// property CI pins).
    pub fn run(
        &self,
        events: &[FaultEvent],
        reg: &InvariantRegistry,
        serial: bool,
    ) -> ChaosOutcome {
        run_in_world(self, events, reg, serial)
    }
}

/// One-shot convenience: build the world and run it once. Repeated
/// callers (the shrinker, replay loops) should hold a [`ChaosWorld`].
pub fn run_events(
    cfg: &ChaosConfig,
    events: &[FaultEvent],
    reg: &InvariantRegistry,
    serial: bool,
) -> ChaosOutcome {
    ChaosWorld::new(cfg).run(events, reg, serial)
}

fn run_in_world(
    world: &ChaosWorld,
    events: &[FaultEvent],
    reg: &InvariantRegistry,
    serial: bool,
) -> ChaosOutcome {
    let cfg = &world.cfg;
    let mut probe = RegistryProbe {
        reg,
        violations: Vec::new(),
        checks: 0,
    };

    // ---- stage A: replay the schedule through the event queue --------
    // every pop runs the time-monotonicity invariant via the probe
    let mut q: EventQueue<FaultKind> = EventQueue::new();
    for ev in events {
        q.schedule_at(ev.at, ev.kind);
    }
    q.run_with_probe(usize::MAX, &mut probe, |_, _, _| true);
    let mut violations = probe.violations;
    let mut checks = probe.checks;

    // ---- stage B: slotted paradigm campaigns -------------------------
    let tl = Timeline::from_schedule(events);
    let topo = cfg.topology();
    let positions = &world.positions;
    let full_beam = &world.full_beam;
    let pr = world.pr;
    let ov_deg = &world.ov_deg;
    let un_deg = &world.un_deg;
    // null repairs depend on the out-*set*, so this cache is per-run
    let mut beam_cache: HashMap<Vec<usize>, Option<f64>> = HashMap::new();
    let rtl = &world.reporter_tl;
    // consecutive slots radiated into a mid-slot primary return, and the
    // one-slot back-off a miss imposes before the cluster radiates again
    let mut missed_streak: u32 = 0;
    let mut backoff_mute = false;
    // the Byzantine cast and the reputation tracker it trains against:
    // the vandals falsify their report words downstream of every
    // detector draw, the tracker scores each delivered report against
    // the fused verdict, and its view weights the next round's fusion
    let byz_cast = cfg.n_byz.min(topo.n_nodes);
    let suite = ByzantineSuite::new(
        &ByzantineConfig::always_no(byz_cast),
        topo.n_nodes,
        cfg.seed,
    );
    let f_max = topo.n_nodes.saturating_sub(1) / 3;
    let mut tracker = ReputationTracker::new(ReputationConfig::paper(), topo.n_nodes);

    let slots = cfg.n_slots();
    for slot in 0..slots {
        let slot_start = slot as f64 * cfg.slot_s;
        let t_mid = slot_start + 0.5 * cfg.slot_s;
        let mid_ns = SimTime::from_secs_f64(t_mid).as_nanos();
        let out_mid = tl.nodes_out(t_mid, topo.n_nodes);

        // overlay: relays are the nodes below m_overlay
        let k_out = out_mid.iter().filter(|&&n| n < cfg.m_overlay).count();
        let obs = match &ov_deg[k_out.min(cfg.m_overlay)] {
            Some(d) => Observation::OverlaySlot {
                at_ns: mid_ns,
                survivors: d.m_survivors,
                overdraw: d.energy_overdraw,
                claims_feasible: d.feasible(),
                // the world's accounting mirrors the scenarios: an
                // infeasible burst reverts to the direct link
                fallback_direct: !d.feasible(),
            },
            None => Observation::OverlaySlot {
                at_ns: mid_ns,
                survivors: 0,
                overdraw: f64::INFINITY,
                claims_feasible: false,
                fallback_direct: true,
            },
        };
        checks += reg.check(&obs, &mut violations);

        // underlay: transmitters are the nodes below mt
        let alive = cfg.mt - out_mid.iter().filter(|&&n| n < cfg.mt).count();
        let obs = match &un_deg[alive.min(cfg.mt)] {
            Some(step) => Observation::UnderlaySlot {
                at_ns: mid_ns,
                transmitting: true,
                mt: step.mt,
                mr: step.mr,
                margin_db: step.margin_db,
            },
            None => Observation::UnderlaySlot {
                at_ns: mid_ns,
                transmitting: false,
                mt: 0,
                mr: 0,
                margin_db: f64::INFINITY,
            },
        };
        checks += reg.check(&obs, &mut violations);

        // cooperative sensing at the slot boundary picks the interweave
        // channel: every node runs its detector and its report word rides
        // the noisy long-haul to the head over the lossy transport; the
        // head fuses the decoded posteriors, and its own ground-truth
        // look vetoes fused misses before radiating
        let start_ns = SimTime::from_secs_f64(slot_start).as_nanos();
        let out_start = tl.nodes_out(slot_start, topo.n_nodes);
        let head_alive = (0..topo.n_nodes).any(|n| {
            !out_start.contains(&n) && !matches!(rtl.state_at(slot_start, n), ReporterState::Dead)
        });
        let mut round_cfg = world.sense;
        round_cfg.transport.loss_prob = tl.bcast_loss(slot_start).clamp(0.0, 1.0);
        // report words reuse the underlay PA budget: the energy ceiling
        // is the *current rung's* long-haul PA allowance, normalised so
        // es = 1 is the full-strength rung. No admissible rung means no
        // PA budget at all — the long-haul is muted and the head senses
        // alone, rather than radiating unaccounted report energy.
        let alive_start = cfg.mt - out_start.iter().filter(|&&n| n < cfg.mt).count();
        let rung_start = &un_deg[alive_start.min(cfg.mt)];
        let full_rung = &un_deg[cfg.mt];
        let mut report_margin_db = f64::INFINITY;
        let mut long_haul_muted = false;
        if !round_cfg.report_channel.clean_transport {
            match (rung_start, full_rung) {
                (Some(step), Some(full)) => {
                    round_cfg.report_channel.word.clamp_es(
                        (step.analysis.pa_long_haul / full.analysis.pa_long_haul).min(1.0),
                    );
                    report_margin_db = step.margin_db;
                }
                _ => long_haul_muted = true,
            }
        }
        let states: Vec<ReporterState> = (0..topo.n_nodes)
            .map(|r| {
                // data-plane deaths and a muted long-haul silence the
                // reporter too; otherwise the reporter-fault timeline
                // decides
                if long_haul_muted || out_start.contains(&r) {
                    ReporterState::Dead
                } else {
                    rtl.state_at(slot_start, r)
                }
            })
            .collect();
        let report_states: Vec<ReportChannelState> = (0..topo.n_nodes)
            .map(|r| world.report_tl.state_at(slot_start, r))
            .collect();
        let converged_at_start = tracker.converged();
        let mut picked: Option<usize> = None;
        let mut last_round: Option<(RoundOutcome, Vec<ReportSummary>, ReputationView)> = None;
        if head_alive && !backoff_mute {
            for c in 0..cfg.n_channels {
                let truth_busy = tl.pu_active(slot_start, c);
                let round = (slot * cfg.n_channels + c) as u64;
                let view = tracker.view();
                let overrides = suite.overrides(round);
                // a config the round rejects is a dead long-haul, not an
                // abort: the head keeps deciding alone
                let Ok((out, summaries)) = run_round_byz(
                    &round_cfg,
                    truth_busy,
                    &states,
                    &report_states,
                    &overrides,
                    truth_busy,
                    cfg.seed,
                    round,
                    Some(&view),
                ) else {
                    break;
                };
                // every delivered (possibly falsified) report is scored
                // against the fused verdict — the vandals dig their own
                // quarantine
                let scored: Vec<(usize, bool, f64)> = summaries
                    .iter()
                    .map(|s| (s.reporter, s.busy, s.confidence))
                    .collect();
                tracker.observe_round(out.decision.busy, &scored);
                // transmit only where fusion AND the head's own look say
                // idle: a fused miss is vetoed, a fused false alarm just
                // skips a usable channel — both directions stay safe
                let busy = out.decision.busy;
                last_round = Some((out, summaries, view));
                if !busy && !truth_busy {
                    picked = Some(c);
                    break;
                }
            }
        }
        backoff_mute = false;
        let (fusion_obs, report_obs, ladder_obs, reputation_obs) = match &last_round {
            Some((out, summaries, view)) => {
                let mut eligible: Vec<usize> = summaries
                    .iter()
                    .filter(|s| view.is_eligible(s.reporter))
                    .map(|s| s.reporter)
                    .collect();
                eligible.sort_unstable();
                eligible.dedup();
                (
                    Observation::FusionDecision {
                        at_ns: start_ns,
                        reports_used: out.decision.reports_used,
                        quorum: out.decision.quorum,
                        head_local: out.decision.rule_used == RuleUsed::HeadLocal,
                    },
                    Observation::ReportLongHaul {
                        at_ns: start_ns,
                        transmitted: !round_cfg.report_channel.clean_transport
                            && out.frames_sent > 0,
                        margin_db: report_margin_db,
                        mt: round_cfg.report_channel.word.mt,
                    },
                    Observation::FusionLadder {
                        at_ns: start_ns,
                        soft_path: out.ladder.soft_path,
                        weighted: out.ladder.weighted,
                        rung: out.ladder.rung.rung_index(),
                        n_reports: out.ladder.n_distinct,
                        min_quorum: out.ladder.min_quorum,
                        mean_confidence: out.ladder.mean_confidence,
                        reliability_floor: out.ladder.reliability_floor,
                    },
                    Observation::ReputationSlot {
                        at_ns: start_ns,
                        min_weight: view.min_weight(),
                        max_weight: view.max_weight(),
                        reports_used: out.decision.reports_used,
                        eligible_distinct: eligible.len(),
                    },
                )
            }
            // no sensing ran (dead head, or the post-miss back-off
            // slot): whatever is left of the head decided alone and
            // nothing rode the long-haul
            None => {
                let view = tracker.view();
                (
                    Observation::FusionDecision {
                        at_ns: start_ns,
                        reports_used: 0,
                        quorum: 0,
                        head_local: true,
                    },
                    Observation::ReportLongHaul {
                        at_ns: start_ns,
                        transmitted: false,
                        margin_db: f64::INFINITY,
                        mt: round_cfg.report_channel.word.mt,
                    },
                    Observation::FusionLadder {
                        at_ns: start_ns,
                        soft_path: !round_cfg.report_channel.clean_transport,
                        weighted: false,
                        rung: RuleUsed::HeadLocal.rung_index(),
                        n_reports: 0,
                        min_quorum: round_cfg.fusion.min_quorum.max(1),
                        mean_confidence: 0.0,
                        reliability_floor: round_cfg.fusion.reliability_floor(),
                    },
                    Observation::ReputationSlot {
                        at_ns: start_ns,
                        min_weight: view.min_weight(),
                        max_weight: view.max_weight(),
                        reports_used: 0,
                        eligible_distinct: 0,
                    },
                )
            }
        };
        checks += reg.check(&fusion_obs, &mut violations);
        checks += reg.check(&report_obs, &mut violations);
        checks += reg.check(&ladder_obs, &mut violations);
        checks += reg.check(&reputation_obs, &mut violations);

        // interweave: deaths re-pair the null-steering cluster on the
        // sensed channel
        let mut radiating_on: Option<usize> = None;
        let obs = match picked {
            None => Observation::InterweaveSlot {
                at_ns: start_ns,
                transmitting: false,
                channel: 0,
                pu_active: false,
                null_residual: 0.0,
            },
            Some(channel) => {
                let dead_tx: Vec<usize> =
                    out_start.iter().copied().filter(|&n| n < cfg.mt).collect();
                let residual = *beam_cache.entry(dead_tx.clone()).or_insert_with(|| {
                    let dead: Vec<Point> = dead_tx.iter().map(|&n| positions[n]).collect();
                    full_beam.repair(&dead).beam.map(|beam| {
                        let asg = beam.steer(pr);
                        beam.null_residual(pr, &asg)
                    })
                });
                match residual {
                    Some(r) => {
                        radiating_on = Some(channel);
                        Observation::InterweaveSlot {
                            at_ns: start_ns,
                            transmitting: true,
                            channel,
                            pu_active: tl.pu_active(slot_start, channel),
                            null_residual: r,
                        }
                    }
                    None => Observation::InterweaveSlot {
                        at_ns: start_ns,
                        transmitting: false,
                        channel,
                        pu_active: false,
                        null_residual: 0.0,
                    },
                }
            }
        };
        checks += reg.check(&obs, &mut violations);

        // missed-detection accounting: a primary returning *inside* a
        // radiating slot cannot be caught before the next boundary —
        // that is the one-slot budget. The streak stays ≤ 1 structurally
        // because the back-off slot above never radiates.
        let missed = radiating_on.is_some_and(|c| {
            events.iter().any(|e| {
                matches!(e.kind, FaultKind::PuReturn { channel, .. } if channel == c)
                    && e.at.as_secs_f64() >= slot_start
                    && e.at.as_secs_f64() < slot_start + cfg.slot_s
            })
        });
        if missed {
            missed_streak += 1;
            backoff_mute = true;
        } else {
            missed_streak = 0;
        }
        checks += reg.check(
            &Observation::SensingSlot {
                at_ns: mid_ns,
                missed_streak,
            },
            &mut violations,
        );
        // containment accounting: the same streak, charged against the
        // Byzantine-tolerance contract (convergence measured at slot
        // start — the view the slot's fusion actually consulted)
        checks += reg.check(
            &Observation::ByzContainment {
                at_ns: mid_ns,
                n_adversaries: byz_cast,
                f_max,
                converged: converged_at_start,
                missed_streak,
            },
            &mut violations,
        );
    }

    // ---- stage C: cluster recruitment under the schedule's stress ----
    // broadcast loss and the first relay death map onto the protocol's
    // fault knobs; an all-dead election is a typed error, not an abort
    let loss = events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::BroadcastLoss { loss_prob, .. } => Some(loss_prob),
            _ => None,
        })
        .fold(0.0, f64::max);
    let head_death_at = events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::RelayDeath { .. }))
        .map(|e| e.at)
        .min();
    let n = cfg.mt + cfg.mr;
    let nodes: Vec<SuNode> = (0..n)
        .map(|i| SuNode::new(i, Point::new(i as f64 * 3.0, 0.0), 1.0 + i as f64))
        .collect();
    let graph = SuGraph::build(nodes, 100.0);
    let members: Vec<usize> = (0..n).collect();
    let rc = RecruitConfig {
        loss_prob: loss.clamp(0.0, 1.0),
        head_death_at,
        ..RecruitConfig::default()
    };
    // reporters the reputation tracker quarantined are passed over for
    // head election (they still join as plain members)
    let excluded: Vec<usize> = {
        let view = tracker.view();
        (0..topo.n_nodes)
            .filter(|&r| !view.is_eligible(r))
            .collect()
    };
    let (recruit_completed, recruit_joined, recruit_abandoned) =
        match run_recruitment_excluding(&graph, &members, &excluded, &rc, cfg.seed) {
            Ok(out) => (true, out.joined.len(), out.abandoned.len()),
            Err(_) => (false, 0, 0),
        };

    // ---- stage D: supervised mini-campaign vs its seed oracle --------
    let end_ns = SimTime::from_secs_f64(cfg.horizon_s).as_nanos();
    if cfg.campaign_shards > 0 {
        let plan = CampaignFaultPlan {
            seed: cfg.seed ^ CAMPAIGN_PLAN_SALT,
            shard_panic_prob: cfg.campaign_panic_prob,
            checkpoint_io_prob: 0.0,
        };
        let fingerprint = fingerprint64(&[cfg.campaign_shards, cfg.campaign_max_attempts as u64]);
        let mut ccfg = CampaignConfig::new(cfg.seed, fingerprint);
        ccfg.max_attempts = cfg.campaign_max_attempts;
        ccfg.backoff_base = std::time::Duration::ZERO;
        ccfg.backoff_cap = std::time::Duration::ZERO;
        ccfg.serial = serial;
        ccfg.faults = plan;
        let shards: Vec<(u64, usize)> = (0..cfg.campaign_shards).map(|l| (l, 1)).collect();
        let seed = cfg.seed;
        match run_campaign(&ccfg, &shards, |label, _| shard_counts(seed, label)) {
            Ok(report) => {
                // a gracefully stopped campaign (SIGINT mid-soak) has
                // legitimately partial counts — only completed campaigns
                // face the oracle
                if report.status == CampaignStatus::Complete {
                    let quarantined = plan.quarantine_set(cfg.campaign_shards, ccfg.max_attempts);
                    let (mut exp_bits, mut exp_errors) = (0u64, 0u64);
                    for label in 0..cfg.campaign_shards {
                        if !quarantined.contains(&label) {
                            let c = shard_counts(seed, label);
                            exp_bits += c.bits;
                            exp_errors += c.errors;
                        }
                    }
                    checks += reg.check(
                        &Observation::CampaignCounts {
                            at_ns: end_ns,
                            bits: report.counts.bits,
                            errors: report.counts.errors,
                            expected_bits: exp_bits,
                            expected_errors: exp_errors,
                        },
                        &mut violations,
                    );
                }
            }
            Err(e) => violations.push(Violation {
                invariant: INV_CKPT_COUNTS,
                at_ns: end_ns,
                observed: 0.0,
                bound: 0.0,
                detail: format!("campaign failed to start: {e}"),
            }),
        }
    }

    ChaosOutcome {
        violations,
        slots,
        events: events.len(),
        checks,
        recruit_completed,
        recruit_joined,
        recruit_abandoned,
    }
}

/// The mini-campaign's shard counts: a pure function of `(seed, label)`,
/// evaluable by both the campaign and the oracle.
fn shard_counts(seed: u64, label: u64) -> BerResult {
    let mut rng = derive(seed ^ CAMPAIGN_SHARD_SALT, label);
    BerResult {
        bits: 2048,
        errors: rand::Rng::gen_range(&mut rng, 0..16u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::InvariantBounds;
    use comimo_faults::{build_schedule, FaultConfig};

    fn paper_world(seed: u64, horizon_s: f64) -> (ChaosConfig, Vec<FaultEvent>) {
        let cfg = ChaosConfig::paper(seed, horizon_s);
        let faults = FaultConfig::nominal(horizon_s).scaled(2.0);
        let schedule = build_schedule(&faults, &cfg.topology(), seed);
        (cfg, schedule)
    }

    #[test]
    fn paper_bounds_hold_through_a_faulty_horizon() {
        let (cfg, schedule) = paper_world(2013, 120.0);
        let reg = InvariantRegistry::paper();
        let out = run_events(&cfg, &schedule, &reg, true);
        assert!(
            out.violations.is_empty(),
            "paper bounds must hold: {:?}",
            out.violations.first()
        );
        assert!(out.events > 0, "faults must be scheduled");
        assert_eq!(out.slots, 120);
        // every slot consulted the full registry nine times (overlay,
        // underlay, fusion decision, report long-haul, fusion ladder,
        // reputation, interweave, sensing streak, byz containment) plus
        // once per event pop, plus the campaign-counts observation
        assert_eq!(
            out.checks,
            reg.len() as u64 * (9 * 120 + out.events as u64 + 1)
        );
    }

    #[test]
    fn large_cluster_bounds_hold_through_a_faulty_horizon() {
        // the K = 128 interweave cluster (64 virtual antennas via RC-C2
        // pairing) runs the same slotted world with the full paper
        // registry — INV-NULL-DEPTH and INV-DEGRADE-POWER among it —
        // consulted on every one of the nine per-slot observations
        let cfg = ChaosConfig::large_cluster(11, 60.0);
        let faults = FaultConfig::nominal(60.0).scaled(2.0);
        let schedule = build_schedule(&faults, &cfg.topology(), 11);
        let reg = InvariantRegistry::paper();
        assert!(reg.get(crate::invariant::INV_NULL_DEPTH).is_some());
        assert!(reg.get(crate::invariant::INV_DEGRADE_POWER).is_some());
        let world = ChaosWorld::new(&cfg);
        assert_eq!(world.full_beam.n_virtual_antennas(), 64);
        let out = world.run(&schedule, &reg, true);
        assert!(
            out.violations.is_empty(),
            "paper bounds must hold at K = 128: {:?}",
            out.violations.first()
        );
        assert!(out.events > 0, "faults must be scheduled");
        assert_eq!(out.slots, 60);
        assert_eq!(
            out.checks,
            reg.len() as u64 * (9 * 60 + out.events as u64 + 1)
        );
    }

    #[test]
    fn run_is_a_pure_function_of_config_and_events() {
        let (cfg, schedule) = paper_world(99, 60.0);
        let reg = InvariantRegistry::paper();
        let a = run_events(&cfg, &schedule, &reg, true);
        let b = run_events(&cfg, &schedule, &reg, true);
        assert_eq!(a, b);
    }

    #[test]
    fn serial_and_pooled_runs_are_bit_identical() {
        let (cfg, schedule) = paper_world(7, 50.0);
        let reg = InvariantRegistry::paper();
        let serial = run_events(&cfg, &schedule, &reg, true);
        let pooled = run_events(&cfg, &schedule, &reg, false);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn weakened_overdraw_bound_fires_every_slot() {
        let (cfg, _) = paper_world(1, 10.0);
        let reg = InvariantRegistry::with_bounds(InvariantBounds {
            overdraw_max: 0.5,
            ..InvariantBounds::paper()
        });
        // even a fault-free world breaks an overdraw bound below 1: the
        // full-strength burst sits exactly at the budget
        let out = run_events(&cfg, &[], &reg, true);
        let fired: Vec<_> = out
            .violations
            .iter()
            .filter(|v| v.invariant == crate::invariant::INV_DEGRADE_POWER)
            .collect();
        assert_eq!(fired.len(), 10, "one per slot");
    }

    #[test]
    fn weakened_report_epa_floor_fires_on_transmitting_slots() {
        let (cfg, _) = paper_world(6, 10.0);
        let reg = InvariantRegistry::with_bounds(InvariantBounds {
            report_epa_floor_db: 1e6,
            ..InvariantBounds::paper()
        });
        // a fault-free world radiates report words every slot at the
        // full rung's finite margin — an absurd floor breaks all of them
        let out = run_events(&cfg, &[], &reg, true);
        let fired: Vec<_> = out
            .violations
            .iter()
            .filter(|v| v.invariant == crate::invariant::INV_REPORT_EPA)
            .collect();
        assert_eq!(fired.len(), 10, "one per transmitting slot");
        // and the ladder-order invariant stays silent on a correct stack
        assert!(!out
            .violations
            .iter()
            .any(|v| v.invariant == crate::invariant::INV_LLR_DEGRADE_ORDER));
    }

    #[test]
    fn mid_slot_pu_return_is_one_miss_and_then_a_back_off_slot() {
        let (cfg, _) = paper_world(8, 5.0);
        // the primary returns mid-slot on the channel the cluster is
        // radiating on: slotted sensing cannot catch it before the next
        // boundary, so it is exactly one charged miss — and the back-off
        // slot keeps the streak from ever reaching 2
        let events = [FaultEvent {
            at: SimTime::from_secs_f64(0.5),
            kind: FaultKind::PuReturn {
                channel: 0,
                duration_s: 0.2,
            },
        }];
        let reg = InvariantRegistry::paper();
        let out = run_events(&cfg, &events, &reg, true);
        assert!(
            out.violations.is_empty(),
            "one miss sits within the paper budget of 1: {:?}",
            out.violations.first()
        );
        let reg0 = InvariantRegistry::with_bounds(InvariantBounds {
            missed_detect_budget: 0,
            ..InvariantBounds::paper()
        });
        let out = run_events(&cfg, &events, &reg0, true);
        let fired: Vec<_> = out
            .violations
            .iter()
            .filter(|v| v.invariant == crate::invariant::INV_MISSED_DETECT_BUDGET)
            .collect();
        assert_eq!(fired.len(), 1, "exactly the one mid-slot miss fires");
        assert_eq!(fired[0].observed, 1.0, "the streak never exceeds 1");
    }

    #[test]
    fn weakened_byz_containment_budget_fires_after_convergence() {
        let (cfg, _) = paper_world(8, 40.0);
        assert_eq!(cfg.n_byz, 1, "the paper world casts one vandal");
        // a primary returns mid-slot long after the reputation tracker
        // has converged: one charged miss, within both paper budgets
        let events = [FaultEvent {
            at: SimTime::from_secs_f64(30.5),
            kind: FaultKind::PuReturn {
                channel: 0,
                duration_s: 0.2,
            },
        }];
        let reg = InvariantRegistry::paper();
        let out = run_events(&cfg, &events, &reg, true);
        assert!(
            out.violations.is_empty(),
            "one converged miss sits within the containment budget of 1: {:?}",
            out.violations.first()
        );
        // a zero containment budget turns that same miss into a
        // violation — and only the containment invariant fires, because
        // the plain missed-detect budget stays at its paper value
        let reg0 = InvariantRegistry::with_bounds(InvariantBounds {
            byz_missed_budget: 0,
            ..InvariantBounds::paper()
        });
        let out = run_events(&cfg, &events, &reg0, true);
        let fired: Vec<_> = out
            .violations
            .iter()
            .filter(|v| v.invariant == crate::invariant::INV_BYZ_CONTAINMENT)
            .collect();
        assert_eq!(fired.len(), 1, "exactly the one converged miss fires");
        assert_eq!(fired[0].observed, 1.0);
        assert!(fired[0].detail.contains("adversary"));
        assert!(!out
            .violations
            .iter()
            .any(|v| v.invariant == crate::invariant::INV_MISSED_DETECT_BUDGET));
    }

    #[test]
    fn out_of_range_fault_targets_do_not_panic() {
        let (cfg, _) = paper_world(3, 5.0);
        let events = [
            FaultEvent {
                at: SimTime::from_secs_f64(1.0),
                kind: FaultKind::RelayDeath { node: 500 },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(2.0),
                kind: FaultKind::PuReturn {
                    channel: 77,
                    duration_s: 2.0,
                },
            },
        ];
        let reg = InvariantRegistry::paper();
        let out = run_events(&cfg, &events, &reg, true);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn total_broadcast_loss_is_survived_not_fatal() {
        let (cfg, _) = paper_world(4, 5.0);
        let events = [FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::BroadcastLoss {
                cluster: 0,
                loss_prob: 1.0,
                duration_s: 5.0,
            },
        }];
        let reg = InvariantRegistry::paper();
        let out = run_events(&cfg, &events, &reg, true);
        assert!(out.violations.is_empty());
        assert!(out.recruit_completed);
        assert_eq!(out.recruit_joined, 0, "nothing crosses a p=1 loss");
        assert!(out.recruit_abandoned > 0);
    }
}
