//! Reporter faults for cooperative spectrum sensing.
//!
//! The sensing path adds a failure surface of its own: the SUs that
//! *report* local detector decisions to the cluster head can misbehave
//! independently of the data-plane faults in [`crate::model`]. Four
//! classes cover the taxonomy the fusion layer must survive:
//!
//! * **stuck-at-H0** — a reporter's detector output freezes at "idle"
//!   (saturated LNA, firmware bug): the dangerous direction, because an
//!   OR/k-out-of-N fusion loses one busy vote;
//! * **stuck-at-H1** — frozen at "busy" (interferer parked next to the
//!   antenna): the conservative direction, costing only throughput;
//! * **silent death** — the reporter stops reporting permanently;
//! * **report delay** — reports arrive late (duty-cycled radio, queue
//!   buildup) and may miss the head's fusion deadline.
//!
//! Schedules follow the same discipline as [`crate::schedule`]: one
//! `derive(seed, salt ^ reporter)` stream per `(class, reporter)`,
//! Poisson arrivals, canonical `(time, class, reporter)` sort — a pure
//! function of `(config, n_reporters, seed)` at any thread count.

use crate::schedule::arrivals;
use comimo_sim::time::SimTime;
use rayon::prelude::*;
use serde::Serialize;

const SALT_STUCK_H0: u64 = 0xFA17_0000_0005;
const SALT_STUCK_H1: u64 = 0xFA17_0000_0006;
const SALT_SILENT_DEATH: u64 = 0xFA17_0000_0007;
const SALT_REPORT_DELAY: u64 = 0xFA17_0000_0008;

/// One concrete reporter fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReporterFaultKind {
    /// The detector output freezes at H0 ("idle") for `duration_s`.
    StuckAtH0 {
        /// How long the output stays frozen (s).
        duration_s: f64,
    },
    /// The detector output freezes at H1 ("busy") for `duration_s`.
    StuckAtH1 {
        /// How long the output stays frozen (s).
        duration_s: f64,
    },
    /// The reporter stops reporting, permanently.
    SilentDeath,
    /// Reports are delayed by `delay_s` for `duration_s`.
    ReportDelay {
        /// Extra latency added to every report (s).
        delay_s: f64,
        /// How long the episode lasts (s).
        duration_s: f64,
    },
}

impl ReporterFaultKind {
    /// Canonical sort rank of the class (ties at one instant resolve
    /// class-then-reporter, independent of construction order).
    fn class_rank(&self) -> u8 {
        match self {
            Self::StuckAtH0 { .. } => 0,
            Self::StuckAtH1 { .. } => 1,
            Self::SilentDeath => 2,
            Self::ReportDelay { .. } => 3,
        }
    }

    /// Short class label used in rendered traces.
    pub fn label(&self) -> &'static str {
        match self {
            Self::StuckAtH0 { .. } => "stuck-h0",
            Self::StuckAtH1 { .. } => "stuck-h1",
            Self::SilentDeath => "silent-death",
            Self::ReportDelay { .. } => "report-delay",
        }
    }
}

/// A reporter fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReporterFaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// Which reporter it strikes.
    pub reporter: usize,
    /// What happens.
    pub kind: ReporterFaultKind,
}

/// Per-class arrival rates (Poisson, per reporter) and episode shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReporterFaultConfig {
    /// Horizon the schedule covers (s).
    pub horizon_s: f64,
    /// Stuck-at-H0 episodes per reporter per second.
    pub stuck_h0_rate_hz: f64,
    /// Stuck-at-H1 episodes per reporter per second.
    pub stuck_h1_rate_hz: f64,
    /// Mean stuck-episode duration (s), both polarities.
    pub stuck_mean_s: f64,
    /// Silent deaths per reporter per second (first arrival wins).
    pub death_rate_hz: f64,
    /// Delay episodes per reporter per second.
    pub delay_rate_hz: f64,
    /// Mean delay-episode duration (s).
    pub delay_mean_s: f64,
    /// Extra report latency while a delay episode is active (s).
    pub delay_s: f64,
}

impl ReporterFaultConfig {
    /// No reporter faults at all over `horizon_s` — the fused detector
    /// must reduce to its fault-free ROC under this config.
    pub fn disabled(horizon_s: f64) -> Self {
        Self {
            horizon_s,
            stuck_h0_rate_hz: 0.0,
            stuck_h1_rate_hz: 0.0,
            stuck_mean_s: 5.0,
            death_rate_hz: 0.0,
            delay_rate_hz: 0.0,
            delay_mean_s: 4.0,
            delay_s: 0.05,
        }
    }

    /// The sensebench baseline: rates chosen so a 100 s horizon sees a
    /// handful of each class per reporter pool.
    pub fn nominal(horizon_s: f64) -> Self {
        Self {
            horizon_s,
            stuck_h0_rate_hz: 0.008,
            stuck_h1_rate_hz: 0.008,
            stuck_mean_s: 5.0,
            death_rate_hz: 0.002,
            delay_rate_hz: 0.01,
            delay_mean_s: 4.0,
            delay_s: 0.05,
        }
    }

    /// Scales every arrival rate by `lambda` (durations and the delay
    /// magnitude unchanged) — the knob the sensebench λ sweep turns.
    pub fn scaled(&self, lambda: f64) -> Self {
        assert!(lambda >= 0.0);
        Self {
            stuck_h0_rate_hz: self.stuck_h0_rate_hz * lambda,
            stuck_h1_rate_hz: self.stuck_h1_rate_hz * lambda,
            death_rate_hz: self.death_rate_hz * lambda,
            delay_rate_hz: self.delay_rate_hz * lambda,
            ..*self
        }
    }

    /// Whether every rate is zero (the disabled-faults fast path).
    pub fn is_disabled(&self) -> bool {
        self.stuck_h0_rate_hz == 0.0
            && self.stuck_h1_rate_hz == 0.0
            && self.death_rate_hz == 0.0
            && self.delay_rate_hz == 0.0
    }
}

/// Builds the reporter-fault schedule for `n_reporters` reporters under
/// `cfg`, sorted by `(time, class, reporter)` — a pure function of
/// `(cfg, n_reporters, seed)` regardless of feature flags or threads.
pub fn build_reporter_schedule(
    cfg: &ReporterFaultConfig,
    n_reporters: usize,
    seed: u64,
) -> Vec<ReporterFaultEvent> {
    if cfg.is_disabled() {
        return Vec::new();
    }
    let stuck_h0: Vec<_> = (0..n_reporters)
        .into_par_iter()
        .map(|r| {
            arrivals(seed, SALT_STUCK_H0, r, cfg.stuck_h0_rate_hz, cfg.horizon_s)
                .into_iter()
                .map(|(t, d)| ReporterFaultEvent {
                    at: SimTime::from_secs_f64(t),
                    reporter: r,
                    kind: ReporterFaultKind::StuckAtH0 {
                        duration_s: d * cfg.stuck_mean_s,
                    },
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let stuck_h1: Vec<_> = (0..n_reporters)
        .into_par_iter()
        .map(|r| {
            arrivals(seed, SALT_STUCK_H1, r, cfg.stuck_h1_rate_hz, cfg.horizon_s)
                .into_iter()
                .map(|(t, d)| ReporterFaultEvent {
                    at: SimTime::from_secs_f64(t),
                    reporter: r,
                    kind: ReporterFaultKind::StuckAtH1 {
                        duration_s: d * cfg.stuck_mean_s,
                    },
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let deaths: Vec<_> = (0..n_reporters)
        .into_par_iter()
        .map(|r| {
            arrivals(seed, SALT_SILENT_DEATH, r, cfg.death_rate_hz, cfg.horizon_s)
                .into_iter()
                // a reporter dies once; later arrivals on the stream are moot
                .take(1)
                .map(|(t, _)| ReporterFaultEvent {
                    at: SimTime::from_secs_f64(t),
                    reporter: r,
                    kind: ReporterFaultKind::SilentDeath,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let delays: Vec<_> = (0..n_reporters)
        .into_par_iter()
        .map(|r| {
            arrivals(seed, SALT_REPORT_DELAY, r, cfg.delay_rate_hz, cfg.horizon_s)
                .into_iter()
                .map(|(t, d)| ReporterFaultEvent {
                    at: SimTime::from_secs_f64(t),
                    reporter: r,
                    kind: ReporterFaultKind::ReportDelay {
                        delay_s: cfg.delay_s,
                        duration_s: d * cfg.delay_mean_s,
                    },
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut all: Vec<ReporterFaultEvent> = stuck_h0
        .into_iter()
        .chain(stuck_h1)
        .chain(deaths)
        .chain(delays)
        .flatten()
        .collect();
    all.sort_by_key(|e| (e.at, e.kind.class_rank(), e.reporter));
    all
}

/// A reporter's effective condition at one instant, after resolving the
/// precedence death > stuck > delayed (a dead reporter cannot be stuck;
/// a stuck one still reports on time — its *content* is wrong, not its
/// timing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReporterState {
    /// Reports its own detector decision, on time.
    Healthy,
    /// Reports "idle" regardless of the channel.
    StuckH0,
    /// Reports "busy" regardless of the channel.
    StuckH1,
    /// Does not report at all.
    Dead,
    /// Reports its own decision, `delay_s` late.
    Delayed {
        /// The extra latency (s).
        delay_s: f64,
    },
}

/// Queryable view of a reporter-fault schedule: which state each
/// reporter is in at any instant.
#[derive(Debug, Clone)]
pub struct ReporterTimeline {
    events: Vec<ReporterFaultEvent>,
}

impl ReporterTimeline {
    /// Indexes a built schedule (any order; queries scan, which is fine
    /// for the handful of events a sensing horizon produces).
    pub fn from_schedule(events: &[ReporterFaultEvent]) -> Self {
        Self {
            events: events.to_vec(),
        }
    }

    /// The state of `reporter` at time `t` (seconds).
    pub fn state_at(&self, t: f64, reporter: usize) -> ReporterState {
        let mut state = ReporterState::Healthy;
        for e in &self.events {
            if e.reporter != reporter {
                continue;
            }
            let start = e.at.as_secs_f64();
            match e.kind {
                ReporterFaultKind::SilentDeath => {
                    if t >= start {
                        return ReporterState::Dead;
                    }
                }
                ReporterFaultKind::StuckAtH0 { duration_s } => {
                    if t >= start && t < start + duration_s {
                        state = ReporterState::StuckH0;
                    }
                }
                ReporterFaultKind::StuckAtH1 { duration_s } => {
                    if t >= start && t < start + duration_s {
                        // H1 outranks H0 when episodes overlap: the busy
                        // polarity is the conservative tie-break
                        state = ReporterState::StuckH1;
                    }
                }
                ReporterFaultKind::ReportDelay {
                    delay_s,
                    duration_s,
                } => {
                    if t >= start && t < start + duration_s && state == ReporterState::Healthy {
                        state = ReporterState::Delayed { delay_s };
                    }
                }
            }
        }
        state
    }

    /// Reporters alive (not silently dead) at time `t`.
    pub fn alive_at(&self, t: f64, n_reporters: usize) -> usize {
        (0..n_reporters)
            .filter(|&r| self.state_at(t, r) != ReporterState::Dead)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_yields_empty_schedule() {
        let cfg = ReporterFaultConfig::disabled(100.0);
        assert!(cfg.is_disabled());
        assert!(build_reporter_schedule(&cfg, 8, 7).is_empty());
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let cfg = ReporterFaultConfig::nominal(300.0);
        let a = build_reporter_schedule(&cfg, 6, 42);
        let b = build_reporter_schedule(&cfg, 6, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "300 s at nominal rates must produce faults");
        assert_ne!(a, build_reporter_schedule(&cfg, 6, 43));
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "canonical sort");
        }
    }

    #[test]
    fn reporters_die_at_most_once() {
        let cfg = ReporterFaultConfig {
            death_rate_hz: 0.5,
            ..ReporterFaultConfig::nominal(300.0)
        };
        let sched = build_reporter_schedule(&cfg, 4, 11);
        for r in 0..4 {
            let deaths = sched
                .iter()
                .filter(|e| e.reporter == r && e.kind == ReporterFaultKind::SilentDeath)
                .count();
            assert!(deaths <= 1, "reporter {r} died {deaths} times");
        }
    }

    #[test]
    fn timeline_resolves_precedence_death_over_stuck_over_delay() {
        let events = vec![
            ReporterFaultEvent {
                at: SimTime::from_secs_f64(1.0),
                reporter: 0,
                kind: ReporterFaultKind::ReportDelay {
                    delay_s: 0.05,
                    duration_s: 100.0,
                },
            },
            ReporterFaultEvent {
                at: SimTime::from_secs_f64(2.0),
                reporter: 0,
                kind: ReporterFaultKind::StuckAtH0 { duration_s: 3.0 },
            },
            ReporterFaultEvent {
                at: SimTime::from_secs_f64(10.0),
                reporter: 0,
                kind: ReporterFaultKind::SilentDeath,
            },
        ];
        let tl = ReporterTimeline::from_schedule(&events);
        assert_eq!(tl.state_at(0.5, 0), ReporterState::Healthy);
        assert_eq!(
            tl.state_at(1.5, 0),
            ReporterState::Delayed { delay_s: 0.05 }
        );
        assert_eq!(tl.state_at(3.0, 0), ReporterState::StuckH0);
        assert_eq!(
            tl.state_at(6.0, 0),
            ReporterState::Delayed { delay_s: 0.05 },
            "stuck episode over, the delay episode still runs"
        );
        assert_eq!(tl.state_at(11.0, 0), ReporterState::Dead);
        assert_eq!(tl.state_at(1e9, 0), ReporterState::Dead, "death is final");
        // a different reporter is untouched
        assert_eq!(tl.state_at(3.0, 1), ReporterState::Healthy);
        assert_eq!(tl.alive_at(11.0, 2), 1);
    }

    #[test]
    fn stuck_h1_outranks_stuck_h0_on_overlap() {
        let events = vec![
            ReporterFaultEvent {
                at: SimTime::from_secs_f64(0.0),
                reporter: 0,
                kind: ReporterFaultKind::StuckAtH0 { duration_s: 10.0 },
            },
            ReporterFaultEvent {
                at: SimTime::from_secs_f64(0.0),
                reporter: 0,
                kind: ReporterFaultKind::StuckAtH1 { duration_s: 10.0 },
            },
        ];
        let tl = ReporterTimeline::from_schedule(&events);
        assert_eq!(tl.state_at(5.0, 0), ReporterState::StuckH1);
    }

    #[test]
    fn scaling_rates_grows_the_schedule() {
        let base = ReporterFaultConfig::nominal(300.0);
        let n_base = build_reporter_schedule(&base, 6, 5).len();
        let n_hot = build_reporter_schedule(&base.scaled(4.0), 6, 5).len();
        assert!(n_hot > n_base, "4x rates gave {n_hot} vs {n_base}");
    }
}
