//! Deterministic fault schedules: Poisson arrivals per unit, one derived
//! RNG stream per `(class, unit)`, canonically merged.
//!
//! The split-stream discipline mirrors the Monte-Carlo engine: because
//! every unit draws from `derive(seed, salt ^ unit)`, building the
//! schedule on 1 thread or N threads produces the same byte-for-byte
//! event list — the per-unit lists are generated independently (on the
//! rayon pool) and then sorted by the canonical key
//! `(time, class, unit, ordinal)`.

use crate::model::{FaultConfig, FaultEvent, FaultKind, Topology};
use comimo_math::rng::{derive, exponential_unit};
use comimo_sim::time::SimTime;
use rayon::prelude::*;

const SALT_RELAY_DEATH: u64 = 0xFA17_0000_0001;
const SALT_PU_RETURN: u64 = 0xFA17_0000_0002;
const SALT_SHADOW: u64 = 0xFA17_0000_0003;
const SALT_BROADCAST: u64 = 0xFA17_0000_0004;

/// Poisson arrival times over `[0, horizon_s)` at `rate_hz`, plus a
/// sampled exponential duration for each arrival. Shared with the
/// reporter-fault schedules of [`crate::sensing`].
pub(crate) fn arrivals(
    seed: u64,
    salt: u64,
    unit: usize,
    rate_hz: f64,
    horizon_s: f64,
) -> Vec<(f64, f64)> {
    if rate_hz <= 0.0 {
        return Vec::new();
    }
    let mut rng = derive(seed, salt ^ (unit as u64));
    let mut out = Vec::new();
    let mut t = exponential_unit(&mut rng) / rate_hz;
    while t < horizon_s {
        let dur = exponential_unit(&mut rng);
        out.push((t, dur));
        t += exponential_unit(&mut rng) / rate_hz;
    }
    out
}

/// Builds the full fault schedule for `topo` under `cfg`, sorted by
/// `(time, class, unit, ordinal)` — a pure function of `(cfg, topo,
/// seed)` regardless of feature flags or thread count.
pub fn build_schedule(cfg: &FaultConfig, topo: &Topology, seed: u64) -> Vec<FaultEvent> {
    if cfg.is_disabled() {
        return Vec::new();
    }

    let deaths: Vec<_> = (0..topo.n_nodes)
        .into_par_iter()
        .map(|node| {
            arrivals(
                seed,
                SALT_RELAY_DEATH,
                node,
                cfg.relay_death_rate_hz,
                cfg.horizon_s,
            )
            .into_iter()
            // a node dies once; later arrivals on the same stream are moot
            .take(1)
            .map(|(t, _)| FaultEvent {
                at: SimTime::from_secs_f64(t),
                kind: FaultKind::RelayDeath { node },
            })
            .collect::<Vec<_>>()
        })
        .collect();
    let returns: Vec<_> = (0..topo.n_channels)
        .into_par_iter()
        .map(|channel| {
            arrivals(
                seed,
                SALT_PU_RETURN,
                channel,
                cfg.pu_return_rate_hz,
                cfg.horizon_s,
            )
            .into_iter()
            .map(|(t, d)| FaultEvent {
                at: SimTime::from_secs_f64(t),
                kind: FaultKind::PuReturn {
                    channel,
                    duration_s: d * cfg.pu_return_mean_s,
                },
            })
            .collect::<Vec<_>>()
        })
        .collect();
    let shadows: Vec<_> = (0..topo.n_nodes)
        .into_par_iter()
        .map(|node| {
            arrivals(seed, SALT_SHADOW, node, cfg.shadow_rate_hz, cfg.horizon_s)
                .into_iter()
                .map(|(t, d)| FaultEvent {
                    at: SimTime::from_secs_f64(t),
                    kind: FaultKind::ShadowBurst {
                        node,
                        extra_loss_db: cfg.shadow_depth_db,
                        duration_s: d * cfg.shadow_mean_s,
                    },
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let losses: Vec<_> = (0..topo.n_clusters)
        .into_par_iter()
        .map(|cluster| {
            arrivals(
                seed,
                SALT_BROADCAST,
                cluster,
                cfg.broadcast_loss_rate_hz,
                cfg.horizon_s,
            )
            .into_iter()
            .map(|(t, d)| FaultEvent {
                at: SimTime::from_secs_f64(t),
                kind: FaultKind::BroadcastLoss {
                    cluster,
                    loss_prob: cfg.broadcast_loss_prob,
                    duration_s: d * cfg.broadcast_loss_mean_s,
                },
            })
            .collect::<Vec<_>>()
        })
        .collect();

    let mut all: Vec<FaultEvent> = deaths
        .into_iter()
        .chain(returns)
        .chain(shadows)
        .chain(losses)
        .flatten()
        .collect();
    // per-unit lists are already time-ordered, so (time, class, unit) is a
    // total order over the merged set — the ordinal never ties
    all.sort_by_key(|e| (e.at, e.kind.class_rank(), e.kind.unit()));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology {
            n_nodes: 8,
            n_channels: 3,
            n_clusters: 2,
        }
    }

    #[test]
    fn disabled_config_yields_empty_schedule() {
        assert!(build_schedule(&FaultConfig::disabled(100.0), &topo(), 7).is_empty());
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let cfg = FaultConfig::nominal(200.0);
        let a = build_schedule(&cfg, &topo(), 42);
        let b = build_schedule(&cfg, &topo(), 42);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "200 s at nominal rates must produce faults");
        let c = build_schedule(&cfg, &topo(), 43);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn schedule_is_time_sorted_within_horizon() {
        let cfg = FaultConfig::nominal(300.0);
        let sched = build_schedule(&cfg, &topo(), 9);
        let horizon = SimTime::from_secs_f64(cfg.horizon_s);
        for w in sched.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(sched.iter().all(|e| e.at < horizon));
    }

    #[test]
    fn nodes_die_at_most_once() {
        let cfg = FaultConfig {
            relay_death_rate_hz: 0.5, // ~150 arrivals per node over 300 s
            ..FaultConfig::nominal(300.0)
        };
        let sched = build_schedule(&cfg, &topo(), 11);
        for node in 0..topo().n_nodes {
            let deaths = sched
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::RelayDeath { node: n } if n == node))
                .count();
            assert!(deaths <= 1, "node {node} died {deaths} times");
        }
    }

    #[test]
    fn scaling_rates_grows_the_schedule() {
        let base = FaultConfig::nominal(300.0);
        let n_base = build_schedule(&base, &topo(), 5).len();
        let n_hot = build_schedule(&base.scaled(4.0), &topo(), 5).len();
        assert!(
            n_hot > n_base,
            "4x rates gave {n_hot} faults vs {n_base} at 1x"
        );
    }
}
