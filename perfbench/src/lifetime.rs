//! `network-lifetime`: seeded deployments of 60–240 SUs, each built into a
//! CoMIMONet at cluster caps 4, 2 and 1, run through a corner-to-corner
//! flow until it dies or completes its mission, and routed over five
//! backbone-versus-optimal pairs — the net layer's rebuild cost and the
//! energy layer's warm `ē_b` hit path, on one shared `EnergyModel` that
//! set-up warms with an untimed pass over the first operation's
//! deployments.
//!
//! An operation is one cycle of fresh deployments, one of each size, run
//! one after another: the library's lifetime loop is serial, and two
//! deployments side by side contend on the shared model's cache lock, which
//! spread the per-seed throughput over 18% of its median.

use crate::report::{median, Metrics, Tally};
use crate::trace::Tracer;
use crate::Workload;
use comimo_channel::geometry::Point;
use comimo_energy::model::LinkParams;
use comimo_energy::EnergyModel;
use comimo_math::rng::derive;
use comimo_net::cluster::SeedOrder;
use comimo_net::comimonet::{CoMimoNet, ForwardPolicy};
use comimo_net::node::{random_deployment, SuNode};
use comimo_net::routing::backbone_vs_optimal;
use comimo_net::{run_lifetime, LifetimeConfig, SuGraph};
use rand::Rng;
use std::hint::black_box;

/// Deployment sizes of one cycle.
const SIZES: [usize; 4] = [60, 120, 180, 240];
/// Flow rounds per lifetime run at most. A run ends earlier when an
/// endpoint dies or the flow cannot be routed. Uncapped, a deployment's
/// cost follows how long one corner node's battery lasts (4–29 rounds at
/// 240 SUs), which spread the per-seed throughput three times wider.
const MISSION_ROUNDS: usize = 6;
/// Cycles whose deployments set-up generates (more than any run reaches);
/// later operations wrap around.
const CYCLES: usize = 32;
/// The lifetime artefact's geometry: a 450 m square, 80 m radio range,
/// 40 m clusters, 650 m long-haul range, 0.5 J batteries.
const SIDE_M: f64 = 450.0;
const RANGE_M: f64 = 80.0;
const CLUSTER_D_M: f64 = 40.0;
const LONG_RANGE_M: f64 = 650.0;
const BATTERY_J: f64 = 0.5;
const CAPS: [usize; 3] = [4, 2, 1];
const PAIRS: usize = 5;

struct Deployment {
    nodes: Vec<SuNode>,
    /// The flow's endpoints: the SUs nearest two opposite corners.
    src: usize,
    dst: usize,
    /// Raw draws mapped onto cluster indices once the net is built.
    pairs: [(u64, u64); PAIRS],
}

impl Deployment {
    fn generate(seed: u64, label: u64, n: usize) -> Self {
        let mut rng = derive(seed, label);
        let nodes = random_deployment(&mut rng, n, SIDE_M, SIDE_M, BATTERY_J);
        let pairs = std::array::from_fn(|_| (rng.gen(), rng.gen()));
        let nearest = |x: f64, y: f64| {
            let corner = SuNode::new(usize::MAX, Point::new(x, y), 0.0);
            (0..nodes.len())
                .min_by(|&a, &b| {
                    nodes[a]
                        .distance_to(&corner)
                        .total_cmp(&nodes[b].distance_to(&corner))
                })
                .expect("deployments are not empty")
        };
        let (src, dst) = (nearest(0.0, 0.0), nearest(SIDE_M, SIDE_M));
        Self {
            nodes,
            src,
            dst,
            pairs,
        }
    }
}

struct Lifetime {
    model: EnergyModel,
    cfg: LifetimeConfig,
    /// `cycles[c]`: the deployments of cycle `c`, one of each size.
    cycles: Vec<Vec<Deployment>>,
    /// Lifetime rounds per cap of every deployment of cycle 0, from the
    /// set-up pass.
    first_rounds: Vec<[usize; 3]>,
}

pub fn setup(seed: u64, _pool: usize) -> Box<dyn Workload> {
    let cycles = (0..CYCLES)
        .map(|c| {
            SIZES
                .iter()
                .enumerate()
                .map(|(i, &n)| Deployment::generate(seed, (c * SIZES.len() + i) as u64, n))
                .collect()
        })
        .collect();
    let mut w = Lifetime {
        model: EnergyModel::paper(),
        cfg: LifetimeConfig {
            max_rounds: MISSION_ROUNDS,
            ..LifetimeConfig::default_rounds()
        },
        cycles,
        first_rounds: Vec::new(),
    };
    // declared warm-up: one untimed pass over the first operation's
    // deployments fills the model's ē_b cache
    w.first_rounds = w.cycle(0, 0, &Tracer::new(false), &mut Tally::default());
    Box::new(w)
}

impl Lifetime {
    /// Runs every deployment of cycle `c`; returns their rounds per cap.
    fn cycle(&self, c: usize, op: u64, tr: &Tracer, tally: &mut Tally) -> Vec<[usize; 3]> {
        self.cycles[c]
            .iter()
            .map(|dep| tr.span("net.deployment", op, || self.deployment(dep, op, tr, tally)))
            .collect()
    }

    /// Builds, runs and routes one deployment; returns rounds per cap.
    fn deployment(&self, dep: &Deployment, op: u64, tr: &Tracer, tally: &mut Tally) -> [usize; 3] {
        let n = dep.nodes.len();
        let mut rounds = [0; 3];
        let mut routing_net = None;
        for (i, &cap) in CAPS.iter().enumerate() {
            let graph = tr.span("net.graph_build", op, || {
                SuGraph::build(dep.nodes.clone(), RANGE_M)
            });
            let net = tr.span("net.comimonet_build", op, || {
                CoMimoNet::build(
                    graph,
                    CLUSTER_D_M,
                    cap,
                    SeedOrder::DegreeGreedy,
                    LONG_RANGE_M,
                )
            });
            if i == 0 {
                routing_net = Some(net.clone());
            }
            let res = tr.span("net.lifetime", op, || {
                run_lifetime(net, &self.model, &self.cfg, dep.src, dep.dst)
            });
            let want = res.rounds as f64 * self.cfg.bits_per_round;
            tally.check(if res.bits_delivered == want {
                Ok(())
            } else {
                Err(format!(
                    "{n}-SU deployment, cap {cap}: {} bits delivered over {} rounds",
                    res.bits_delivered, res.rounds
                ))
            });
            rounds[i] = res.rounds;
        }
        let net = routing_net.expect("CAPS is not empty");
        let k = net.clusters().len() as u64;
        for &(a, b) in &dep.pairs {
            let (a, b) = ((a % k) as usize, (b % k) as usize);
            let priced = tr.span("net.route_pair", op, || {
                backbone_vs_optimal(
                    &net,
                    &self.model,
                    self.cfg.ber,
                    self.cfg.bandwidth_hz,
                    self.cfg.block_bits,
                    a,
                    b,
                    ForwardPolicy::AllMembers,
                )
            });
            // an unroutable pair is a physics outcome, not a failure
            if let Some((backbone, optimal)) = priced {
                tally.check(if optimal <= backbone * (1.0 + 1e-12) {
                    Ok(())
                } else {
                    Err(format!(
                        "{n}-SU deployment, clusters {a}->{b}: min-energy {optimal} above backbone {backbone}"
                    ))
                });
            }
        }
        rounds
    }
}

impl Workload for Lifetime {
    fn op(&mut self, k: u64, tr: &Tracer, tally: &mut Tally) -> f64 {
        let c = k as usize % CYCLES;
        let rounds = tr.span("net.cycle", k, || self.cycle(c, k, tr, tally));
        if c == 0 {
            // the warm model must reproduce the cold set-up pass exactly
            tally.check(if rounds == self.first_rounds {
                Ok(())
            } else {
                Err(format!(
                    "cycle 0 rounds {rounds:?} differ from the set-up pass {:?}",
                    self.first_rounds
                ))
            });
        }
        self.cycles[c].len() as f64
    }

    fn verify(&mut self, _tally: &mut Tally) {}

    fn layers(&mut self, tr: &Tracer, _tally: &mut Tally, m: &mut Metrics) {
        let ms = |name: &str| median(&tr.durations_ns(name)) / 1e6;
        m.put("net.graph_build_ms", ms("net.graph_build"), "ms");
        m.put("net.comimonet_build_ms", ms("net.comimonet_build"), "ms");
        m.put("net.lifetime_ms", ms("net.lifetime"), "ms");
        m.put("net.route_pair_ms", ms("net.route_pair"), "ms");
        let rounds: usize = self.first_rounds.iter().flatten().sum();
        m.put("net.rounds", rounds as f64, "count");

        // the warm hit path over every (b, mt, mr) cell of the lifetime BER
        let cells: Vec<(LinkParams, usize, usize)> = (1..=16)
            .flat_map(|b| (1..=4).flat_map(move |mt| (1..=4).map(move |mr| (b, mt, mr))))
            .map(|(b, mt, mr)| {
                let p =
                    LinkParams::new(self.cfg.ber, b, self.cfg.bandwidth_hz, self.cfg.block_bits);
                (p, mt, mr)
            })
            .collect();
        for (p, mt, mr) in &cells {
            black_box(self.model.ebar(p, *mt, *mr));
        }
        const REPS: usize = 40;
        for rep in 0..7 {
            tr.span("energy.ebar_hit", rep, || {
                for _ in 0..REPS {
                    for (p, mt, mr) in &cells {
                        black_box(self.model.ebar(black_box(p), *mt, *mr));
                    }
                }
            });
        }
        let per_call = median(&tr.durations_ns("energy.ebar_hit")) / (REPS * cells.len()) as f64;
        m.put("energy.ebar_hit_ns", per_call, "ns");
    }

    fn counts(&mut self) -> Vec<(String, u64)> {
        let rounds = self.cycle(0, 0, &Tracer::new(false), &mut Tally::default());
        let mut out = Vec::new();
        for (i, r) in rounds.iter().enumerate() {
            for (cap, x) in CAPS.iter().zip(r) {
                out.push((format!("net.rounds.n{}.cap{cap}", SIZES[i]), *x as u64));
            }
        }
        out
    }
}
