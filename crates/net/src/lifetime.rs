//! Network-lifetime simulation: the "energy efficient" claim, measured.
//!
//! The paper's keywords include "energy efficient", and its whole energy
//! analysis exists because SU nodes are battery-powered. This module
//! closes the loop: it pushes traffic across a CoMIMONet round after
//! round, drains each participating node's battery by the hop-level
//! energy accounting, re-elects heads and reconfigures as nodes die, and
//! reports how long the network keeps the flow alive — letting
//! cooperative MIMO routing be compared against SISO-style routing on the
//! same deployment.

use crate::comimonet::{CoMimoNet, ForwardPolicy};
use crate::routing::min_energy_route;
use comimo_energy::model::EnergyModel;
use serde::{Deserialize, Serialize};

/// Traffic and accounting parameters for a lifetime run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifetimeConfig {
    /// Bits delivered per round.
    pub bits_per_round: f64,
    /// Target BER per hop.
    pub ber: f64,
    /// Bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// Block bits.
    pub block_bits: f64,
    /// Receive-side forwarding policy.
    pub policy: ForwardPolicy,
    /// Safety cap on rounds.
    pub max_rounds: usize,
}

impl LifetimeConfig {
    /// Ten kilobits per round at the paper's Figure-6 settings — sized so
    /// a fraction-of-a-joule battery sustains tens of rounds over
    /// hundred-metre cooperative hops (whose cost is ~1e-6 J/bit/node).
    pub fn default_rounds() -> Self {
        Self {
            bits_per_round: 1e4,
            ber: 1e-3,
            bandwidth_hz: 40_000.0,
            block_bits: 1e4,
            policy: ForwardPolicy::AllMembers,
            max_rounds: 100_000,
        }
    }
}

/// Why a lifetime run could not start. Kept typed so long-running
/// callers surface a bad endpoint as a value instead of an indexing
/// panic mid-campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifetimeError {
    /// An endpoint id is outside the deployment.
    EndpointOutOfRange {
        /// The offending node id.
        node: usize,
        /// Nodes in the deployment.
        len: usize,
    },
}

impl std::fmt::Display for LifetimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EndpointOutOfRange { node, len } => {
                write!(f, "endpoint node {node} outside the {len}-node deployment")
            }
        }
    }
}

impl std::error::Error for LifetimeError {}

/// Result of a lifetime run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeResult {
    /// Rounds completed before the flow died.
    pub rounds: usize,
    /// Total bits delivered.
    pub bits_delivered: f64,
    /// Node ids that died, in order.
    pub deaths: Vec<usize>,
    /// Total energy drained across the network (J).
    pub energy_spent_j: f64,
}

/// Drains batteries for one hop's transmission of `bits` bits: the
/// transmit cluster's members pay the long-haul + local-broadcast share,
/// the receive cluster's members the receive + collection share.
fn drain_hop(
    net: &mut CoMimoNet,
    model: &EnergyModel,
    cfg: &LifetimeConfig,
    a: usize,
    b: usize,
    bits: f64,
) -> f64 {
    let hop = net.hop_energy(
        model,
        cfg.ber,
        cfg.bandwidth_hz,
        cfg.block_bits,
        a,
        b,
        cfg.policy,
    );
    let tx_members = net.clusters()[a].members.clone();
    let rx_members = net.clusters()[b].members.clone();
    let tx_share = (hop.local_broadcast_j + hop.long_haul_tx_j) / tx_members.len() as f64;
    let rx_share = (hop.long_haul_rx_j + hop.local_collect_j) / rx_members.len() as f64;
    let mut spent = 0.0;
    for m in tx_members {
        let j = tx_share * bits;
        net.graph_mut().nodes_mut()[m].drain(j);
        spent += j;
    }
    for m in rx_members {
        let j = rx_share * bits;
        net.graph_mut().nodes_mut()[m].drain(j);
        spent += j;
    }
    spent
}

/// Runs traffic from the cluster containing `src_node` to the cluster
/// containing `dst_node` until the flow cannot be routed any more (node
/// deaths partition the network or consume an endpoint).
///
/// Panics on an out-of-range endpoint; [`try_run_lifetime`] returns the
/// same condition as a [`LifetimeError`] instead.
pub fn run_lifetime(
    net: CoMimoNet,
    model: &EnergyModel,
    cfg: &LifetimeConfig,
    src_node: usize,
    dst_node: usize,
) -> LifetimeResult {
    match try_run_lifetime(net, model, cfg, src_node, dst_node) {
        Ok(res) => res,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_lifetime`] with the endpoint validation surfaced as a typed
/// error instead of an indexing panic.
pub fn try_run_lifetime(
    mut net: CoMimoNet,
    model: &EnergyModel,
    cfg: &LifetimeConfig,
    src_node: usize,
    dst_node: usize,
) -> Result<LifetimeResult, LifetimeError> {
    let len = net.graph().len();
    for node in [src_node, dst_node] {
        if node >= len {
            return Err(LifetimeError::EndpointOutOfRange { node, len });
        }
    }
    let mut result = LifetimeResult {
        rounds: 0,
        bits_delivered: 0.0,
        deaths: Vec::new(),
        energy_spent_j: 0.0,
    };
    for _ in 0..cfg.max_rounds {
        // endpoints must still be alive
        if !net.graph().nodes()[src_node].alive || !net.graph().nodes()[dst_node].alive {
            break;
        }
        let (Some(from), Some(to)) = (net.cluster_of(src_node), net.cluster_of(dst_node)) else {
            break;
        };
        let Some(route) = min_energy_route(
            &net,
            model,
            cfg.ber,
            cfg.bandwidth_hz,
            cfg.block_bits,
            from,
            to,
            cfg.policy,
        ) else {
            break;
        };
        for w in route.path.windows(2) {
            result.energy_spent_j +=
                drain_hop(&mut net, model, cfg, w[0], w[1], cfg.bits_per_round);
        }
        result.rounds += 1;
        result.bits_delivered += cfg.bits_per_round;
        // reconfigure around any deaths this round
        let dead: Vec<usize> = net
            .graph()
            .nodes()
            .iter()
            .filter(|n| !n.alive && !result.deaths.contains(&n.id))
            .map(|n| n.id)
            .collect();
        let mut reconfig_failed = false;
        for d in dead {
            result.deaths.push(d);
            // a broken reconfiguration ends the lifetime instead of
            // unwinding: the rounds delivered so far are still the answer
            if net.try_kill_node_and_reconfigure(d).is_err() {
                reconfig_failed = true;
                break;
            }
        }
        if reconfig_failed {
            break;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SeedOrder;
    use crate::graph::SuGraph;
    use crate::node::random_deployment;
    use comimo_math::rng::seeded;

    fn deployment(seed: u64, battery_j: f64, max_cluster: usize) -> CoMimoNet {
        let mut rng = seeded(seed);
        let nodes = random_deployment(&mut rng, 50, 400.0, 400.0, battery_j);
        let graph = SuGraph::build(nodes, 80.0);
        CoMimoNet::build(graph, 40.0, max_cluster, SeedOrder::DegreeGreedy, 600.0)
    }

    #[test]
    fn flow_runs_until_energy_runs_out() {
        let net = deployment(5, 0.2, 4);
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig {
            max_rounds: 5_000,
            ..LifetimeConfig::default_rounds()
        };
        let res = run_lifetime(net, &model, &cfg, 0, 49);
        assert!(res.rounds > 0, "no rounds completed");
        assert!(res.rounds < cfg.max_rounds, "flow should eventually die");
        assert!(!res.deaths.is_empty(), "someone must run dry");
        assert!(res.energy_spent_j > 0.0);
        assert!((res.bits_delivered - res.rounds as f64 * 1e4).abs() < 1.0);
    }

    #[test]
    fn bigger_batteries_live_longer() {
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig {
            max_rounds: 20_000,
            ..LifetimeConfig::default_rounds()
        };
        let small = run_lifetime(deployment(7, 0.05, 4), &model, &cfg, 0, 49);
        let large = run_lifetime(deployment(7, 0.5, 4), &model, &cfg, 0, 49);
        assert!(
            large.rounds > small.rounds * 3,
            "large {} vs small {}",
            large.rounds,
            small.rounds
        );
    }

    #[test]
    fn cooperation_extends_lifetime_over_siso_clusters() {
        // the headline claim: the same deployment with singleton clusters
        // (max_cluster = 1, i.e. SISO hops) dies much sooner than with
        // cooperative 4-node clusters
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig {
            max_rounds: 50_000,
            ..LifetimeConfig::default_rounds()
        };
        let coop = run_lifetime(deployment(11, 0.3, 4), &model, &cfg, 0, 49);
        let siso = run_lifetime(deployment(11, 0.3, 1), &model, &cfg, 0, 49);
        assert!(
            coop.bits_delivered > 2.0 * siso.bits_delivered,
            "coop {} bits vs SISO {} bits",
            coop.bits_delivered,
            siso.bits_delivered
        );
    }

    #[test]
    fn out_of_range_endpoints_are_a_typed_error_not_a_panic() {
        let model = EnergyModel::paper();
        let cfg = LifetimeConfig::default_rounds();
        let err = try_run_lifetime(deployment(5, 0.2, 4), &model, &cfg, 0, 50).unwrap_err();
        assert_eq!(err, LifetimeError::EndpointOutOfRange { node: 50, len: 50 });
        let err = try_run_lifetime(deployment(5, 0.2, 4), &model, &cfg, 99, 0).unwrap_err();
        assert_eq!(err, LifetimeError::EndpointOutOfRange { node: 99, len: 50 });
        assert!(err.to_string().contains("node 99"));
    }

    #[test]
    fn dead_endpoint_ends_the_flow() {
        let mut net = deployment(13, 0.2, 4);
        let model = EnergyModel::paper();
        net.graph_mut().nodes_mut()[0].drain(1.0); // kill the source
        let cfg = LifetimeConfig::default_rounds();
        let res = run_lifetime(net, &model, &cfg, 0, 49);
        assert_eq!(res.rounds, 0);
    }
}
