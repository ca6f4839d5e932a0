//! CSMA/CA link layer on the discrete-event engine.
//!
//! "Carrier Sense Multiple Access with Collision Avoidance (CSMA/CA) is
//! used to avoid the communication collisions at the link layer" (paper,
//! Section 2.1). This is a packet-level CSMA/CA with the standard
//! ingredients — DIFS deference, slotted random backoff with binary
//! exponential contention-window growth, retransmission on missed
//! delivery, drop after a retry limit — over the `comimo-sim` medium.
//!
//! Simplifications relative to full 802.11 (documented, deliberate): the
//! ACK is modelled as instantaneous knowledge of delivery at transmission
//! end (the medium already knows collision outcomes), and backoff counters
//! are redrawn rather than frozen while the channel is busy. Neither
//! changes the qualitative contention behaviour the network layer needs.

use comimo_math::rng::SeededRng;
use comimo_sim::{EventQueue, Medium, SimTime, TxId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// MAC timing and retry parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacConfig {
    /// Backoff slot duration.
    pub slot: SimTime,
    /// DIFS: deference before backoff starts.
    pub difs: SimTime,
    /// Transmission duration of one data frame.
    pub frame_duration: SimTime,
    /// Initial contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Attempts before a frame is dropped.
    pub max_retries: u32,
    /// Enable the RTS/CTS handshake: a short reservation exchange before
    /// the data frame, so hidden terminals learn of the transfer from the
    /// receiver's CTS and defer. Collisions then only hit cheap RTS
    /// frames.
    pub rts_cts: bool,
    /// RTS/CTS control-frame duration (only used when `rts_cts`).
    pub control_duration: SimTime,
}

impl MacConfig {
    /// 802.11b-flavoured defaults scaled for the paper's 250 kbps links.
    pub fn default_250kbps() -> Self {
        Self {
            slot: SimTime::from_micros(20),
            difs: SimTime::from_micros(50),
            // 1500-byte frame at 250 kbps = 48 ms
            frame_duration: SimTime::from_millis(48),
            cw_min: 16,
            cw_max: 1024,
            max_retries: 7,
            rts_cts: false,
            control_duration: SimTime::from_micros(700),
        }
    }

    /// The same timing with the RTS/CTS handshake enabled.
    pub fn with_rts_cts() -> Self {
        Self {
            rts_cts: true,
            ..Self::default_250kbps()
        }
    }
}

/// A frame to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacFrame {
    /// Source node.
    pub src: usize,
    /// Destination node (must be a neighbour to succeed).
    pub dst: usize,
}

/// Aggregate MAC statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MacStats {
    /// Frames delivered to their destination.
    pub delivered: u64,
    /// Frames dropped after the retry limit.
    pub dropped: u64,
    /// Total transmission attempts (includes retries).
    pub attempts: u64,
    /// Attempts that ended in a collision at the destination.
    pub collisions: u64,
    /// RTS frames that collided (cheap losses absorbed by the handshake).
    pub rts_collisions: u64,
    /// Transmission-end events that found their node's queue empty — a
    /// state desynchronisation that should never happen; counted (and the
    /// event dropped) instead of panicking mid-simulation.
    pub desyncs: u64,
    /// Per-delivered-frame latency in seconds.
    pub latencies_s: Vec<f64>,
}

impl MacStats {
    /// Delivery ratio over offered frames.
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.delivered as f64 / total as f64
        }
    }

    /// Mean delivery latency (s). Returns `0.0` when nothing was
    /// delivered (`latencies_s` empty) — e.g. a fault scenario that drops
    /// every frame — rather than a NaN that would poison downstream
    /// aggregates.
    pub fn mean_latency_s(&self) -> f64 {
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        comimo_math::stats::mean(&self.latencies_s)
    }
}

#[derive(Debug)]
enum Ev {
    /// A frame arrives at its source's queue.
    Arrive { frame: MacFrame },
    /// Sense the channel and transmit or re-backoff.
    Sense { node: usize },
    /// A transmission from `node` finished.
    TxEnd { node: usize, tx: TxId },
    /// An RTS from `node` finished; on success the (virtual) CTS reserves
    /// the channel and the data frame follows.
    RtsEnd { node: usize, tx: TxId },
}

#[derive(Debug, Default)]
struct NodeState {
    queue: VecDeque<(MacFrame, SimTime)>,
    cw: u32,
    retries: u32,
    in_flight: bool,
    backoff_pending: bool,
    /// Deferral until this time due to an overheard CTS (the NAV).
    nav_until: Option<SimTime>,
}

/// A CSMA/CA simulation over a fixed adjacency.
pub struct CsmaSim {
    cfg: MacConfig,
    medium: Medium,
    events: EventQueue<Ev>,
    nodes: Vec<NodeState>,
    rng: SeededRng,
    stats: MacStats,
}

impl CsmaSim {
    /// Builds a simulation over the given adjacency lists.
    pub fn new(adjacency: Vec<Vec<usize>>, cfg: MacConfig, seed: u64) -> Self {
        let n = adjacency.len();
        let mut nodes = Vec::with_capacity(n);
        nodes.resize_with(n, NodeState::default);
        for s in &mut nodes {
            s.cw = cfg.cw_min;
        }
        Self {
            cfg,
            medium: Medium::new(adjacency),
            events: EventQueue::new(),
            nodes,
            rng: comimo_math::rng::seeded(seed),
            stats: MacStats::default(),
        }
    }

    /// Offers a frame that arrives at its source's queue at time `at`.
    pub fn offer(&mut self, frame: MacFrame, at: SimTime) {
        assert!(frame.src < self.nodes.len() && frame.dst < self.nodes.len());
        assert!(frame.src != frame.dst, "frame to self");
        self.events
            .schedule_at(at.max(self.events.now()), Ev::Arrive { frame });
    }

    fn schedule_backoff_at(&mut self, node: usize, at: SimTime) {
        if self.nodes[node].in_flight || self.nodes[node].backoff_pending {
            return;
        }
        let cw = self.nodes[node].cw;
        let slots = self.rng.gen_range(0..cw) as u64;
        let delay = self.cfg.difs + SimTime::from_nanos(self.cfg.slot.as_nanos() * slots);
        let fire = at.max(self.events.now()) + delay;
        self.nodes[node].backoff_pending = true;
        self.events.schedule_at(fire, Ev::Sense { node });
    }

    fn schedule_backoff(&mut self, node: usize) {
        self.schedule_backoff_at(node, self.events.now());
    }

    /// Runs until all queues drain (or `max_events` safety cap fires).
    /// Returns the collected statistics.
    pub fn run(mut self, max_events: usize) -> MacStats {
        let mut fired = 0usize;
        while fired < max_events {
            let Some((now, ev)) = self.events.pop() else {
                break;
            };
            fired += 1;
            match ev {
                Ev::Arrive { frame } => {
                    self.nodes[frame.src].queue.push_back((frame, now));
                    self.schedule_backoff(frame.src);
                }
                Ev::Sense { node } => {
                    self.nodes[node].backoff_pending = false;
                    if self.nodes[node].queue.is_empty() || self.nodes[node].in_flight {
                        continue;
                    }
                    // NAV: an overheard CTS reserved the channel — defer
                    if let Some(nav) = self.nodes[node].nav_until {
                        if nav > now {
                            self.nodes[node].backoff_pending = true;
                            self.events.schedule_at(nav, Ev::Sense { node });
                            continue;
                        }
                        self.nodes[node].nav_until = None;
                    }
                    if self.medium.carrier_busy(node, now) {
                        // busy: widen the window and retry later
                        self.nodes[node].cw = (self.nodes[node].cw * 2).min(self.cfg.cw_max);
                        self.schedule_backoff(node);
                        continue;
                    }
                    if self.cfg.rts_cts {
                        let end = now + self.cfg.control_duration;
                        let tx = self.medium.begin(node, now, end);
                        self.nodes[node].in_flight = true;
                        self.events.schedule_at(end, Ev::RtsEnd { node, tx });
                    } else {
                        let end = now + self.cfg.frame_duration;
                        let tx = self.medium.begin(node, now, end);
                        self.nodes[node].in_flight = true;
                        self.stats.attempts += 1;
                        self.events.schedule_at(end, Ev::TxEnd { node, tx });
                    }
                }
                Ev::RtsEnd { node, tx } => {
                    let outcome = self.medium.finish(tx);
                    let Some(&(frame, _)) = self.nodes[node].queue.front() else {
                        // an RTS ended with nothing queued: recover instead
                        // of panicking — release the channel and move on
                        self.nodes[node].in_flight = false;
                        self.stats.desyncs += 1;
                        continue;
                    };
                    if outcome.delivered_to.contains(&frame.dst) {
                        // the destination answers with a (virtual) CTS: every
                        // node that hears the destination sets its NAV for the
                        // data transfer, which is what defeats hidden terminals
                        let data_end = now + self.cfg.frame_duration;
                        for &n in self.medium.neighbours(frame.dst).to_vec().iter() {
                            if n == node {
                                continue;
                            }
                            let nav = self.nodes[n].nav_until.unwrap_or(SimTime::ZERO);
                            self.nodes[n].nav_until = Some(nav.max(data_end));
                        }
                        let data_tx = self.medium.begin(node, now, data_end);
                        self.stats.attempts += 1;
                        self.events
                            .schedule_at(data_end, Ev::TxEnd { node, tx: data_tx });
                    } else {
                        // RTS lost — a cheap collision
                        self.stats.rts_collisions += 1;
                        self.nodes[node].in_flight = false;
                        self.nodes[node].retries += 1;
                        if self.nodes[node].retries > self.cfg.max_retries {
                            self.nodes[node].queue.pop_front();
                            self.nodes[node].retries = 0;
                            self.nodes[node].cw = self.cfg.cw_min;
                            self.stats.dropped += 1;
                        } else {
                            self.nodes[node].cw = (self.nodes[node].cw * 2).min(self.cfg.cw_max);
                        }
                        if !self.nodes[node].queue.is_empty() {
                            self.schedule_backoff(node);
                        }
                    }
                }
                Ev::TxEnd { node, tx } => {
                    let outcome = self.medium.finish(tx);
                    self.nodes[node].in_flight = false;
                    let Some(&(frame, enqueued)) = self.nodes[node].queue.front() else {
                        self.stats.desyncs += 1;
                        continue;
                    };
                    if outcome.delivered_to.contains(&frame.dst) {
                        self.nodes[node].queue.pop_front();
                        self.nodes[node].cw = self.cfg.cw_min;
                        self.nodes[node].retries = 0;
                        self.stats.delivered += 1;
                        self.stats
                            .latencies_s
                            .push((now.saturating_sub(enqueued)).as_secs_f64());
                    } else {
                        if outcome.collided_at.contains(&frame.dst) {
                            self.stats.collisions += 1;
                        }
                        self.nodes[node].retries += 1;
                        if self.nodes[node].retries > self.cfg.max_retries {
                            self.nodes[node].queue.pop_front();
                            self.nodes[node].retries = 0;
                            self.nodes[node].cw = self.cfg.cw_min;
                            self.stats.dropped += 1;
                        } else {
                            self.nodes[node].cw = (self.nodes[node].cw * 2).min(self.cfg.cw_max);
                        }
                    }
                    if !self.nodes[node].queue.is_empty() {
                        self.schedule_backoff(node);
                    }
                }
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MacConfig {
        MacConfig::default_250kbps()
    }

    #[test]
    fn single_pair_delivers_everything() {
        let mut sim = CsmaSim::new(vec![vec![1], vec![0]], cfg(), 1);
        for i in 0..20 {
            sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i * 10));
        }
        let stats = sim.run(100_000);
        assert_eq!(stats.delivered, 20);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delivery_ratio(), 1.0);
    }

    #[test]
    fn contention_two_senders_one_receiver_mostly_delivers() {
        // 0 and 2 both send to 1; all mutually audible → CSMA avoids most
        // collisions
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let mut sim = CsmaSim::new(adj, cfg(), 2);
        for i in 0..30 {
            sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i));
            sim.offer(MacFrame { src: 2, dst: 1 }, SimTime::from_millis(i));
        }
        let stats = sim.run(1_000_000);
        assert_eq!(stats.delivered + stats.dropped, 60);
        assert!(
            stats.delivery_ratio() > 0.95,
            "delivery ratio {}",
            stats.delivery_ratio()
        );
    }

    #[test]
    fn hidden_terminal_saturated_is_catastrophic() {
        // classic hidden pair: 0-1-2 line; 0 and 2 cannot hear each other.
        // Under saturation (both always have a frame) carrier sensing is
        // useless and nearly everything collides — the textbook failure
        // mode CSMA/CA cannot fix without RTS/CTS.
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let mut sim = CsmaSim::new(adj, cfg(), 3);
        for i in 0..25 {
            sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i));
            sim.offer(MacFrame { src: 2, dst: 1 }, SimTime::from_millis(i));
        }
        let stats = sim.run(2_000_000);
        assert!(
            stats.collisions > 50,
            "expected heavy collisions, got {}",
            stats.collisions
        );
        assert!(
            stats.delivery_ratio() < 0.5,
            "saturated hidden terminals should mostly fail, ratio {}",
            stats.delivery_ratio()
        );
    }

    #[test]
    fn hidden_terminal_sparse_traffic_recovers() {
        // with offers spaced wider than the frame duration plus the retry
        // window, retransmissions find silent air and deliveries succeed
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let mut sim = CsmaSim::new(adj, cfg(), 7);
        for i in 0..10 {
            sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i * 400));
            sim.offer(
                MacFrame { src: 2, dst: 1 },
                SimTime::from_millis(i * 400 + 150),
            );
        }
        let stats = sim.run(2_000_000);
        assert!(
            stats.delivery_ratio() > 0.9,
            "sparse hidden-terminal traffic should deliver, ratio {}",
            stats.delivery_ratio()
        );
    }

    #[test]
    fn unreachable_destination_drops_after_retries() {
        // 0 and 1 are out of range of each other
        let adj = vec![vec![], vec![]];
        let mut sim = CsmaSim::new(adj, cfg(), 4);
        sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::ZERO);
        let stats = sim.run(100_000);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.attempts as u32, cfg().max_retries + 1);
        assert_eq!(stats.delivery_ratio(), 0.0);
        assert_eq!(stats.mean_latency_s(), 0.0);
    }

    #[test]
    fn retry_exhaustion_mixed_with_deliveries_keeps_the_ratio_honest() {
        // 1 is out of 0's range but hears 2; delivery_ratio must account
        // for the exhausted 0→1 frame exactly once next to the delivered
        // 2→1 ones.
        let adj = vec![vec![2], vec![2], vec![0, 1]];
        let mut sim = CsmaSim::new(adj, cfg(), 11);
        sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::ZERO);
        for i in 0..3 {
            sim.offer(MacFrame { src: 2, dst: 1 }, SimTime::from_millis(i * 200));
        }
        let stats = sim.run(10_000_000);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.dropped, 1);
        assert!((stats.delivery_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_latency_of_empty_stats_is_zero() {
        let stats = MacStats::default();
        assert_eq!(stats.mean_latency_s(), 0.0);
        assert!(stats.mean_latency_s().is_finite());
    }

    #[test]
    fn latency_grows_under_contention() {
        let lone = {
            let mut sim = CsmaSim::new(vec![vec![1], vec![0]], cfg(), 5);
            for i in 0..10 {
                sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i));
            }
            sim.run(100_000).mean_latency_s()
        };
        let contended = {
            let adj = vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]];
            let mut sim = CsmaSim::new(adj, cfg(), 6);
            for i in 0..10 {
                for src in [0usize, 2, 3] {
                    sim.offer(MacFrame { src, dst: 1 }, SimTime::from_millis(i));
                }
            }
            sim.run(1_000_000).mean_latency_s()
        };
        assert!(
            contended > lone,
            "contended latency {contended} vs lone {lone}"
        );
    }

    #[test]
    fn rts_cts_rescues_the_saturated_hidden_terminal() {
        // the canonical motivation for the handshake: the same saturated
        // hidden-terminal workload that collapses plain CSMA (see the test
        // above) delivers nearly everything once CTS reservations silence
        // the hidden node during data frames
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let offer_all = |sim: &mut CsmaSim| {
            for i in 0..25 {
                sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i));
                sim.offer(MacFrame { src: 2, dst: 1 }, SimTime::from_millis(i));
            }
        };
        let mut plain = CsmaSim::new(adj.clone(), MacConfig::default_250kbps(), 3);
        offer_all(&mut plain);
        let plain_stats = plain.run(2_000_000);

        let mut handshake = CsmaSim::new(adj, MacConfig::with_rts_cts(), 3);
        offer_all(&mut handshake);
        let stats = handshake.run(2_000_000);
        // (residual drops are repeated RTS-on-RTS collisions hitting the
        // retry limit — real 802.11 gives control frames a larger retry
        // budget for the same reason)
        assert!(
            stats.delivery_ratio() > 0.75,
            "RTS/CTS delivery ratio {} (plain was {})",
            stats.delivery_ratio(),
            plain_stats.delivery_ratio()
        );
        assert!(stats.delivery_ratio() > plain_stats.delivery_ratio() + 0.3);
        // data-frame collisions are (nearly) eliminated; losses moved to
        // cheap RTS frames
        assert!(
            stats.collisions <= plain_stats.collisions / 5,
            "data collisions {} vs plain {}",
            stats.collisions,
            plain_stats.collisions
        );
    }

    #[test]
    fn rts_cts_has_little_effect_without_hidden_terminals() {
        // in a single collision domain the handshake only adds overhead;
        // delivery stays complete either way
        let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let run_with = |cfg: MacConfig| {
            let mut sim = CsmaSim::new(adj.clone(), cfg, 8);
            for i in 0..20 {
                sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i * 2));
                sim.offer(MacFrame { src: 2, dst: 1 }, SimTime::from_millis(i * 2));
            }
            sim.run(2_000_000)
        };
        let plain = run_with(MacConfig::default_250kbps());
        let hand = run_with(MacConfig::with_rts_cts());
        assert!(plain.delivery_ratio() > 0.95);
        assert!(hand.delivery_ratio() > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
            let mut sim = CsmaSim::new(adj, cfg(), seed);
            for i in 0..10 {
                sim.offer(MacFrame { src: 0, dst: 1 }, SimTime::from_millis(i));
                sim.offer(MacFrame { src: 2, dst: 1 }, SimTime::from_millis(i));
            }
            sim.run(1_000_000)
        };
        assert_eq!(run(42), run(42));
    }
}
