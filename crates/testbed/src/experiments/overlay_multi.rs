//! Table 3 — multi-relay overlay experiment.
//!
//! "The transmitter and receiver are separated in two labs with distance
//! more than 30 feet and multiple concrete walls. Three relays are
//! uniformly put in the corridor between the transmitter and receiver.
//! 100000 binary digits are transmitted. ... the relay is located in the
//! middle between the transmitter and receiver for the single-relay
//! case." (paper, Section 6.4)
//!
//! Every relay decodes the transmitter's broadcast and forwards; the
//! receiver equal-gain-combines the direct branch with every relayed
//! branch. Three rows: 3-relay cooperation, 1-relay cooperation, direct.

use crate::bpsk_link::{decode_and_forward, decode_egc, decode_single, transmit_bpsk, Branch};
use crate::calib::TestbedCalibration;
use comimo_channel::obstacle::multi_relay_corridor;
use comimo_dsp::bits::{count_bit_errors, pn_sequence};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of the multi-relay rig.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiRelayConfig {
    /// Tx–Rx separation (m). Paper: >30 ft ≈ 9.5 m.
    pub distance_m: f64,
    /// Number of concrete walls on the direct path.
    pub n_walls: usize,
    /// Per-wall penetration loss (dB).
    pub wall_loss_db: f64,
    /// Corridor lateral offset of the relays (m).
    pub corridor_offset_m: f64,
    /// Calibration.
    pub calib: TestbedCalibration,
    /// Bits per experiment. Paper: 100 000.
    pub n_bits: usize,
    /// Fading-block size (bits).
    pub packet_bits: usize,
    /// Rician K for unobstructed legs.
    pub k_los: f64,
    /// Rician K for wall-obstructed legs.
    pub k_nlos: f64,
    /// Repeated experiments averaged into the reported row.
    pub n_experiments: usize,
}

impl MultiRelayConfig {
    /// The calibrated paper rig (higher reference SNR than the Table-2
    /// room: the authors necessarily ran more transmit gain to cross two
    /// labs; `snr_ref_db` is set so the direct row lands near 22.7 %).
    pub fn paper() -> Self {
        Self {
            distance_m: 9.5,
            n_walls: 3,
            wall_loss_db: 5.0,
            corridor_offset_m: 1.2,
            calib: TestbedCalibration::new(26.0, 2.0),
            n_bits: 100_000,
            packet_bits: 1_000,
            k_los: 2.0,
            k_nlos: 0.2,
            n_experiments: 3,
        }
    }
}

/// The Table-3 row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiRelayRow {
    /// BER with three cooperating relays.
    pub ber_multi: f64,
    /// BER with the single middle relay.
    pub ber_single: f64,
    /// BER of direct transmission.
    pub ber_direct: f64,
}

/// Runs the Table-3 experiment, averaging `n_experiments` runs.
pub fn run(cfg: &MultiRelayConfig, seed: u64) -> MultiRelayRow {
    let (tx, relays, rx, env) = multi_relay_corridor(
        cfg.distance_m,
        3,
        cfg.n_walls,
        cfg.wall_loss_db,
        cfg.corridor_offset_m,
    );
    let k_of = |a, b| {
        if env.crossings(a, b) > 0 {
            cfg.k_nlos
        } else {
            cfg.k_los
        }
    };
    let mid = relays[1];
    // one derived stream per experiment; the experiments run on the rayon
    // pool and their per-run BER triples are folded back in input order,
    // so the average is bit-identical to the serial loop
    let per_run: Vec<_> = (0..cfg.n_experiments)
        .into_par_iter()
        .map(|e| {
            let mut rng = comimo_math::rng::derive(seed, e as u64);
            let bits = pn_sequence(0xC0DE ^ e as u16, cfg.n_bits);
            let mut errs = (0u64, 0u64, 0u64);
            for chunk in bits.chunks(cfg.packet_bits) {
                let direct = transmit_bpsk(
                    &mut rng,
                    chunk,
                    cfg.calib.mean_snr(tx, rx, &env, 1.0),
                    k_of(tx, rx),
                );
                // every relay hears the same broadcast (independent channels)
                let relayed: Vec<Branch> = relays
                    .iter()
                    .map(|&r| {
                        let up = transmit_bpsk(
                            &mut rng,
                            chunk,
                            cfg.calib.mean_snr(tx, r, &env, 1.0),
                            k_of(tx, r),
                        );
                        decode_and_forward(
                            &mut rng,
                            &up,
                            cfg.calib.mean_snr(r, rx, &env, 1.0),
                            k_of(r, rx),
                        )
                    })
                    .collect();
                // single-relay case: the middle relay only (fresh channel draw)
                let up_mid = transmit_bpsk(
                    &mut rng,
                    chunk,
                    cfg.calib.mean_snr(tx, mid, &env, 1.0),
                    k_of(tx, mid),
                );
                let mid_fwd = decode_and_forward(
                    &mut rng,
                    &up_mid,
                    cfg.calib.mean_snr(mid, rx, &env, 1.0),
                    k_of(mid, rx),
                );

                let dec_direct = decode_single(&direct);
                errs.2 += count_bit_errors(chunk, &dec_direct[..chunk.len()]);

                let mut single_branches = vec![direct.clone()];
                single_branches.push(mid_fwd);
                let dec_single = decode_egc(&single_branches);
                errs.1 += count_bit_errors(chunk, &dec_single[..chunk.len()]);

                let mut multi_branches = vec![direct];
                multi_branches.extend(relayed);
                let dec_multi = decode_egc(&multi_branches);
                errs.0 += count_bit_errors(chunk, &dec_multi[..chunk.len()]);
            }
            let n = bits.len() as f64;
            (errs.0 as f64 / n, errs.1 as f64 / n, errs.2 as f64 / n)
        })
        .collect();
    let mut sums = (0.0, 0.0, 0.0);
    for (m, s, d) in per_run {
        sums.0 += m;
        sums.1 += s;
        sums.2 += d;
    }
    let n = cfg.n_experiments as f64;
    MultiRelayRow {
        ber_multi: sums.0 / n,
        ber_single: sums.1 / n,
        ber_direct: sums.2 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> MultiRelayConfig {
        MultiRelayConfig {
            n_bits: 30_000,
            n_experiments: 2,
            ..MultiRelayConfig::paper()
        }
    }

    #[test]
    fn more_relays_fewer_errors() {
        // the paper's ordering: 2.93 % < 10.57 % < 22.74 %
        let row = run(&quick_cfg(), 2013);
        assert!(
            row.ber_multi < row.ber_single,
            "multi {} vs single {}",
            row.ber_multi,
            row.ber_single
        );
        assert!(
            row.ber_single < row.ber_direct,
            "single {} vs direct {}",
            row.ber_single,
            row.ber_direct
        );
    }

    #[test]
    fn magnitudes_match_table_3() {
        let row = run(&quick_cfg(), 2013);
        assert!(
            row.ber_direct > 0.12 && row.ber_direct < 0.35,
            "direct {}",
            row.ber_direct
        );
        assert!(
            row.ber_single > 0.02 && row.ber_single < 0.18,
            "single {}",
            row.ber_single
        );
        assert!(row.ber_multi < 0.08, "multi {}", row.ber_multi);
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(&quick_cfg(), 3), run(&quick_cfg(), 3));
    }

    #[test]
    fn thicker_walls_hurt_direct_most() {
        let thin = run(&quick_cfg(), 9);
        let mut cfg = quick_cfg();
        cfg.wall_loss_db = 9.0;
        let thick = run(&cfg, 9);
        assert!(thick.ber_direct > thin.ber_direct);
    }
}
