//! The paper's per-bit energy formulas (1)–(4), Section 2.3.
//!
//! Every quantity is energy **per information bit** at **one elementary
//! node**, in joules:
//!
//! * (1) `e^Lt = e_PA^Lt + e_C^Lt` — local/intra-cluster transmission,
//!   κ-law AWGN link:
//!   `e_PA^Lt = (4/3)(1+α)·((2^b−1)/b)·ln(4(1−2^{−b/2})/(b·p))·G_d·Nf·σ²`,
//!   `e_C^Lt = Pct/(b·B) + Psyn·Ttr/n`;
//! * (2) `e^Lr = Pcr/(b·B) + Psyn·Ttr/n` — local reception;
//! * (3) `e^MIMOt(mt,mr) = e_PA^MIMOt + e_C^MIMOt` — long-haul cooperative
//!   transmission:
//!   `e_PA^MIMOt = (1/mt)(1+α)·ē_b(p,b,mt,mr)·(4πD)²/(GtGrλ²)·Ml·Nf`,
//!   `e_C^MIMOt = (Pct + Psyn)/(b·B)`;
//! * (4) `e^MIMOr = (Pcr + Psyn)/(b·B)` — long-haul reception.

use crate::constants::SystemConstants;
use crate::ebar::{EbarMethod, EbarSolver};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Parameters common to every link evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Target bit error rate `p`.
    pub ber: f64,
    /// Constellation size `b` (bits per symbol), `1..=16` in the paper.
    pub b: u32,
    /// Bandwidth `B` in Hz (paper sweeps 10 k – 100 k).
    pub bandwidth_hz: f64,
    /// Information block size `n` in bits (amortises the start-up cost
    /// `Psyn·Ttr/n`).
    pub block_bits: f64,
}

impl LinkParams {
    /// Builds link parameters, validating ranges.
    pub fn new(ber: f64, b: u32, bandwidth_hz: f64, block_bits: f64) -> Self {
        assert!(ber > 0.0 && ber < 0.5, "target BER out of range: {ber}");
        assert!(
            (1..=16).contains(&b),
            "b out of the paper's 1..=16 range: {b}"
        );
        assert!(bandwidth_hz > 0.0 && block_bits >= 1.0);
        Self {
            ber,
            b,
            bandwidth_hz,
            block_bits,
        }
    }

    /// Bit rate `b·B` in bit/s.
    pub fn bit_rate(&self) -> f64 {
        self.b as f64 * self.bandwidth_hz
    }
}

/// One solver's `ē_b` cells: `(p.to_bits(), b, mt, mr)` ↦ solved `ē_b`.
type EbarTable = Arc<RwLock<HashMap<(u64, u32, usize, usize), f64>>>;

/// A solver's `n0` and `root_tol` bits, and its method's samples and seed.
type Fingerprint = (u64, u64, Option<(u32, u64)>);

/// The process-wide `ē_b` memo — the paper's "load the table of ē_b"
/// preprocessing step, filled on demand — as one table per solver
/// fingerprint. Every model built with the same solver shares one table
/// (the network layer, chaos worlds and fault scenarios ask for the same
/// few cells over and over); models with different solvers never share
/// entries. A solved value is a pure function of its key, so results do
/// not depend on thread count or call order. Entries are never evicted:
/// callers sweeping a continuum of target BERs should call
/// [`EbarSolver::solve`] directly.
fn tables() -> &'static Mutex<HashMap<Fingerprint, EbarTable>> {
    static TABLES: OnceLock<Mutex<HashMap<Fingerprint, EbarTable>>> = OnceLock::new();
    TABLES.get_or_init(Default::default)
}

/// The shared table of every model built with solver `s`.
fn shared_table(s: &EbarSolver) -> EbarTable {
    let method = match s.method {
        EbarMethod::ClosedForm => None,
        EbarMethod::MonteCarlo { samples, seed } => Some((samples, seed)),
    };
    let fingerprint = (s.n0.to_bits(), s.root_tol.to_bits(), method);
    tables().lock().entry(fingerprint).or_default().clone()
}

/// Number of cached `ē_b` entries at target BER `ber`, across all solvers.
#[cfg(test)]
fn cached_entries(ber: f64) -> usize {
    let tables = tables().lock();
    let at_ber = |t: &EbarTable| t.read().keys().filter(|k| k.0 == ber.to_bits()).count();
    tables.values().map(at_ber).sum()
}

/// The complete energy model: constants + `ē_b` solver.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    consts: SystemConstants,
    solver: EbarSolver,
    ebar_table: EbarTable,
}

impl EnergyModel {
    /// Model with the paper's constants and the deterministic solver.
    pub fn paper() -> Self {
        Self::new(SystemConstants::paper(), EbarSolver::paper())
    }

    /// Model with custom constants/solver.
    pub fn new(consts: SystemConstants, solver: EbarSolver) -> Self {
        Self {
            consts,
            solver,
            ebar_table: shared_table(&solver),
        }
    }

    /// The constants in use.
    pub fn constants(&self) -> &SystemConstants {
        &self.consts
    }

    /// The `ē_b` solver in use.
    pub fn solver(&self) -> &EbarSolver {
        &self.solver
    }

    /// `ē_b(p, b, mt, mr)` in joules (equations (5)–(6) inverted),
    /// memoised process-wide.
    pub fn ebar(&self, p: &LinkParams, mt: usize, mr: usize) -> f64 {
        let key = (p.ber.to_bits(), p.b, mt, mr);
        if let Some(&v) = self.ebar_table.read().get(&key) {
            return v;
        }
        let v = self.solver.solve(p.ber, p.b, mt, mr);
        self.ebar_table.write().insert(key, v);
        v
    }

    /// Equation (1), PA part: per-bit power-amplifier energy of a local
    /// transmission across cluster diameter `d` metres.
    pub fn e_lt_pa(&self, p: &LinkParams, d_m: f64) -> f64 {
        let c = &self.consts;
        let b = p.b as f64;
        let alpha = SystemConstants::alpha(p.b);
        let m_term = (2f64.powi(p.b as i32) - 1.0) / b;
        let log_arg = 4.0 * (1.0 - 2f64.powf(-b / 2.0)) / (b * p.ber);
        assert!(
            log_arg > 1.0,
            "local-link BER target unreachable: ln arg {log_arg} <= 1"
        );
        4.0 / 3.0 * (1.0 + alpha) * m_term * log_arg.ln() * c.g_d(d_m) * c.noise_figure * c.sigma2
    }

    /// Equation (1), circuit part: `Pct/(bB) + Psyn·Ttr/n`.
    pub fn e_lt_c(&self, p: &LinkParams) -> f64 {
        let c = &self.consts;
        c.p_ct / p.bit_rate() + c.p_syn * c.t_tr / p.block_bits
    }

    /// Equation (1): total per-bit local transmission energy.
    pub fn e_lt(&self, p: &LinkParams, d_m: f64) -> f64 {
        self.e_lt_pa(p, d_m) + self.e_lt_c(p)
    }

    /// Equation (2): per-bit local reception energy
    /// `Pcr/(bB) + Psyn·Ttr/n`.
    pub fn e_lr(&self, p: &LinkParams) -> f64 {
        let c = &self.consts;
        c.p_cr / p.bit_rate() + c.p_syn * c.t_tr / p.block_bits
    }

    /// Equation (3), PA part: per-bit per-node PA energy of a long-haul
    /// `mt × mr` cooperative transmission over distance `d_m` metres.
    pub fn e_mimot_pa(&self, p: &LinkParams, mt: usize, mr: usize, d_m: f64) -> f64 {
        assert!(mt >= 1);
        let alpha = SystemConstants::alpha(p.b);
        let ebar = self.ebar(p, mt, mr);
        (1.0 / mt as f64) * (1.0 + alpha) * ebar * self.consts.long_haul_loss(d_m)
    }

    /// Equation (3), circuit part: `(Pct + Psyn)/(bB)`.
    pub fn e_mimot_c(&self, p: &LinkParams) -> f64 {
        (self.consts.p_ct + self.consts.p_syn) / p.bit_rate()
    }

    /// Equation (3): total per-bit per-node long-haul transmit energy.
    pub fn e_mimot(&self, p: &LinkParams, mt: usize, mr: usize, d_m: f64) -> f64 {
        self.e_mimot_pa(p, mt, mr, d_m) + self.e_mimot_c(p)
    }

    /// Equation (4): per-bit per-node long-haul receive energy
    /// `(Pcr + Psyn)/(bB)`.
    pub fn e_mimor(&self, p: &LinkParams) -> f64 {
        (self.consts.p_cr + self.consts.p_syn) / p.bit_rate()
    }

    /// Inverts equation (3) for distance: the largest `D` at which the
    /// per-node transmit energy budget `e_budget` (J/bit) can sustain an
    /// `mt × mr` link with parameters `p`. Returns `None` when the budget
    /// cannot even cover the circuit energy.
    ///
    /// This is the workhorse of the overlay paradigm's `D2`/`D3` analysis
    /// (paper Section 3).
    pub fn max_distance(&self, p: &LinkParams, mt: usize, mr: usize, e_budget: f64) -> Option<f64> {
        let pa_budget = e_budget - self.e_mimot_c(p);
        if pa_budget <= 0.0 {
            return None;
        }
        let alpha = SystemConstants::alpha(p.b);
        let ebar = self.ebar(p, mt, mr);
        // pa = (1/mt)(1+alpha)·ē·c·D² → D = sqrt(pa_budget / ((1/mt)(1+alpha)·ē·c))
        let coef = (1.0 / mt as f64) * (1.0 + alpha) * ebar * self.consts.long_haul_coefficient();
        Some((pa_budget / coef).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(ber: f64, b: u32) -> LinkParams {
        LinkParams::new(ber, b, 40_000.0, 10_000.0)
    }

    #[test]
    fn e_lt_components_positive_and_scale() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let pa1 = m.e_lt_pa(&p, 1.0);
        let pa16 = m.e_lt_pa(&p, 16.0);
        assert!(pa1 > 0.0);
        // κ = 3.5 distance scaling
        assert!((pa16 / pa1 - 16f64.powf(3.5)).abs() / 16f64.powf(3.5) < 1e-9);
        let c = m.e_lt_c(&p);
        assert!(c > 0.0);
        assert!((m.e_lt(&p, 1.0) - (pa1 + c)).abs() < 1e-24);
    }

    #[test]
    fn e_lt_pa_magnitude_anchor() {
        // hand-computed from the formula at d=1, b=2, p=1e-3, see module doc
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let pa = m.e_lt_pa(&p, 1.0);
        // (4/3)(1+2.857)(1.5)·ln(1000)·100·10·3.981e-21 ≈ 2.12e-16
        assert!((pa - 2.12e-16).abs() / 2.12e-16 < 0.02, "e_PA^Lt = {pa:e}");
    }

    #[test]
    fn circuit_terms_match_formulas() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 4);
        let rate = 4.0 * 40_000.0;
        assert!((m.e_lt_c(&p) - (0.04864 / rate + 0.05 * 5e-6 / 10_000.0)).abs() < 1e-18);
        assert!((m.e_lr(&p) - (0.0625 / rate + 0.05 * 5e-6 / 10_000.0)).abs() < 1e-18);
        assert!((m.e_mimot_c(&p) - (0.04864 + 0.05) / rate).abs() < 1e-18);
        assert!((m.e_mimor(&p) - (0.0625 + 0.05) / rate).abs() < 1e-18);
    }

    #[test]
    fn mimo_pa_scales_with_distance_squared() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let e100 = m.e_mimot_pa(&p, 2, 2, 100.0);
        let e200 = m.e_mimot_pa(&p, 2, 2, 200.0);
        assert!((e200 / e100 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cooperation_cuts_pa_energy() {
        // the paper's Figure-7 headline: SISO needs orders of magnitude more
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let siso = m.e_mimot_pa(&p, 1, 1, 200.0);
        let mimo = m.e_mimot_pa(&p, 2, 3, 200.0);
        let ratio = siso / (2.0 * mimo); // total over transmitters
        assert!(ratio > 10.0, "SISO/MIMO total PA ratio {ratio}");
    }

    #[test]
    fn max_distance_inverts_e_mimot() {
        let m = EnergyModel::paper();
        let p = params(5e-3, 2);
        let d = 250.0;
        let budget = m.e_mimot(&p, 1, 1, d);
        let got = m.max_distance(&p, 1, 1, budget).unwrap();
        assert!((got - d).abs() / d < 1e-6, "roundtrip {got}");
    }

    #[test]
    fn max_distance_none_when_budget_below_circuit() {
        let m = EnergyModel::paper();
        let p = params(1e-3, 2);
        let circuit = m.e_mimot_c(&p);
        assert!(m.max_distance(&p, 2, 1, circuit * 0.5).is_none());
    }

    #[test]
    fn reception_cheaper_than_cooperative_transmission_at_range() {
        // paper Section 6.1: "Transmission needs more energy than reception"
        let m = EnergyModel::paper();
        let p = params(5e-4, 2);
        let tx = m.e_mimot(&p, 3, 1, 200.0);
        let rx = m.e_mimor(&p);
        assert!(tx > rx, "tx {tx:e} vs rx {rx:e}");
    }

    #[test]
    fn wider_bandwidth_lowers_circuit_energy_per_bit() {
        let m = EnergyModel::paper();
        let p20 = LinkParams::new(1e-3, 2, 20_000.0, 10_000.0);
        let p40 = LinkParams::new(1e-3, 2, 40_000.0, 10_000.0);
        assert!(m.e_mimot_c(&p40) < m.e_mimot_c(&p20));
        assert!(m.e_lr(&p40) < m.e_lr(&p20));
    }

    // The cache is process-wide and tests run concurrently, so each cache
    // test owns a target BER no other test uses and counts only its
    // entries.

    #[test]
    fn separately_built_paper_models_share_the_cache() {
        let p = params(1.234e-3, 3);
        let first = EnergyModel::paper().ebar(&p, 2, 3);
        assert_eq!(cached_entries(p.ber), 1);
        let second = EnergyModel::paper().ebar(&p, 2, 3);
        assert_eq!(cached_entries(p.ber), 1, "second model missed the cache");
        assert_eq!(first.to_bits(), second.to_bits());
    }

    #[test]
    fn a_different_solver_gets_its_own_entry() {
        let p = params(2.345e-3, 2);
        let paper = EnergyModel::paper();
        let mut solver = EbarSolver::paper();
        solver.n0 *= 2.0;
        let noisy = EnergyModel::new(SystemConstants::paper(), solver);
        let e_paper = paper.ebar(&p, 2, 2);
        let e_noisy = noisy.ebar(&p, 2, 2);
        assert_eq!(cached_entries(p.ber), 2);
        // ē_b scales linearly with N0
        assert!(
            (e_noisy / e_paper - 2.0).abs() < 1e-9,
            "{e_noisy:e} vs {e_paper:e}"
        );
        assert_eq!(paper.ebar(&p, 2, 2).to_bits(), e_paper.to_bits());
        assert_eq!(noisy.ebar(&p, 2, 2).to_bits(), e_noisy.to_bits());
    }

    #[test]
    fn pool_filled_cache_matches_single_thread_solves() {
        use rayon::prelude::*;
        let ber = 3.456e-3;
        let cells: Vec<(u32, usize, usize)> = (1..=16u32)
            .flat_map(|b| (1..=4usize).flat_map(move |mt| (1..=4usize).map(move |mr| (b, mt, mr))))
            .collect();
        let m = EnergyModel::paper();
        let pooled: Vec<f64> = cells
            .par_iter()
            .map(|&(b, mt, mr)| m.ebar(&params(ber, b), mt, mr))
            .collect();
        assert_eq!(cached_entries(ber), cells.len());
        for (&(b, mt, mr), &v) in cells.iter().zip(&pooled) {
            let serial = m.solver().solve(ber, b, mt, mr);
            assert_eq!(v.to_bits(), serial.to_bits(), "b={b} {mt}x{mr}");
            assert_eq!(m.ebar(&params(ber, b), mt, mr).to_bits(), serial.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn link_params_reject_bad_ber() {
        let _ = LinkParams::new(0.7, 2, 1e4, 1e4);
    }
}
