//! Inversion of the paper's equations (5)–(6): the required received
//! symbol energy `ē_b(p, b, mt, mr)`.
//!
//! The forward map is
//!
//! ```text
//! p(ē) = ε_H { BER_b( γ_b ) },   γ_b = ‖H‖_F²·ē / (N0·mt)
//! ```
//!
//! with `BER_b(γ) = (4/b)(1 − 2^{−b/2})·Q(√(3b/(M−1)·γ))` for `b ≥ 2`
//! (equation (5)) and `BER_1(γ) = Q(√(2γ))` (equation (6)). For `H` with
//! i.i.d. `CN(0,1)` entries, `‖H‖_F² ∼ Gamma(L, 1)` with integer diversity
//! order `L = mt·mr`, so the channel average is the exact MRC closed form
//! over Rayleigh fading ([`average_ber`]); `ē` is then found by bisection
//! in log-space (the forward map is strictly decreasing in `ē`).

use crate::constants::SystemConstants;
use comimo_math::roots::bisect_monotone_decreasing;
use comimo_math::special::q_function;
use serde::{Deserialize, Serialize};

/// Instantaneous (conditional-on-channel) BER of the paper's equations
/// (5)–(6) at per-bit SNR `gamma_b` for constellation size `b`.
pub fn instantaneous_ber(b: u32, gamma_b: f64) -> f64 {
    assert!(b >= 1, "b must be at least 1");
    assert!(gamma_b >= 0.0);
    let (a, kappa) = kernel(b);
    a * q_function((kappa * gamma_b).sqrt())
}

/// The BER kernel `a·Q(√(κ·γ))` of equations (5)–(6): `a = 1, κ = 2` for
/// `b = 1`, `a = (4/b)(1 − 2^{−b/2})` and `κ = 3b/(2^b − 1)` for `b ≥ 2`.
fn kernel(b: u32) -> (f64, f64) {
    if b == 1 {
        return (1.0, 2.0);
    }
    let bf = b as f64;
    let m = 2f64.powi(b as i32);
    (
        4.0 / bf * (1.0 - 2f64.powf(-bf / 2.0)),
        3.0 * bf / (m - 1.0),
    )
}

/// Forward map: average BER over the Rayleigh channel for an `mt × mr`
/// STBC link at received symbol energy `ebar` (J) and noise PSD `n0` (J).
///
/// Exact MRC closed form for diversity order `L = mt·mr`:
/// `a·((1−μ)/2)^L·Σ_{k<L} C(L−1+k, k)·((1+μ)/2)^k` with
/// `γ̄ = κ·ē/(2·N0·mt)` and `μ = √(γ̄/(1+γ̄))`. `1 − μ` is evaluated as
/// `1/((1+γ̄)(1+μ))` so the high-SNR tail keeps full relative precision.
pub fn average_ber(ebar: f64, b: u32, mt: usize, mr: usize, n0: f64) -> f64 {
    assert!(ebar >= 0.0 && n0 > 0.0);
    assert!(mt >= 1 && mr >= 1);
    let (a, kappa) = kernel(b);
    let l = mt * mr;
    let gamma_bar = kappa * ebar / (2.0 * n0 * mt as f64);
    let mu = (gamma_bar / (1.0 + gamma_bar)).sqrt();
    let lo = 0.5 / ((1.0 + gamma_bar) * (1.0 + mu));
    let hi = 0.5 * (1.0 + mu);
    // term_k = C(L−1+k, k)·lo^L·hi^k, built incrementally so neither the
    // binomial nor the power overflows on its own
    let mut term = lo.powi(l as i32);
    let mut sum = term;
    for k in 1..l {
        term *= (l - 1 + k) as f64 / k as f64 * hi;
        sum += term;
    }
    a * sum
}

/// How `ē_b` is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EbarMethod {
    /// Exact MRC closed form (default; deterministic).
    ClosedForm,
    /// Monte-Carlo channel averaging (cross-validation / ablation).
    MonteCarlo {
        /// Number of channel draws per forward evaluation.
        samples: u32,
        /// RNG seed.
        seed: u64,
    },
}

/// Solver configuration for `ē_b(p, b, mt, mr)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EbarSolver {
    /// Noise PSD `N0` in joules (paper: −171 dBm/Hz).
    pub n0: f64,
    /// Relative log-space tolerance on `ē_b`.
    pub root_tol: f64,
    /// Evaluation method.
    pub method: EbarMethod,
}

impl Default for EbarSolver {
    fn default() -> Self {
        Self {
            n0: SystemConstants::paper().n0,
            root_tol: 1e-10,
            method: EbarMethod::ClosedForm,
        }
    }
}

impl EbarSolver {
    /// A solver with the paper's `N0` and the exact closed form.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A Monte-Carlo solver (ablation; see DESIGN.md §5).
    pub fn monte_carlo(samples: u32, seed: u64) -> Self {
        Self {
            method: EbarMethod::MonteCarlo { samples, seed },
            ..Self::default()
        }
    }

    /// Forward map `p(ē)` under the configured method.
    pub fn forward(&self, ebar: f64, b: u32, mt: usize, mr: usize) -> f64 {
        match self.method {
            EbarMethod::ClosedForm => average_ber(ebar, b, mt, mr, self.n0),
            EbarMethod::MonteCarlo { samples, seed } => {
                let mut rng = comimo_math::rng::derive(seed, pack(b, mt, mr));
                let k = (mt * mr) as f64;
                let scale = ebar / (self.n0 * mt as f64);
                let mut acc = 0.0;
                for _ in 0..samples {
                    let g = comimo_math::rng::gamma(&mut rng, k);
                    acc += instantaneous_ber(b, g * scale);
                }
                acc / samples as f64
            }
        }
    }

    /// Solves `ē_b(p, b, mt, mr)`: the received symbol energy (J) at which
    /// the channel-averaged BER equals the target `p`.
    ///
    /// # Panics
    /// If `p` is not in `(0, ceiling)` where `ceiling` is the zero-energy
    /// BER (e.g. 0.5 for BPSK) — targets above the ceiling are unreachable.
    pub fn solve(&self, p: f64, b: u32, mt: usize, mr: usize) -> f64 {
        assert!(p > 0.0, "target BER must be positive");
        let ceiling = instantaneous_ber(b, 0.0);
        assert!(
            p < ceiling,
            "target BER {p} is at or above the zero-energy ceiling {ceiling} for b={b}"
        );
        // seed the search at the AWGN (no-fading) requirement, which is
        // always below the fading requirement
        let seed = awgn_seed(p, b, self.n0);
        let root =
            bisect_monotone_decreasing(|e| self.forward(e, b, mt, mr), p, seed, self.root_tol, 80)
                .expect("ebar bracket not found: forward map not monotone?");
        root.x
    }
}

/// AWGN-only energy requirement used as the bisection seed: invert
/// `BER_b(γ) = p` for the deterministic channel with `‖H‖² = mt·1`
/// (so `γ = ē/(N0)`).
fn awgn_seed(p: f64, b: u32, n0: f64) -> f64 {
    use comimo_math::special::q_function_inv;
    let (a, kappa) = kernel(b);
    let x = q_function_inv((p / a).min(0.49));
    (x * x / kappa * n0).max(1e-24)
}

fn pack(b: u32, mt: usize, mr: usize) -> u64 {
    (b as u64) << 32 | (mt as u64) << 16 | mr as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test oracle: the channel average by adaptive Simpson over the
    /// `Gamma(mt·mr, 1)` density (absolute tolerance 1e-12). Valid only
    /// where the BER is well above that tolerance.
    fn quadrature_oracle(ebar: f64, b: u32, mt: usize, mr: usize, n0: f64) -> f64 {
        let k = (mt * mr) as f64;
        let scale = ebar / (n0 * mt as f64);
        comimo_math::quad::gamma_expectation(k, |g| instantaneous_ber(b, g * scale), 1e-12)
    }

    /// Every `b ≤ 16` and `mt, mr ≤ 4` at each target BER in `bers`.
    fn grid(bers: &[f64]) -> impl Iterator<Item = (f64, u32, usize, usize)> + '_ {
        bers.iter().flat_map(|&p| {
            (1..=16u32).flat_map(move |b| {
                (1..=4usize).flat_map(move |mt| (1..=4usize).map(move |mr| (p, b, mt, mr)))
            })
        })
    }

    #[test]
    fn forward_monotone_decreasing_in_energy() {
        let s = EbarSolver::paper();
        let mut prev = 1.0;
        for i in 0..10 {
            let e = 1e-21 * 10f64.powi(i);
            let p = s.forward(e, 2, 2, 2);
            assert!(
                p < prev || (p - prev).abs() < 1e-15,
                "not decreasing at {e}"
            );
            prev = p;
        }
    }

    #[test]
    fn siso_matches_textbook_rayleigh_average() {
        // for b=2 the kernel is Q(sqrt(2γ_b)): the SISO average over
        // γ ~ Exp(γ̄) is ½(1 − √(γ̄/(1+γ̄)))
        let s = EbarSolver::paper();
        for &gamma_bar in &[1.0, 10.0, 100.0, 249.0] {
            let got = s.forward(gamma_bar * s.n0, 2, 1, 1);
            let expect = 0.5 * (1.0 - (gamma_bar / (1.0 + gamma_bar)).sqrt());
            assert!(
                (got - expect).abs() / expect < 1e-12,
                "γ̄={gamma_bar}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn zero_energy_hits_the_ceiling() {
        for b in [1u32, 2, 5, 16] {
            for (mt, mr) in [(1, 1), (2, 3), (4, 4)] {
                let got = average_ber(0.0, b, mt, mr, 1e-20);
                let ceiling = instantaneous_ber(b, 0.0);
                assert!((got - ceiling).abs() < 1e-15, "b={b} {mt}x{mr}: {got}");
            }
        }
    }

    /// The two high-SNR cases where the quadrature collapsed: the closed
    /// form gives the exact tail, the oracle underflows to noise.
    #[test]
    fn high_snr_tail_is_exact() {
        let n0 = SystemConstants::paper().n0;
        for &(ebar, b, mt, mr, exact) in &[
            (1.58e-18, 1u32, 1usize, 2usize, 4.70e-6),
            (7.5e-18, 4, 2, 1, 3.91e-6),
        ] {
            let got = average_ber(ebar, b, mt, mr, n0);
            assert!(
                (got - exact).abs() / exact < 5e-3,
                "b={b} {mt}x{mr}: {got:e} vs {exact:e}"
            );
            let quad = quadrature_oracle(ebar, b, mt, mr, n0);
            assert!(quad < 1e-13, "oracle no longer collapses: {quad:e}");
        }
    }

    #[test]
    fn closed_form_matches_quadrature_where_it_is_valid() {
        let s = EbarSolver::paper();
        for (p, b, mt, mr) in grid(&[1e-5, 1e-4, 1e-3, 1e-2, 0.1]) {
            let e = s.solve(p, b, mt, mr);
            let closed = s.forward(e, b, mt, mr);
            let quad = quadrature_oracle(e, b, mt, mr, s.n0);
            assert!(
                (closed - quad).abs() / closed <= 1e-7,
                "p={p} b={b} {mt}x{mr}: closed {closed:e} vs quadrature {quad:e}"
            );
        }
    }

    /// The paper's own worked number (Section 6.2): for b = 2,
    /// ē_b ≈ 1.90e−18 J for SISO and ≈ 3.20e−20 J for mt=2, mr=3.
    /// Our exact inversion at p = 0.001 must land within ~15 % (the paper
    /// does not state its p for the example; 0.001 is the figure-7 target).
    #[test]
    fn paper_worked_numbers() {
        let s = EbarSolver::paper();
        let siso = s.solve(1e-3, 2, 1, 1);
        assert!(
            (siso - 1.90e-18).abs() / 1.90e-18 < 0.15,
            "SISO ē_b = {siso:e}, paper 1.90e-18"
        );
        // The paper does not state the p behind its 2x3 example; at
        // p = 1e-3 the exact inversion gives 2.0e-20, the same order of
        // magnitude as the quoted 3.20e-20 (the quoted value corresponds to
        // p ≈ 2.5e-3 under this model).
        let mimo = s.solve(1e-3, 2, 2, 3);
        assert!(
            (mimo - 3.20e-20).abs() / 3.20e-20 < 0.5,
            "2x3 ē_b = {mimo:e}, paper 3.20e-20"
        );
        // the headline claim: 2–4 orders of magnitude between SISO and MIMO
        let ratio = siso / mimo;
        assert!(ratio > 30.0 && ratio < 1e4, "SISO/MIMO ratio {ratio}");
    }

    #[test]
    fn solve_roundtrip_over_the_full_range() {
        let s = EbarSolver::paper();
        let bers: Vec<f64> = (0..=11).map(|i| 0.1 * 10f64.powi(-i)).collect();
        for (p, b, mt, mr) in grid(&bers) {
            let e = s.solve(p, b, mt, mr);
            let back = s.forward(e, b, mt, mr);
            assert!(
                (back - p).abs() / p <= 1e-9,
                "p={p} b={b} {mt}x{mr}: roundtrip {back:e}"
            );
        }
    }

    #[test]
    fn diversity_reduces_energy() {
        let s = EbarSolver::paper();
        let p = 1e-3;
        let e11 = s.solve(p, 2, 1, 1);
        let e21 = s.solve(p, 2, 2, 1);
        let e12 = s.solve(p, 2, 1, 2);
        let e22 = s.solve(p, 2, 2, 2);
        assert!(e21 < e11);
        assert!(e12 < e11);
        assert!(e22 < e21 && e22 < e12);
        // receive diversity beats transmit diversity (no power split)
        assert!(e12 < e21, "1x2 {e12:e} should beat 2x1 {e21:e}");
    }

    #[test]
    fn stricter_target_needs_more_energy() {
        let s = EbarSolver::paper();
        let loose = s.solve(0.01, 2, 2, 2);
        let tight = s.solve(0.0001, 2, 2, 2);
        assert!(tight > loose);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let q = EbarSolver::paper();
        let mc = EbarSolver::monte_carlo(200_000, 99);
        let e = q.solve(1e-2, 2, 2, 2);
        let p_mc = mc.forward(e, 2, 2, 2);
        assert!(
            (p_mc - 1e-2).abs() / 1e-2 < 0.05,
            "MC {p_mc} vs target 1e-2"
        );
    }

    #[test]
    #[should_panic]
    fn unreachable_target_panics() {
        // BPSK cannot exceed BER 0.5
        let s = EbarSolver::paper();
        let _ = s.solve(0.6, 1, 1, 1);
    }

    #[test]
    fn b1_uses_equation_six() {
        // instantaneous: b=1 is Q(sqrt(2γ))
        for &g in &[0.1, 1.0, 4.0] {
            assert!((instantaneous_ber(1, g) - q_function((2.0 * g).sqrt())).abs() < 1e-15);
        }
    }

    #[test]
    fn higher_b_needs_more_energy_per_symbol() {
        let s = EbarSolver::paper();
        let p = 1e-3;
        // b = 1 and b = 2 share the same kernel (Q(√(2γ_b)) in both
        // equations (5) and (6)), so their ē_b coincide exactly; strict
        // growth starts at b = 2.
        let e1 = s.solve(p, 1, 1, 1);
        let e2 = s.solve(p, 2, 1, 1);
        assert!((e1 - e2).abs() / e2 < 1e-6, "b=1 {e1:e} vs b=2 {e2:e}");
        let mut prev = 0.0;
        for b in [2u32, 4, 8, 12] {
            let e = s.solve(p, b, 1, 1);
            assert!(e > prev, "b={b}: {e:e} <= {prev:e}");
            prev = e;
        }
    }
}
