//! FIR filter design and application.
//!
//! Provides the Gaussian pulse-shaping filter that defines GMSK (the
//! paper's underlay modulation) and a windowed-sinc low-pass used by the
//! testbed receivers.

use comimo_math::complex::Complex;

/// A real-coefficient FIR filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Builds a filter from explicit taps.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        Self { taps }
    }

    /// The taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Normalises the taps to unit DC gain.
    pub fn normalized_dc(mut self) -> Self {
        let s: f64 = self.taps.iter().sum();
        assert!(s.abs() > 1e-300, "zero-DC filter cannot be DC-normalised");
        for t in &mut self.taps {
            *t /= s;
        }
        self
    }

    /// Full convolution with a real signal (`out.len() = x.len() + taps - 1`);
    /// the oracle of the GMSK modulator's fused pulse shaping.
    #[cfg(test)]
    pub(crate) fn filter_real(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len() + self.taps.len() - 1];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &t) in self.taps.iter().enumerate() {
                out[i + j] += xi * t;
            }
        }
        out
    }

    /// Full convolution with a complex signal.
    pub fn filter_complex(&self, x: &[Complex]) -> Vec<Complex> {
        let mut out = vec![Complex::zero(); x.len() + self.taps.len() - 1];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &t) in self.taps.iter().enumerate() {
                out[i + j] += xi * t;
            }
        }
        out
    }

    /// Group delay in samples (linear-phase symmetric filters).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Gaussian pulse-shaping filter for GMSK with bandwidth-time product
    /// `bt` (GSM uses 0.3; GNU Radio's `gmsk_mod` default is 0.35 — the
    /// value the paper's testbed would have used), `sps` samples per
    /// symbol, truncated to `span` symbols, normalised to unit DC gain.
    pub fn gaussian(bt: f64, sps: usize, span: usize) -> Self {
        assert!(bt > 0.0 && sps >= 1 && span >= 1);
        // h(t) = sqrt(2π/ln2)·B·exp(−2π²B²t²/ln2), t in symbol units
        let ln2 = std::f64::consts::LN_2;
        let n = sps * span + 1;
        let mid = (n - 1) as f64 / 2.0;
        let taps: Vec<f64> = (0..n)
            .map(|i| {
                let t = (i as f64 - mid) / sps as f64;
                let a = 2.0 * std::f64::consts::PI * std::f64::consts::PI * bt * bt / ln2;
                (-a * t * t).exp()
            })
            .collect();
        Self::new(taps).normalized_dc()
    }

    /// Windowed-sinc (Hamming) low-pass with normalised cutoff
    /// `fc ∈ (0, 0.5)` cycles/sample and `n` taps (odd recommended).
    pub fn lowpass(fc: f64, n: usize) -> Self {
        assert!(fc > 0.0 && fc < 0.5, "cutoff must be in (0, 0.5)");
        assert!(n >= 3);
        let mid = (n - 1) as f64 / 2.0;
        let taps: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 - mid;
                let sinc = if x.abs() < 1e-12 {
                    2.0 * fc
                } else {
                    (2.0 * std::f64::consts::PI * fc * x).sin() / (std::f64::consts::PI * x)
                };
                let w = 0.54 - 0.46 * (std::f64::consts::TAU * i as f64 / (n - 1) as f64).cos();
                sinc * w
            })
            .collect();
        Self::new(taps).normalized_dc()
    }

    /// Magnitude response at normalised frequency `f` (cycles/sample).
    pub fn magnitude_at(&self, f: f64) -> f64 {
        self.taps
            .iter()
            .enumerate()
            .map(|(i, &t)| Complex::cis(-std::f64::consts::TAU * f * i as f64) * t)
            .sum::<Complex>()
            .abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_response_is_taps() {
        let f = Fir::new(vec![1.0, 0.5, 0.25]);
        let y = f.filter_real(&[1.0]);
        assert_eq!(y, vec![1.0, 0.5, 0.25]);
    }

    #[test]
    fn convolution_length_and_linearity() {
        let f = Fir::new(vec![0.5, 0.5]);
        let y = f.filter_real(&[1.0, 2.0, 3.0]);
        assert_eq!(y.len(), 4);
        assert_eq!(y, vec![0.5, 1.5, 2.5, 1.5]);
    }

    #[test]
    fn gaussian_symmetric_unit_dc() {
        let g = Fir::gaussian(0.35, 4, 4);
        let t = g.taps();
        let s: f64 = t.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        for i in 0..t.len() / 2 {
            assert!(
                (t[i] - t[t.len() - 1 - i]).abs() < 1e-12,
                "asymmetric at {i}"
            );
        }
        // peak at the centre
        let mid = t.len() / 2;
        assert!(t.iter().all(|&x| x <= t[mid] + 1e-15));
    }

    #[test]
    fn gaussian_narrower_bt_is_wider_pulse() {
        // smaller BT spreads energy over more symbols
        let wide = Fir::gaussian(0.2, 8, 6);
        let tight = Fir::gaussian(0.5, 8, 6);
        let spread = |f: &Fir| {
            let t = f.taps();
            let mid = (t.len() - 1) as f64 / 2.0;
            t.iter()
                .enumerate()
                .map(|(i, &x)| x * (i as f64 - mid).powi(2))
                .sum::<f64>()
        };
        assert!(spread(&wide) > spread(&tight));
    }

    #[test]
    fn lowpass_passes_dc_rejects_high() {
        let lp = Fir::lowpass(0.1, 63);
        assert!((lp.magnitude_at(0.0) - 1.0).abs() < 1e-9);
        assert!(lp.magnitude_at(0.05) > 0.9);
        assert!(
            lp.magnitude_at(0.3) < 0.01,
            "stopband {}",
            lp.magnitude_at(0.3)
        );
    }

    #[test]
    fn complex_filtering_matches_real_on_real_input() {
        let f = Fir::lowpass(0.2, 21);
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let xr = f.filter_real(&x);
        let xc = f.filter_complex(&x.iter().map(|&v| Complex::real(v)).collect::<Vec<_>>());
        for (a, b) in xr.iter().zip(&xc) {
            assert!((a - b.re).abs() < 1e-12 && b.im.abs() < 1e-12);
        }
    }

    #[test]
    fn group_delay_of_symmetric_filter() {
        let g = Fir::gaussian(0.35, 4, 4);
        assert_eq!(g.group_delay(), (g.taps().len() - 1) / 2);
    }
}
