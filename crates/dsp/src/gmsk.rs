//! Waveform-level GMSK modem.
//!
//! "The Gaussian-filtered Minimum Shift Keying (GMSK) modulation and
//! demodulation are used for underlay systems" (paper Section 6.4); the
//! testbed's GNU Radio chain would be `gmsk_mod`/`gmsk_demod` (BT = 0.35).
//! This is a faithful complex-baseband implementation:
//!
//! * **Modulator**: each NRZ symbol adds its ±1-scaled Gaussian pulse
//!   (unit-area taps) at its own instant into the frequency track — the
//!   convolution of the impulse train with the pulse, without the
//!   multiply-adds by the train's zeros — and a phase integrator with
//!   modulation index `h = 1/2` (±π/2 per symbol) turns the track into a
//!   unit-envelope phasor in place. One output buffer, no intermediates.
//! * **Demodulator**: quadrature discriminator (`arg(s[n]·s*[n−1])`)
//!   evaluated inside each per-symbol integrate-and-dump window, then a
//!   sign decision. The windows do not overlap, so every discriminator
//!   sample is computed once, and none is stored. Being differential it
//!   is insensitive to the complex channel gain — which is what makes the
//!   paper's two-transmitter underlay cooperation work without carrier
//!   phase alignment.
//!
//! Both directions perform the same floating-point operations in the same
//! order as the textbook impulse-train → FIR → integrator and
//! discriminator-buffer → window-sum chains, so their outputs are
//! bit-identical to them (the tests keep those chains as oracles).

use crate::fir::Fir;
use comimo_math::complex::Complex;

/// A GMSK modulator/demodulator pair.
#[derive(Debug, Clone)]
pub struct GmskModem {
    sps: usize,
    pulse: Fir,
}

impl GmskModem {
    /// Builds a GMSK modem with bandwidth-time product `bt` and `sps`
    /// samples per symbol (pulse truncated to 4 symbols, GNU Radio's
    /// choice).
    pub fn new(bt: f64, sps: usize) -> Self {
        assert!(sps >= 2, "GMSK needs at least 2 samples/symbol");
        Self {
            sps,
            pulse: Fir::gaussian(bt, sps, 4),
        }
    }

    /// GNU Radio defaults: BT = 0.35, 4 samples/symbol.
    pub fn gnuradio_default() -> Self {
        Self::new(0.35, 4)
    }

    /// Samples per symbol.
    pub fn sps(&self) -> usize {
        self.sps
    }

    /// Number of output samples produced for `n_bits` input bits.
    pub fn samples_for_bits(&self, n_bits: usize) -> usize {
        n_bits * self.sps + self.pulse.taps().len() - 1
    }

    /// Modulates a bit stream into unit-envelope complex baseband.
    pub fn modulate(&self, bits: &[bool]) -> Vec<Complex> {
        let mut out = vec![Complex::zero(); self.samples_for_bits(bits.len())];
        // frequency pulses, accumulated in the real parts in symbol order;
        // pulse taps sum to 1 → ±π/2 phase per symbol
        for (k, &b) in bits.iter().enumerate() {
            let a = if b { 1.0 } else { -1.0 };
            for (o, &t) in out[k * self.sps..].iter_mut().zip(self.pulse.taps()) {
                o.re += a * t;
            }
        }
        // integrate phase
        let mut phase = 0.0f64;
        for o in &mut out {
            phase += std::f64::consts::FRAC_PI_2 * o.re;
            *o = Complex::cis(phase);
        }
        out
    }

    /// Demodulates a received complex baseband stream into `n_bits` bits
    /// using a quadrature discriminator and integrate-and-dump.
    ///
    /// The stream must be aligned to the modulator output (the testbed
    /// keeps transmit/receive sample counters in lockstep; over-the-air
    /// timing recovery is out of scope for a packet-level simulator).
    /// Windows running past the end of the stream are cut short; a bit
    /// whose window is empty decides `false`.
    pub fn demodulate(&self, samples: &[Complex], n_bits: usize) -> Vec<bool> {
        let delay = self.pulse.group_delay();
        let last = samples.len().saturating_sub(1);
        (0..n_bits)
            .map(|k| {
                // integrate the instantaneous frequency over the symbol
                // window centred on the pulse peak
                let centre = k * self.sps + delay;
                let lo = centre.saturating_sub(self.sps / 2) + 1;
                let hi = (centre + self.sps - self.sps / 2).min(last);
                let mut acc = 0.0;
                for n in lo..=hi {
                    acc += (samples[n] * samples[n - 1].conj()).arg();
                }
                acc > 0.0
            })
            .collect()
    }
}

impl Default for GmskModem {
    fn default() -> Self {
        Self::gnuradio_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{count_bit_errors, pn_sequence};
    use comimo_math::rng::{complex_gaussian, seeded};
    use rand::Rng;

    /// The textbook modulator: NRZ impulse train → full convolution with
    /// the pulse → phase integrator.
    fn modulate_reference(m: &GmskModem, bits: &[bool]) -> Vec<Complex> {
        let mut impulses = vec![0.0; bits.len() * m.sps];
        for (k, &b) in bits.iter().enumerate() {
            impulses[k * m.sps] = if b { 1.0 } else { -1.0 };
        }
        let mut phase = 0.0f64;
        m.pulse
            .filter_real(&impulses)
            .iter()
            .map(|&f| {
                phase += std::f64::consts::FRAC_PI_2 * f;
                Complex::cis(phase)
            })
            .collect()
    }

    /// The textbook demodulator: a stored discriminator track, then
    /// per-symbol window sums over it.
    fn demodulate_reference(m: &GmskModem, samples: &[Complex], n_bits: usize) -> Vec<bool> {
        let mut dphi = Vec::with_capacity(samples.len());
        dphi.push(0.0);
        for w in samples.windows(2) {
            dphi.push((w[1] * w[0].conj()).arg());
        }
        let delay = m.pulse.group_delay();
        (0..n_bits)
            .map(|k| {
                let centre = k * m.sps + delay;
                let lo = centre.saturating_sub(m.sps / 2) + 1;
                let hi = (centre + m.sps - m.sps / 2).min(dphi.len().saturating_sub(1));
                let mut acc = 0.0;
                for d in dphi.iter().take(hi + 1).skip(lo) {
                    acc += d;
                }
                acc > 0.0
            })
            .collect()
    }

    fn bit_patterns(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    const SETTINGS: [(f64, usize); 4] = [(0.35, 4), (0.3, 8), (0.5, 2), (3.0, 4)];

    #[test]
    fn modulate_is_bit_identical_to_the_impulse_train_chain() {
        let mut rng = seeded(0x6D6F64);
        for (bt, sps) in SETTINGS {
            let m = GmskModem::new(bt, sps);
            for len in [0, 1, 17, 12_112] {
                let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
                let got = m.modulate(&bits);
                assert_eq!(got.len(), m.samples_for_bits(len));
                assert_eq!(
                    bit_patterns(&got),
                    bit_patterns(&modulate_reference(&m, &bits)),
                    "BT {bt}, sps {sps}, {len} bits"
                );
            }
        }
    }

    #[test]
    fn demodulate_is_bit_identical_to_the_discriminator_buffer_chain() {
        let mut rng = seeded(0x64656D);
        for (bt, sps) in SETTINGS {
            let m = GmskModem::new(bt, sps);
            assert_eq!(m.demodulate(&[], 5), demodulate_reference(&m, &[], 5));
            assert!(m.demodulate(&[], 0).is_empty());
            for len in [1, 17, 600] {
                let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
                let g = Complex::from_polar(rng.gen_range(0.01..2.0), rng.gen_range(0.0..6.3));
                let noise = rng.gen_range(0.0..3.0);
                let rx: Vec<Complex> = m
                    .modulate(&bits)
                    .iter()
                    .map(|&s| s * g + complex_gaussian(&mut rng, noise))
                    .collect();
                for n_bits in [len - 1, len, len + 1, len + 7] {
                    assert_eq!(
                        m.demodulate(&rx, n_bits),
                        demodulate_reference(&m, &rx, n_bits),
                        "BT {bt}, sps {sps}, {len} bits, decided {n_bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_envelope() {
        let m = GmskModem::gnuradio_default();
        let s = m.modulate(&pn_sequence(3, 200));
        for v in &s {
            assert!((v.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn noiseless_roundtrip() {
        let m = GmskModem::gnuradio_default();
        let bits = pn_sequence(11, 1000);
        let s = m.modulate(&bits);
        let back = m.demodulate(&s, bits.len());
        assert_eq!(count_bit_errors(&bits, &back), 0);
    }

    #[test]
    fn roundtrip_with_random_phase_and_gain() {
        // differential detection shrugs off a complex channel gain
        let m = GmskModem::gnuradio_default();
        let bits = pn_sequence(23, 500);
        let s = m.modulate(&bits);
        let g = Complex::from_polar(0.02, 2.2);
        let faded: Vec<Complex> = s.iter().map(|&v| v * g).collect();
        let back = m.demodulate(&faded, bits.len());
        assert_eq!(count_bit_errors(&bits, &back), 0);
    }

    #[test]
    fn phase_advance_is_half_pi_per_bit() {
        let m = GmskModem::new(0.35, 8);
        // long run of ones: total phase advance over the run ≈ n·π/2
        let n = 64;
        let s = m.modulate(&vec![true; n]);
        // unwrap the phase
        let mut total = 0.0;
        for w in s.windows(2) {
            total += (w[1] * w[0].conj()).arg();
        }
        let expected = n as f64 * std::f64::consts::FRAC_PI_2;
        assert!(
            (total - expected).abs() / expected < 0.02,
            "phase advance {total} vs {expected}"
        );
    }

    #[test]
    fn survives_moderate_noise() {
        let m = GmskModem::gnuradio_default();
        let mut rng = seeded(91);
        let bits = pn_sequence(37, 4000);
        let mut s = m.modulate(&bits);
        // Es/N0 per sample ~ 13 dB → per bit (sps=4 integration) plenty
        for v in &mut s {
            *v += complex_gaussian(&mut rng, 0.05);
        }
        let back = m.demodulate(&s, bits.len());
        let errs = count_bit_errors(&bits, &back);
        assert!(errs < 8, "errors {errs}");
    }

    #[test]
    fn degrades_gracefully_with_heavy_noise() {
        let m = GmskModem::gnuradio_default();
        let mut rng = seeded(92);
        let bits = pn_sequence(53, 4000);
        let mut s = m.modulate(&bits);
        for v in &mut s {
            *v += complex_gaussian(&mut rng, 2.0);
        }
        let back = m.demodulate(&s, bits.len());
        let ber = count_bit_errors(&bits, &back) as f64 / bits.len() as f64;
        // noisy but far from coin-flip, and clearly worse than clean
        assert!(ber > 0.01 && ber < 0.5, "BER {ber}");
    }

    #[test]
    fn spectrum_narrower_than_msk_mainlobe() {
        // GMSK's claim to fame: Gaussian shaping confines the spectrum.
        // Compare occupied bandwidth (99% power) against unfiltered MSK-ish
        // modulation (BT -> large approximates MSK).
        use crate::fft::periodogram_psd;
        let bits = pn_sequence(71, 4096);
        let narrow = GmskModem::new(0.3, 4).modulate(&bits);
        let wide = GmskModem::new(3.0, 4).modulate(&bits);
        let obw = |sig: &[Complex]| {
            let (freqs, psd) = periodogram_psd(sig, 4.0, 1024);
            let total: f64 = psd.iter().sum();
            // fraction of power within |f| <= 0.35 cycles/bit
            let inband: f64 = psd
                .iter()
                .zip(&freqs)
                .filter(|(_, &f)| f.abs() <= 0.35)
                .map(|(p, _)| p)
                .sum();
            inband / total
        };
        assert!(obw(&narrow) > obw(&wide), "GMSK should be more confined");
    }
}
