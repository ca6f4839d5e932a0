//! Bulk batched sampling for the Monte-Carlo hot paths.
//!
//! The scalar samplers in [`crate::rng`] pay three costs per draw: a
//! function call into the generator, the branchy polar rejection loop of
//! [`standard_normal`](crate::rng::standard_normal), and (for complex
//! values) interleaved writes. The fillers here amortise all three:
//! uniforms come straight out of the ChaCha keystream via
//! [`rand::RngCore::fill_bytes`], normals use the *branch-free* cartesian
//! Box–Muller transform (a fixed two-uniforms-per-pair budget, so consumers
//! of derived streams can account draws exactly), and complex Gaussians are
//! written into planar (split re/im) buffers that downstream SoA kernels
//! iterate without deinterleaving.
//!
//! Draw-order contracts (each is pinned by a test):
//!
//! * [`fill_u64`] consumes one raw keystream `u64` per sample, identical
//!   draw-for-draw to repeated `rng.gen::<u64>()`;
//! * [`fill_uniform_f64`] consumes one `u64` per sample, **identical
//!   draw-for-draw to repeated `rng.gen::<f64>()`**;
//! * [`fill_range_u32`] consumes one `u64` per sample, identical
//!   draw-for-draw to repeated `rng.gen_range(0..span)` — it *is*
//!   [`fill_u64`] followed by [`map_range_u32`], by construction;
//! * [`normal_fill`] consumes exactly `2·⌈len/2⌉` uniforms;
//! * [`complex_gaussian_fill`] consumes exactly `2·len` uniforms (one
//!   Box–Muller pair per complex sample).
//!
//! The per-element transforms (word → uniform, Box–Muller) execute through
//! the runtime-dispatched SIMD tier of [`crate::simd`]; every tier is
//! bit-identical to the scalar kernels in this module, so dispatch never
//! changes a drawn sample, only throughput.
//!
//! The batch normals are *not* draw-compatible with the scalar polar
//! sampler — they are a different (equally exact) factorisation of the
//! same distribution. Engines that switch from scalar to batched sampling
//! therefore produce different (equally valid) realisations from the same
//! seed; see `crates/stbc/src/batch.rs` for how the Monte-Carlo engine
//! versions this.

use rand::RngCore;
use std::f64::consts::{LN_2, SQRT_2, TAU};

/// Samples converted per internal chunk; sized so the byte scratch stays
/// comfortably inside one page / L1.
const CHUNK: usize = 128;

/// Branch-free `ln(x)` for positive, finite, **normal** `x` (the Box–Muller
/// argument `1 − u ∈ [2⁻⁵³, 1]` always is), accurate to ~3 ulp.
///
/// libm's `ln` is a function call the autovectorizer cannot see through,
/// and it dominated the batched sampler's profile. This inline kernel is
/// the classic reduction `x = m·2^e`, `m ∈ [√½, √2)`, followed by the
/// atanh series `ln m = 2s·Σ s²ᵏ/(2k+1)` with `s = (m−1)/(m+1)`,
/// `|s| ≤ √2−1 ≈ 0.172` — truncation after `s¹⁵` leaves ~1e-14 absolute
/// error, far below anything a Monte-Carlo moment can resolve.
///
/// This scalar kernel is the **pinned oracle** for the SIMD tiers in
/// [`crate::simd`]: every lane implementation must (and does — the tests
/// assert it) reproduce it bit for bit.
#[inline(always)]
pub fn fast_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_normal());
    let bits = x.to_bits();
    let mut e = ((bits >> 52) as i32 - 1023) as f64;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // recentre m from [1, 2) to [√½, √2) so the series argument is small;
    // arithmetic select (multiply / add by 0-or-1) keeps the lane
    // branch-free
    let shift = f64::from(u8::from(m >= SQRT_2));
    m *= 1.0 - 0.5 * shift;
    e += shift;
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    // Horner, one statement per step: rustfmt stalls on the nested form
    let mut p = 1.0 / 13.0 + s2 / 15.0;
    p = 1.0 / 11.0 + s2 * p;
    p = 1.0 / 9.0 + s2 * p;
    p = 1.0 / 7.0 + s2 * p;
    p = 1.0 / 5.0 + s2 * p;
    p = 1.0 / 3.0 + s2 * p;
    p = 1.0 + s2 * p;
    e * LN_2 + 2.0 * s * p
}

/// Branch-free `(sin, cos)` of `2π·t` for `t ∈ [0, 1)`, ~3 ulp.
///
/// Because the Box–Muller angle is always a *fraction of a turn*, range
/// reduction is exact: `t = k/2 + r` with `r ∈ [−¼, ¼]`, so the
/// polynomial argument `x = 2πr` never leaves `[−π/2, π/2]` and the only
/// quadrant fix-up is one shared sign — `sin(x + kπ) = (−1)ᵏ sin x`,
/// `cos(x + kπ) = (−1)ᵏ cos x`. No swap, no data-dependent branch, no
/// table-walking reduction like libm needs for arbitrary angles; the two
/// Taylor chains run in parallel on independent units.
///
/// Like [`fast_ln`], this is the pinned scalar oracle the [`crate::simd`]
/// lane kernels are tested bit-for-bit against.
#[inline(always)]
pub fn fast_sincos_tau(t: f64) -> (f64, f64) {
    debug_assert!((0.0..1.0).contains(&t));
    // truncation == floor here: 2t + ½ ≥ ½ > 0; k ∈ {0, 1, 2}
    let k = (2.0 * t + 0.5) as i32;
    let x = TAU * (t - 0.5 * f64::from(k));
    let sign = f64::from(1 - ((k & 1) << 1));
    let x2 = x * x;
    // Taylor through x¹⁹ / x¹⁸: truncation ≲ 4e-14 at |x| = π/2
    // Horner, one statement per step: rustfmt stalls on the nested form
    let mut ps = 1.0 / 355_687_428_096_000.0 - x2 / 121_645_100_408_832_000.0;
    ps = -1.0 / 1_307_674_368_000.0 + x2 * ps;
    ps = 1.0 / 6_227_020_800.0 + x2 * ps;
    ps = -1.0 / 39_916_800.0 + x2 * ps;
    ps = 1.0 / 362_880.0 + x2 * ps;
    ps = -1.0 / 5040.0 + x2 * ps;
    ps = 1.0 / 120.0 + x2 * ps;
    ps = -1.0 / 6.0 + x2 * ps;
    ps = 1.0 + x2 * ps;
    ps *= x;
    let mut pc = 1.0 / 20_922_789_888_000.0 - x2 / 6_402_373_705_728_000.0;
    pc = -1.0 / 87_178_291_200.0 + x2 * pc;
    pc = 1.0 / 479_001_600.0 + x2 * pc;
    pc = -1.0 / 3_628_800.0 + x2 * pc;
    pc = 1.0 / 40_320.0 + x2 * pc;
    pc = -1.0 / 720.0 + x2 * pc;
    pc = 1.0 / 24.0 + x2 * pc;
    pc = -0.5 + x2 * pc;
    pc = 1.0 + x2 * pc;
    (sign * ps, sign * pc)
}

/// Fills `out` with raw keystream words, pulling whole blocks of ChaCha
/// output through [`RngCore::fill_bytes`] (8·len bytes — always a
/// whole-word multiple, so the generator lands at exactly the same stream
/// position as `len` calls to `rng.gen::<u64>()`, with the same values).
///
/// This is the single point where the batched samplers touch the
/// generator: uniforms, range draws and normals are all deterministic
/// transforms of these words, which is what lets the grid engine draw one
/// shared word set and replay it across many configurations (common random
/// numbers) without any stream divergence.
pub fn fill_u64<R: RngCore + ?Sized>(rng: &mut R, out: &mut [u64]) {
    let mut bytes = [0u8; 8 * CHUNK];
    for chunk in out.chunks_mut(CHUNK) {
        let raw = &mut bytes[..8 * chunk.len()];
        rng.fill_bytes(raw);
        for (x, b) in chunk.iter_mut().zip(raw.chunks_exact(8)) {
            *x = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
    }
}

/// Maps raw keystream words to uniforms over `0..span` with the same
/// multiply-shift mapping as the scalar `rng.gen_range(0..span)`.
///
/// # Panics
/// If `span == 0` or the slice lengths differ.
pub fn map_range_u32(words: &[u64], span: u32, out: &mut [u32]) {
    assert!(span > 0, "cannot sample from an empty range");
    assert_eq!(words.len(), out.len());
    for (x, &w) in out.iter_mut().zip(words) {
        *x = ((w as u128 * span as u128) >> 64) as u32;
    }
}

/// Fills `out` with i.i.d. uniforms in `[0, 1)` (53-bit precision):
/// [`fill_u64`] words pushed through the dispatched
/// [`crate::simd::uniform_from_words`] conversion.
///
/// Draw-for-draw identical to `for x in out { *x = rng.gen::<f64>() }`.
pub fn fill_uniform_f64<R: RngCore + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut words = [0u64; CHUNK];
    for chunk in out.chunks_mut(CHUNK) {
        let w = &mut words[..chunk.len()];
        fill_u64(rng, w);
        crate::simd::uniform_from_words(w, chunk);
    }
}

/// Fills `out` with i.i.d. uniforms over `0..span`: [`fill_u64`] +
/// [`map_range_u32`], chunk by chunk — draw-for-draw identical to repeated
/// `rng.gen_range(0..span)`.
///
/// # Panics
/// If `span == 0`.
pub fn fill_range_u32<R: RngCore + ?Sized>(rng: &mut R, span: u32, out: &mut [u32]) {
    assert!(span > 0, "cannot sample from an empty range");
    let mut words = [0u64; CHUNK];
    for chunk in out.chunks_mut(CHUNK) {
        let w = &mut words[..chunk.len()];
        fill_u64(rng, w);
        map_range_u32(w, span, chunk);
    }
}

/// One Box–Muller pair from two uniforms: `u1 ∈ [0,1)` maps through
/// `1 − u1 ∈ (0, 1]` so the log argument is never zero and no rejection
/// branch is needed. Built on the inline polynomial kernels ([`fast_ln`],
/// [`fast_sincos_tau`]) — no libm call in the loop body. This is the
/// scalar reference the [`crate::simd`] lane transforms reproduce bitwise.
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * fast_ln(1.0 - u1)).sqrt();
    let (s, c) = fast_sincos_tau(u2);
    (r * c, r * s)
}

/// Fills `out` with i.i.d. standard normals via branch-free batched
/// Box–Muller (cartesian form).
///
/// Unlike the scalar polar sampler
/// ([`standard_normal`](crate::rng::standard_normal)), the number of
/// underlying uniform draws is **fixed**: exactly `2·⌈out.len()/2⌉`,
/// independent of the values drawn. Per internal chunk the radius
/// uniforms are drawn first and the angle uniforms second (planar, so
/// the transform loop runs over contiguous buffers). An odd-length fill
/// consumes a full final pair and discards the sine half.
pub fn normal_fill<R: RngCore + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut u1 = [0.0f64; CHUNK / 2];
    let mut u2 = [0.0f64; CHUNK / 2];
    let mut z0 = [0.0f64; CHUNK / 2];
    let mut z1 = [0.0f64; CHUNK / 2];
    for chunk in out.chunks_mut(CHUNK) {
        let pairs = chunk.len().div_ceil(2);
        fill_uniform_f64(rng, &mut u1[..pairs]);
        fill_uniform_f64(rng, &mut u2[..pairs]);
        // transform planar through the SIMD tier, then interleave pairs
        crate::simd::box_muller_slice(
            &u1[..pairs],
            &u2[..pairs],
            1.0,
            &mut z0[..pairs],
            &mut z1[..pairs],
        );
        let whole = chunk.len() / 2;
        for i in 0..whole {
            chunk[2 * i] = z0[i];
            chunk[2 * i + 1] = z1[i];
        }
        if pairs > whole {
            chunk[2 * whole] = z0[whole];
        }
    }
}

/// Fills the planar pair `(re, im)` with i.i.d. circularly-symmetric
/// complex Gaussians `CN(0, variance)`: each Box–Muller pair lands as one
/// complex sample (`re = σ·r·cosθ`, `im = σ·r·sinθ`, `σ = √(variance/2)`),
/// so the marginals are `N(0, variance/2)` and independent — the same
/// distribution as the scalar
/// [`complex_gaussian`](crate::rng::complex_gaussian).
///
/// Consumes exactly `2·len` uniforms.
///
/// # Panics
/// If `re.len() != im.len()`.
pub fn complex_gaussian_fill<R: RngCore + ?Sized>(
    rng: &mut R,
    variance: f64,
    re: &mut [f64],
    im: &mut [f64],
) {
    assert_eq!(re.len(), im.len(), "planar buffers must have equal length");
    assert!(variance >= 0.0);
    let sigma = (variance / 2.0).sqrt();
    let mut u1 = [0.0f64; CHUNK];
    let mut u2 = [0.0f64; CHUNK];
    let mut done = 0;
    while done < re.len() {
        let n = (re.len() - done).min(CHUNK);
        // radius uniforms first, angle uniforms second — planar draws so
        // the transform below is a straight-line loop over contiguous
        // buffers with no strided access
        fill_uniform_f64(rng, &mut u1[..n]);
        fill_uniform_f64(rng, &mut u2[..n]);
        let re_c = &mut re[done..done + n];
        let im_c = &mut im[done..done + n];
        crate::simd::box_muller_slice(&u1[..n], &u2[..n], sigma, re_c, im_c);
        done += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{complex_gaussian, seeded, standard_normal};
    use crate::stats::RunningStats;
    use rand::Rng;

    /// Wrapper counting how many raw `u64` words the inner RNG serves.
    struct CountingRng<R> {
        inner: R,
        u64s: u64,
    }

    impl<R: RngCore> RngCore for CountingRng<R> {
        fn next_u32(&mut self) -> u32 {
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.u64s += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn uniform_fill_matches_scalar_gen_draw_for_draw() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let mut bulk = vec![0.0; 1000];
        fill_uniform_f64(&mut a, &mut bulk);
        for (i, &x) in bulk.iter().enumerate() {
            let y: f64 = b.gen();
            assert_eq!(x, y, "sample {i} diverged");
        }
        // and the generators end in the same stream position
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn u64_fill_matches_scalar_gen_draw_for_draw() {
        let mut a = seeded(44);
        let mut b = seeded(44);
        let mut bulk = vec![0u64; 333];
        fill_u64(&mut a, &mut bulk);
        for (i, &x) in bulk.iter().enumerate() {
            assert_eq!(x, b.gen::<u64>(), "word {i} diverged");
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// `fill_range_u32` must stay `fill_u64` + `map_range_u32` — the grid
    /// engine draws the words once and maps them per constellation, and
    /// that only matches the per-point engine if this decomposition holds.
    #[test]
    fn range_fill_is_word_fill_plus_map() {
        let mut a = seeded(45);
        let mut b = seeded(45);
        let mut direct = vec![0u32; 500];
        fill_range_u32(&mut a, 17, &mut direct);
        let mut words = vec![0u64; 500];
        fill_u64(&mut b, &mut words);
        let mut mapped = vec![0u32; 500];
        map_range_u32(&words, 17, &mut mapped);
        assert_eq!(direct, mapped);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_fill_matches_scalar_gen_range_draw_for_draw() {
        let mut a = seeded(43);
        let mut b = seeded(43);
        let mut bulk = vec![0u32; 777];
        fill_range_u32(&mut a, 23, &mut bulk);
        for (i, &x) in bulk.iter().enumerate() {
            assert_eq!(x, b.gen_range(0..23u32), "sample {i} diverged");
            assert!(x < 23);
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn normal_fill_draw_budget_is_fixed() {
        for len in [1usize, 2, 7, 128, 129, 1000] {
            let mut rng = CountingRng {
                inner: seeded(7),
                u64s: 0,
            };
            let mut out = vec![0.0; len];
            normal_fill(&mut rng, &mut out);
            assert_eq!(
                rng.u64s,
                2 * len.div_ceil(2) as u64,
                "len={len}: variable uniform consumption"
            );
        }
    }

    #[test]
    fn complex_fill_draw_budget_is_fixed() {
        for len in [1usize, 3, 128, 300] {
            let mut rng = CountingRng {
                inner: seeded(8),
                u64s: 0,
            };
            let (mut re, mut im) = (vec![0.0; len], vec![0.0; len]);
            complex_gaussian_fill(&mut rng, 1.0, &mut re, &mut im);
            assert_eq!(rng.u64s, 2 * len as u64, "len={len}");
        }
    }

    #[test]
    fn normal_fill_moments() {
        let mut rng = seeded(101);
        let mut out = vec![0.0; 200_000];
        normal_fill(&mut rng, &mut out);
        let mut st = RunningStats::new();
        for &x in &out {
            st.push(x);
        }
        assert!(st.mean().abs() < 0.01, "mean {}", st.mean());
        assert!((st.variance() - 1.0).abs() < 0.02, "var {}", st.variance());
        // third moment (skew proxy) of a symmetric law is ~0
        let m3: f64 = out.iter().map(|x| x * x * x).sum::<f64>() / out.len() as f64;
        assert!(m3.abs() < 0.05, "third moment {m3}");
    }

    /// KS-style check: the empirical CDFs of the batched and scalar
    /// samplers agree at a grid of quantiles within the ~`1/√n` band.
    #[test]
    fn normal_fill_cdf_matches_scalar_sampler() {
        let n = 200_000usize;
        let mut batch = vec![0.0; n];
        normal_fill(&mut seeded(102), &mut batch);
        let mut scalar_rng = seeded(103);
        let scalar: Vec<f64> = (0..n).map(|_| standard_normal(&mut scalar_rng)).collect();
        let band = 3.0 / (n as f64).sqrt();
        for q in [-2.5, -1.5, -0.6745, 0.0, 0.6745, 1.5, 2.5] {
            let fb = batch.iter().filter(|&&x| x <= q).count() as f64 / n as f64;
            let fs = scalar.iter().filter(|&&x| x <= q).count() as f64 / n as f64;
            assert!(
                (fb - fs).abs() < 2.0 * band,
                "CDF gap {} at q={q} (band {band})",
                (fb - fs).abs()
            );
        }
    }

    #[test]
    fn complex_fill_power_and_independence_match_scalar() {
        let n = 100_000usize;
        let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
        complex_gaussian_fill(&mut seeded(104), 2.5, &mut re, &mut im);
        let mut power = RunningStats::new();
        let mut cross = 0.0;
        for i in 0..n {
            power.push(re[i] * re[i] + im[i] * im[i]);
            cross += re[i] * im[i];
        }
        assert!((power.mean() - 2.5).abs() < 0.05, "power {}", power.mean());
        assert!(
            (cross / n as f64).abs() < 0.02,
            "re/im correlation {}",
            cross / n as f64
        );
        // same magnitude-CDF as the scalar sampler (Rayleigh amplitude)
        let mut scalar_rng = seeded(105);
        let mut below_batch = 0usize;
        let mut below_scalar = 0usize;
        for i in 0..n {
            if re[i] * re[i] + im[i] * im[i] < 2.5 {
                below_batch += 1;
            }
            if complex_gaussian(&mut scalar_rng, 2.5).norm_sqr() < 2.5 {
                below_scalar += 1;
            }
        }
        let gap = (below_batch as f64 - below_scalar as f64).abs() / n as f64;
        assert!(gap < 0.01, "amplitude CDF gap {gap}");
    }

    #[test]
    fn fast_ln_matches_libm_over_the_box_muller_domain() {
        // the Box–Muller argument is 1 − u ∈ [2⁻⁵³, 1]; sweep that range
        // on a dense geometric + uniform grid plus random points
        let mut worst = 0.0f64;
        let mut check = |x: f64| {
            let exact = x.ln();
            let got = fast_ln(x);
            let err = if exact == 0.0 {
                (got - exact).abs()
            } else {
                ((got - exact) / exact).abs()
            };
            worst = worst.max(err);
            assert!(err < 1e-12, "fast_ln({x}) = {got}, libm {exact}");
        };
        check(1.0);
        check(f64::from_bits(1.0f64.to_bits() - 1)); // largest value < 1
        check(2f64.powi(-53));
        for i in 1..=10_000 {
            check(i as f64 / 10_000.0);
            check(2f64.powf(-53.0 * i as f64 / 10_000.0));
        }
        let mut rng = seeded(201);
        for _ in 0..100_000 {
            check(1.0 - rng.gen::<f64>());
        }
        // sanity: the kernel really is accurate, not merely passing
        assert!(worst < 1e-13, "worst relative error {worst}");
    }

    #[test]
    fn fast_sincos_matches_libm_over_the_turn() {
        let check = |t: f64| {
            let (s, c) = fast_sincos_tau(t);
            let (es, ec) = (TAU * t).sin_cos();
            assert!((s - es).abs() < 1e-12, "sin(2π·{t}) = {s}, libm {es}");
            assert!((c - ec).abs() < 1e-12, "cos(2π·{t}) = {c}, libm {ec}");
        };
        check(0.0);
        check(f64::from_bits(1.0f64.to_bits() - 1));
        // quadrant boundaries and octant midpoints, exactly and nearby
        for k in 0..8 {
            let t = k as f64 / 8.0;
            check(t);
            check(t + 1e-14);
            if t > 0.0 {
                check(t - 1e-14);
            }
        }
        for i in 0..100_000 {
            check(i as f64 / 100_000.0);
        }
        let mut rng = seeded(202);
        for _ in 0..100_000 {
            check(rng.gen::<f64>());
        }
    }

    #[test]
    fn fills_are_deterministic_per_seed() {
        let mut a = vec![0.0; 513];
        let mut b = vec![0.0; 513];
        normal_fill(&mut seeded(9), &mut a);
        normal_fill(&mut seeded(9), &mut b);
        assert_eq!(a, b);
        normal_fill(&mut seeded(10), &mut b);
        assert_ne!(a, b);
    }
}
