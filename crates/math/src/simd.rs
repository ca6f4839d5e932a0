//! Explicit-SIMD kernel tier under [`crate::batch`], with runtime dispatch.
//!
//! The batched samplers spend essentially all of their time in four tight
//! transforms: raw ChaCha words → uniforms, `fast_ln`, `fast_sincos_tau`
//! and the Box–Muller combination of the three. This module provides those
//! transforms as **slice kernels** in three interchangeable tiers:
//!
//! | [`Dispatch`] | implementation | where |
//! |--------------|----------------|-------|
//! | `Scalar`     | one call per element into the pinned polynomial oracle ([`crate::batch::fast_ln`] / [`crate::batch::fast_sincos_tau`]) | everywhere |
//! | `Lanes`      | portable 4-wide lane bodies (`[f64; 4]` blocks, branch-free selects) | everywhere; on aarch64 this is the NEON path — NEON is the baseline ISA, so the lane bodies compile straight to 2×64-bit vector code with no runtime detection needed |
//! | `Avx2`       | hand-written `core::arch::x86_64` intrinsics, 4 lanes per op | x86_64 with AVX2, detected at runtime |
//!
//! # Bit-identical by construction
//!
//! Every tier performs **the same IEEE-754 operations in the same order on
//! every lane** — no FMA contraction, no reassociation, arithmetic selects
//! instead of branches — and IEEE `add/sub/mul/div/sqrt` are exactly
//! rounded, so all three tiers produce *bitwise identical* outputs, not
//! merely close ones. (The one non-obvious case, the AVX2 `u64 → f64`
//! conversion, is done with the exact split-and-recombine magic-constant
//! trick; see [`avx2`].) The tests pin this: scalar vs lanes vs AVX2 agree
//! bit-for-bit on uniforms and normals, and to <1e-12 of libm on the
//! polynomial kernels (inherited from the scalar oracle's own bound).
//! Dispatch therefore changes throughput only — never a single sample of
//! any experiment.
//!
//! # Choosing a tier
//!
//! * [`active`] returns the tier in effect: the best the CPU supports,
//!   unless overridden.
//! * Environment: `COMIMO_SIMD=scalar|lanes|avx2|auto` pins the tier for a
//!   whole process (read once, at first use). Unknown values panic.
//! * In process: [`force`] switches the tier programmatically (used by
//!   `mcperf` to time each tier in one process); kernels also exist as
//!   `*_with` variants taking an explicit [`Dispatch`] so tests can compare
//!   tiers without touching global state.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel tier executes the slice transforms. See the module docs
/// for the full matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Per-element calls into the scalar polynomial oracle.
    Scalar,
    /// Portable 4-wide lane bodies (the NEON path on aarch64).
    Lanes,
    /// Hand-written AVX2 intrinsics (x86_64 only).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Dispatch {
    /// Stable lower-case name (`scalar` / `lanes` / `avx2`), matching the
    /// accepted `COMIMO_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Lanes => "lanes",
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn supported(self) -> bool {
        match self {
            Dispatch::Scalar | Dispatch::Lanes => true,
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Dispatch::Scalar => 1,
            Dispatch::Lanes => 2,
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx2 => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Dispatch::Scalar),
            2 => Some(Dispatch::Lanes),
            #[cfg(target_arch = "x86_64")]
            3 => Some(Dispatch::Avx2),
            _ => None,
        }
    }
}

/// The best tier the running CPU supports, ignoring every override.
pub fn detected() -> Dispatch {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Dispatch::Avx2;
    }
    Dispatch::Lanes
}

fn env_default() -> Dispatch {
    match std::env::var("COMIMO_SIMD").as_deref() {
        Err(_) | Ok("auto") | Ok("") => detected(),
        Ok("scalar") => Dispatch::Scalar,
        Ok("lanes") => Dispatch::Lanes,
        #[cfg(target_arch = "x86_64")]
        Ok("avx2") => {
            assert!(
                Dispatch::Avx2.supported(),
                "COMIMO_SIMD=avx2 but the CPU has no AVX2"
            );
            Dispatch::Avx2
        }
        Ok(other) => panic!("COMIMO_SIMD={other:?} not understood (scalar|lanes|avx2|auto)"),
    }
}

/// 0 = no override (use the env/detected default); else `Dispatch + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DEFAULT: OnceLock<Dispatch> = OnceLock::new();

/// The tier currently in effect, in precedence order: the latest
/// [`force`] call, then `COMIMO_SIMD`, then CPU detection.
pub fn active() -> Dispatch {
    match Dispatch::from_u8(FORCED.load(Ordering::Relaxed)) {
        Some(d) => d,
        None => *DEFAULT.get_or_init(env_default),
    }
}

/// Forces the dispatch tier for the whole process (until the next call).
///
/// Returns `Err` when the CPU cannot run `d`. Intended for single-threaded tools
/// (`mcperf` times every tier in one process); concurrent engines read the
/// tier per chunk, so flipping it mid-simulation from another thread would
/// not corrupt results — every tier computes identical bits — but tests
/// should prefer the `*_with` kernel variants over this global.
pub fn force(d: Dispatch) -> Result<(), &'static str> {
    if !d.supported() {
        return Err("dispatch tier not supported by this CPU");
    }
    FORCED.store(d.to_u8(), Ordering::Relaxed);
    Ok(())
}

/// Clears any [`force`] override, restoring the env/detected default.
pub fn unforce() {
    FORCED.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// dispatching slice kernels
// ---------------------------------------------------------------------------

/// `out[i] = (words[i] >> 11) as f64 / 2⁵³` — the exact mapping
/// [`crate::batch::fill_uniform_f64`] applies to raw ChaCha words.
///
/// # Panics
/// If the slice lengths differ.
pub fn uniform_from_words(words: &[u64], out: &mut [f64]) {
    uniform_from_words_with(active(), words, out);
}

/// [`uniform_from_words`] through an explicit tier.
pub fn uniform_from_words_with(d: Dispatch, words: &[u64], out: &mut [f64]) {
    assert_eq!(words.len(), out.len());
    match d {
        Dispatch::Scalar => scalar::uniform_from_words(words, out),
        Dispatch::Lanes => lanes::uniform_from_words(words, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only constructible/forcible when detected.
        Dispatch::Avx2 => unsafe { avx2::uniform_from_words(words, out) },
    }
}

/// `out[i] = fast_ln(x[i])` over the Box–Muller domain `(0, 1]` ∪ normals.
pub fn fast_ln_slice(x: &[f64], out: &mut [f64]) {
    fast_ln_slice_with(active(), x, out);
}

/// [`fast_ln_slice`] through an explicit tier.
pub fn fast_ln_slice_with(d: Dispatch, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len());
    match d {
        Dispatch::Scalar => scalar::fast_ln(x, out),
        Dispatch::Lanes => lanes::fast_ln(x, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Dispatch::Avx2 => unsafe { avx2::fast_ln(x, out) },
    }
}

/// `(s[i], c[i]) = fast_sincos_tau(t[i])` for turns `t ∈ [0, 1)`.
pub fn fast_sincos_tau_slice(t: &[f64], s: &mut [f64], c: &mut [f64]) {
    fast_sincos_tau_slice_with(active(), t, s, c);
}

/// [`fast_sincos_tau_slice`] through an explicit tier.
pub fn fast_sincos_tau_slice_with(d: Dispatch, t: &[f64], s: &mut [f64], c: &mut [f64]) {
    assert_eq!(t.len(), s.len());
    assert_eq!(t.len(), c.len());
    match d {
        Dispatch::Scalar => scalar::fast_sincos_tau(t, s, c),
        Dispatch::Lanes => lanes::fast_sincos_tau(t, s, c),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Dispatch::Avx2 => unsafe { avx2::fast_sincos_tau(t, s, c) },
    }
}

/// The batched samplers' Box–Muller transform: from uniform pairs
/// `(u1[i], u2[i])` produce `z0[i] = σ·r·cos`, `z1[i] = σ·r·sin` with
/// `r = √(−2·ln(1−u1))` — exactly the per-element arithmetic of
/// [`crate::batch::normal_fill`] (σ = 1) and
/// [`crate::batch::complex_gaussian_fill`] (σ = √(variance/2)).
pub fn box_muller_slice(u1: &[f64], u2: &[f64], sigma: f64, z0: &mut [f64], z1: &mut [f64]) {
    box_muller_slice_with(active(), u1, u2, sigma, z0, z1);
}

/// [`box_muller_slice`] through an explicit tier.
pub fn box_muller_slice_with(
    d: Dispatch,
    u1: &[f64],
    u2: &[f64],
    sigma: f64,
    z0: &mut [f64],
    z1: &mut [f64],
) {
    assert_eq!(u1.len(), u2.len());
    assert_eq!(u1.len(), z0.len());
    assert_eq!(u1.len(), z1.len());
    match d {
        Dispatch::Scalar => scalar::box_muller(u1, u2, sigma, z0, z1),
        Dispatch::Lanes => lanes::box_muller(u1, u2, sigma, z0, z1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Dispatch::Avx2 => unsafe { avx2::box_muller(u1, u2, sigma, z0, z1) },
    }
}

// ---------------------------------------------------------------------------
// F64x4: the lane type downstream SoA kernels build on
// ---------------------------------------------------------------------------

/// A 4-lane `f64` block for writing explicitly lane-parallel loops (the
/// OSTBC batch engine processes 4 blocks per iteration through this type).
///
/// Plain `+ − *` element-wise operators, no FMA, no horizontal ops — so a
/// loop written over `F64x4` computes bitwise the same result whatever the
/// compiler lowers it to (AVX2 `ymm` ops under a `target_feature` caller,
/// SSE2/NEON pairs otherwise).
#[derive(Debug, Clone, Copy)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Loads lanes `buf[at..at + 4]`.
    #[inline(always)]
    pub fn load(buf: &[f64], at: usize) -> Self {
        F64x4(buf[at..at + 4].try_into().expect("4 lanes"))
    }

    /// Stores the lanes to `buf[at..at + 4]`.
    #[inline(always)]
    pub fn store(self, buf: &mut [f64], at: usize) {
        buf[at..at + 4].copy_from_slice(&self.0);
    }
}

macro_rules! f64x4_op {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl std::ops::$trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $fn(self, o: F64x4) -> F64x4 {
                F64x4([
                    self.0[0] $op o.0[0],
                    self.0[1] $op o.0[1],
                    self.0[2] $op o.0[2],
                    self.0[3] $op o.0[3],
                ])
            }
        }
    };
}
f64x4_op!(Add, add, +);
f64x4_op!(Sub, sub, -);
f64x4_op!(Mul, mul, *);

// ---------------------------------------------------------------------------
// scalar tier: per-element calls into the pinned oracle
// ---------------------------------------------------------------------------

mod scalar {
    use crate::batch;

    const INV_2P53: f64 = 1.0 / (1u64 << 53) as f64;

    pub fn uniform_from_words(words: &[u64], out: &mut [f64]) {
        for (x, &w) in out.iter_mut().zip(words) {
            *x = (w >> 11) as f64 * INV_2P53;
        }
    }

    pub fn fast_ln(x: &[f64], out: &mut [f64]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = batch::fast_ln(v);
        }
    }

    pub fn fast_sincos_tau(t: &[f64], s: &mut [f64], c: &mut [f64]) {
        for i in 0..t.len() {
            let (si, ci) = batch::fast_sincos_tau(t[i]);
            s[i] = si;
            c[i] = ci;
        }
    }

    pub fn box_muller(u1: &[f64], u2: &[f64], sigma: f64, z0: &mut [f64], z1: &mut [f64]) {
        for i in 0..u1.len() {
            let (a, b) = batch::box_muller(u1[i], u2[i]);
            z0[i] = sigma * a;
            z1[i] = sigma * b;
        }
    }
}

// ---------------------------------------------------------------------------
// lanes tier: portable 4-wide bodies
// ---------------------------------------------------------------------------

/// Portable 4-wide lane bodies. Each helper performs the scalar oracle's
/// exact operation sequence on a `[f64; 4]` block with arithmetic selects,
/// so the compiler lowers it to whatever the baseline ISA offers (2×128-bit
/// NEON on aarch64, SSE2 on x86_64) while staying bit-identical to the
/// scalar tier.
mod lanes {
    use std::f64::consts::{LN_2, SQRT_2, TAU};

    const W: usize = 4;
    const INV_2P53: f64 = 1.0 / (1u64 << 53) as f64;

    #[inline(always)]
    fn ln4(x: [f64; W]) -> [f64; W] {
        let mut out = [0.0; W];
        for l in 0..W {
            let bits = x[l].to_bits();
            let mut e = ((bits >> 52) as i32 - 1023) as f64;
            let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
            let shift = f64::from(u8::from(m >= SQRT_2));
            m *= 1.0 - 0.5 * shift;
            e += shift;
            let s = (m - 1.0) / (m + 1.0);
            let s2 = s * s;
            let mut p = 1.0 / 13.0 + s2 / 15.0;
            p = 1.0 / 11.0 + s2 * p;
            p = 1.0 / 9.0 + s2 * p;
            p = 1.0 / 7.0 + s2 * p;
            p = 1.0 / 5.0 + s2 * p;
            p = 1.0 / 3.0 + s2 * p;
            p = 1.0 + s2 * p;
            out[l] = e * LN_2 + 2.0 * s * p;
        }
        out
    }

    #[inline(always)]
    fn sincos4(t: [f64; W]) -> ([f64; W], [f64; W]) {
        let (mut sv, mut cv) = ([0.0; W], [0.0; W]);
        for l in 0..W {
            let k = (2.0 * t[l] + 0.5) as i32;
            let x = TAU * (t[l] - 0.5 * f64::from(k));
            let sign = f64::from(1 - ((k & 1) << 1));
            let x2 = x * x;
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
            sv[l] = sign * ps;
            cv[l] = sign * pc;
        }
        (sv, cv)
    }

    pub fn uniform_from_words(words: &[u64], out: &mut [f64]) {
        let n4 = words.len() - words.len() % W;
        for i in (0..n4).step_by(W) {
            for l in 0..W {
                out[i + l] = (words[i + l] >> 11) as f64 * INV_2P53;
            }
        }
        for i in n4..words.len() {
            out[i] = (words[i] >> 11) as f64 * INV_2P53;
        }
    }

    pub fn fast_ln(x: &[f64], out: &mut [f64]) {
        let n4 = x.len() - x.len() % W;
        for i in (0..n4).step_by(W) {
            let v = ln4(x[i..i + W].try_into().expect("4 lanes"));
            out[i..i + W].copy_from_slice(&v);
        }
        for i in n4..x.len() {
            out[i] = ln4([x[i]; W])[0];
        }
    }

    pub fn fast_sincos_tau(t: &[f64], s: &mut [f64], c: &mut [f64]) {
        let n4 = t.len() - t.len() % W;
        for i in (0..n4).step_by(W) {
            let (sv, cv) = sincos4(t[i..i + W].try_into().expect("4 lanes"));
            s[i..i + W].copy_from_slice(&sv);
            c[i..i + W].copy_from_slice(&cv);
        }
        for i in n4..t.len() {
            let (sv, cv) = sincos4([t[i]; W]);
            s[i] = sv[0];
            c[i] = cv[0];
        }
    }

    #[inline(always)]
    fn bm4(u1: [f64; W], u2: [f64; W], sigma: f64) -> ([f64; W], [f64; W]) {
        let mut a = [0.0; W];
        for l in 0..W {
            a[l] = 1.0 - u1[l];
        }
        let lnv = ln4(a);
        let mut r = [0.0; W];
        for l in 0..W {
            r[l] = (-2.0 * lnv[l]).sqrt();
        }
        let (sv, cv) = sincos4(u2);
        let (mut z0, mut z1) = ([0.0; W], [0.0; W]);
        for l in 0..W {
            z0[l] = sigma * (r[l] * cv[l]);
            z1[l] = sigma * (r[l] * sv[l]);
        }
        (z0, z1)
    }

    pub fn box_muller(u1: &[f64], u2: &[f64], sigma: f64, z0: &mut [f64], z1: &mut [f64]) {
        let n = u1.len();
        let n4 = n - n % W;
        for i in (0..n4).step_by(W) {
            let (a, b) = bm4(
                u1[i..i + W].try_into().expect("4 lanes"),
                u2[i..i + W].try_into().expect("4 lanes"),
                sigma,
            );
            z0[i..i + W].copy_from_slice(&a);
            z1[i..i + W].copy_from_slice(&b);
        }
        for i in n4..n {
            let (a, b) = bm4([u1[i]; W], [u2[i]; W], sigma);
            z0[i] = a[0];
            z1[i] = b[0];
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 tier: hand-written intrinsics
// ---------------------------------------------------------------------------

/// Hand-written AVX2 kernels, 4 `f64` lanes per vector op.
///
/// Every function mirrors the scalar oracle operation-for-operation —
/// compare+blend replaces the arithmetic selects (same selected values),
/// `_mm256_floor_pd` replaces the `as i32` truncation (identical here
/// because the sincos argument `2t + ½ ≥ ½` is never negative), and the
/// `u64 → f64` conversion uses the exact two-halves magic-constant trick:
/// `lo32 | 0x433…` reads as `2⁵² + lo` and `hi32 | 0x453…` as `2⁸⁴ +
/// hi·2³²`, so `(hi_raw − (2⁸⁴ + 2⁵²)) + lo_raw = hi·2³² + lo` with every
/// intermediate exactly representable (the shifted word is < 2⁵³). No FMA
/// anywhere. All functions require AVX2 (`unsafe` for that reason alone —
/// the slice accesses are bounds-checked).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;
    use std::f64::consts::{LN_2, SQRT_2, TAU};

    const INV_2P53: f64 = 1.0 / (1u64 << 53) as f64;

    /// `words[i] >> 11`, exactly converted to f64 — bitwise equal to
    /// `(w >> 11) as f64` — then scaled by the exact power of two 2⁻⁵³.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn to_uniform(w: __m256i) -> __m256d {
        let v = _mm256_srli_epi64(w, 11);
        let lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFF_FFFF));
        let hi = _mm256_srli_epi64(v, 32);
        let lo_raw = _mm256_castsi256_pd(_mm256_or_si256(
            lo,
            _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64),
        ));
        let hi_raw = _mm256_castsi256_pd(_mm256_or_si256(
            hi,
            _mm256_set1_epi64x(0x4530_0000_0000_0000u64 as i64),
        ));
        // magic = 2⁸⁴ + 2⁵²: folds the hi-half's exponent offset AND the
        // lo-half's 2⁵² bias into one subtraction
        let hi_f = _mm256_sub_pd(
            hi_raw,
            _mm256_set1_pd(f64::from_bits(0x4530_0000_0010_0000)),
        );
        let f = _mm256_add_pd(hi_f, lo_raw);
        _mm256_mul_pd(f, _mm256_set1_pd(INV_2P53))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ln4(x: __m256d) -> __m256d {
        let bits = _mm256_castpd_si256(x);
        // exponent: (bits >> 52) − 1023, small-integer-exact via 2⁵² bias
        let eraw = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_srli_epi64(bits, 52),
            _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64),
        ));
        let mut e = _mm256_sub_pd(
            _mm256_sub_pd(eraw, _mm256_set1_pd((1u64 << 52) as f64)),
            _mm256_set1_pd(1023.0),
        );
        // mantissa recentred into [√½, √2)
        let mut m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFF)),
            _mm256_set1_epi64x(0x3FF0_0000_0000_0000u64 as i64),
        ));
        let big = _mm256_cmp_pd::<_CMP_GE_OQ>(m, _mm256_set1_pd(SQRT_2));
        // m·0.5 is an exact exponent decrement, so blending equals the
        // scalar arithmetic select m·(1 − 0.5·shift)
        m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
        e = _mm256_add_pd(e, _mm256_and_pd(big, _mm256_set1_pd(1.0)));
        let one = _mm256_set1_pd(1.0);
        let s = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let s2 = _mm256_mul_pd(s, s);
        let horner = |acc: __m256d, c: f64| -> __m256d {
            _mm256_add_pd(_mm256_set1_pd(c), _mm256_mul_pd(s2, acc))
        };
        let mut p = _mm256_add_pd(
            _mm256_set1_pd(1.0 / 13.0),
            _mm256_div_pd(s2, _mm256_set1_pd(15.0)),
        );
        p = horner(p, 1.0 / 11.0);
        p = horner(p, 1.0 / 9.0);
        p = horner(p, 1.0 / 7.0);
        p = horner(p, 1.0 / 5.0);
        p = horner(p, 1.0 / 3.0);
        p = horner(p, 1.0);
        _mm256_add_pd(
            _mm256_mul_pd(e, _mm256_set1_pd(LN_2)),
            _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), s), p),
        )
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sincos4(t: __m256d) -> (__m256d, __m256d) {
        // k = ⌊2t + ½⌋ ∈ {0, 1, 2}; floor == the scalar truncation since
        // the argument is ≥ ½ > 0
        let kf = _mm256_floor_pd(_mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(2.0), t),
            _mm256_set1_pd(0.5),
        ));
        let x = _mm256_mul_pd(
            _mm256_set1_pd(TAU),
            _mm256_sub_pd(t, _mm256_mul_pd(_mm256_set1_pd(0.5), kf)),
        );
        // only k = 1 is odd, so the (−1)ᵏ sign is a single lane compare
        let odd = _mm256_cmp_pd::<_CMP_EQ_OQ>(kf, _mm256_set1_pd(1.0));
        let sign = _mm256_blendv_pd(_mm256_set1_pd(1.0), _mm256_set1_pd(-1.0), odd);
        let x2 = _mm256_mul_pd(x, x);
        let horner = |acc: __m256d, c: f64| -> __m256d {
            _mm256_add_pd(_mm256_set1_pd(c), _mm256_mul_pd(x2, acc))
        };
        let mut ps = _mm256_sub_pd(
            _mm256_set1_pd(1.0 / 355_687_428_096_000.0),
            _mm256_div_pd(x2, _mm256_set1_pd(121_645_100_408_832_000.0)),
        );
        ps = horner(ps, -1.0 / 1_307_674_368_000.0);
        ps = horner(ps, 1.0 / 6_227_020_800.0);
        ps = horner(ps, -1.0 / 39_916_800.0);
        ps = horner(ps, 1.0 / 362_880.0);
        ps = horner(ps, -1.0 / 5040.0);
        ps = horner(ps, 1.0 / 120.0);
        ps = horner(ps, -1.0 / 6.0);
        ps = horner(ps, 1.0);
        ps = _mm256_mul_pd(x, ps);
        let mut pc = _mm256_sub_pd(
            _mm256_set1_pd(1.0 / 20_922_789_888_000.0),
            _mm256_div_pd(x2, _mm256_set1_pd(6_402_373_705_728_000.0)),
        );
        pc = horner(pc, -1.0 / 87_178_291_200.0);
        pc = horner(pc, 1.0 / 479_001_600.0);
        pc = horner(pc, -1.0 / 3_628_800.0);
        pc = horner(pc, 1.0 / 40_320.0);
        pc = horner(pc, -1.0 / 720.0);
        pc = horner(pc, 1.0 / 24.0);
        pc = horner(pc, -0.5);
        pc = horner(pc, 1.0);
        (_mm256_mul_pd(sign, ps), _mm256_mul_pd(sign, pc))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn uniform_from_words(words: &[u64], out: &mut [f64]) {
        let n = words.len();
        let n4 = n - n % 4;
        for i in (0..n4).step_by(4) {
            let w = _mm256_loadu_si256(words[i..].as_ptr().cast());
            _mm256_storeu_pd(out[i..].as_mut_ptr(), to_uniform(w));
        }
        for i in n4..n {
            out[i] = (words[i] >> 11) as f64 * INV_2P53;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fast_ln(x: &[f64], out: &mut [f64]) {
        let n = x.len();
        let n4 = n - n % 4;
        for i in (0..n4).step_by(4) {
            let v = _mm256_loadu_pd(x[i..].as_ptr());
            _mm256_storeu_pd(out[i..].as_mut_ptr(), ln4(v));
        }
        for i in n4..n {
            out[i] = crate::batch::fast_ln(x[i]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fast_sincos_tau(t: &[f64], s: &mut [f64], c: &mut [f64]) {
        let n = t.len();
        let n4 = n - n % 4;
        for i in (0..n4).step_by(4) {
            let v = _mm256_loadu_pd(t[i..].as_ptr());
            let (sv, cv) = sincos4(v);
            _mm256_storeu_pd(s[i..].as_mut_ptr(), sv);
            _mm256_storeu_pd(c[i..].as_mut_ptr(), cv);
        }
        for i in n4..n {
            let (sv, cv) = crate::batch::fast_sincos_tau(t[i]);
            s[i] = sv;
            c[i] = cv;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn box_muller(u1: &[f64], u2: &[f64], sigma: f64, z0: &mut [f64], z1: &mut [f64]) {
        let n = u1.len();
        let n4 = n - n % 4;
        let one = _mm256_set1_pd(1.0);
        let neg_two = _mm256_set1_pd(-2.0);
        let sig = _mm256_set1_pd(sigma);
        for i in (0..n4).step_by(4) {
            let a = _mm256_loadu_pd(u1[i..].as_ptr());
            let b = _mm256_loadu_pd(u2[i..].as_ptr());
            let l = ln4(_mm256_sub_pd(one, a));
            let r = _mm256_sqrt_pd(_mm256_mul_pd(neg_two, l));
            let (sv, cv) = sincos4(b);
            _mm256_storeu_pd(
                z0[i..].as_mut_ptr(),
                _mm256_mul_pd(sig, _mm256_mul_pd(r, cv)),
            );
            _mm256_storeu_pd(
                z1[i..].as_mut_ptr(),
                _mm256_mul_pd(sig, _mm256_mul_pd(r, sv)),
            );
        }
        for i in n4..n {
            let r = (-2.0 * crate::batch::fast_ln(1.0 - u1[i])).sqrt();
            let (s, c) = crate::batch::fast_sincos_tau(u2[i]);
            z0[i] = sigma * (r * c);
            z1[i] = sigma * (r * s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    fn tiers() -> Vec<Dispatch> {
        let mut v = vec![Dispatch::Scalar, Dispatch::Lanes];
        #[cfg(target_arch = "x86_64")]
        if Dispatch::Avx2.supported() {
            v.push(Dispatch::Avx2);
        }
        v
    }

    /// Raw words from awkward lengths and edge patterns must convert to
    /// bitwise-identical uniforms on every tier.
    #[test]
    fn uniform_conversion_is_bitwise_identical_across_tiers() {
        let mut rng = seeded(31);
        for len in [1usize, 3, 4, 5, 127, 128, 1000] {
            let mut words: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            // force the interesting carry/magnitude corners into the mix
            for (i, w) in [0u64, u64::MAX, 1 << 63, (1 << 11) - 1, 0xFFFF_FFFF << 11]
                .iter()
                .enumerate()
            {
                if i < words.len() {
                    words[i] = *w;
                }
            }
            let mut reference = vec![0.0; len];
            uniform_from_words_with(Dispatch::Scalar, &words, &mut reference);
            for d in tiers() {
                let mut got = vec![0.0; len];
                uniform_from_words_with(d, &words, &mut got);
                for i in 0..len {
                    assert_eq!(
                        got[i].to_bits(),
                        reference[i].to_bits(),
                        "{} diverged at word {:#x}",
                        d.name(),
                        words[i]
                    );
                }
            }
        }
    }

    /// Lane `fast_ln` must stay within the oracle's own <1e-12 libm bound
    /// — and in fact be bitwise equal to the scalar oracle.
    #[test]
    fn fast_ln_lanes_match_oracle_bitwise_and_libm_to_1e12() {
        let mut rng = seeded(32);
        let xs: Vec<f64> = (0..4001)
            .map(|i| match i {
                0 => 2f64.powi(-53),
                1 => 1.0,
                2 => f64::from_bits(1.0f64.to_bits() - 1),
                _ => 1.0 - rng.gen::<f64>(),
            })
            .collect();
        for d in tiers() {
            let mut got = vec![0.0; xs.len()];
            fast_ln_slice_with(d, &xs, &mut got);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(
                    got[i].to_bits(),
                    crate::batch::fast_ln(x).to_bits(),
                    "{}: fast_ln({x}) not bitwise oracle",
                    d.name()
                );
                let exact = x.ln();
                let err = if exact == 0.0 {
                    (got[i] - exact).abs()
                } else {
                    ((got[i] - exact) / exact).abs()
                };
                assert!(err < 1e-12, "{}: fast_ln({x}) err {err}", d.name());
            }
        }
    }

    #[test]
    fn fast_sincos_lanes_match_oracle_bitwise_and_libm_to_1e12() {
        let mut rng = seeded(33);
        let mut ts: Vec<f64> = (0..4000).map(|_| rng.gen::<f64>()).collect();
        for k in 0..8 {
            ts.push(k as f64 / 8.0);
            ts.push(k as f64 / 8.0 + 1e-14);
        }
        ts.push(f64::from_bits(1.0f64.to_bits() - 1));
        for d in tiers() {
            let (mut s, mut c) = (vec![0.0; ts.len()], vec![0.0; ts.len()]);
            fast_sincos_tau_slice_with(d, &ts, &mut s, &mut c);
            for (i, &t) in ts.iter().enumerate() {
                let (es, ec) = crate::batch::fast_sincos_tau(t);
                assert_eq!(s[i].to_bits(), es.to_bits(), "{}: sin(2π·{t})", d.name());
                assert_eq!(c[i].to_bits(), ec.to_bits(), "{}: cos(2π·{t})", d.name());
                let (ls, lc) = (std::f64::consts::TAU * t).sin_cos();
                assert!((s[i] - ls).abs() < 1e-12, "{}: sin(2π·{t})", d.name());
                assert!((c[i] - lc).abs() < 1e-12, "{}: cos(2π·{t})", d.name());
            }
        }
    }

    #[test]
    fn box_muller_lanes_bitwise_identical_across_tiers() {
        let mut rng = seeded(34);
        for len in [1usize, 4, 7, 256] {
            let u1: Vec<f64> = (0..len).map(|_| rng.gen()).collect();
            let u2: Vec<f64> = (0..len).map(|_| rng.gen()).collect();
            for sigma in [1.0, 0.5f64.sqrt(), 2.75] {
                let (mut r0, mut r1) = (vec![0.0; len], vec![0.0; len]);
                box_muller_slice_with(Dispatch::Scalar, &u1, &u2, sigma, &mut r0, &mut r1);
                for d in tiers() {
                    let (mut g0, mut g1) = (vec![0.0; len], vec![0.0; len]);
                    box_muller_slice_with(d, &u1, &u2, sigma, &mut g0, &mut g1);
                    for i in 0..len {
                        assert_eq!(g0[i].to_bits(), r0[i].to_bits(), "{} z0[{i}]", d.name());
                        assert_eq!(g1[i].to_bits(), r1[i].to_bits(), "{} z1[{i}]", d.name());
                    }
                }
            }
        }
    }

    #[test]
    fn force_round_trips_and_rejects_unsupported() {
        // never leave a forced tier behind: other tests read active()
        let before = active();
        for d in tiers() {
            force(d).expect("supported tier must force");
            assert_eq!(active(), d);
        }
        unforce();
        assert_eq!(active(), before);
    }

    #[test]
    fn f64x4_ops_match_scalar_lanes() {
        let a = F64x4([1.5, -2.0, 0.25, 1e300]);
        let b = F64x4([0.5, 3.0, -0.125, 1e-300]);
        let sum = a + b;
        let dif = a - b;
        let prd = a * b;
        for l in 0..4 {
            assert_eq!(sum.0[l].to_bits(), (a.0[l] + b.0[l]).to_bits());
            assert_eq!(dif.0[l].to_bits(), (a.0[l] - b.0[l]).to_bits());
            assert_eq!(prd.0[l].to_bits(), (a.0[l] * b.0[l]).to_bits());
        }
        let mut buf = vec![0.0; 8];
        sum.store(&mut buf, 2);
        let back = F64x4::load(&buf, 2);
        for l in 0..4 {
            assert_eq!(back.0[l].to_bits(), sum.0[l].to_bits());
        }
    }
}
