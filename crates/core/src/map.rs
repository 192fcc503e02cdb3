//! Constellation mapping functions: symbol-bit groups → channel symbols.
//!
//! The encoder takes `2c` expansion bits per spine value per pass and maps
//! them "directly to a dense constellation" (§1, §3.1). This module
//! provides:
//!
//! * [`LinearMapper`] — the paper's Eq. 3: sign–magnitude linear map of
//!   `c` bits per dimension onto `[−P*, P*]`. **The Figure 2 mapper.**
//! * [`OffsetUniformMapper`] — uniform over `2^c` levels per dimension
//!   (no double-zero); a natural engineering variant, used by the mapper
//!   ablation.
//! * [`TruncGaussMapper`] — a truncated-Gaussian map, the paper's own
//!   future-work suggestion ("a Gaussian mapping is likely to improve
//!   performance", §6).
//! * [`BinaryMapper`] — one coded *bit* per spine value per pass ("for a
//!   binary channel, use b′₁ as the coded bit", §3.1), feeding the BSC.
//!
//! All I-Q mappers are normalised to **unit average symbol energy** under
//! uniformly random input bits, so the channel's SNR calibration is exact:
//! `SNR = 1/σ²` with `σ²` the total complex noise variance (DESIGN.md
//! §2.8).

use crate::error::SpinalError;
use crate::symbol::IqSymbol;

/// A deterministic map from a group of expansion bits to a channel symbol.
///
/// Both encoder and decoder hold the same mapper: the decoder replays the
/// encoder's mapping for every hypothesis (§3.2), so implementations must
/// be pure functions of the input bits.
pub trait Mapper: Clone + Send + Sync + std::fmt::Debug {
    /// The channel-symbol type produced ([`IqSymbol`] for I-Q mappers,
    /// a bit for [`BinaryMapper`]).
    type Symbol: Copy + PartialEq + std::fmt::Debug + Send + Sync;

    /// Number of expansion bits consumed per symbol (`2c` for I-Q
    /// mappers, 1 for the binary mapper).
    fn bits_per_symbol(&self) -> u32;

    /// Maps the low [`bits_per_symbol`](Mapper::bits_per_symbol) bits of
    /// `bits` (MSB-first, as produced by
    /// [`crate::expand::symbol_bits`]) to a channel symbol.
    fn map(&self, bits: u64) -> Self::Symbol;

    /// Average symbol energy under uniform input bits (exactly 1.0 for
    /// the I-Q mappers here, by construction).
    fn avg_energy(&self) -> f64;

    /// Largest coordinate magnitude the mapper can emit, used to size ADC
    /// clipping ranges.
    fn peak(&self) -> f64;

    /// `true` when this mapper is the identity on one expansion bit —
    /// `bits_per_symbol() == 1` and `map(b)` is exactly `b & 1`. This is
    /// the precondition (together with
    /// [`crate::decode::CostModel::packed_bit`]) for the beam decoder's
    /// XOR-popcount level costing on bit channels.
    #[inline]
    fn bit_identity(&self) -> bool {
        false
    }

    /// Short stable name for experiment logs.
    fn name(&self) -> &'static str;
}

/// The paper's Eq. 3 mapper: per dimension, bit 1 is a sign and bits
/// `2..=c` a magnitude, scaled so the constellation has unit average
/// symbol energy.
///
/// ```text
/// (b'_1 … b'_c) → (−1)^{b'_1} · (b'_2 … b'_c) / (2^{c−1} − 1) · P*
/// ```
///
/// The first `c` of the `2c` input bits form the I coordinate, the last
/// `c` the Q coordinate — "consider the first c bits as the I part and the
/// last c bits as the Q part" (§3.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearMapper {
    c: u32,
    /// `P*` chosen for unit average symbol energy.
    p_star: f64,
    /// `P* / (2^(c-1) - 1)`, precomputed so the per-symbol hot path
    /// multiplies instead of dividing.
    scale: f64,
}

impl LinearMapper {
    /// Creates the Eq. 3 mapper with `c` bits per dimension.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ c ≤ 16`; [`try_new`](Self::try_new) is the
    /// checked form.
    pub fn new(c: u32) -> Self {
        Self::try_new(c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the Eq. 3 mapper with `c` bits per dimension, rejecting a
    /// depth outside `2..=16` with a typed error (with `c = 1` the
    /// magnitude field is empty and every symbol is the origin).
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::MapperDepth`].
    pub fn try_new(c: u32) -> Result<Self, SpinalError> {
        if !(2..=16).contains(&c) {
            return Err(SpinalError::MapperDepth { c });
        }
        // Per dimension the magnitude m is uniform on 0..N-1, N = 2^(c-1):
        //   E[m²] = (N−1)(2N−1)/6,
        //   E[x²] = P*² E[m²]/(N−1)² = P*² (2N−1)/(6(N−1)).
        // Unit *symbol* energy (two dimensions): 2 E[x²] = 1.
        let n = f64::from(1u32 << (c - 1));
        let p_star = (3.0 * (n - 1.0) / (2.0 * n - 1.0)).sqrt();
        Ok(Self {
            c,
            p_star,
            scale: p_star / (n - 1.0),
        })
    }

    /// The `c` parameter (bits per dimension).
    pub fn c(&self) -> u32 {
        self.c
    }

    /// The scale `P*` applied to the unit-normalised coordinate.
    pub fn p_star(&self) -> f64 {
        self.p_star
    }

    /// One Eq. 3 coordinate, branch-free so the beam decoder's row loop
    /// vectorizes: the sign bit is XOR-ed into the product's sign, which
    /// is exactly `-1.0 · x` (a zero magnitude with its sign bit set
    /// still gives `-0.0`), and the magnitude converts through `u32`,
    /// exact below 2^16.
    #[inline]
    fn map_dim(&self, bits: u64) -> f64 {
        let sign = (bits >> (self.c - 1)) & 1;
        let mag = (bits & ((1u64 << (self.c - 1)) - 1)) as u32;
        f64::from_bits((f64::from(mag) * self.scale).to_bits() ^ (sign << 63))
    }
}

impl Mapper for LinearMapper {
    type Symbol = IqSymbol;

    fn bits_per_symbol(&self) -> u32 {
        2 * self.c
    }

    #[inline]
    fn map(&self, bits: u64) -> IqSymbol {
        let i_bits = (bits >> self.c) & ((1u64 << self.c) - 1);
        let q_bits = bits & ((1u64 << self.c) - 1);
        IqSymbol::new(self.map_dim(i_bits), self.map_dim(q_bits))
    }

    fn avg_energy(&self) -> f64 {
        1.0
    }

    fn peak(&self) -> f64 {
        self.p_star
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Uniform mapper over `2^c` offset levels per dimension:
/// level `u ∈ {0,…,2^c−1}` maps to `(2u + 1 − 2^c)/2^c · P*`.
///
/// Unlike Eq. 3 this has no sign bit and no doubled zero level, so its
/// levels are strictly equally probable and symmetric. The mapper
/// ablation compares it against [`LinearMapper`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffsetUniformMapper {
    c: u32,
    p_star: f64,
    /// `2 P* / 2^c` and `(1 - 2^c) P* / 2^c`: level `u` maps to
    /// `u * step + offset`, division-free.
    step: f64,
    offset: f64,
}

impl OffsetUniformMapper {
    /// Creates the offset-uniform mapper with `c` bits per dimension.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ c ≤ 16`.
    pub fn new(c: u32) -> Self {
        assert!(
            (1..=16).contains(&c),
            "OffsetUniformMapper requires 1 <= c <= 16, got {c}"
        );
        // Levels x_u = (2u+1−N)/N, u = 0..N−1:
        //   E[x²] = (N²−1)/(3N²); unit symbol energy: 2 P*² E[x²] = 1.
        let n = f64::from(1u32 << c);
        let e = (n * n - 1.0) / (3.0 * n * n);
        let p_star = (1.0 / (2.0 * e)).sqrt();
        Self {
            c,
            p_star,
            step: 2.0 * p_star / n,
            offset: (1.0 - n) / n * p_star,
        }
    }

    /// The `c` parameter (bits per dimension).
    pub fn c(&self) -> u32 {
        self.c
    }

    #[inline]
    fn map_dim(&self, bits: u64) -> f64 {
        bits as f64 * self.step + self.offset
    }
}

impl Mapper for OffsetUniformMapper {
    type Symbol = IqSymbol;

    fn bits_per_symbol(&self) -> u32 {
        2 * self.c
    }

    #[inline]
    fn map(&self, bits: u64) -> IqSymbol {
        let mask = (1u64 << self.c) - 1;
        IqSymbol::new(
            self.map_dim((bits >> self.c) & mask),
            self.map_dim(bits & mask),
        )
    }

    fn avg_energy(&self) -> f64 {
        1.0
    }

    fn peak(&self) -> f64 {
        let n = f64::from(1u32 << self.c);
        (n - 1.0) / n * self.p_star
    }

    fn name(&self) -> &'static str {
        "offset-uniform"
    }
}

/// Truncated-Gaussian mapper (the paper's §6 future-work item 1).
///
/// Level `u` maps to the `(u + ½)/2^c` quantile of a standard normal
/// truncated to `[−β, β]`, then scaled to unit average symbol energy.
/// Near-Gaussian marginals shrink the shaping gap that costs the linear
/// mapper part of its `½ log₂(πe/6)` Theorem-1 penalty.
#[derive(Clone, Debug, PartialEq)]
pub struct TruncGaussMapper {
    c: u32,
    beta: f64,
    /// Precomputed per-dimension levels (length `2^c`), unit-energy scaled.
    levels: std::sync::Arc<Vec<f64>>,
}

impl TruncGaussMapper {
    /// Creates the truncated-Gaussian mapper with `c` bits per dimension
    /// and truncation at `±beta` standard deviations (β ≈ 2–3 is
    /// sensible; larger β is more Gaussian but with rarer large peaks).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ c ≤ 14` and `beta > 0`.
    pub fn new(c: u32, beta: f64) -> Self {
        assert!(
            (1..=14).contains(&c),
            "TruncGaussMapper requires 1 <= c <= 14, got {c}"
        );
        assert!(beta > 0.0, "TruncGaussMapper requires beta > 0, got {beta}");
        let n = 1usize << c;
        let lo = normal_cdf(-beta);
        let hi = normal_cdf(beta);
        let mut levels: Vec<f64> = (0..n)
            .map(|u| {
                let p = lo + (hi - lo) * ((u as f64 + 0.5) / n as f64);
                normal_inv_cdf(p)
            })
            .collect();
        // Normalise to unit average symbol energy (two dimensions).
        let e_dim: f64 = levels.iter().map(|x| x * x).sum::<f64>() / n as f64;
        let scale = (1.0 / (2.0 * e_dim)).sqrt();
        for l in &mut levels {
            *l *= scale;
        }
        Self {
            c,
            beta,
            levels: std::sync::Arc::new(levels),
        }
    }

    /// The `c` parameter (bits per dimension).
    pub fn c(&self) -> u32 {
        self.c
    }

    /// The truncation width in (pre-scaling) standard deviations.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Mapper for TruncGaussMapper {
    type Symbol = IqSymbol;

    fn bits_per_symbol(&self) -> u32 {
        2 * self.c
    }

    #[inline]
    fn map(&self, bits: u64) -> IqSymbol {
        let mask = (1u64 << self.c) - 1;
        let i = self.levels[((bits >> self.c) & mask) as usize];
        let q = self.levels[(bits & mask) as usize];
        IqSymbol::new(i, q)
    }

    fn avg_energy(&self) -> f64 {
        1.0
    }

    fn peak(&self) -> f64 {
        self.levels[self.levels.len() - 1]
            .abs()
            .max(self.levels[0].abs())
    }

    fn name(&self) -> &'static str {
        "trunc-gauss"
    }
}

/// Binary mapper for the BSC instantiation: one coded bit per spine value
/// per pass (§3.1: "for a binary channel, use b′₁ as the coded bit").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinaryMapper;

impl BinaryMapper {
    /// Creates the binary mapper.
    pub fn new() -> Self {
        Self
    }
}

impl Mapper for BinaryMapper {
    type Symbol = u8;

    fn bits_per_symbol(&self) -> u32 {
        1
    }

    #[inline]
    fn map(&self, bits: u64) -> u8 {
        (bits & 1) as u8
    }

    fn avg_energy(&self) -> f64 {
        1.0
    }

    fn peak(&self) -> f64 {
        1.0
    }

    fn bit_identity(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "binary"
    }
}

/// Any of the I-Q mappers behind one concrete type, for experiment
/// harnesses that select the mapper at run time (the mapper ablation).
#[derive(Clone, Debug)]
pub enum AnyIqMapper {
    /// See [`LinearMapper`].
    Linear(LinearMapper),
    /// See [`OffsetUniformMapper`].
    OffsetUniform(OffsetUniformMapper),
    /// See [`TruncGaussMapper`].
    TruncGauss(TruncGaussMapper),
}

impl AnyIqMapper {
    /// The paper's Eq. 3 mapper with `c` bits per dimension.
    pub fn linear(c: u32) -> Self {
        AnyIqMapper::Linear(LinearMapper::new(c))
    }

    /// The offset-uniform mapper with `c` bits per dimension.
    pub fn offset_uniform(c: u32) -> Self {
        AnyIqMapper::OffsetUniform(OffsetUniformMapper::new(c))
    }

    /// The truncated-Gaussian mapper with `c` bits per dimension.
    pub fn trunc_gauss(c: u32, beta: f64) -> Self {
        AnyIqMapper::TruncGauss(TruncGaussMapper::new(c, beta))
    }
}

impl Mapper for AnyIqMapper {
    type Symbol = IqSymbol;

    fn bits_per_symbol(&self) -> u32 {
        match self {
            AnyIqMapper::Linear(m) => m.bits_per_symbol(),
            AnyIqMapper::OffsetUniform(m) => m.bits_per_symbol(),
            AnyIqMapper::TruncGauss(m) => m.bits_per_symbol(),
        }
    }

    #[inline]
    fn map(&self, bits: u64) -> IqSymbol {
        match self {
            AnyIqMapper::Linear(m) => m.map(bits),
            AnyIqMapper::OffsetUniform(m) => m.map(bits),
            AnyIqMapper::TruncGauss(m) => m.map(bits),
        }
    }

    fn avg_energy(&self) -> f64 {
        match self {
            AnyIqMapper::Linear(m) => m.avg_energy(),
            AnyIqMapper::OffsetUniform(m) => m.avg_energy(),
            AnyIqMapper::TruncGauss(m) => m.avg_energy(),
        }
    }

    fn peak(&self) -> f64 {
        match self {
            AnyIqMapper::Linear(m) => m.peak(),
            AnyIqMapper::OffsetUniform(m) => m.peak(),
            AnyIqMapper::TruncGauss(m) => m.peak(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyIqMapper::Linear(m) => m.name(),
            AnyIqMapper::OffsetUniform(m) => m.name(),
            AnyIqMapper::TruncGauss(m) => m.name(),
        }
    }
}

// ---------------------------------------------------------------------
// Private normal CDF / inverse CDF for the truncated-Gaussian levels.
//
// Deliberately duplicated from `spinal-info` (Acklam's approximation,
// ~1e-9): `spinal-core` stays dependency-free so it can be reused as a
// standalone codec crate, and constellation levels only need ~1e-6.
// ---------------------------------------------------------------------

fn normal_cdf(x: f64) -> f64 {
    // Abramowitz–Stegun 26.2.17-style rational tail bound is too coarse;
    // use erfc via its continued-fraction-free Chebyshev expansion on the
    // half line, mirrored for negative x.
    0.5 * erfc_local(-x / std::f64::consts::SQRT_2)
}

fn erfc_local(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc_local(-x);
    }
    // For the level computation x ≤ ~3.5; a 28-term Chebyshev fit
    // (Numerical Recipes erfc) is accurate to ~1e-14 here.
    let t = 2.0 / (2.0 + x);
    let ty = 4.0 * t - 2.0;
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0_f64;
    let mut dd = 0.0_f64;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    t * (-x * x + 0.5 * (COF[0] + ty * d) - dd).exp()
}

fn normal_inv_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn measured_energy<M: Mapper<Symbol = IqSymbol>>(m: &M) -> f64 {
        // Exhaustive average over all 2^(2c) inputs when feasible.
        let bps = m.bits_per_symbol();
        assert!(bps <= 20, "test helper limited to 2^20 inputs");
        let total = 1u64 << bps;
        let sum: f64 = (0..total).map(|b| m.map(b).energy()).sum();
        sum / total as f64
    }

    #[test]
    fn linear_eq3_shape() {
        // c = 3: sign bit + 2 magnitude bits, denominator 2^(c-1)-1 = 3.
        let m = LinearMapper::new(3);
        let p = m.p_star();
        // bits per dim: [s m m]; I = bits 5..3, Q = bits 2..0.
        // I = 011 (sign 0, mag 3) -> +P*, Q = 111 (sign 1, mag 3) -> -P*.
        let s = m.map(0b011_111);
        assert!((s.i - p).abs() < 1e-12);
        assert!((s.q + p).abs() < 1e-12);
        // Zero magnitude maps to the origin regardless of sign.
        let z = m.map(0b100_000);
        assert_eq!(z, IqSymbol::new(0.0, 0.0));
    }

    /// The branch-free Eq. 3 map equals its literal sign-multiply form
    /// `(−1)^s · m · scale`, bit for bit, on every input for every
    /// `c ≤ 12` — including a zero magnitude with its sign bit set
    /// (`-0.0`).
    #[test]
    fn linear_branch_free_matches_sign_multiply_exhaustive() {
        for c in 2..=12u32 {
            let m = LinearMapper::new(c);
            let old_dim = |bits: u64| {
                let sign = if (bits >> (c - 1)) & 1 == 1 {
                    -1.0
                } else {
                    1.0
                };
                sign * ((bits & ((1u64 << (c - 1)) - 1)) as f64 * m.scale)
            };
            let mask = (1u64 << c) - 1;
            for bits in 0..1u64 << (2 * c) {
                let s = m.map(bits);
                assert_eq!(
                    s.i.to_bits(),
                    old_dim(bits >> c).to_bits(),
                    "c={c} bits={bits:#x}"
                );
                assert_eq!(
                    s.q.to_bits(),
                    old_dim(bits & mask).to_bits(),
                    "c={c} bits={bits:#x}"
                );
            }
            let negative_zero = m.map(1 << (c - 1));
            assert_eq!(negative_zero.q.to_bits(), (-0.0f64).to_bits(), "c={c}");
            assert_eq!(negative_zero.i.to_bits(), 0.0f64.to_bits(), "c={c}");
        }
    }

    #[test]
    fn linear_unit_energy_exhaustive() {
        for c in [2, 3, 4, 6, 8] {
            let m = LinearMapper::new(c);
            let e = measured_energy(&m);
            assert!((e - 1.0).abs() < 1e-9, "c={c}: measured energy {e} != 1");
        }
    }

    #[test]
    fn offset_uniform_unit_energy_exhaustive() {
        for c in [1, 2, 4, 6, 8] {
            let m = OffsetUniformMapper::new(c);
            let e = measured_energy(&m);
            assert!((e - 1.0).abs() < 1e-9, "c={c}: energy {e}");
        }
    }

    #[test]
    fn trunc_gauss_unit_energy_exhaustive() {
        for c in [2, 4, 6, 8] {
            let m = TruncGaussMapper::new(c, 2.5);
            let e = measured_energy(&m);
            assert!((e - 1.0).abs() < 1e-9, "c={c}: energy {e}");
        }
    }

    #[test]
    fn offset_uniform_symmetric_no_zero() {
        let m = OffsetUniformMapper::new(4);
        // Levels come in ± pairs; none is exactly zero.
        for u in 0..16u64 {
            let x = m.map(u << 4).i; // vary I only
            assert!(x != 0.0);
            let mirror = m.map((15 - u) << 4).i;
            assert!((x + mirror).abs() < 1e-12, "u={u}");
        }
    }

    #[test]
    fn trunc_gauss_levels_monotone_and_bounded() {
        let m = TruncGaussMapper::new(6, 2.0);
        let mut prev = f64::NEG_INFINITY;
        for u in 0..64u64 {
            let x = m.map(u).q; // Q = low bits
            assert!(x > prev, "levels must be strictly increasing");
            prev = x;
        }
        assert!(
            m.peak() <= 2.0 * 1.2,
            "peak {} should be ~beta·scale",
            m.peak()
        );
    }

    #[test]
    fn trunc_gauss_more_peaked_than_uniform() {
        // A Gaussian-shaped constellation concentrates probability near
        // zero: its fraction of levels with |x| < 0.5 must exceed the
        // uniform mapper's.
        let g = TruncGaussMapper::new(8, 2.5);
        let u = OffsetUniformMapper::new(8);
        let count = |f: &dyn Fn(u64) -> f64| (0..256u64).filter(|&b| f(b).abs() < 0.5).count();
        let cg = count(&|b| g.map(b).q);
        let cu = count(&|b| u.map(b).q);
        assert!(cg > cu, "gauss {cg} !> uniform {cu}");
    }

    #[test]
    fn binary_mapper_takes_low_bit() {
        let m = BinaryMapper::new();
        assert_eq!(m.bits_per_symbol(), 1);
        assert_eq!(m.map(0), 0);
        assert_eq!(m.map(1), 1);
        assert_eq!(m.map(2), 0);
        assert_eq!(m.map(0xff), 1);
    }

    #[test]
    #[should_panic(expected = "2 <= c <= 16")]
    fn linear_rejects_c1() {
        LinearMapper::new(1);
    }

    #[test]
    fn any_mapper_delegates() {
        let a = AnyIqMapper::linear(6);
        let l = LinearMapper::new(6);
        for bits in [0u64, 0x3f, 0xabc, u64::MAX] {
            assert_eq!(a.map(bits), l.map(bits));
        }
        assert_eq!(a.bits_per_symbol(), 12);
        assert_eq!(a.name(), "linear");
        assert_eq!(AnyIqMapper::offset_uniform(4).name(), "offset-uniform");
        assert_eq!(AnyIqMapper::trunc_gauss(4, 2.0).name(), "trunc-gauss");
        assert_eq!(AnyIqMapper::trunc_gauss(4, 2.0).avg_energy(), 1.0);
        assert!(AnyIqMapper::offset_uniform(4).peak() > 0.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LinearMapper::new(4).name(), "linear");
        assert_eq!(OffsetUniformMapper::new(4).name(), "offset-uniform");
        assert_eq!(TruncGaussMapper::new(4, 2.0).name(), "trunc-gauss");
        assert_eq!(BinaryMapper::new().name(), "binary");
    }

    proptest! {
        #[test]
        fn prop_linear_within_peak(c in 2u32..=12, bits in any::<u64>()) {
            let m = LinearMapper::new(c);
            let s = m.map(bits);
            prop_assert!(s.i.abs() <= m.peak() + 1e-12);
            prop_assert!(s.q.abs() <= m.peak() + 1e-12);
        }

        #[test]
        fn prop_linear_uses_only_2c_bits(c in 2u32..=12, bits in any::<u64>()) {
            let m = LinearMapper::new(c);
            let mask = (1u64 << (2 * c)) - 1;
            prop_assert_eq!(m.map(bits), m.map(bits & mask));
        }

        #[test]
        fn prop_offset_uniform_within_peak(c in 1u32..=12, bits in any::<u64>()) {
            let m = OffsetUniformMapper::new(c);
            let s = m.map(bits);
            prop_assert!(s.i.abs() <= m.peak() + 1e-12);
            prop_assert!(s.q.abs() <= m.peak() + 1e-12);
        }

        #[test]
        fn prop_trunc_gauss_within_peak(c in 1u32..=10, bits in any::<u64>()) {
            let m = TruncGaussMapper::new(c, 2.5);
            let s = m.map(bits);
            prop_assert!(s.i.abs() <= m.peak() + 1e-12);
            prop_assert!(s.q.abs() <= m.peak() + 1e-12);
        }

        #[test]
        fn prop_mappers_deterministic(bits in any::<u64>()) {
            let l = LinearMapper::new(6);
            prop_assert_eq!(l.map(bits), l.map(bits));
            let t = TruncGaussMapper::new(6, 2.0);
            prop_assert_eq!(t.map(bits), t.map(bits));
        }
    }
}
