//! Prime-field context `F_p` operating on bare `u64` residues.
//!
//! The cipher, the hardware model and the FHE substrate all operate on
//! vectors of raw residues (exactly as the hardware datapath does), so the
//! field is modelled as a lightweight *context* ([`Zp`]) rather than as a
//! wrapper element type. All inputs are expected in canonical form
//! `[0, p)`; all outputs are canonical.

use crate::prime::Modulus;
use crate::reduce::{Reducer, ReductionKind};
use crate::MathError;

/// A prime field `F_p` with a fixed reduction strategy.
///
/// # Examples
///
/// ```
/// use pasta_math::{Zp, Modulus};
/// let zp = Zp::new(Modulus::PASTA_17_BIT)?;
/// let x = zp.add(65_000, 65_000);
/// assert_eq!(x, (65_000 + 65_000) % 65_537);
/// let y = zp.mul(x, zp.inv(x)?);
/// assert_eq!(y, 1);
/// # Ok::<(), pasta_math::MathError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zp {
    modulus: Modulus,
    reducer: Reducer,
}

impl Zp {
    /// Creates a field context using the hardware-default reduction
    /// (add–shift for structured primes, Barrett otherwise).
    ///
    /// # Errors
    ///
    /// This constructor itself cannot fail for a valid [`Modulus`]; the
    /// `Result` mirrors [`Zp::from_raw`] so parameter-loading code can use
    /// one code path.
    pub fn new(modulus: Modulus) -> Result<Self, MathError> {
        Ok(Zp {
            modulus,
            reducer: Reducer::for_modulus(modulus),
        })
    }

    /// Creates a field context from a raw `u64`, validating primality.
    ///
    /// # Errors
    ///
    /// Propagates [`Modulus::new`] errors for composite or out-of-range
    /// values.
    pub fn from_raw(p: u64) -> Result<Self, MathError> {
        Self::new(Modulus::new(p)?)
    }

    /// Creates a field context with an explicit reduction strategy.
    #[must_use]
    pub fn with_reduction(modulus: Modulus, kind: ReductionKind) -> Self {
        Zp {
            modulus,
            reducer: Reducer::with_kind(modulus, kind),
        }
    }

    /// The modulus descriptor.
    #[must_use]
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// The modulus value `p`.
    #[must_use]
    pub fn p(&self) -> u64 {
        self.modulus.value()
    }

    /// The reducer in use (exposed for the ablation benches).
    #[must_use]
    pub fn reducer(&self) -> &Reducer {
        &self.reducer
    }

    /// Canonicalizes an arbitrary `u64` into `[0, p)`.
    #[must_use]
    pub fn from_u64(&self, x: u64) -> u64 {
        x % self.p()
    }

    /// Canonicalizes an arbitrary `u128` into `[0, p)`.
    #[must_use]
    pub fn from_u128(&self, x: u128) -> u64 {
        (x % u128::from(self.p())) as u64
    }

    /// Canonicalizes a signed value into `[0, p)`.
    #[must_use]
    pub fn from_i128(&self, x: i128) -> u64 {
        x.rem_euclid(i128::from(self.p())) as u64
    }

    /// `a + b mod p`.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p() && b < self.p());
        let s = a + b;
        if s >= self.p() {
            s - self.p()
        } else {
            s
        }
    }

    /// `a - b mod p`.
    #[inline]
    #[must_use]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p() && b < self.p());
        if a >= b {
            a - b
        } else {
            a + self.p() - b
        }
    }

    /// `-a mod p`.
    #[inline]
    #[must_use]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.p());
        if a == 0 {
            0
        } else {
            self.p() - a
        }
    }

    /// `a · b mod p` through the configured reduction circuit.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p() && b < self.p());
        self.reducer.mul(a, b)
    }

    /// Shoup precomputation for a fixed multiplicand: `w' = ⌊w·2⁶⁴/p⌋`.
    ///
    /// The pair `(w, w')` turns every later product by `w` into a single
    /// high-half multiplication plus two wrapping low-half ones — the
    /// Harvey/Shoup butterfly used by the NTT kernels.
    #[inline]
    #[must_use]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.p());
        ((u128::from(w) << 64) / u128::from(self.p())) as u64
    }

    /// [`Zp::shoup`] of every canonical multiplicand in `ws`, without a
    /// 128-bit division per element: with `v = ⌊2¹²⁸/p⌋` (one division
    /// per call), `q̂ = ⌊w·v/2⁶⁴⌋` is `⌊w·2⁶⁴/p⌋` or one less, and the
    /// remainder `w·2⁶⁴ − q̂·p ∈ [0, 2p)` (exact in wrapping u64
    /// arithmetic, since `2p < 2⁶⁴`) says which.
    #[must_use]
    pub fn shoup_row(&self, ws: &[u64]) -> Vec<u64> {
        let p = self.p();
        let v = u128::MAX / u128::from(p);
        let (v_hi, v_lo) = ((v >> 64) as u64, v as u64);
        ws.iter()
            .map(|&w| {
                debug_assert!(w < p);
                let q = w
                    .wrapping_mul(v_hi)
                    .wrapping_add(((u128::from(w) * u128::from(v_lo)) >> 64) as u64);
                let r = q.wrapping_mul(p).wrapping_neg();
                q + u64::from(r >= p)
            })
            .collect()
    }

    /// Lazy Shoup product `a·w mod p` with the result in `[0, 2p)`.
    ///
    /// `w_shoup` must be [`Zp::shoup`]`(w)` with `w < p`; then for *any*
    /// `a: u64` the quotient estimate `q = ⌊a·w'/2⁶⁴⌋` is off by at most
    /// one, so `a·w − q·p` (wrapping arithmetic) lands in `[0, 2p)`.
    /// Every supported [`Modulus`] is ≤ 62 bits, so `2p` (and the `4p`
    /// bound the lazy NTT butterflies rely on) fits in a `u64`.
    #[inline]
    #[must_use]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let q = ((u128::from(a) * u128::from(w_shoup)) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(q.wrapping_mul(self.p()))
    }

    /// Canonical `a·w mod p` via the Shoup method (one conditional
    /// subtraction after the lazy product).
    #[inline]
    #[must_use]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let r = self.mul_shoup_lazy(a, w, w_shoup);
        if r >= self.p() {
            r - self.p()
        } else {
            r
        }
    }

    /// `a · b + c mod p` — the MAC operation of the MatGen unit (Fig. 5).
    #[inline]
    #[must_use]
    pub fn mac(&self, a: u64, b: u64, c: u64) -> u64 {
        debug_assert!(a < self.p() && b < self.p() && c < self.p());
        self.reducer
            .reduce(u128::from(a) * u128::from(b) + u128::from(c))
    }

    /// `a² mod p`.
    #[inline]
    #[must_use]
    pub fn square(&self, a: u64) -> u64 {
        self.mul(a, a)
    }

    /// `a³ mod p` — the cube S-box of the final PASTA round.
    #[inline]
    #[must_use]
    pub fn cube(&self, a: u64) -> u64 {
        self.mul(self.square(a), a)
    }

    /// `base^exp mod p` by square-and-multiply.
    #[must_use]
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut acc = 1 % self.p();
        let mut base = base % self.p();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] for `a ≡ 0`.
    pub fn inv(&self, a: u64) -> Result<u64, MathError> {
        if a.is_multiple_of(self.p()) {
            return Err(MathError::NotInvertible);
        }
        Ok(self.pow(a, self.p() - 2))
    }

    /// A primitive `n`-th root of unity, if one exists (`n | p - 1`).
    ///
    /// Used by the NTT in the FHE substrate; found by raising a random-ish
    /// sweep of candidates to `(p-1)/n` and checking the order.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] if `n` does not divide `p - 1`
    /// (no such root exists).
    pub fn primitive_root_of_unity(&self, n: u64) -> Result<u64, MathError> {
        let p = self.p();
        if n == 0 || !(p - 1).is_multiple_of(n) {
            return Err(MathError::NotInvertible);
        }
        let quot = (p - 1) / n;
        for candidate in 2..p.min(2 + 10_000) {
            let root = self.pow(candidate, quot);
            if self.is_primitive_root_of_unity(root, n) {
                return Ok(root);
            }
        }
        Err(MathError::NotInvertible)
    }

    /// Checks that `root` has exact multiplicative order `n`.
    #[must_use]
    pub fn is_primitive_root_of_unity(&self, root: u64, n: u64) -> bool {
        if n == 0 || self.pow(root, n) != 1 {
            return false;
        }
        // Order divides n; it is exactly n iff root^(n/q) != 1 for every
        // prime factor q of n.
        let mut m = n;
        let mut factor = 2u64;
        let mut ok = true;
        while factor * factor <= m {
            if m.is_multiple_of(factor) {
                if self.pow(root, n / factor) == 1 {
                    ok = false;
                    break;
                }
                while m.is_multiple_of(factor) {
                    m /= factor;
                }
            }
            factor += 1;
        }
        if ok && m > 1 && self.pow(root, n / m) == 1 {
            ok = false;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fields() -> Vec<Zp> {
        vec![
            Zp::new(Modulus::PASTA_17_BIT).unwrap(),
            Zp::new(Modulus::PASTA_33_BIT).unwrap(),
            Zp::new(Modulus::PASTA_54_BIT).unwrap(),
            Zp::new(Modulus::NTT_60_BIT).unwrap(),
        ]
    }

    #[test]
    fn add_sub_roundtrip() {
        for zp in fields() {
            let p = zp.p();
            for (a, b) in [(0, 0), (1, p - 1), (p - 1, p - 1), (p / 2, p / 3)] {
                assert_eq!(zp.sub(zp.add(a, b), b), a);
                assert_eq!(zp.add(zp.sub(a, b), b), a);
            }
        }
    }

    #[test]
    fn neg_is_additive_inverse() {
        for zp in fields() {
            for a in [0, 1, zp.p() - 1, zp.p() / 2] {
                assert_eq!(zp.add(a, zp.neg(a)), 0);
            }
        }
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        for zp in fields() {
            for a in [1, 2, 3, zp.p() - 1, zp.p() / 2] {
                assert_eq!(zp.mul(a, zp.inv(a).unwrap()), 1);
            }
            assert_eq!(zp.inv(0).unwrap_err(), MathError::NotInvertible);
        }
    }

    #[test]
    fn mac_equals_mul_then_add() {
        for zp in fields() {
            let p = zp.p();
            for (a, b, c) in [(p - 1, p - 1, p - 1), (123, 456, 789), (p / 2, 3, p - 7)] {
                assert_eq!(zp.mac(a, b, c), zp.add(zp.mul(a, b), c));
            }
        }
    }

    #[test]
    fn cube_is_mul_chain() {
        let zp = Zp::new(Modulus::PASTA_17_BIT).unwrap();
        for a in [0u64, 1, 2, 65_536, 40_000] {
            assert_eq!(zp.cube(a), zp.mul(zp.mul(a, a), a));
        }
    }

    #[test]
    fn fermat_exponent_identity() {
        for zp in fields() {
            assert_eq!(
                zp.pow(7, zp.p() - 1),
                1,
                "Fermat little theorem for {}",
                zp.p()
            );
        }
    }

    #[test]
    fn roots_of_unity_for_ntt_modulus() {
        let zp = Zp::new(Modulus::NTT_60_BIT).unwrap();
        // p - 1 = 2^18 * odd, so 2^k-th roots exist up to k = 18.
        for logn in [1u32, 4, 10, 15] {
            let n = 1u64 << logn;
            let w = zp.primitive_root_of_unity(n).unwrap();
            assert!(zp.is_primitive_root_of_unity(w, n));
            assert_eq!(zp.pow(w, n), 1);
            assert_ne!(zp.pow(w, n / 2), 1);
        }
    }

    #[test]
    fn roots_of_unity_for_plaintext_modulus() {
        // 65537 - 1 = 2^16: batching roots exist up to order 2^16.
        let zp = Zp::new(Modulus::PASTA_17_BIT).unwrap();
        let w = zp.primitive_root_of_unity(1 << 16).unwrap();
        assert!(zp.is_primitive_root_of_unity(w, 1 << 16));
        assert!(
            zp.primitive_root_of_unity(3).is_err(),
            "3 does not divide 2^16"
        );
    }

    #[test]
    fn from_i128_canonicalizes_negatives() {
        let zp = Zp::new(Modulus::PASTA_17_BIT).unwrap();
        assert_eq!(zp.from_i128(-1), 65_536);
        assert_eq!(zp.from_i128(-65_537), 0);
        assert_eq!(zp.from_i128(65_538), 1);
    }

    proptest! {
        #[test]
        fn prop_field_axioms_17bit(a in 0u64..65_537, b in 0u64..65_537, c in 0u64..65_537) {
            let zp = Zp::new(Modulus::PASTA_17_BIT).unwrap();
            // Commutativity and associativity.
            prop_assert_eq!(zp.add(a, b), zp.add(b, a));
            prop_assert_eq!(zp.mul(a, b), zp.mul(b, a));
            prop_assert_eq!(zp.add(zp.add(a, b), c), zp.add(a, zp.add(b, c)));
            prop_assert_eq!(zp.mul(zp.mul(a, b), c), zp.mul(a, zp.mul(b, c)));
            // Distributivity.
            prop_assert_eq!(zp.mul(a, zp.add(b, c)), zp.add(zp.mul(a, b), zp.mul(a, c)));
        }

        #[test]
        fn prop_reducers_agree_54bit(a in 0u64..(1u64 << 54) - (1u64 << 24) + 1,
                                     b in 0u64..(1u64 << 54) - (1u64 << 24) + 1) {
            let m = Modulus::PASTA_54_BIT;
            let fast = Zp::with_reduction(m, ReductionKind::AddShift);
            let barrett = Zp::with_reduction(m, ReductionKind::Barrett);
            let naive = Zp::with_reduction(m, ReductionKind::Naive);
            let expect = naive.mul(a, b);
            prop_assert_eq!(fast.mul(a, b), expect);
            prop_assert_eq!(barrett.mul(a, b), expect);
        }

        #[test]
        fn prop_inverse_roundtrip(a in 1u64..65_537) {
            let zp = Zp::new(Modulus::PASTA_17_BIT).unwrap();
            let inv = zp.inv(a).unwrap();
            prop_assert_eq!(zp.mul(a, inv), 1);
        }

        #[test]
        fn prop_mul_shoup_matches_mul_every_modulus(a in any::<u64>(), w in any::<u64>()) {
            // The Shoup product must agree with the configured reducer
            // (Barrett / add-shift) for every supported modulus constant.
            for zp in fields() {
                let a = a % zp.p();
                let w = w % zp.p();
                let w_shoup = zp.shoup(w);
                prop_assert_eq!(zp.mul_shoup(a, w, w_shoup), zp.mul(a, w), "p = {}", zp.p());
                let lazy = zp.mul_shoup_lazy(a, w, w_shoup);
                prop_assert!(lazy < 2 * zp.p(), "lazy range for p = {}", zp.p());
                prop_assert_eq!(lazy % zp.p(), zp.mul(a, w));
            }
        }

        #[test]
        fn prop_shoup_row_matches_shoup(ws in proptest::collection::vec(any::<u64>(), 1..16)) {
            let ntt_primes = [30u32, 45, 55, 62]
                .map(|bits| Zp::new(Modulus::find_ntt_prime(bits, 12).unwrap()).unwrap());
            for zp in fields().into_iter().chain(ntt_primes) {
                let p = zp.p();
                let mut row: Vec<u64> = ws.iter().map(|w| w % p).collect();
                row.extend([0, 1, p / 2, p - 2, p - 1]);
                let expect: Vec<u64> = row.iter().map(|&w| zp.shoup(w)).collect();
                prop_assert_eq!(zp.shoup_row(&row), expect, "p = {}", p);
            }
        }

        #[test]
        fn prop_mul_shoup_lazy_accepts_noncanonical_inputs(a in any::<u64>(), w in any::<u64>()) {
            // Harvey's bound: the left input may be ANY u64 (the lazy NTT
            // feeds values in [0, 4p)); only w must be canonical.
            for zp in fields() {
                let w = w % zp.p();
                let w_shoup = zp.shoup(w);
                let lazy = zp.mul_shoup_lazy(a, w, w_shoup);
                prop_assert!(lazy < 2 * zp.p());
                let expect = ((u128::from(a) * u128::from(w)) % u128::from(zp.p())) as u64;
                prop_assert_eq!(lazy % zp.p(), expect);
            }
        }
    }
}
