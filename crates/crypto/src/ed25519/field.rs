//! Arithmetic in GF(2^255 − 19), the Ed25519 base field.
//!
//! Elements are four little-endian 64-bit limbs holding *any*
//! representative below 2^256, not only the canonical one below p. A carry
//! out of the top limb and the high half of a product are folded back with
//! 2^256 ≡ 38 (mod p), which needs no comparison with p. Equality,
//! [`FieldElement::is_zero`], [`FieldElement::is_odd`] and
//! [`FieldElement::to_bytes`] canonicalise first, so nothing outside this
//! module sees the slack.

/// The field prime p = 2^255 − 19, as little-endian limbs.
pub const P: [u64; 4] = [
    0xffffffffffffffed,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x7fffffffffffffff,
];

/// Compares two little-endian 4-limb values, `true` if `a >= b`.
pub(crate) fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a + b + carry`, returning the low limb and the carry out.
#[inline(always)]
pub(crate) fn adc(a: u64, b: u64, carry: bool) -> (u64, bool) {
    let (s, c1) = a.overflowing_add(b);
    let (s, c2) = s.overflowing_add(carry as u64);
    (s, c1 | c2)
}

/// `a − b − borrow`, returning the low limb and the borrow out.
#[inline(always)]
pub(crate) fn sbb(a: u64, b: u64, borrow: bool) -> (u64, bool) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow as u64);
    (d, b1 | b2)
}

/// Subtracts `b` from `a` in place; caller guarantees `a >= b`.
pub(crate) fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = false;
    for i in 0..4 {
        (a[i], borrow) = sbb(a[i], b[i], borrow);
    }
    debug_assert!(!borrow, "subtraction underflow");
}

/// `a·b + acc + carry` as (low limb, high limb). The sum is at most
/// (2^64 − 1)² + 2·(2^64 − 1) = 2^128 − 1, so it never overflows.
#[inline(always)]
pub(crate) fn mac(a: u64, b: u64, acc: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) * (b as u128) + acc as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Schoolbook 4×4-limb multiplication into an 8-limb product, unrolled
/// row by row.
#[inline(always)]
pub(crate) fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let (r0, c) = mac(a[0], b[0], 0, 0);
    let (r1, c) = mac(a[0], b[1], 0, c);
    let (r2, c) = mac(a[0], b[2], 0, c);
    let (r3, r4) = mac(a[0], b[3], 0, c);

    let (r1, c) = mac(a[1], b[0], r1, 0);
    let (r2, c) = mac(a[1], b[1], r2, c);
    let (r3, c) = mac(a[1], b[2], r3, c);
    let (r4, r5) = mac(a[1], b[3], r4, c);

    let (r2, c) = mac(a[2], b[0], r2, 0);
    let (r3, c) = mac(a[2], b[1], r3, c);
    let (r4, c) = mac(a[2], b[2], r4, c);
    let (r5, r6) = mac(a[2], b[3], r5, c);

    let (r3, c) = mac(a[3], b[0], r3, 0);
    let (r4, c) = mac(a[3], b[1], r4, c);
    let (r5, c) = mac(a[3], b[2], r5, c);
    let (r6, r7) = mac(a[3], b[3], r6, c);

    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// The 8-limb square of `a`: the six cross products once, doubled, plus
/// the four squares on the diagonal — ten limb products instead of sixteen.
#[inline(always)]
fn square_wide(a: &[u64; 4]) -> [u64; 8] {
    let (c1, k) = mac(a[0], a[1], 0, 0);
    let (c2, k) = mac(a[0], a[2], 0, k);
    let (c3, c4) = mac(a[0], a[3], 0, k);
    let (c3, k) = mac(a[1], a[2], c3, 0);
    let (c4, c5) = mac(a[1], a[3], c4, k);
    let (c5, c6) = mac(a[2], a[3], c5, 0);

    // The cross-product sum is below 2^447, so doubling it fits 7 limbs.
    let d1 = c1 << 1;
    let d2 = (c2 << 1) | (c1 >> 63);
    let d3 = (c3 << 1) | (c2 >> 63);
    let d4 = (c4 << 1) | (c3 >> 63);
    let d5 = (c5 << 1) | (c4 >> 63);
    let d6 = (c6 << 1) | (c5 >> 63);
    let d7 = c6 >> 63;

    let (r0, k) = mac(a[0], a[0], 0, 0);
    let (r1, carry) = adc(d1, k, false);
    let (s, k) = mac(a[1], a[1], 0, 0);
    let (r2, carry) = adc(d2, s, carry);
    let (r3, carry) = adc(d3, k, carry);
    let (s, k) = mac(a[2], a[2], 0, 0);
    let (r4, carry) = adc(d4, s, carry);
    let (r5, carry) = adc(d5, k, carry);
    let (s, k) = mac(a[3], a[3], 0, 0);
    let (r6, carry) = adc(d6, s, carry);
    let (r7, carry) = adc(d7, k, carry);
    debug_assert!(!carry, "a square fits 512 bits");

    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// Folds `carry`, a limb of weight 2^256, into `r` as 38·carry.
///
/// Requires carry ≤ 38, so the addend is at most 1444. If adding it wraps
/// past 2^256 the four limbs are left below 1444 and owe one more 38, which
/// then cannot wrap again: the result is below 2^256 and congruent to
/// r + carry·2^256.
#[inline(always)]
fn fold_carry(r: [u64; 4], carry: u64) -> [u64; 4] {
    debug_assert!(carry <= 38);
    let (r0, c) = r[0].overflowing_add(38 * carry);
    let (r1, c) = r[1].overflowing_add(c as u64);
    let (r2, c) = r[2].overflowing_add(c as u64);
    let (r3, c) = r[3].overflowing_add(c as u64);
    [r0 + 38 * c as u64, r1, r2, r3]
}

/// Reduces a 512-bit value hi·2^256 + lo to a representative below 2^256
/// in one step: lo + 38·hi is below 39·2^256, so the multiply-accumulate
/// chain leaves a carry limb of at most 38 for [`fold_carry`].
#[inline(always)]
fn reduce_wide(x: &[u64; 8]) -> [u64; 4] {
    let (r0, c) = mac(x[4], 38, x[0], 0);
    let (r1, c) = mac(x[5], 38, x[1], c);
    let (r2, c) = mac(x[6], 38, x[2], c);
    let (r3, c) = mac(x[7], 38, x[3], c);
    fold_carry([r0, r1, r2, r3], c)
}

/// An element of GF(2^255 − 19): any representative below 2^256.
#[derive(Clone, Copy, Debug)]
pub struct FieldElement(pub(crate) [u64; 4]);

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for FieldElement {}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);

    /// The curve constant d = −121665/121666 (mod p).
    pub const D: FieldElement = FieldElement([
        0x75eb4dca135978a3,
        0x00700a4d4141d8ab,
        0x8cc740797779e898,
        0x52036cee2b6ffe73,
    ]);

    /// 2·d (mod p), the constant of the extended-coordinate addition.
    pub const D2: FieldElement = FieldElement([
        0xebd69b9426b2f159,
        0x00e0149a8283b156,
        0x198e80f2eef3d130,
        0x2406d9dc56dffce7,
    ]);

    /// sqrt(−1) = 2^((p−1)/4) (mod p), used during point decompression.
    pub const SQRT_M1: FieldElement = FieldElement([
        0xc4ee1b274a0ea0b0,
        0x2f431806ad2fe478,
        0x2b4d00993dfbd7a7,
        0x2b8324804fc1df0b,
    ]);

    /// The canonical representative, below p.
    fn canonical(&self) -> [u64; 4] {
        let mut limbs = self.0;
        // 2^256 < 3p: at most two subtractions.
        while geq(&limbs, &P) {
            sub_in_place(&mut limbs, &P);
        }
        limbs
    }

    /// Decodes 32 little-endian bytes; the top bit is ignored (it carries
    /// the sign of x in compressed points). Returns `None` if the value is
    /// not canonical (≥ p).
    pub fn from_bytes_checked(bytes: &[u8; 32]) -> Option<Self> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        limbs[3] &= 0x7fffffffffffffff;
        if geq(&limbs, &P) {
            return None;
        }
        Some(FieldElement(limbs))
    }

    /// Encodes the canonical representative as 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let limbs = self.canonical();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&limbs[i].to_le_bytes());
        }
        out
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, rhs: &Self) -> Self {
        let (r0, c) = adc(self.0[0], rhs.0[0], false);
        let (r1, c) = adc(self.0[1], rhs.0[1], c);
        let (r2, c) = adc(self.0[2], rhs.0[2], c);
        let (r3, c) = adc(self.0[3], rhs.0[3], c);
        FieldElement(fold_carry([r0, r1, r2, r3], c as u64))
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, rhs: &Self) -> Self {
        let (r0, b) = sbb(self.0[0], rhs.0[0], false);
        let (r1, b) = sbb(self.0[1], rhs.0[1], b);
        let (r2, b) = sbb(self.0[2], rhs.0[2], b);
        let (r3, b) = sbb(self.0[3], rhs.0[3], b);
        // A borrow out leaves a − b + 2^256 ≡ a − b + 38 in the limbs: take
        // the 38 back. That borrows again only from limbs below 38, which
        // wrap to at least 2^256 − 38, so the second 38 comes off cleanly.
        let (r0, b) = r0.overflowing_sub(38 * b as u64);
        let (r1, b) = r1.overflowing_sub(b as u64);
        let (r2, b) = r2.overflowing_sub(b as u64);
        let (r3, b) = r3.overflowing_sub(b as u64);
        FieldElement([r0 - 38 * b as u64, r1, r2, r3])
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self) -> Self {
        FieldElement::ZERO.sub(self)
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, rhs: &Self) -> Self {
        FieldElement(reduce_wide(&mul_wide(&self.0, &rhs.0)))
    }

    /// Field squaring.
    #[inline]
    pub fn square(&self) -> Self {
        FieldElement(reduce_wide(&square_wide(&self.0)))
    }

    /// `self^(2^k)`: k successive squarings.
    fn square_times(&self, k: u32) -> Self {
        let mut acc = *self;
        for _ in 0..k {
            acc = acc.square();
        }
        acc
    }

    /// Returns (z^(2^250 − 1), z^11), the shared prefix of the two fixed
    /// addition chains below (249 squarings, 10 multiplications).
    fn pow_2_250_minus_1(&self) -> (Self, Self) {
        let z2 = self.square();
        let z9 = z2.square_times(2).mul(self);
        let z11 = z9.mul(&z2);
        let x5 = z11.square().mul(&z9); // z^(2^5 − 1)
        let x10 = x5.square_times(5).mul(&x5);
        let x20 = x10.square_times(10).mul(&x10);
        let x40 = x20.square_times(20).mul(&x20);
        let x50 = x40.square_times(10).mul(&x10);
        let x100 = x50.square_times(50).mul(&x50);
        let x200 = x100.square_times(100).mul(&x100);
        let x250 = x200.square_times(50).mul(&x50);
        (x250, z11)
    }

    /// Multiplicative inverse z^(p−2) = z^(2^255 − 21); `0` maps to `0`.
    pub fn invert(&self) -> Self {
        let (x250, z11) = self.pow_2_250_minus_1();
        x250.square_times(5).mul(&z11)
    }

    /// z^((p−5)/8) = z^(2^252 − 3), the square-root candidate exponent.
    fn pow_p58(&self) -> Self {
        let (x250, _) = self.pow_2_250_minus_1();
        x250.square_times(2).mul(self)
    }

    /// Whether the element is zero.
    pub fn is_zero(&self) -> bool {
        self.canonical() == [0, 0, 0, 0]
    }

    /// The low bit of the canonical encoding (the "sign" of x in RFC 8032).
    pub fn is_odd(&self) -> bool {
        self.canonical()[0] & 1 == 1
    }

    /// Computes r = sqrt(u/v) if it exists.
    ///
    /// Returns `(true, r)` when u/v is a square (r chosen with unspecified
    /// sign), `(true, 0)` when u = 0, and `(false, _)` when u/v is not a
    /// square. This is the standard RFC 8032 decompression subroutine.
    pub fn sqrt_ratio(u: &Self, v: &Self) -> (bool, Self) {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut r = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let check = v.mul(&r.square());
        if check == *u {
            return (true, r);
        }
        if check == u.neg() {
            r = r.mul(&FieldElement::SQRT_M1);
            return (true, r);
        }
        (false, r)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(n: u64) -> FieldElement {
        FieldElement([n, 0, 0, 0])
    }

    /// Exponent p − 2 (inversion by Fermat's little theorem).
    const P_MINUS_2: [u64; 4] = [
        0xffffffffffffffeb,
        0xffffffffffffffff,
        0xffffffffffffffff,
        0x7fffffffffffffff,
    ];

    /// Exponent (p − 5)/8 = 2^252 − 3.
    const P58: [u64; 4] = [
        0xfffffffffffffffd,
        0xffffffffffffffff,
        0xffffffffffffffff,
        0x0fffffffffffffff,
    ];

    /// Generic square-and-multiply, the oracle for the fixed chains (and
    /// the inversion the ladder oracle in `super::super::oracle` uses).
    pub(crate) fn pow(base: &FieldElement, exponent: &[u64; 4]) -> FieldElement {
        let mut acc = FieldElement::ONE;
        for i in (0..256).rev() {
            acc = acc.square();
            if (exponent[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.mul(base);
            }
        }
        acc
    }

    pub(crate) fn invert_generic(z: &FieldElement) -> FieldElement {
        pow(z, &P_MINUS_2)
    }

    pub(crate) fn pow_p58_generic(z: &FieldElement) -> FieldElement {
        pow(z, &P58)
    }

    /// `value mod p` for a 320-bit value, by comparing with p and
    /// subtracting it in `u128` long-hand that shares nothing with the
    /// code under test.
    fn reduce_reference(mut value: [u64; 5]) -> [u64; 4] {
        let p = [P[0], P[1], P[2], P[3], 0];
        let below_p = |value: &[u64; 5]| value.iter().rev().lt(p.iter().rev());
        while !below_p(&value) {
            let mut borrow = 0u128;
            for (limb, p_limb) in value.iter_mut().zip(p) {
                let wide = (1u128 << 64) + *limb as u128 - p_limb as u128 - borrow;
                *limb = wide as u64;
                borrow = 1 - (wide >> 64);
            }
        }
        [value[0], value[1], value[2], value[3]]
    }

    fn add_reference(a: &FieldElement, b: &FieldElement) -> [u64; 4] {
        let mut sum = [0u64; 5];
        let mut carry = 0u128;
        for (i, limb) in sum.iter_mut().enumerate().take(4) {
            let wide = a.0[i] as u128 + b.0[i] as u128 + carry;
            *limb = wide as u64;
            carry = wide >> 64;
        }
        sum[4] = carry as u64;
        reduce_reference(sum)
    }

    /// a·b by 256 doublings and conditional additions of the reference.
    fn mul_reference(a: &FieldElement, b: &FieldElement) -> [u64; 4] {
        let mut acc = FieldElement::ZERO;
        for i in (0..256).rev() {
            acc = FieldElement(add_reference(&acc, &acc));
            if (b.0[i / 64] >> (i % 64)) & 1 == 1 {
                acc = FieldElement(add_reference(&acc, a));
            }
        }
        acc.0
    }

    /// Representatives that sit on every fold and canonicalisation edge.
    pub(crate) fn edge_elements() -> Vec<FieldElement> {
        let max = u64::MAX;
        let mut p_minus_1 = P;
        p_minus_1[0] -= 1;
        let mut p_plus_1 = P;
        p_plus_1[0] += 1;
        vec![
            FieldElement::ZERO,
            FieldElement::ONE,
            fe(37),
            fe(38),
            fe(39),
            FieldElement(p_minus_1),
            FieldElement(P),
            FieldElement(p_plus_1),
            FieldElement([0, 0, 0, 1 << 63]),
            FieldElement([max - 37, max, max, max]),
            FieldElement([max - 38, max, max, max]),
            FieldElement([max, max, max, max]),
            FieldElement([max, 0, max, 0]),
            FieldElement::D,
            FieldElement::SQRT_M1,
        ]
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(12345);
        let b = fe(67890);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn sub_wraps() {
        // 0 − 1 = p − 1.
        let got = FieldElement::ZERO.sub(&FieldElement::ONE);
        let mut expect = P;
        expect[0] -= 1;
        assert_eq!(got.canonical(), expect);
    }

    #[test]
    fn mul_matches_small_values() {
        assert_eq!(fe(7).mul(&fe(6)), fe(42));
    }

    #[test]
    fn p_reduces_to_zero() {
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&P[i].to_le_bytes());
        }
        assert!(FieldElement::from_bytes_checked(&bytes).is_none());
        // As a loose representative p is zero, and encodes as zero.
        assert_eq!(FieldElement(P), FieldElement::ZERO);
        assert!(FieldElement(P).is_zero());
        assert_eq!(FieldElement(P).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn nineteen_identity() {
        // 2^255 ≡ 19: check (2^255 mod p) via repeated doubling.
        let mut x = FieldElement::ONE;
        for _ in 0..255 {
            x = x.add(&x);
        }
        assert_eq!(x, fe(19));
    }

    #[test]
    fn inversion() {
        let a = fe(987654321);
        assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
        assert_eq!(FieldElement::ZERO.invert(), FieldElement::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::SQRT_M1;
        assert_eq!(i.square(), FieldElement::ONE.neg());
    }

    #[test]
    fn sqrt_ratio_square() {
        let u = fe(4);
        let v = fe(1);
        let (ok, r) = FieldElement::sqrt_ratio(&u, &v);
        assert!(ok);
        assert_eq!(r.square(), u);
    }

    #[test]
    fn sqrt_ratio_nonsquare() {
        // 2 is a non-square mod p (p ≡ 5 mod 8 ⇒ 2 is a QNR).
        let (ok, _) = FieldElement::sqrt_ratio(&fe(2), &FieldElement::ONE);
        assert!(!ok);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = fe(0xdead_beef_cafe_f00d);
        let b = FieldElement::from_bytes_checked(&a.to_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn d_constants_match_definition() {
        // d = −121665/121666 mod p.
        let d = fe(121665).neg().mul(&fe(121666).invert());
        assert_eq!(d, FieldElement::D);
        assert_eq!(d.add(&d), FieldElement::D2);
    }

    /// Every operation on every pair of edge representatives agrees with
    /// the long-hand reference, and stays in agreement when its output is
    /// fed back in.
    #[test]
    fn edge_representatives_match_the_reference() {
        let edges = edge_elements();
        for a in &edges {
            assert_eq!(a.canonical(), add_reference(a, &FieldElement::ZERO));
            assert_eq!(a.square().canonical(), mul_reference(a, a));
            assert_eq!(a.neg().add(a), FieldElement::ZERO);
            for b in &edges {
                assert_eq!(a.add(b).canonical(), add_reference(a, b));
                assert_eq!(a.sub(b).add(b), *a);
                assert_eq!(a.mul(b).canonical(), mul_reference(a, b));
            }
        }
    }

    #[test]
    fn chains_match_generic_pow_on_edges() {
        for z in edge_elements() {
            assert_eq!(z.invert(), invert_generic(&z));
            assert_eq!(z.pow_p58(), pow_p58_generic(&z));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary 256-bit representatives (a quarter of them ≥ p).
        #[test]
        fn arithmetic_matches_the_reference(a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
            let (a, b) = (FieldElement(a), FieldElement(b));
            prop_assert_eq!(a.add(&b).canonical(), add_reference(&a, &b));
            prop_assert_eq!(a.sub(&b).add(&b), a);
            prop_assert_eq!(a.mul(&b).canonical(), mul_reference(&a, &b));
            prop_assert_eq!(a.square().canonical(), mul_reference(&a, &a));
        }

        #[test]
        fn chains_match_generic_pow(z in any::<[u64; 4]>()) {
            let z = FieldElement(z);
            prop_assert_eq!(z.invert(), invert_generic(&z));
            prop_assert_eq!(z.pow_p58(), pow_p58_generic(&z));
        }
    }
}
