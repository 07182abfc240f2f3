//! Arithmetic modulo the Ed25519 group order
//! l = 2^252 + 27742317777372353535851937790883648493.

use super::field::{adc, geq, mac, mul_wide, sub_in_place};

/// The group order l, as little-endian limbs.
pub const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// c = l − 2^252 (125 bits), so that 2^252 ≡ −c (mod l).
const C: [u64; 2] = [L[0], L[1]];

/// Splits `x` at bit 252: returns `x mod 2^252` and writes `x >> 252` into
/// `hi`, which the caller sizes to hold it.
fn split_252(x: &[u64], hi: &mut [u64]) -> [u64; 4] {
    let limb = |i: usize| x.get(i).copied().unwrap_or(0);
    for (i, h) in hi.iter_mut().enumerate() {
        *h = (limb(i + 3) >> 60) | (limb(i + 4) << 4);
    }
    [x[0], x[1], x[2], x[3] & (u64::MAX >> 4)]
}

/// `out = c · x`; `out` is two limbs longer than `x`.
fn mul_c(x: &[u64], out: &mut [u64]) {
    out.fill(0);
    for (i, &xi) in x.iter().enumerate() {
        let (low, carry) = mac(xi, C[0], out[i], 0);
        let (high, carry) = mac(xi, C[1], out[i + 1], carry);
        out[i..i + 3].copy_from_slice(&[low, high, carry]);
    }
}

/// Reduces a 512-bit little-endian value modulo l, limb-wise.
///
/// Splitting at bit 252 three times with 2^252 ≡ −c gives
/// x ≡ x₀ − y₀ + z₀ − w, where y = c·(x ≫ 252) < 2^385,
/// z = c·(y ≫ 252) < 2^258, w = c·(z ≫ 252) < 2^131 and x₀, y₀, z₀ are the
/// low 252 bits of x, y, z. All four terms are below l, so two modular
/// additions and one modular subtraction finish the job.
fn reduce_wide(x: &[u64; 8]) -> Scalar {
    let mut x_hi = [0u64; 5];
    let x0 = split_252(x, &mut x_hi);
    let mut y = [0u64; 7];
    mul_c(&x_hi, &mut y);
    let mut y_hi = [0u64; 3];
    let y0 = split_252(&y, &mut y_hi);
    let mut z = [0u64; 5];
    mul_c(&y_hi, &mut z);
    let mut z_hi = [0u64; 1];
    let z0 = split_252(&z, &mut z_hi);
    let mut w = [0u64; 3];
    mul_c(&z_hi, &mut w);
    let w = [w[0], w[1], w[2], 0];
    Scalar(x0).add(&Scalar(z0)).sub(&Scalar(y0).add(&Scalar(w)))
}

/// An integer modulo the Ed25519 group order, always fully reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(pub(crate) [u64; 4]);

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Interprets 32 little-endian bytes, reducing modulo l.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Self {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Self::from_bytes_mod_order_wide(&wide)
    }

    /// Interprets 64 little-endian bytes (e.g. a SHA-512 output), reducing
    /// modulo l.
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Self {
        let mut limbs = [0u64; 8];
        for i in 0..8 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        reduce_wide(&limbs)
    }

    /// Decodes a canonical scalar (< l), as required for strict signature
    /// verification. Returns `None` for non-canonical encodings.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        if geq(&limbs, &L) {
            return None;
        }
        Some(Scalar(limbs))
    }

    /// Encodes the scalar as 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Addition modulo l.
    pub fn add(&self, rhs: &Self) -> Self {
        let mut r = [0u64; 4];
        let mut carry = false;
        for (i, limb) in r.iter_mut().enumerate() {
            (*limb, carry) = adc(self.0[i], rhs.0[i], carry);
        }
        // Inputs are < l < 2^253, so the sum fits in 4 limbs.
        debug_assert!(!carry);
        if geq(&r, &L) {
            sub_in_place(&mut r, &L);
        }
        Scalar(r)
    }

    /// Subtraction modulo l.
    pub fn sub(&self, rhs: &Self) -> Self {
        let mut r = self.0;
        if !geq(&r, &rhs.0) {
            // r + l < 2l < 2^254: no carry out.
            let mut carry = false;
            for (limb, l) in r.iter_mut().zip(L) {
                (*limb, carry) = adc(*limb, l, carry);
            }
        }
        sub_in_place(&mut r, &rhs.0);
        Scalar(r)
    }

    /// Multiplication modulo l.
    pub fn mul(&self, rhs: &Self) -> Self {
        reduce_wide(&mul_wide(&self.0, &rhs.0))
    }

    /// The width-`w` non-adjacent form: digits dᵢ with Σ dᵢ·2^i equal to
    /// the scalar, every non-zero digit odd with |dᵢ| < 2^(w−1), and any
    /// two non-zero digits at least `w` positions apart. The recoding
    /// carries upward, hence 257 slots for 256 bits. `w` is 2 to 8.
    pub(crate) fn non_adjacent_form(&self, w: u32) -> [i8; 257] {
        debug_assert!((2..=8).contains(&w));
        let limbs = [self.0[0], self.0[1], self.0[2], self.0[3], 0, 0];
        let width = 1u64 << w;
        let mut naf = [0i8; 257];
        let mut carry = 0u64;
        let mut pos = 0;
        while pos < 257 {
            let (limb, bit) = (pos / 64, pos % 64);
            let pair = limbs[limb] as u128 | (limbs[limb + 1] as u128) << 64;
            let window = carry + ((pair >> bit) as u64 & (width - 1));
            if window & 1 == 0 {
                // Covers window == width too: the carry keeps travelling.
                pos += 1;
                continue;
            }
            carry = (window >= width / 2) as u64;
            naf[pos] = (window as i64 - (carry * width) as i64) as i8;
            pos += w as usize;
        }
        naf
    }

    /// Signed radix-16 digits: Σ eᵢ·16^i equals the scalar, every eᵢ in
    /// [−8, 8) except the last, which absorbs the final carry. The scalar
    /// is below 2^253, so the last digit is at most 2.
    pub(crate) fn to_radix_16(self) -> [i8; 64] {
        let mut digits = [0i8; 64];
        for (i, byte) in self.to_bytes().iter().enumerate() {
            digits[2 * i] = (byte & 15) as i8;
            digits[2 * i + 1] = (byte >> 4) as i8;
        }
        for i in 0..63 {
            let carry = (digits[i] + 8) >> 4;
            digits[i] -= carry << 4;
            digits[i + 1] += carry;
        }
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sc(n: u64) -> Scalar {
        Scalar([n, 0, 0, 0])
    }

    /// The bit-serial long division the limb-wise reduction replaced:
    /// r ← 2r + bit, minus l when that reaches it.
    fn reduce_wide_reference(x: &[u64; 8]) -> Scalar {
        let mut r = [0u64; 4];
        for bit in (0..512).rev() {
            let mut carry = (x[bit / 64] >> (bit % 64)) & 1;
            for limb in r.iter_mut() {
                let top = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = top;
            }
            assert_eq!(carry, 0);
            if geq(&r, &L) {
                sub_in_place(&mut r, &L);
            }
        }
        Scalar(r)
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_order(&bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut limbs = L;
        limbs[0] -= 1;
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&limbs[i].to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).expect("canonical");
        // (l − 1) + 1 = 0 (mod l).
        assert_eq!(s.add(&Scalar::ONE), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.sub(&Scalar::ONE), s);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(sc(6).mul(&sc(7)), sc(42));
        assert_eq!(sc(40).add(&sc(2)), sc(42));
        assert_eq!(sc(44).sub(&sc(2)), sc(42));
    }

    #[test]
    fn wide_reduction_matches_composed() {
        // (2^256) mod l computed two ways.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        let direct = Scalar::from_bytes_mod_order_wide(&wide);

        // 2^256 = (2^128)^2.
        let mut b = [0u8; 32];
        b[16] = 1; // 2^128
        let half = Scalar::from_bytes_mod_order(&b);
        assert_eq!(half.mul(&half), direct);
    }

    #[test]
    fn bytes_roundtrip() {
        let s = Scalar::from_bytes_mod_order(&[0x42; 32]);
        assert_eq!(Scalar::from_canonical_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn wide_reduction_edges_match_the_reference() {
        let max = u64::MAX;
        let l_wide = |k: u64| {
            // k·l, k < 2^64.
            let mut out = [0u64; 8];
            let mut carry = 0u128;
            for i in 0..4 {
                let cur = (L[i] as u128) * (k as u128) + carry;
                out[i] = cur as u64;
                carry = cur >> 64;
            }
            out[4] = carry as u64;
            out
        };
        let mut cases = vec![
            [0; 8],
            [max; 8],
            [0, 0, 0, 1 << 60, 0, 0, 0, 0],
            [max, max, max, (1 << 60) - 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1 << 63],
            [max, max, max, max, 0, 0, 0, 0],
        ];
        for k in [1, 2, 15, 16, max] {
            let mut below = l_wide(k);
            below[0] -= 1;
            let mut above = l_wide(k);
            above[0] += 1;
            cases.extend([l_wide(k), below, above]);
        }
        for x in cases {
            assert_eq!(reduce_wide(&x), reduce_wide_reference(&x), "{x:x?}");
        }
    }

    fn check_naf(k: &Scalar, w: u32) {
        let naf = k.non_adjacent_form(w);
        // Σ dᵢ·2^i by Horner from the top, as an exact integer in 320-bit
        // two's complement (partial sums stay below 2^257 in magnitude).
        let mut sum = [0u64; 5];
        for &d in naf.iter().rev() {
            let mut shifted_out = 0;
            for limb in sum.iter_mut() {
                (*limb, shifted_out) = ((*limb << 1) | shifted_out, *limb >> 63);
            }
            let extension = if d < 0 { u64::MAX } else { 0 };
            let mut carry;
            (sum[0], carry) = adc(sum[0], d as i64 as u64, false);
            for limb in sum[1..].iter_mut() {
                (*limb, carry) = adc(*limb, extension, carry);
            }
        }
        assert_eq!(sum, [k.0[0], k.0[1], k.0[2], k.0[3], 0], "w = {w}");
        let mut last: Option<usize> = None;
        for (i, &d) in naf.iter().enumerate() {
            if d == 0 {
                continue;
            }
            assert!(d & 1 == 1, "digit {d} at {i} is even");
            assert!((d as i32).abs() < 1 << (w - 1), "digit {d} too wide");
            if let Some(previous) = last {
                assert!(i - previous >= w as usize, "digits at {previous} and {i}");
            }
            last = Some(i);
        }
    }

    #[test]
    fn naf_handles_every_256_bit_pattern_edge() {
        let max = u64::MAX;
        for limbs in [
            [0; 4],
            [1, 0, 0, 0],
            [max; 4],
            [0, 0, 0, 1 << 63],
            [0xaaaa_aaaa_aaaa_aaaa; 4],
            [0x5555_5555_5555_5555; 4],
            [max, max, max, max >> 1],
        ] {
            for w in 2..=8 {
                check_naf(&Scalar(limbs), w);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wide_reduction_matches_the_reference(x in any::<[u64; 8]>()) {
            prop_assert_eq!(reduce_wide(&x), reduce_wide_reference(&x));
        }

        /// NAF recoding round-trips at the two widths verification uses
        /// and at the narrowest.
        #[test]
        fn naf_roundtrips(k in any::<[u64; 4]>()) {
            for w in [2, 5, 8] {
                check_naf(&Scalar(k), w);
            }
        }

        #[test]
        fn radix_16_roundtrips(k in any::<[u8; 32]>()) {
            let k = Scalar::from_bytes_mod_order(&k);
            let digits = k.to_radix_16();
            let sixteen = sc(16);
            let mut sum = Scalar::ZERO;
            for (i, &e) in digits.iter().enumerate().rev() {
                prop_assert!((-8..8).contains(&e) || (i == 63 && e == 8));
                sum = sum.mul(&sixteen);
                let magnitude = sc(e.unsigned_abs() as u64);
                sum = if e < 0 { sum.sub(&magnitude) } else { sum.add(&magnitude) };
            }
            prop_assert_eq!(sum, k);
        }
    }
}
