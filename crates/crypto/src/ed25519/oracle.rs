//! The test oracle: the textbook ladder this crate verified with before
//! the windowed kernel — projective (X : Y : Z) points, one unified
//! addition law that also doubles, a 256-step double-and-add per scalar,
//! generic square-and-multiply for inversion and square roots, and a
//! verification that decompresses the key on every call and runs two
//! separate ladders. Slow and obviously right; compiled for tests only,
//! which hold the kernel to its outputs and its accept / reject decisions.

use super::field::tests::{edge_elements, invert_generic, pow_p58_generic};
use super::field::{FieldElement, P};
use super::point::{CombTable, EdwardsPoint};
use super::scalar::{Scalar, L};
use super::{Signature, SignatureError, SigningKey, VerifyingKey};
use crate::sha512;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

#[derive(Clone, Copy)]
struct LadderPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

impl LadderPoint {
    const IDENTITY: LadderPoint = LadderPoint {
        x: FieldElement::ZERO,
        y: FieldElement::ONE,
        z: FieldElement::ONE,
    };

    fn basepoint() -> Self {
        LadderPoint::decompress(&EdwardsPoint::basepoint().compress()).expect("B decodes")
    }

    fn neg(&self) -> Self {
        LadderPoint {
            x: self.x.neg(),
            ..*self
        }
    }

    /// Complete unified point addition (add-2008-bbjlp with a = −1).
    fn add(&self, other: &Self) -> Self {
        let a = self.z.mul(&other.z);
        let b = a.square();
        let c = self.x.mul(&other.x);
        let d = self.y.mul(&other.y);
        let e = FieldElement::D.mul(&c).mul(&d);
        let f = b.sub(&e);
        let g = b.add(&e);
        let x1py1 = self.x.add(&self.y);
        let x2py2 = other.x.add(&other.y);
        LadderPoint {
            x: a.mul(&f).mul(&x1py1.mul(&x2py2).sub(&c).sub(&d)),
            // For a = −1: Y3 = A·G·(D − a·C) = A·G·(D + C).
            y: a.mul(&g).mul(&d.add(&c)),
            z: f.mul(&g),
        }
    }

    /// \[k\]P by left-to-right double-and-add over all 256 bits of `k`
    /// (which need not be reduced).
    fn scalar_mul(&self, k: &[u64; 4]) -> Self {
        let mut acc = LadderPoint::IDENTITY;
        for i in (0..256).rev() {
            acc = acc.add(&acc);
            if (k[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    fn compress(&self) -> [u8; 32] {
        let zinv = invert_generic(&self.z);
        let mut bytes = self.y.mul(&zinv).to_bytes();
        bytes[31] |= (self.x.mul(&zinv).is_odd() as u8) << 7;
        bytes
    }

    fn decompress(bytes: &[u8; 32]) -> Option<Self> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = FieldElement::from_bytes_checked(&y_bytes)?;
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = FieldElement::D.mul(&yy).add(&FieldElement::ONE);
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&pow_p58_generic(&u.mul(&v7)));
        let check = v.mul(&x.square());
        if check == u.neg() {
            x = x.mul(&FieldElement::SQRT_M1);
        } else if check != u {
            return None;
        }
        if x.is_zero() && sign == 1 {
            return None;
        }
        if x.is_odd() != (sign == 1) {
            x = x.neg();
        }
        Some(LadderPoint {
            x,
            y,
            z: FieldElement::ONE,
        })
    }
}

/// Verification as it was: S canonical, then A decodes, then R′ from two
/// ladders is re-encoded and compared with R.
fn verify_oracle(
    key: &[u8; 32],
    message: &[u8],
    signature: &[u8; 64],
) -> Result<(), SignatureError> {
    let r: [u8; 32] = signature[..32].try_into().expect("32 bytes");
    let s: [u8; 32] = signature[32..].try_into().expect("32 bytes");
    let s = Scalar::from_canonical_bytes(&s).ok_or(SignatureError::NonCanonicalScalar)?;
    let a = LadderPoint::decompress(key).ok_or(SignatureError::InvalidPublicKey)?;
    let k = Scalar::from_bytes_mod_order_wide(&sha512::digest_parts(&[&r, key, message]));
    let r_prime = LadderPoint::basepoint()
        .scalar_mul(&s.0)
        .add(&a.scalar_mul(&k.0).neg());
    if r_prime.compress() == r {
        Ok(())
    } else {
        Err(SignatureError::BadSignature)
    }
}

/// The kernel's verdict on the same bytes. A key that does not decode is
/// refused at construction, with the error the oracle reports at verify
/// time.
fn verify_kernel(
    key: &[u8; 32],
    message: &[u8],
    signature: &[u8; 64],
) -> Result<(), SignatureError> {
    VerifyingKey::from_bytes(key)?.verify(message, &Signature::from_bytes(signature))
}

fn assert_same_verdict(key: &[u8; 32], message: &[u8], signature: &[u8; 64]) {
    let want = verify_oracle(key, message, signature);
    let got = verify_kernel(key, message, signature);
    let key_refused = got == Err(SignatureError::InvalidPublicKey);
    if key_refused && want == Err(SignatureError::NonCanonicalScalar) {
        // Both refuse; the oracle looked at S before the key.
        assert!(LadderPoint::decompress(key).is_none());
        return;
    }
    assert_eq!(got, want, "key {key:x?} signature {signature:x?}");
}

fn limbs_to_bytes(limbs: [u64; 4]) -> [u8; 32] {
    let mut bytes = [0u8; 32];
    for i in 0..4 {
        bytes[i * 8..i * 8 + 8].copy_from_slice(&limbs[i].to_le_bytes());
    }
    bytes
}

/// Scalars on the edges of the recodings: 0, 1, 2, l − 1, 2^252,
/// 2^252 + 1, alternating bits, all ones below l, and the digits where
/// the width-5, width-8 and radix-16 recodings start to carry, and the
/// scalar whose radix-16 digits are −8 everywhere below the top one.
fn edge_scalars() -> Vec<Scalar> {
    const MAX: u64 = u64::MAX;
    const ALTERNATING: u64 = 0xaaaa_aaaa_aaaa_aaaa;
    const EIGHTS: u64 = 0x8888_8888_8888_8888;
    let mut l_minus_1 = L;
    l_minus_1[0] -= 1;
    let repeated = |limb: u64| Scalar([limb, limb, limb, limb >> 4]);
    const SEVENS: u64 = 0x7777_7777_7777_7777;
    let mut edges = vec![
        Scalar(l_minus_1),
        Scalar([0, 0, 0, 1 << 60]),
        Scalar([1, 0, 0, 1 << 60]),
        Scalar([SEVENS + 1, SEVENS, SEVENS, SEVENS >> 4]),
    ];
    edges
        .extend([0, 1, 2, 7, 8, 15, 16, 17, 127, 128, 129, 255, 256].map(|n| Scalar([n, 0, 0, 0])));
    edges.extend(
        [
            MAX,
            ALTERNATING,
            ALTERNATING >> 1,
            EIGHTS,
            EIGHTS - 1,
            EIGHTS >> 3,
        ]
        .map(repeated),
    );
    edges
}

fn assert_scalar_muls_agree(k: &Scalar, m: &Scalar) {
    let b = LadderPoint::basepoint();
    let k_b = b.scalar_mul(&k.0);
    assert_eq!(EdwardsPoint::basepoint_mul(k).compress(), k_b.compress());
    // A second point that is not the base point: P = [m]B.
    let p_ladder = b.scalar_mul(&m.0);
    let p = EdwardsPoint::decompress(&p_ladder.compress()).expect("on curve");
    let k_p = p_ladder.scalar_mul(&k.0);
    assert_eq!(p.scalar_mul(k).compress(), k_p.compress());
    // [k]P + [m]B in one pass against two ladders and an addition.
    assert_eq!(
        EdwardsPoint::double_scalar_mul_basepoint(k, &p, m).compress(),
        k_p.add(&b.scalar_mul(&m.0)).compress()
    );
}

#[test]
fn scalar_muls_agree_with_the_ladder_on_edge_scalars() {
    let edges = edge_scalars();
    let m = Scalar::from_bytes_mod_order(&[0x5a; 32]);
    for k in &edges {
        assert_scalar_muls_agree(k, &m);
        // And with the edge as the base-point scalar of the double pass.
        assert_scalar_muls_agree(&m, k);
    }
}

#[test]
fn one_edge_scalar_is_all_minus_eights() {
    assert!(edge_scalars().iter().any(|k| {
        let digits = k.to_radix_16();
        digits[..63] == [-8; 63] && digits[63] == 1
    }));
}

/// The comb against a fresh table of `point` gives the Straus pass's
/// point for \[a\]P + \[b\]B.
fn assert_comb_agrees(table: &CombTable, point: &EdwardsPoint, a: &Scalar, b: &Scalar) {
    assert_eq!(
        table.mul_add_basepoint(a, b),
        EdwardsPoint::double_scalar_mul_basepoint(a, point, b),
        "a {a:x?} b {b:x?}"
    );
}

#[test]
fn the_comb_equals_straus_on_edge_scalars() {
    let m = Scalar::from_bytes_mod_order(&[0x5a; 32]);
    let p = EdwardsPoint::basepoint_mul(&m);
    // [m]B, the eight small-order points, and [m]B plus each of them.
    let mut points = vec![p];
    for encoding in small_order_encodings() {
        let torsion = EdwardsPoint::decompress(&encoding).expect("small-order points decode");
        points.extend([torsion, p.add(&torsion)]);
    }
    let edges = edge_scalars();
    for point in &points {
        let table = CombTable::new(point);
        for k in &edges {
            assert_comb_agrees(&table, point, k, &m);
            assert_comb_agrees(&table, point, &m, k);
            assert_comb_agrees(&table, point, k, k);
        }
    }
}

/// The triples the kernel was accepted on: the hostile table, and 128
/// honest triples each with one to three bit flips, singly and
/// together.
pub(super) fn acceptance_set(rng: &mut StdRng) -> Vec<Triple> {
    let mut triples = hostile_triples();
    for _ in 0..128 {
        let message: Vec<u8> = (0..rng.gen_range(0..96)).map(|_| rng.gen()).collect();
        let flips: Vec<(usize, usize, u8)> = (0..rng.gen_range(1..4))
            .map(|_| (rng.gen_range(0..4), rng.gen(), rng.gen_range(0..8)))
            .collect();
        triples.extend(mutated_triples(rng.gen(), &message, &flips));
    }
    triples
}

/// On every triple of the acceptance set whose key decodes and whose S is
/// canonical, `R′ = [k](−A) + [S]B` is the same point by both kernels, so
/// the re-encoding compared with R — and the verdict — is too.
#[test]
fn the_comb_equals_straus_on_the_acceptance_set() {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(23);
    let mut tables: BTreeMap<[u8; 32], (EdwardsPoint, CombTable)> = BTreeMap::new();
    let mut compared = 0;
    for (key, message, signature) in acceptance_set(&mut rng) {
        let Some(point) = EdwardsPoint::decompress(&key) else {
            continue;
        };
        let Some(s) = Scalar::from_canonical_bytes(signature[32..].try_into().unwrap()) else {
            continue;
        };
        let challenge = sha512::digest_parts(&[&signature[..32], &key, &message]);
        let k = Scalar::from_bytes_mod_order_wide(&challenge);
        let (minus_a, table) = tables.entry(key).or_insert_with(|| {
            let minus_a = point.neg();
            (minus_a, CombTable::new(&minus_a))
        });
        assert_comb_agrees(table, minus_a, &k, &s);
        compared += 1;
    }
    assert!(compared > 2_000 && tables.len() > 128, "not vacuous");
}

#[test]
fn doubling_equals_self_addition() {
    let mut p = EdwardsPoint::basepoint();
    let mut ladder = LadderPoint::basepoint();
    for _ in 0..64 {
        assert_eq!(p.double(), p.add(&p));
        assert_eq!(p.double().compress(), ladder.add(&ladder).compress());
        p = p.double().add(&EdwardsPoint::basepoint());
        ladder = ladder.add(&ladder).add(&LadderPoint::basepoint());
    }
    let id = EdwardsPoint::identity();
    assert_eq!(id.double(), id);
    for encoding in small_order_encodings() {
        let p = EdwardsPoint::decompress(&encoding).expect("small-order point decodes");
        let ladder = LadderPoint::decompress(&encoding).expect("small-order point decodes");
        assert_eq!(p.double(), p.add(&p));
        assert_eq!(p.double().compress(), ladder.add(&ladder).compress());
    }
}

#[test]
fn decompression_agrees_with_the_ladder_on_edge_y() {
    for y in edge_elements() {
        for sign in [0u8, 0x80] {
            let mut bytes = y.to_bytes();
            bytes[31] |= sign;
            let kernel = EdwardsPoint::decompress(&bytes).map(|p| p.compress());
            let ladder = LadderPoint::decompress(&bytes).map(|p| p.compress());
            assert_eq!(kernel, ladder, "{bytes:x?}");
        }
    }
}

fn with_sign(mut bytes: [u8; 32]) -> [u8; 32] {
    bytes[31] |= 0x80;
    bytes
}

/// The eight points of order dividing 8, in canonical encoding
/// (`small_order_points_have_the_order_they_claim` checks each).
fn small_order_encodings() -> Vec<[u8; 32]> {
    let mut minus_one = P;
    minus_one[0] -= 1;
    let order_8_a = crate::hex::decode_array(
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    )
    .expect("hex");
    let order_8_b = crate::hex::decode_array(
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    )
    .expect("hex");
    vec![
        limbs_to_bytes([1, 0, 0, 0]), // identity
        limbs_to_bytes(minus_one),    // order 2: (0, −1)
        [0u8; 32],                    // order 4: (√−1, 0)
        with_sign([0u8; 32]),         // order 4: (−√−1, 0)
        order_8_a,
        with_sign(order_8_a),
        order_8_b,
        with_sign(order_8_b),
    ]
}

/// Encodings a careless decoder accepts: non-canonical y, x = 0 with the
/// sign bit set, and a y that is on no curve point.
fn malformed_encodings() -> Vec<[u8; 32]> {
    let mut p_plus_1 = P;
    p_plus_1[0] += 1;
    let mut minus_one = P;
    minus_one[0] -= 1;
    vec![
        limbs_to_bytes(P), // y = p (≡ 0)
        with_sign(limbs_to_bytes(P)),
        limbs_to_bytes(p_plus_1), // y = p + 1 (≡ 1)
        with_sign(limbs_to_bytes(p_plus_1)),
        with_sign(limbs_to_bytes([1, 0, 0, 0])), // identity, sign set
        with_sign(limbs_to_bytes(minus_one)),    // (0, −1), sign set
        [0xff; 32],                              // y = 2^255 − 1
        limbs_to_bytes([2, 0, 0, 0]),            // y = 2: not on the curve
    ]
}

#[test]
fn small_order_points_have_the_order_they_claim() {
    let orders = [1, 2, 4, 4, 8, 8, 8, 8];
    for (encoding, order) in small_order_encodings().iter().zip(orders) {
        let p = EdwardsPoint::decompress(encoding).expect("decodes");
        assert_eq!(p.compress(), *encoding, "canonical");
        let mut multiple = EdwardsPoint::identity();
        for i in 1..=order {
            multiple = multiple.add(&p);
            assert_eq!(multiple.is_identity(), i == order, "{encoding:x?} × {i}");
        }
    }
    for encoding in malformed_encodings() {
        assert!(
            EdwardsPoint::decompress(&encoding).is_none(),
            "{encoding:x?}"
        );
        assert!(
            LadderPoint::decompress(&encoding).is_none(),
            "{encoding:x?}"
        );
    }
}

/// Hostile S values: l, l + 1, 2^256 − 1, and 2^255 (top bit only).
fn hostile_scalars() -> Vec<[u8; 32]> {
    let mut l_plus_1 = L;
    l_plus_1[0] += 1;
    vec![
        limbs_to_bytes(L),
        limbs_to_bytes(l_plus_1),
        [0xff; 32],
        limbs_to_bytes([0, 0, 0, 1 << 63]),
    ]
}

/// A key, a message and a signature, as the bytes a peer would send.
pub(super) type Triple = ([u8; 32], Vec<u8>, [u8; 64]);

/// Every hostile encoding as A and as R, crossed with honest and hostile
/// S and a few messages. With a small-order A the equation reduces to
/// R = [S]B − [k mod 8]A, so R = [S]B is tried as well: that forgery
/// *verifies* under cofactorless rules whenever [k]A vanishes (always for
/// the identity, for one message in eight at order 8).
pub(super) fn hostile_triples() -> Vec<Triple> {
    let honest = SigningKey::from_seed([9u8; 32]);
    let honest_key = honest.verifying_key().to_bytes();
    let messages: [&[u8]; 4] = [b"", b"a", b"consensus", b"another message"];
    let mut encodings = small_order_encodings();
    encodings.extend(malformed_encodings());
    let mut honest_s = vec![[0u8; 32], Scalar::ONE.to_bytes()];
    honest_s.push(
        honest.sign(b"consensus").to_bytes()[32..]
            .try_into()
            .unwrap(),
    );
    let mut triples = Vec::new();
    let mut push = |key: &[u8; 32], message: &[u8], r: &[u8; 32], s: &[u8; 32]| {
        let mut signature = [0u8; 64];
        signature[..32].copy_from_slice(r);
        signature[32..].copy_from_slice(s);
        triples.push((*key, message.to_vec(), signature));
    };
    for a in &encodings {
        for s in honest_s.iter().chain(&hostile_scalars()) {
            for message in messages {
                // Hostile A, hostile R.
                for r in &encodings {
                    push(a, message, r, s);
                }
                // Hostile A, R = [S]B: verifies whenever [k]A vanishes.
                let s_b = EdwardsPoint::basepoint_mul(&Scalar::from_bytes_mod_order(s)).compress();
                push(a, message, &s_b, s);
            }
        }
    }
    for r in &encodings {
        for s in honest_s.iter().chain(&hostile_scalars()) {
            // Honest A, hostile R.
            push(&honest_key, b"consensus", r, s);
        }
    }
    triples
}

/// Both sides must agree on exactly which of the hostile triples verify.
#[test]
fn hostile_encodings_get_the_same_verdict() {
    let triples = hostile_triples();
    let mut accepted = 0;
    for (key, message, signature) in &triples {
        assert_same_verdict(key, message, signature);
        accepted += verify_oracle(key, message, signature).is_ok() as usize;
    }
    let verdicts = triples.len();
    // The table is not vacuous: some forged signatures under small-order
    // keys verify (identity key with R = [S]B always does), most do not.
    assert!(accepted >= 12, "{accepted} of {verdicts} accepted");
    assert!(accepted * 4 < verdicts, "{accepted} of {verdicts} accepted");
}

/// The honest triple of `seed` and `message`, then that triple with each
/// of `flips` alone, then with all of them together. A flip is (field,
/// position, bit): field 0 is R, 1 is S, 2 the key bytes, 3 the message;
/// the position wraps to the field's length.
pub(super) fn mutated_triples(
    seed: [u8; 32],
    message: &[u8],
    flips: &[(usize, usize, u8)],
) -> Vec<Triple> {
    let signing = SigningKey::from_seed(seed);
    let honest: Triple = (
        signing.verifying_key().to_bytes(),
        message.to_vec(),
        signing.sign(message).to_bytes(),
    );
    fn flip((key, message, signature): &mut Triple, (field, position, bit): (usize, usize, u8)) {
        let target: &mut [u8] = match field {
            0 => &mut signature[..32],
            1 => &mut signature[32..],
            2 => &mut key[..],
            _ => &mut message[..],
        };
        if !target.is_empty() {
            target[position % target.len()] ^= 1 << bit;
        }
    }
    let mut all = honest.clone();
    let mut triples = vec![honest.clone()];
    for &one_flip in flips {
        let mut one = honest.clone();
        flip(&mut one, one_flip);
        flip(&mut all, one_flip);
        triples.push(one);
    }
    triples.push(all);
    triples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The three scalar multiplications agree with the ladder on compressed
    /// output for random full-width scalars.
    #[test]
    fn scalar_muls_agree_with_the_ladder(k in any::<[u8; 32]>(), m in any::<[u8; 32]>()) {
        let k = Scalar::from_bytes_mod_order(&k);
        let m = Scalar::from_bytes_mod_order(&m);
        assert_scalar_muls_agree(&k, &m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The comb equals the Straus pass for random keys — any encoding that
    /// decodes, so most carry a small-order component; \[key mod l\]B for
    /// the rest — and random full-width scalars.
    #[test]
    fn the_comb_equals_straus(key in any::<[u8; 32]>(), a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let point = EdwardsPoint::decompress(&key)
            .unwrap_or_else(|| EdwardsPoint::basepoint_mul(&Scalar::from_bytes_mod_order(&key)));
        let (a, b) = (Scalar::from_bytes_mod_order(&a), Scalar::from_bytes_mod_order(&b));
        assert_comb_agrees(&CombTable::new(&point), &point, &a, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Acceptance-set equality: an honest triple, then the same triple with
    /// a few random bit flips in R, S, the key bytes and the message —
    /// singly and together — gets the same `Ok` / `Err(variant)` from the
    /// kernel and the oracle.
    #[test]
    fn mutated_triples_get_the_same_verdict(
        seed in any::<[u8; 32]>(),
        message in proptest::collection::vec(any::<u8>(), 0..96),
        flips in proptest::collection::vec((0usize..4, any::<usize>(), 0u8..8), 1..4),
    ) {
        let triples = mutated_triples(seed, &message, &flips);
        let (key, message, signature) = &triples[0];
        prop_assert_eq!(verify_oracle(key, message, signature), Ok(()));
        for (key, message, signature) in &triples {
            assert_same_verdict(key, message, signature);
        }
    }
}
