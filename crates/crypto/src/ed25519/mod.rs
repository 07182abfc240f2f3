//! Ed25519 signatures (RFC 8032).
//!
//! Keys are derived from a 32-byte seed exactly as specified: the seed is
//! expanded with SHA-512, the lower half is clamped into the secret scalar
//! and the upper half seeds the deterministic nonce. Verification uses the
//! strict equation `[S]B = R + [k]A` with canonical-encoding checks on both
//! `S` and `R`.
//!
//! [`VerifyingKey::verify`] is the pure primitive: every call runs the
//! whole check, with the Straus kernel. A [`Committee`] puts a set of
//! already-verified signatures in front of the same check for the nodes of
//! a simulated run, and from a key's fourth check on runs it against that
//! key's own comb table (`point::CombTable`).
//!
//! Every [`SigningKey::sign`], every verification request and every run
//! of the check is counted per thread; [`work`] reads the counters.

mod committee;
pub mod field;
pub mod point;
pub mod scalar;

#[cfg(test)]
mod oracle;

pub use committee::Committee;

use crate::sha512;
use point::{CombTable, EdwardsPoint};
use scalar::Scalar;
use std::cell::Cell;

thread_local! {
    static SIGNS: Cell<u64> = const { Cell::new(0) };
    static VERIFIES: Cell<u64> = const { Cell::new(0) };
    static KERNEL_VERIFIES: Cell<u64> = const { Cell::new(0) };
    static KEY_TABLES: Cell<u64> = const { Cell::new(0) };
}

/// Signature operations the calling thread has started since it began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Work {
    /// Calls of [`SigningKey::sign`].
    pub signs: u64,
    /// Verifications asked for — calls of [`VerifyingKey::verify`] and of
    /// [`Committee::verify`] — whatever they returned.
    pub verifies: u64,
    /// Verifications that ran the check itself (one double-scalar pass,
    /// Straus or comb, unless `S` was refused first): every
    /// [`VerifyingKey::verify`], and each [`Committee::verify`] that missed
    /// its set.
    pub kernel_verifies: u64,
    /// Comb tables a [`Committee`] built for one of its keys: at most one
    /// per key and committee, at the key's fourth pass.
    pub key_tables: u64,
}

/// The calling thread's signature-work counters. They only grow, so the
/// difference of two readings is exactly the work done in between on this
/// thread — for instance by one simulated protocol run.
pub fn work() -> Work {
    Work {
        signs: SIGNS.get(),
        verifies: VERIFIES.get(),
        kernel_verifies: KERNEL_VERIFIES.get(),
        key_tables: KEY_TABLES.get(),
    }
}

/// Errors returned by signature verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignatureError {
    /// The signature's `S` component is not a canonical scalar.
    NonCanonicalScalar,
    /// The signer's public key does not decode to a curve point.
    InvalidPublicKey,
    /// The verification equation failed.
    BadSignature,
    /// The signer's index is outside the [`Committee`] asked.
    UnknownSigner,
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::NonCanonicalScalar => write!(f, "non-canonical signature scalar"),
            SignatureError::InvalidPublicKey => write!(f, "invalid public key encoding"),
            SignatureError::BadSignature => write!(f, "signature verification failed"),
            SignatureError::UnknownSigner => write!(f, "signer index outside the committee"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// A detached Ed25519 signature (R ‖ S, 64 bytes on the wire).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Signature {
    r: [u8; 32],
    s: [u8; 32],
}

impl Signature {
    /// Wire size in bytes (the `κ` of the paper's complexity analysis).
    pub const BYTES: usize = 64;

    /// Serializes as R ‖ S.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }

    /// Parses an R ‖ S encoding. Canonicality is checked at verify time.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        Signature { r, s }
    }
}

/// An Ed25519 verifying (public) key: the 32 compressed bytes, which are
/// its identity for equality and hashing, and the point they decode to.
#[derive(Clone, Copy)]
pub struct VerifyingKey {
    compressed: [u8; 32],
    point: EdwardsPoint,
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.compressed == other.compressed
    }
}

impl Eq for VerifyingKey {}

impl std::hash::Hash for VerifyingKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.compressed.hash(state);
    }
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyingKey")
            .field("compressed", &self.compressed)
            .finish()
    }
}

impl VerifyingKey {
    /// Wire size in bytes.
    pub const BYTES: usize = 32;

    /// Parses a compressed public key, rejecting undecodable encodings
    /// (non-canonical y, off the curve, or x = 0 with the sign bit set).
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self, SignatureError> {
        let point = EdwardsPoint::decompress(bytes).ok_or(SignatureError::InvalidPublicKey)?;
        Ok(VerifyingKey {
            compressed: *bytes,
            point,
        })
    }

    /// The compressed encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.compressed
    }

    /// Verifies `signature` over `message`.
    ///
    /// Implements the strict, cofactorless check (like Tor's ed25519 use):
    /// a non-canonical `S` (≥ l) is refused first; then
    /// `R′ = [S]B − [k]A` is computed in one interleaved double-scalar
    /// (Straus) pass, re-encoded, and compared byte for byte with the
    /// signature's `R`.
    /// `R` itself is never decompressed: an `R` that is off the curve,
    /// non-canonical or otherwise not the encoding of `R′` fails that
    /// comparison, because re-encoding only ever yields canonical bytes.
    /// The key was already decoded by whoever constructed it.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        VERIFIES.set(VERIFIES.get() + 1);
        self.check(&self.challenge(message, signature), signature, |k, s| {
            self.straus(k, s)
        })
    }

    /// The challenge hash `SHA-512(R ‖ A ‖ M)`, before reduction mod l.
    fn challenge(&self, message: &[u8], signature: &Signature) -> [u8; 64] {
        sha512::digest_parts(&[&signature.r, &self.compressed, message])
    }

    /// `[k](−A) + [S]B` in one Straus pass: the kernel of lone checks.
    fn straus(&self, k: &Scalar, s: &Scalar) -> EdwardsPoint {
        EdwardsPoint::double_scalar_mul_basepoint(k, &self.point.neg(), s)
    }

    /// The table [`Committee`] checks this key against from its fourth
    /// pass on; `mul_add_basepoint(k, S)` on it is `[k](−A) + [S]B`.
    fn comb_table(&self) -> CombTable {
        KEY_TABLES.set(KEY_TABLES.get() + 1);
        CombTable::new(&self.point.neg())
    }

    /// The check of [`VerifyingKey::verify`] with the message already
    /// hashed into `challenge`, and `R′ = [k](−A) + [S]B` computed by
    /// `kernel` — called once, only if `S` is canonical.
    fn check(
        &self,
        challenge: &[u8; 64],
        signature: &Signature,
        kernel: impl FnOnce(&Scalar, &Scalar) -> EdwardsPoint,
    ) -> Result<(), SignatureError> {
        KERNEL_VERIFIES.set(KERNEL_VERIFIES.get() + 1);
        let s =
            Scalar::from_canonical_bytes(&signature.s).ok_or(SignatureError::NonCanonicalScalar)?;
        let k = Scalar::from_bytes_mod_order_wide(challenge);

        if kernel(&k, &s).compress() == signature.r {
            Ok(())
        } else {
            Err(SignatureError::BadSignature)
        }
    }
}

/// An Ed25519 signing (secret) key.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    secret_scalar: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed (RFC 8032 key generation).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let h = sha512::digest(&seed);
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&h[..32]);
        scalar_bytes[0] &= 248;
        scalar_bytes[31] &= 127;
        scalar_bytes[31] |= 64;
        // Reducing mod l is sound: B has order l, so [s]B = [s mod l]B.
        let secret_scalar = Scalar::from_bytes_mod_order(&scalar_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let point = EdwardsPoint::basepoint_mul(&secret_scalar);
        let public = VerifyingKey {
            compressed: point.compress(),
            point,
        };
        SigningKey {
            seed,
            secret_scalar,
            prefix,
            public,
        }
    }

    /// Generates a key from an RNG.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(seed)
    }

    /// Returns the seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Returns the corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message` (deterministic per RFC 8032).
    pub fn sign(&self, message: &[u8]) -> Signature {
        SIGNS.set(SIGNS.get() + 1);
        let r_bytes = sha512::digest_parts(&[&self.prefix, message]);
        let r = Scalar::from_bytes_mod_order_wide(&r_bytes);
        let r_point = EdwardsPoint::basepoint_mul(&r).compress();
        let k_bytes = sha512::digest_parts(&[&r_point, &self.public.compressed, message]);
        let k = Scalar::from_bytes_mod_order_wide(&k_bytes);
        let s = r.add(&k.mul(&self.secret_scalar));
        Signature {
            r: r_point,
            s: s.to_bytes(),
        }
    }
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the seed.
        write!(
            f,
            "SigningKey(pub={})",
            crate::hex::encode(&self.public.compressed[..8])
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    struct Vector {
        seed: &'static str,
        public: &'static str,
        message: &'static str,
        signature: &'static str,
    }

    /// RFC 8032 §7.1 test vectors 1–3.
    const VECTORS: [Vector; 3] = [
        Vector {
            seed: "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            public: "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            message: "",
            signature: "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                        5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        },
        Vector {
            seed: "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            public: "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            message: "72",
            signature: "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                        085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        },
        Vector {
            seed: "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            public: "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            message: "af82",
            signature: "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                        18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        },
    ];

    fn clean(s: &str) -> String {
        s.replace(char::is_whitespace, "")
    }

    #[test]
    fn rfc8032_vectors() {
        for (i, v) in VECTORS.iter().enumerate() {
            let seed: [u8; 32] = hex::decode_array(&clean(v.seed)).unwrap();
            let key = SigningKey::from_seed(seed);
            assert_eq!(
                hex::encode(&key.verifying_key().to_bytes()),
                clean(v.public),
                "public key, vector {i}"
            );
            let message = hex::decode(&clean(v.message)).unwrap();
            let sig = key.sign(&message);
            assert_eq!(
                hex::encode(&sig.to_bytes()),
                clean(v.signature),
                "signature, vector {i}"
            );
            key.verifying_key()
                .verify(&message, &sig)
                .expect("vector verifies");
        }
    }

    #[test]
    fn rejects_wrong_message() {
        let key = SigningKey::from_seed([1u8; 32]);
        let sig = key.sign(b"hello");
        assert_eq!(
            key.verifying_key().verify(b"hellp", &sig),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn rejects_wrong_key() {
        let key1 = SigningKey::from_seed([1u8; 32]);
        let key2 = SigningKey::from_seed([2u8; 32]);
        let sig = key1.sign(b"msg");
        assert!(key2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn rejects_tampered_signature() {
        let key = SigningKey::from_seed([3u8; 32]);
        let sig = key.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[0] ^= 1;
        let bad = Signature::from_bytes(&bytes);
        assert!(key.verifying_key().verify(b"msg", &bad).is_err());
    }

    #[test]
    fn rejects_non_canonical_s() {
        let key = SigningKey::from_seed([4u8; 32]);
        let sig = key.sign(b"msg");
        let mut bytes = sig.to_bytes();
        // Set S to l (non-canonical but > l test: all 0xff with top bits).
        for b in bytes[32..].iter_mut() {
            *b = 0xff;
        }
        bytes[63] = 0x1f;
        let bad = Signature::from_bytes(&bytes);
        assert_eq!(
            key.verifying_key().verify(b"msg", &bad),
            Err(SignatureError::NonCanonicalScalar)
        );
    }

    #[test]
    fn signature_roundtrip() {
        let key = SigningKey::from_seed([5u8; 32]);
        let sig = key.sign(b"roundtrip");
        let sig2 = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(sig, sig2);
    }

    #[test]
    fn deterministic_signing() {
        let key = SigningKey::from_seed([6u8; 32]);
        assert_eq!(key.sign(b"x"), key.sign(b"x"));
        assert_ne!(key.sign(b"x"), key.sign(b"y"));
    }

    #[test]
    fn generate_produces_valid_keys() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..4 {
            let key = SigningKey::generate(&mut rng);
            let sig = key.sign(b"generated");
            key.verifying_key().verify(b"generated", &sig).unwrap();
        }
    }

    #[test]
    fn public_key_from_bytes_validates() {
        let key = SigningKey::from_seed([7u8; 32]);
        let pk = VerifyingKey::from_bytes(&key.verifying_key().to_bytes()).unwrap();
        assert_eq!(pk, key.verifying_key());
        // An all-0xff encoding has y ≥ p and must be rejected.
        let bad = [0xffu8; 32];
        assert!(VerifyingKey::from_bytes(&bad).is_err());
    }
}
