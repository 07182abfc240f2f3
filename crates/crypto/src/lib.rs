//! From-scratch cryptographic primitives for the `partialtor-rs` reproduction.
//!
//! The paper's protocols rely on collision-resistant digests (32 bytes) and
//! unforgeable signatures (64 bytes). This crate implements the exact
//! primitives the Tor directory protocol would deploy — SHA-256 / SHA-512 and
//! Ed25519 (RFC 8032) — without any external cryptography dependencies, so
//! that the simulated message sizes (`κ` = 64 B signatures, 32 B digests in
//! the paper's complexity analysis) are faithful.
//!
//! # Scope
//!
//! The implementation is *functionally* complete and validated against the
//! RFC 8032 and FIPS 180-4 test vectors, but it is written for a research
//! simulator: scalar multiplication is not constant-time and no zeroization
//! is performed. Verification recodes both scalars into non-adjacent form
//! and branches on every digit; signing and key derivation index a table
//! by the digits of the *secret* nonce and scalar, so timing and cache
//! behaviour leak them. The tables of base-point multiples (30 KiB) are
//! process-wide: built once on first use, behind a `OnceLock`, and shared
//! by every thread. Do not lift it into an adversarial production
//! environment as-is.
//!
//! [`VerifyingKey::verify`] always runs the whole RFC 8032 check. A
//! [`Committee`] — the keys of one simulated run plus the set of triples
//! that have passed under them — is what the protocol nodes ask instead:
//! nine simulated authorities in one process re-verify the same
//! endorsements and certificates dozens of times, and the committee they
//! share runs the check once per distinct triple. Its set is keyed by
//! `(A, R, S, k)` with `k = SHA-512(R ‖ A ‖ M)` — exactly the inputs of the
//! equation `[S]B = R + [k]A`, so answering from it assumes nothing the
//! signature scheme does not (not even that SHA-512 is collision-free:
//! two messages with one `k` *do* get one verdict). Only `Ok` is stored:
//! a set entry is a proof that the kernel accepted those inputs, and a
//! forged signature pays for the full check every time it is presented.
//! The set belongs to the committee and is dropped with it; there is no
//! process-wide or per-thread memo, and nothing to reset between runs.
//!
//! # Examples
//!
//! ```
//! use partialtor_crypto::{sha256, SigningKey};
//!
//! let key = SigningKey::from_seed([7u8; 32]);
//! let msg = b"consensus document";
//! let sig = key.sign(msg);
//! key.verifying_key().verify(msg, &sig).expect("valid signature");
//!
//! let digest = sha256::digest(msg);
//! assert_eq!(digest.as_bytes().len(), 32);
//! ```

pub mod ed25519;
pub mod hex;
pub mod sha256;
pub mod sha512;

pub use ed25519::{Committee, Signature, SignatureError, SigningKey, VerifyingKey};
pub use sha256::Digest32;

/// Convenience alias used by the directory protocols for document digests.
pub type DocDigest = Digest32;
