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
//! [`VerifyingKey::verify`] always runs the whole RFC 8032 check, with
//! the interleaved (Straus) double-scalar pass. A [`Committee`] — the keys
//! of one simulated run plus the set of requests that have passed under
//! them — is what the protocol nodes ask instead: nine simulated
//! authorities in one process re-verify the same endorsements and
//! certificates dozens of times, and the committee they share runs the
//! check once per distinct request. Its set is keyed by
//! `(signer, R, S, M)`; within one committee the signer's index stands
//! for its key `A`, so that is `(A, R, S, M)` — the inputs the verdict is
//! a function of, and answering from it assumes nothing the signature
//! scheme does not. A repeat is answered before SHA-512 runs. Only `Ok`
//! is stored: a set entry is a proof that the kernel accepted those
//! inputs, and a forged signature pays for the full check every time it
//! is presented. From a key's fourth check on, the committee runs that
//! check as a comb against a 12 KiB table of multiples of the key, built
//! once and counted in `ed25519::Work::key_tables`; the comb computes the
//! same point as the Straus pass, so the verdict is the same. The set and
//! the tables belong to the committee and are dropped with it; there is
//! no process-wide or per-thread memo, and nothing to reset between runs.
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
