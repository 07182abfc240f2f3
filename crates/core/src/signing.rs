//! Signature domains shared by the three directory protocols.
//!
//! Every signature in the system is over a domain-separated SHA-256
//! digest, tagged with the run id so that messages cannot be replayed
//! across protocol instances (each hourly consensus run is one instance).

use partialtor_crypto::{sha256, Committee, Digest32, Signature, SigningKey};

/// Digest signed when an authority endorses a consensus document.
pub fn consensus_sig_digest(run_id: u64, consensus: Digest32) -> Digest32 {
    sha256::digest_parts(&[
        b"dir-consensus-sig",
        &run_id.to_le_bytes(),
        consensus.as_bytes(),
    ])
}

/// Digest signed by authority `subject` over its own document (the
/// `σ_i(i, h_i)` of the paper), or by an endorser over `(subject, h)`.
/// `digest = None` encodes ⊥ (the timeout endorsement `σ_k(j, ⊥)`).
pub fn doc_sig_digest(run_id: u64, subject: u8, digest: Option<Digest32>) -> Digest32 {
    let marker: &[u8] = match &digest {
        Some(d) => d.as_bytes(),
        None => b"<bottom>",
    };
    sha256::digest_parts(&[b"icps-doc", &run_id.to_le_bytes(), &[subject], marker])
}

/// Digest signed in the Dolev–Strong chain of the synchronous protocol.
pub fn ds_sig_digest(run_id: u64, pack_digest: Digest32) -> Digest32 {
    sha256::digest_parts(&[b"ds-chain", &run_id.to_le_bytes(), pack_digest.as_bytes()])
}

/// A signature over a consensus digest by one authority.
#[derive(Clone, Debug)]
pub struct SigRecord {
    /// The signing authority.
    pub authority: u8,
    /// The consensus digest signed.
    pub digest: Digest32,
    /// The signature over [`consensus_sig_digest`].
    pub signature: Signature,
}

impl SigRecord {
    /// Creates a record by signing `digest`.
    pub fn create(run_id: u64, authority: u8, digest: Digest32, key: &SigningKey) -> Self {
        let signature = key.sign(consensus_sig_digest(run_id, digest).as_bytes());
        SigRecord {
            authority,
            digest,
            signature,
        }
    }

    /// Verifies the record against the committee keys.
    pub fn verify(&self, run_id: u64, keys: &Committee) -> bool {
        keys.verify(
            self.authority as usize,
            consensus_sig_digest(run_id, self.digest).as_bytes(),
            &self.signature,
        )
        .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partialtor_crypto::SigningKey;

    #[test]
    fn sig_record_roundtrip() {
        let key = SigningKey::from_seed([9; 32]);
        let keys = Committee::from(vec![key.verifying_key()]);
        let digest = sha256::digest(b"consensus");
        let rec = SigRecord::create(5, 0, digest, &key);
        assert!(rec.verify(5, &keys));
        assert!(!rec.verify(6, &keys), "other run id must fail");
    }

    #[test]
    fn sig_record_rejects_unknown_authority() {
        let key = SigningKey::from_seed([9; 32]);
        let digest = sha256::digest(b"consensus");
        let mut rec = SigRecord::create(5, 0, digest, &key);
        rec.authority = 3;
        assert!(!rec.verify(5, &vec![key.verifying_key()].into()));
    }

    #[test]
    fn domains_are_separated() {
        let d = sha256::digest(b"x");
        assert_ne!(consensus_sig_digest(1, d), ds_sig_digest(1, d));
        assert_ne!(doc_sig_digest(1, 0, Some(d)), doc_sig_digest(1, 1, Some(d)));
        assert_ne!(doc_sig_digest(1, 0, Some(d)), doc_sig_digest(1, 0, None));
    }
}
