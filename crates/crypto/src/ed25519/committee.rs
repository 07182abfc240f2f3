//! The public keys of a simulated committee, with the signatures already
//! verified under them.
//!
//! The nodes of a simulated run re-check each other's work: an
//! endorsement is verified by every receiver of the PROPOSAL carrying it,
//! again inside every digest vector built from it, again by the BFT
//! validity predicate, at each of nine nodes. Verification is a pure
//! function of its inputs, so a [`Committee`] remembers which inputs have
//! passed and runs the check once per distinct triple.

use super::{Signature, SignatureError, VerifyingKey, VERIFIES};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// The inputs of the verification equation `[S]B = R + [k]A`: the verdict
/// of [`VerifyingKey::verify`] is a function of these 160 bytes and of
/// nothing else, so two triples that agree on them get the same verdict
/// whatever their messages were.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Checked {
    a: [u8; 32],
    r: [u8; 32],
    s: [u8; 32],
    /// `SHA-512(R ‖ A ‖ M)`, all 64 bytes.
    k: [u8; 64],
}

/// The verifying keys of a committee, indexed by node, and the set of
/// (key, message, signature) triples that have passed verification under
/// them.
///
/// [`Committee::verify`] is the only way in: it answers `Ok` from the set
/// when the same inputs passed before, and otherwise runs the check of
/// [`VerifyingKey::verify`] and records the triple if — and only if — it
/// passed. A failure is never stored, so a bad signature costs the full
/// check every time it is shown and can never be answered from memory.
///
/// A clone shares the set with its original: build one committee and
/// hand every node of a simulated run a clone, and a signature is checked
/// once rather than once per node and message. Runs on the same keys may
/// share one committee too — a sweep builds one per group of runs with
/// the same seed and committee size — and then a signature is checked
/// once per group. The set is freed with the last clone.
/// `Committee::from(keys)`, or collecting an iterator of keys, starts a
/// set of its own. Sharing is by `Rc`, so a committee stays on the thread
/// that built it.
#[derive(Clone, Debug)]
pub struct Committee {
    keys: Rc<[VerifyingKey]>,
    verified: Rc<RefCell<HashSet<Checked>>>,
}

impl From<Vec<VerifyingKey>> for Committee {
    fn from(keys: Vec<VerifyingKey>) -> Self {
        Committee {
            keys: keys.into(),
            verified: Rc::default(),
        }
    }
}

impl FromIterator<VerifyingKey> for Committee {
    fn from_iter<I: IntoIterator<Item = VerifyingKey>>(keys: I) -> Self {
        Vec::from_iter(keys).into()
    }
}

impl Committee {
    /// Number of keys (nodes) in the committee.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the committee has no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies `signature` over `message` under node `signer`'s key, with
    /// the verdict [`VerifyingKey::verify`] gives; a `signer` outside the
    /// committee is [`SignatureError::UnknownSigner`].
    pub fn verify(
        &self,
        signer: usize,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), SignatureError> {
        VERIFIES.set(VERIFIES.get() + 1);
        let key = self.keys.get(signer).ok_or(SignatureError::UnknownSigner)?;
        let checked = Checked {
            a: key.compressed,
            r: signature.r,
            s: signature.s,
            k: key.challenge(message, signature),
        };
        if self.verified.borrow().contains(&checked) {
            return Ok(());
        }
        key.verify_challenge(&checked.k, signature)?;
        self.verified.borrow_mut().insert(checked);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::oracle::{hostile_triples, mutated_triples, Triple};
    use super::super::{work, SigningKey};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The triples the kernel was accepted on: the hostile table, and 128
    /// honest triples each with one to three bit flips, singly and
    /// together.
    fn acceptance_set(rng: &mut StdRng) -> Vec<Triple> {
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

    /// (requests, kernel passes) `ask` adds to this thread's counters.
    fn counted<T>(ask: impl FnOnce() -> T) -> (T, u64, u64) {
        let before = work();
        let answer = ask();
        let after = work();
        (
            answer,
            after.verifies - before.verifies,
            after.kernel_verifies - before.kernel_verifies,
        )
    }

    #[test]
    fn the_set_changes_no_verdict() {
        let mut rng = StdRng::seed_from_u64(19);
        // One committee of every key in the set that decodes at all; a key
        // that does not is refused by `from_bytes` on either path.
        let mut signers: BTreeMap<[u8; 32], usize> = BTreeMap::new();
        let mut keys = Vec::new();
        let triples: Vec<(usize, Vec<u8>, Signature)> = acceptance_set(&mut rng)
            .into_iter()
            .filter_map(|(key, message, signature)| {
                let decoded = VerifyingKey::from_bytes(&key).ok()?;
                let signer = *signers.entry(key).or_insert_with(|| {
                    keys.push(decoded);
                    keys.len() - 1
                });
                Some((signer, message, Signature::from_bytes(&signature)))
            })
            .collect();
        assert!(triples.len() > 4_000 && keys.len() > 128, "not vacuous");

        // Every triple twice, in shuffled order, alternating between two
        // clones of one committee.
        let mut asks: Vec<usize> = (0..triples.len()).chain(0..triples.len()).collect();
        for i in (1..asks.len()).rev() {
            asks.swap(i, rng.gen_range(0..=i));
        }
        let committee = Committee::from(keys.clone());
        let sibling = committee.clone();
        let mut passed: HashSet<(usize, &[u8], Signature)> = HashSet::new();
        let (mut accepted, mut refused) = (0, 0);
        for (turn, &ask) in asks.iter().enumerate() {
            let (signer, message, signature) = &triples[ask];
            let asked = if turn % 2 == 0 { &committee } else { &sibling };
            let want = keys[*signer].verify(message, signature);
            let (got, requests, passes) = counted(|| asked.verify(*signer, message, signature));
            assert_eq!(got, want, "signer {signer} signature {signature:?}");
            assert_eq!(requests, 1);
            match want {
                Ok(()) => {
                    // The kernel runs the first time this triple is shown
                    // (the table holds a few triples twice) and never again.
                    let first = passed.insert((*signer, message, *signature));
                    assert_eq!(passes, first as u64);
                    accepted += 1;
                }
                Err(_) => {
                    assert_eq!(passes, 1, "a failure is never answered from the set");
                    refused += 1;
                }
            }
        }
        assert!(accepted >= 2 * 128 && refused > accepted, "not vacuous");
        // The set holds exactly the triples that passed, so no failing
        // triple is in it.
        assert_eq!(committee.verified.borrow().len(), passed.len());
    }

    fn flip(bytes: &[u8; 32], bit: usize) -> [u8; 32] {
        let mut flipped = *bytes;
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    }

    #[test]
    fn a_flipped_bit_in_any_input_misses() {
        let signing = SigningKey::from_seed([19; 32]);
        let key = signing.verifying_key();
        // The nearest other key: the first single-bit flip that decodes.
        let neighbour = (0..256)
            .find_map(|bit| VerifyingKey::from_bytes(&flip(&key.compressed, bit)).ok())
            .expect("some flip decodes");
        let committee = Committee::from(vec![key, neighbour]);
        let message = b"consensus";
        let signature = signing.sign(message);
        assert_eq!(
            counted(|| committee.verify(0, message, &signature)),
            (Ok(()), 1, 1)
        );
        assert_eq!(
            counted(|| committee.verify(0, message, &signature)),
            (Ok(()), 1, 0)
        );

        let flipped_r = Signature {
            r: flip(&signature.r, 7),
            ..signature
        };
        let flipped_s = Signature {
            s: flip(&signature.s, 100),
            ..signature
        };
        for _ in 0..2 {
            for (signer, message, signature) in [
                (1, &message[..], &signature),
                (0, &message[..], &flipped_r),
                (0, &message[..], &flipped_s),
                (0, &b"bonsensus"[..], &signature),
            ] {
                let (got, requests, passes) =
                    counted(|| committee.verify(signer, message, signature));
                assert!(got.is_err());
                assert_eq!((requests, passes), (1, 1));
            }
        }
        assert_eq!(committee.verified.borrow().len(), 1);
    }

    #[test]
    fn a_clone_shares_the_set_and_a_fresh_committee_does_not() {
        let signing = SigningKey::from_seed([20; 32]);
        let keys = vec![signing.verifying_key()];
        let signature = signing.sign(b"vote");
        let committee = Committee::from(keys.clone());
        let sibling = committee.clone();
        let stranger = Committee::from(keys);
        assert_eq!(
            counted(|| committee.verify(0, b"vote", &signature)),
            (Ok(()), 1, 1)
        );
        assert_eq!(
            counted(|| sibling.verify(0, b"vote", &signature)),
            (Ok(()), 1, 0)
        );
        assert_eq!(
            counted(|| stranger.verify(0, b"vote", &signature)),
            (Ok(()), 1, 1)
        );
    }

    #[test]
    fn a_signer_outside_the_committee_is_an_error() {
        let signing = SigningKey::from_seed([21; 32]);
        let committee = Committee::from(vec![signing.verifying_key()]);
        let signature = signing.sign(b"vote");
        assert_eq!((committee.len(), committee.is_empty()), (1, false));
        for signer in [1, 2, usize::MAX] {
            assert_eq!(
                counted(|| committee.verify(signer, b"vote", &signature)),
                (Err(SignatureError::UnknownSigner), 1, 0)
            );
        }
        let nobody = Committee::from(Vec::new());
        assert!(nobody.is_empty());
        assert_eq!(
            nobody.verify(0, b"vote", &signature),
            Err(SignatureError::UnknownSigner)
        );
    }
}
