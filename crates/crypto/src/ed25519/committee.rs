//! The public keys of a simulated committee, with the signatures already
//! verified under them and a comb table for each key checked often.
//!
//! The nodes of a simulated run re-check each other's work: an
//! endorsement is verified by every receiver of the PROPOSAL carrying it,
//! again inside every digest vector built from it, again by the BFT
//! validity predicate, at each of nine nodes. Verification is a pure
//! function of its inputs, so a [`Committee`] remembers which inputs have
//! passed and runs the check once per distinct request. What does run the
//! check is always one of the same nine keys — a committee serves every
//! run of a sweep group — so once a key has been checked a few times the
//! committee checks it against a fixed-base table of that key.

use super::point::{CombTable, EdwardsPoint};
use super::scalar::Scalar;
use super::{Signature, SignatureError, VerifyingKey, VERIFIES};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Straus passes a committee runs under one key before it builds that
/// key's comb table (see [`Committee`]).
const STRAUS_PASSES: u8 = 3;

/// One key of a committee, how many Straus passes the committee has run
/// under it, and — after [`STRAUS_PASSES`] of them — its comb table.
#[derive(Debug)]
struct Member {
    key: VerifyingKey,
    straus_passes: Cell<u8>,
    table: OnceCell<CombTable>,
}

impl Member {
    /// `[k](−A) + [S]B` for this member's key A: with the lone-check
    /// Straus kernel the first [`STRAUS_PASSES`] times, with the comb
    /// every later time, building the table the first of those.
    fn r_prime(&self, k: &Scalar, s: &Scalar) -> EdwardsPoint {
        let straus_passes = self.straus_passes.get();
        if straus_passes < STRAUS_PASSES {
            self.straus_passes.set(straus_passes + 1);
            return self.key.straus(k, s);
        }
        self.table
            .get_or_init(|| self.key.comb_table())
            .mul_add_basepoint(k, s)
    }
}

/// The verifying keys of a committee, indexed by node, and the requests
/// — (signer, R, S, message) — that have passed verification under them.
///
/// [`Committee::verify`] is the only way in: it answers `Ok` from the set
/// when the same request passed before, without hashing anything, and
/// otherwise runs the check of [`VerifyingKey::verify`] and records the
/// request if — and only if — it passed. The signer's index stands for
/// its key, so the set holds exactly the inputs (A, R, S, M) the verdict
/// is a function of. A failure is never stored, so a bad signature costs
/// the full check every time it is shown and can never be answered from
/// memory.
///
/// The check itself is the Straus pass the first three times the
/// committee runs it under a key. The fourth time, the committee builds
/// that key's comb table (12 KiB; counted in
/// [`Work::key_tables`](super::Work::key_tables)) and checks against it
/// from then on. A table costs about 1.4 Straus passes to build and makes
/// each later pass about half of one, so it pays for itself only on a key
/// checked three or more times after it is built. Committees see few
/// passes or many, and the rule builds for the many:
///
/// * the default `dirsim frontier`: of 810 key-committees, 253 make no
///   pass, 524 make one and 33 make two — no table;
/// * a lone Current or Synchronous run: one pass per key — no table;
/// * nine BFT nodes each with a committee of its own (the consensus
///   crate's tests, the benchmark's decision probe): of 81
///   key-committees, 45 make two passes and 18 make three — no table
///   (building at the second pass made that decision ≈ 50 % slower);
/// * `dirsim clients`: every key-committee makes 11 to 14 (48 make 11,
///   120 make 13, 48 make 14) — 216 tables, one per key and seed group;
///   a lone ICPS run builds nine.
///
/// A clone shares the set and the tables with its original: build one
/// committee and hand every node of a simulated run a clone, and a
/// signature is checked once rather than once per node and message. Runs
/// on the same keys may share one committee too — a sweep builds one per
/// group of runs with the same seed and committee size — and then a
/// signature is checked once per group. The set and the tables are freed
/// with the last clone. `Committee::from(keys)`, or collecting an
/// iterator of keys, starts a set and tables of its own. Sharing is by
/// `Rc`, so a committee stays on the thread that built it.
#[derive(Clone, Debug)]
pub struct Committee {
    members: Rc<[Member]>,
    verified: Rc<RefCell<Verified>>,
}

/// The messages that passed under each (signer, signature).
type Verified = HashMap<(usize, Signature), Vec<Box<[u8]>>>;

impl From<Vec<VerifyingKey>> for Committee {
    fn from(keys: Vec<VerifyingKey>) -> Self {
        Committee {
            members: keys
                .into_iter()
                .map(|key| Member {
                    key,
                    straus_passes: Cell::new(0),
                    table: OnceCell::new(),
                })
                .collect(),
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
        self.members.len()
    }

    /// Whether the committee has no keys.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
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
        let member = self
            .members
            .get(signer)
            .ok_or(SignatureError::UnknownSigner)?;
        let request = (signer, *signature);
        if let Some(messages) = self.verified.borrow().get(&request) {
            if messages.iter().any(|passed| **passed == *message) {
                return Ok(());
            }
        }
        let challenge = member.key.challenge(message, signature);
        member
            .key
            .check(&challenge, signature, |k, s| member.r_prime(k, s))?;
        self.verified
            .borrow_mut()
            .entry(request)
            .or_default()
            .push(message.into());
        Ok(())
    }

    /// How many requests the set holds.
    #[cfg(test)]
    fn stored(&self) -> usize {
        self.verified.borrow().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::oracle::acceptance_set;
    use super::super::{work, SigningKey};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, HashSet};

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

        // Every triple three times, in shuffled order, alternating between
        // two clones of one committee. A failure runs the kernel at every
        // ask, so from a key's fourth multiplication on it reaches the
        // comb as well as the first passes' Straus kernel.
        let mut asks: Vec<usize> = (0..3).flat_map(|_| 0..triples.len()).collect();
        for i in (1..asks.len()).rev() {
            asks.swap(i, rng.gen_range(0..=i));
        }
        let committee = Committee::from(keys.clone());
        let sibling = committee.clone();
        let tables_before = work().key_tables;
        let mut passed: HashSet<(usize, &[u8], Signature)> = HashSet::new();
        let mut multiplications = vec![0u32; keys.len()];
        let (mut accepted, mut refused) = (0, 0);
        for (turn, &ask) in asks.iter().enumerate() {
            let (signer, message, signature) = &triples[ask];
            let asked = if turn % 2 == 0 { &committee } else { &sibling };
            let want = keys[*signer].verify(message, signature);
            let (got, requests, passes) = counted(|| asked.verify(*signer, message, signature));
            assert_eq!(got, want, "signer {signer} signature {signature:?}");
            assert_eq!(requests, 1);
            if passes == 1 && got != Err(SignatureError::NonCanonicalScalar) {
                multiplications[*signer] += 1;
            }
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
        assert!(accepted >= 3 * 128 && refused > accepted, "not vacuous");
        // The set holds exactly the (signer, message, signature) requests
        // that passed, so no failing one is in it.
        assert_eq!(committee.stored(), passed.len());
        // One table for each key multiplied more than three times, and most
        // keys were: the comb ran.
        let tabled = multiplications
            .iter()
            .filter(|&&n| n > u32::from(STRAUS_PASSES))
            .count();
        assert_eq!(work().key_tables - tables_before, tabled as u64);
        assert!(
            tabled * 2 > keys.len(),
            "not vacuous: {tabled} of {}",
            keys.len()
        );
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
        assert_eq!(committee.stored(), 1);
    }

    #[test]
    fn a_key_gets_its_table_at_its_fourth_multiplication() {
        let signing = SigningKey::from_seed([22; 32]);
        let committee = Committee::from(vec![signing.verifying_key()]);
        let sibling = committee.clone();
        let tables = || work().key_tables;
        let start = tables();
        let signatures = [&b"one"[..], b"two", b"six"].map(|m| signing.sign(m));
        // A refused S multiplies nothing, so it counts for nothing.
        let mut non_canonical = signatures[0];
        non_canonical.s = [0xff; 32];
        assert_eq!(
            committee.verify(0, b"one", &non_canonical),
            Err(SignatureError::NonCanonicalScalar)
        );
        // Three Straus passes, one of them a failure, on either clone; a
        // repeat runs nothing.
        for (asked, message, signature, verdict, passes) in [
            (&committee, &b"one"[..], 0, Ok(()), 1),
            (&sibling, b"one", 0, Ok(()), 0),
            (&committee, b"two", 0, Err(SignatureError::BadSignature), 1),
            (&sibling, b"two", 1, Ok(()), 1),
        ] {
            let asked = || asked.verify(0, message, &signatures[signature]);
            assert_eq!(counted(asked), (verdict, 1, passes));
        }
        assert_eq!(tables(), start);
        // The fourth builds the table, which the clone shares; a failure
        // that reaches the comb is still refused.
        assert_eq!(
            counted(|| committee.verify(0, b"six", &signatures[2])),
            (Ok(()), 1, 1)
        );
        assert_eq!(tables(), start + 1);
        assert_eq!(
            sibling.verify(0, b"six", &signatures[0]),
            Err(SignatureError::BadSignature)
        );
        assert_eq!(tables(), start + 1);
        // A fresh committee on the same key starts over.
        let stranger = Committee::from(vec![signing.verifying_key()]);
        for message in [b"one", b"two", b"six", b"ten"] {
            stranger.verify(0, message, &signatures[0]).ok();
        }
        assert_eq!(tables(), start + 2);
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
