//! Consensus documents and the Fig. 2 aggregation algorithm.
//!
//! > The relay is included in the consensus document if it appears in at
//! > least t ≥ ⌊n/2⌋ votes. If the relay is included, its name is
//! > determined by the vote with the largest authority ID. Its properties
//! > are determined by the popular vote, with ties broken by: each flag is
//! > not set in case of a tie; the largest version and/or protocol is
//! > selected; the lexicographically larger exit policy summary is
//! > selected. Additionally, the relay's bandwidth is set to the median of
//! > all votes that measure them.   — Fig. 2 of the paper

use crate::authority::AuthorityId;
use crate::relay::{ExitPolicySummary, RelayFlags, RelayId, RelayInfo, TorVersion, FLAG_TABLE};
use crate::vote::{parse_entries, parse_u64, DocError, Vote};
use partialtor_crypto::{hex, sha256, Digest32, Signature, SigningKey, VerifyingKey};
use std::collections::BTreeMap;

/// Header metadata of a consensus document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusMeta {
    /// Start of the validity interval.
    pub valid_after: u64,
    /// Stale time (1 h).
    pub fresh_until: u64,
    /// Invalid time (3 h) — the "three hours" that make consecutive
    /// failures fatal for the whole network (§2.1 of the paper).
    pub valid_until: u64,
}

/// One relay's aggregated entry in the consensus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusEntry {
    /// Identity.
    pub id: RelayId,
    /// Nickname (from the vote with the largest authority id).
    pub nickname: String,
    /// Address (same source as nickname).
    pub address: [u8; 4],
    /// OR port.
    pub or_port: u16,
    /// Dir port.
    pub dir_port: u16,
    /// Majority flags.
    pub flags: RelayFlags,
    /// Popular-vote version.
    pub version: TorVersion,
    /// Popular-vote protocol line.
    pub protocols: String,
    /// Popular-vote exit policy.
    pub exit_policy: ExitPolicySummary,
    /// Median measured bandwidth (kB/s), if anyone measured it.
    pub bandwidth: Option<u32>,
}

/// A consensus document with its accumulated signatures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Consensus {
    /// Header metadata.
    pub meta: ConsensusMeta,
    /// Aggregated entries, sorted by relay identity.
    pub entries: Vec<ConsensusEntry>,
    /// Collected `(authority, signature)` pairs over [`Consensus::digest`].
    pub signatures: Vec<(AuthorityId, Signature)>,
}

impl Consensus {
    /// Encodes the signed body (everything except the signature lines).
    pub fn encode_body(&self) -> String {
        let mut out = String::with_capacity(128 + self.entries.len() * 300);
        out.push_str("network-status-version 3\n");
        out.push_str("vote-status consensus\n");
        out.push_str("consensus-method 28\n");
        out.push_str(&format!("valid-after {}\n", self.meta.valid_after));
        out.push_str(&format!("fresh-until {}\n", self.meta.fresh_until));
        out.push_str(&format!("valid-until {}\n", self.meta.valid_until));
        out.push_str("known-flags Authority BadExit Exit Fast Guard HSDir MiddleOnly Running Stable StaleDesc V2Dir Valid\n");
        for e in &self.entries {
            let info = RelayInfo {
                id: e.id,
                nickname: e.nickname.clone(),
                address: e.address,
                or_port: e.or_port,
                dir_port: e.dir_port,
                flags: e.flags,
                version: e.version,
                protocols: e.protocols.clone(),
                exit_policy: e.exit_policy.clone(),
                bandwidth: e.bandwidth,
                descriptor_digest: Digest32::default(),
            };
            crate::vote::encode_relay(&mut out, &info, false);
        }
        out.push_str("directory-footer\n");
        out
    }

    /// Encodes the body plus `directory-signature` lines.
    pub fn encode(&self) -> String {
        let mut out = self.encode_body();
        self.push_signature_lines(&mut out);
        out
    }

    /// The full encoding and [`Consensus::digest`] from one encode: the
    /// body is hashed before the signature lines are appended to it.
    pub fn encode_with_digest(&self) -> (String, Digest32) {
        let mut out = self.encode_body();
        let digest = sha256::digest(out.as_bytes());
        self.push_signature_lines(&mut out);
        (out, digest)
    }

    fn push_signature_lines(&self, out: &mut String) {
        for (auth, sig) in &self.signatures {
            out.push_str(&format!(
                "directory-signature {} {}\n",
                auth.0,
                hex::encode(&sig.to_bytes())
            ));
        }
    }

    /// Digest of the signed body.
    pub fn digest(&self) -> Digest32 {
        sha256::digest(self.encode_body().as_bytes())
    }

    /// Signs the consensus with an authority key and appends the signature.
    pub fn sign(&mut self, authority: AuthorityId, key: &SigningKey) {
        let sig = key.sign(self.digest().as_bytes());
        self.signatures.push((authority, sig));
    }

    /// Counts the signatures that verify under the given keys (indexed by
    /// authority id). Duplicate authorities count once.
    pub fn valid_signatures(&self, keys: &[VerifyingKey]) -> usize {
        let digest = self.digest();
        let mut seen = std::collections::BTreeSet::new();
        for (auth, sig) in &self.signatures {
            if auth.index() < keys.len()
                && !seen.contains(auth)
                && keys[auth.index()].verify(digest.as_bytes(), sig).is_ok()
            {
                seen.insert(*auth);
            }
        }
        seen.len()
    }

    /// Whether the document carries signatures from a majority of `n`
    /// authorities — Tor's validity rule for consensus documents.
    pub fn is_valid(&self, keys: &[VerifyingKey], n: usize) -> bool {
        self.valid_signatures(keys) > n / 2
    }

    /// Wire size of the full encoding in bytes.
    pub fn wire_size(&self) -> u64 {
        self.encode().len() as u64
    }

    /// Parses a consensus encoding (body and signature lines).
    pub fn parse(text: &str) -> Result<Consensus, DocError> {
        let mut lines = text.lines().enumerate().peekable();
        let mut valid_after = None;
        let mut fresh_until = None;
        let mut valid_until = None;

        for (idx, line) in lines.by_ref() {
            let ln = idx + 1;
            if line.starts_with("known-flags ") {
                break;
            }
            if let Some(rest) = line.strip_prefix("valid-after ") {
                valid_after = Some(parse_u64(rest, ln)?);
            } else if let Some(rest) = line.strip_prefix("fresh-until ") {
                fresh_until = Some(parse_u64(rest, ln)?);
            } else if let Some(rest) = line.strip_prefix("valid-until ") {
                valid_until = Some(parse_u64(rest, ln)?);
            } else if line.starts_with("network-status-version")
                || line.starts_with("vote-status")
                || line.starts_with("consensus-method")
            {
                // Fixed header lines.
            } else {
                return Err(DocError::new(ln, format!("unexpected header line: {line}")));
            }
        }

        let meta = ConsensusMeta {
            valid_after: valid_after.ok_or_else(|| DocError::new(0, "missing valid-after"))?,
            fresh_until: fresh_until.ok_or_else(|| DocError::new(0, "missing fresh-until"))?,
            valid_until: valid_until.ok_or_else(|| DocError::new(0, "missing valid-until"))?,
        };

        let infos = parse_entries(&mut lines, false)?;
        let entries = infos
            .into_iter()
            .map(|i| ConsensusEntry {
                id: i.id,
                nickname: i.nickname,
                address: i.address,
                or_port: i.or_port,
                dir_port: i.dir_port,
                flags: i.flags,
                version: i.version,
                protocols: i.protocols,
                exit_policy: i.exit_policy,
                bandwidth: i.bandwidth,
            })
            .collect();

        let mut signatures = Vec::new();
        for (idx, line) in lines {
            let ln = idx + 1;
            if let Some(rest) = line.strip_prefix("directory-signature ") {
                let (id_str, sig_hex) = rest
                    .split_once(' ')
                    .ok_or_else(|| DocError::new(ln, "signature line needs 2 fields"))?;
                let id: u8 = id_str
                    .parse()
                    .map_err(|_| DocError::new(ln, "bad authority id"))?;
                let bytes = hex::decode_array::<64>(sig_hex)
                    .ok_or_else(|| DocError::new(ln, "bad signature hex"))?;
                signatures.push((AuthorityId(id), Signature::from_bytes(&bytes)));
            } else {
                return Err(DocError::new(
                    ln,
                    format!("unexpected trailer line: {line}"),
                ));
            }
        }

        Ok(Consensus {
            meta,
            entries,
            signatures,
        })
    }
}

/// Aggregates votes into a consensus, per the Fig. 2 rules.
///
/// The inclusion threshold is a strict majority of the votes aggregated
/// (`votes.len() / 2 + 1`); under the paper's robustness assumption this
/// keeps correct inputs decisive whenever they outnumber faulty ones.
///
/// # Panics
///
/// Panics if `votes` is empty — callers always hold at least their own
/// vote.
pub fn aggregate(votes: &[&Vote]) -> Consensus {
    assert!(!votes.is_empty(), "cannot aggregate zero votes");
    let inclusion_threshold = votes.len() / 2 + 1;

    // Meta comes from the (deterministic) median valid-after across votes,
    // so a single skewed clock cannot shift the consensus interval.
    let mut valid_afters: Vec<u64> = votes.iter().map(|v| v.meta.valid_after).collect();
    valid_afters.sort_unstable();
    let valid_after = valid_afters[(valid_afters.len() - 1) / 2];
    let meta = ConsensusMeta {
        valid_after,
        fresh_until: valid_after + 3600,
        valid_until: valid_after + 3 * 3600,
    };

    // Index: relay id → (authority id, entry) for every vote listing it.
    let mut listings: BTreeMap<RelayId, Vec<(AuthorityId, &RelayInfo)>> = BTreeMap::new();
    for vote in votes {
        for entry in vote.entries() {
            listings
                .entry(entry.id)
                .or_default()
                .push((vote.meta.authority, entry));
        }
    }

    let entries = listings
        .into_iter()
        .filter(|(_, listed)| listed.len() >= inclusion_threshold)
        .map(|(id, listed)| aggregate_relay(id, &listed))
        .collect();

    Consensus {
        meta,
        entries,
        signatures: Vec::new(),
    }
}

fn aggregate_relay(id: RelayId, listed: &[(AuthorityId, &RelayInfo)]) -> ConsensusEntry {
    // Name (and address/ports, which travel with it) from the vote with the
    // largest authority id.
    let (_, name_source) = listed
        .iter()
        .max_by_key(|(auth, _)| *auth)
        .expect("listed is non-empty");

    // Flags: set iff strictly more than half of the listing votes set it
    // ("each flag is not set in case of a tie").
    let mut flags = RelayFlags::NONE;
    for (bit, _) in FLAG_TABLE {
        let flag = RelayFlags::from_bits(bit);
        let count = listed
            .iter()
            .filter(|(_, e)| e.flags.contains(flag))
            .count();
        if count * 2 > listed.len() {
            flags.insert(flag);
        }
    }

    let version = *plurality(listed.iter().map(|(_, e)| &e.version));
    let protocols = plurality(listed.iter().map(|(_, e)| &e.protocols)).clone();
    let exit_policy = plurality(listed.iter().map(|(_, e)| &e.exit_policy)).clone();

    // Median of the measured bandwidths (low median for even counts,
    // matching Tor's median-of-measurements behaviour).
    let mut measured: Vec<u32> = listed.iter().filter_map(|(_, e)| e.bandwidth).collect();
    measured.sort_unstable();
    let bandwidth = if measured.is_empty() {
        None
    } else {
        Some(measured[(measured.len() - 1) / 2])
    };

    ConsensusEntry {
        id,
        nickname: name_source.nickname.clone(),
        address: name_source.address,
        or_port: name_source.or_port,
        dir_port: name_source.dir_port,
        flags,
        version,
        protocols,
        exit_policy,
        bandwidth,
    }
}

/// Returns the most common value; ties select the largest value
/// (the Fig. 2 tie-break for versions, protocols and exit policies).
fn plurality<'a, T: Ord, I: Iterator<Item = &'a T>>(items: I) -> &'a T {
    let mut counts: BTreeMap<&'a T, usize> = BTreeMap::new();
    for item in items {
        *counts.entry(item).or_insert(0) += 1;
    }
    // Max by (count, value): BTreeMap iteration is value-ascending, so the
    // last maximum is the largest value among tied counts.
    let mut best: Option<(&'a T, usize)> = None;
    for (value, count) in counts {
        match best {
            Some((_, best_count)) if count < best_count => {}
            _ => best = Some((value, count)),
        }
    }
    best.expect("non-empty iterator").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AuthoritySet;
    use crate::generator::{authority_view, generate_population, PopulationConfig, ViewConfig};
    use crate::vote::VoteMeta;

    fn make_votes(seed: u64, relays: usize, authorities: usize) -> Vec<Vote> {
        let pop = generate_population(&PopulationConfig {
            seed,
            count: relays,
        });
        (0..authorities)
            .map(|i| {
                let auth = AuthorityId(i as u8);
                let config = ViewConfig {
                    // Three of nine authorities run bandwidth scanners.
                    measures_bandwidth: i % 3 == 0,
                    ..ViewConfig::default()
                };
                let view = authority_view(&pop, auth, seed, &config);
                Vote::new(
                    VoteMeta::standard(auth, &format!("auth{i}"), "AA".repeat(20), 3600),
                    view,
                )
            })
            .collect()
    }

    #[test]
    fn aggregation_is_deterministic_and_order_independent() {
        let votes = make_votes(11, 100, 9);
        let refs: Vec<&Vote> = votes.iter().collect();
        let c1 = aggregate(&refs);
        let mut shuffled: Vec<&Vote> = refs.clone();
        shuffled.rotate_left(4);
        let c2 = aggregate(&shuffled);
        assert_eq!(c1, c2, "aggregation must not depend on vote order");
    }

    #[test]
    fn majority_inclusion() {
        let votes = make_votes(12, 200, 9);
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        // With a 2% drop rate nearly every relay appears in ≥5 of 9 votes.
        assert!(consensus.entries.len() > 190);
        // Every included relay must be listed by at least 5 votes.
        for entry in &consensus.entries {
            let listings = refs.iter().filter(|v| v.get(entry.id).is_some()).count();
            assert!(listings >= 5, "{} listed by only {listings}", entry.id);
        }
    }

    #[test]
    fn excluded_when_under_threshold() {
        // A relay listed by only 4 of 9 votes must not appear.
        let votes = make_votes(13, 50, 9);
        let target = votes[0].entries()[0].id;
        let trimmed: Vec<Vote> = votes
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let entries: Vec<RelayInfo> = v
                    .entries()
                    .iter()
                    .filter(|e| i < 4 || e.id != target)
                    .cloned()
                    .collect();
                Vote::new(v.meta.clone(), entries)
            })
            .collect();
        let refs: Vec<&Vote> = trimmed.iter().collect();
        let consensus = aggregate(&refs);
        assert!(consensus.entries.iter().all(|e| e.id != target));
    }

    #[test]
    fn bandwidth_is_median_of_measuring_votes() {
        let pop = generate_population(&PopulationConfig { seed: 20, count: 1 });
        let votes: Vec<Vote> = (0..5u8)
            .map(|i| {
                let mut view = pop.clone();
                view[0].bandwidth = match i {
                    0 => Some(100),
                    1 => Some(300),
                    2 => Some(200),
                    // Two authorities do not measure.
                    _ => None,
                };
                Vote::new(
                    VoteMeta::standard(AuthorityId(i), "a", String::new(), 0),
                    view,
                )
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        assert_eq!(consensus.entries[0].bandwidth, Some(200));
    }

    #[test]
    fn flag_tie_means_unset() {
        let pop = generate_population(&PopulationConfig { seed: 21, count: 1 });
        let votes: Vec<Vote> = (0..4u8)
            .map(|i| {
                let mut view = pop.clone();
                // Exactly half the votes set Guard.
                if i % 2 == 0 {
                    view[0].flags.insert(RelayFlags::GUARD);
                } else {
                    view[0].flags.remove(RelayFlags::GUARD);
                }
                Vote::new(
                    VoteMeta::standard(AuthorityId(i), "a", String::new(), 0),
                    view,
                )
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        assert!(
            !consensus.entries[0].flags.contains(RelayFlags::GUARD),
            "tied flag must not be set"
        );
    }

    #[test]
    fn version_tie_selects_largest() {
        let pop = generate_population(&PopulationConfig { seed: 22, count: 1 });
        let old = TorVersion::new(0, 4, 7, 13);
        let new = TorVersion::new(0, 4, 8, 11);
        let votes: Vec<Vote> = (0..4u8)
            .map(|i| {
                let mut view = pop.clone();
                view[0].version = if i % 2 == 0 { old } else { new };
                Vote::new(
                    VoteMeta::standard(AuthorityId(i), "a", String::new(), 0),
                    view,
                )
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        assert_eq!(consensus.entries[0].version, new);
    }

    #[test]
    fn nickname_from_largest_authority_id() {
        let pop = generate_population(&PopulationConfig { seed: 23, count: 1 });
        let votes: Vec<Vote> = (0..5u8)
            .map(|i| {
                let mut view = pop.clone();
                view[0].nickname = format!("seen-by-{i}");
                Vote::new(
                    VoteMeta::standard(AuthorityId(i), "a", String::new(), 0),
                    view,
                )
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        assert_eq!(consensus.entries[0].nickname, "seen-by-4");
    }

    #[test]
    fn signatures_and_validity() {
        let set = AuthoritySet::live(30);
        let votes = make_votes(30, 20, 9);
        let refs: Vec<&Vote> = votes.iter().collect();
        let mut consensus = aggregate(&refs);
        let keys = set.verifying_keys();
        assert!(!consensus.is_valid(&keys, 9));
        for i in 0..5u8 {
            let auth = set.get(AuthorityId(i));
            consensus.sign(auth.id, &auth.signing_key);
        }
        assert_eq!(consensus.valid_signatures(&keys), 5);
        assert!(consensus.is_valid(&keys, 9), "5 of 9 is a majority");
    }

    #[test]
    fn duplicate_signatures_count_once() {
        let set = AuthoritySet::live(31);
        let votes = make_votes(31, 5, 9);
        let refs: Vec<&Vote> = votes.iter().collect();
        let mut consensus = aggregate(&refs);
        let auth = set.get(AuthorityId(0));
        consensus.sign(auth.id, &auth.signing_key);
        consensus.sign(auth.id, &auth.signing_key);
        assert_eq!(consensus.valid_signatures(&set.verifying_keys()), 1);
    }

    #[test]
    fn forged_signature_rejected() {
        let set = AuthoritySet::live(32);
        let votes = make_votes(32, 5, 9);
        let refs: Vec<&Vote> = votes.iter().collect();
        let mut consensus = aggregate(&refs);
        // Authority 1 signs, but the signature is attributed to authority 0.
        let impostor = set.get(AuthorityId(1));
        let sig = impostor.signing_key.sign(consensus.digest().as_bytes());
        consensus.signatures.push((AuthorityId(0), sig));
        assert_eq!(consensus.valid_signatures(&set.verifying_keys()), 0);
    }

    #[test]
    fn consensus_encode_parse_roundtrip() {
        let set = AuthoritySet::live(33);
        let votes = make_votes(33, 40, 9);
        let refs: Vec<&Vote> = votes.iter().collect();
        let mut consensus = aggregate(&refs);
        for i in [0u8, 3, 5] {
            let auth = set.get(AuthorityId(i));
            consensus.sign(auth.id, &auth.signing_key);
        }
        let text = consensus.encode();
        let parsed = Consensus::parse(&text).expect("parses");
        assert_eq!(parsed, consensus);
        assert_eq!(parsed.digest(), consensus.digest());
        assert_eq!(consensus.encode_with_digest(), (text, consensus.digest()));
    }

    #[test]
    fn valid_after_is_median() {
        let pop = generate_population(&PopulationConfig { seed: 40, count: 1 });
        let times = [100u64, 5000, 200, 300, 250];
        let votes: Vec<Vote> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                Vote::new(
                    VoteMeta::standard(AuthorityId(i as u8), "a", String::new(), t),
                    pop.clone(),
                )
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        assert_eq!(consensus.meta.valid_after, 250, "median, immune to 5000");
    }
}
