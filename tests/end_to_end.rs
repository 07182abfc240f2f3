//! Cross-crate integration: real documents, all three protocols, full
//! signature verification through the `tordoc` layer.

use partialtor_repro::core::{run, ProtocolKind, Scenario};
use partialtor_repro::tordoc::prelude::*;

fn real_scenario(seed: u64) -> Scenario {
    Scenario {
        seed,
        relays: 80,
        real_docs: true,
        ..Scenario::default()
    }
}

#[test]
fn every_protocol_reaches_the_same_consensus_digest() {
    let scenario = real_scenario(51);
    let mut digests = std::collections::BTreeSet::new();
    for protocol in ProtocolKind::ALL {
        let report = run(protocol, &scenario);
        assert!(report.success, "{protocol} failed");
        let run_digests: std::collections::BTreeSet<_> = report
            .authorities
            .iter()
            .filter(|a| a.success)
            .filter_map(|a| a.digest)
            .collect();
        assert_eq!(run_digests.len(), 1, "{protocol} diverged internally");
        digests.extend(run_digests);
    }
    // All three protocols aggregate the same votes with the same Fig. 2
    // algorithm, so they must produce the same consensus document.
    assert_eq!(
        digests.len(),
        1,
        "protocols must agree on the consensus digest"
    );
}

#[test]
fn simulated_consensus_digest_matches_direct_aggregation() {
    // Rebuild the votes exactly as the runner does and aggregate them
    // directly; the simulated protocols must land on the same document.
    let scenario = real_scenario(52);
    let report = run(ProtocolKind::Icps, &scenario);
    assert!(report.success);
    let sim_digest = report.authorities[0].digest.expect("digest");

    let population = generate_population(&PopulationConfig {
        seed: 52,
        count: 80,
    });
    let committee = AuthoritySet::with_size(52, 9);
    let votes: Vec<Vote> = committee
        .iter()
        .map(|auth| {
            let config = ViewConfig {
                measures_bandwidth: auth.id.0 % 3 == 0,
                ..ViewConfig::default()
            };
            let view = authority_view(&population, auth.id, 52, &config);
            Vote::new(
                VoteMeta::standard(auth.id, &auth.name, auth.fingerprint_hex(), 3_600),
                view,
            )
        })
        .collect();
    let refs: Vec<&Vote> = votes.iter().collect();
    let direct = aggregate(&refs);
    assert_eq!(direct.digest(), sim_digest);
}

#[test]
fn consensus_documents_round_trip_and_verify() {
    let population = generate_population(&PopulationConfig {
        seed: 53,
        count: 50,
    });
    let committee = AuthoritySet::live(53);
    let votes: Vec<Vote> = committee
        .iter()
        .map(|auth| {
            let view = authority_view(&population, auth.id, 53, &ViewConfig::default());
            Vote::new(
                VoteMeta::standard(auth.id, &auth.name, auth.fingerprint_hex(), 3_600),
                view,
            )
        })
        .collect();

    // Votes round-trip.
    for vote in &votes {
        let parsed = Vote::parse(&vote.encode()).expect("vote parses");
        assert_eq!(&parsed, vote);
    }

    // Aggregate, sign with a majority, round-trip and re-verify.
    let refs: Vec<&Vote> = votes.iter().collect();
    let mut consensus = aggregate(&refs);
    for auth in committee.iter().take(5) {
        consensus.sign(auth.id, &auth.signing_key);
    }
    let reparsed = Consensus::parse(&consensus.encode()).expect("consensus parses");
    assert_eq!(reparsed, consensus);
    assert!(reparsed.is_valid(&committee.verifying_keys(), committee.len()));
}

#[test]
fn deterministic_reports_per_seed() {
    let scenario = real_scenario(54);
    let a = run(ProtocolKind::Icps, &scenario);
    let b = run(ProtocolKind::Icps, &scenario);
    assert_eq!(a.total_tx_bytes, b.total_tx_bytes);
    assert_eq!(a.network_time_secs, b.network_time_secs);
    assert_eq!(
        a.authorities.iter().map(|x| x.digest).collect::<Vec<_>>(),
        b.authorities.iter().map(|x| x.digest).collect::<Vec<_>>(),
    );

    // A different seed gives different documents (hence digests).
    let c = run(ProtocolKind::Icps, &real_scenario(55));
    assert_ne!(a.authorities[0].digest, c.authorities[0].digest);
}
