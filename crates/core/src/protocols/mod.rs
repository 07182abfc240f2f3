//! The three Tor directory protocols under evaluation.
//!
//! | Module | Paper name | Network model | Communication |
//! |---|---|---|---|
//! | [`current`] | Current \[37\] | bounded synchrony | O(n²d + n²κ) |
//! | [`synchronous`] | Synchronous (Luo et al.) \[23\] | bounded synchrony | O(n³d + n⁴κ) |
//! | [`icps`] | Our Work | partial synchrony | O(n²d + n⁴κ) |
//!
//! Each protocol's authority implements [`Authority`], so one generic
//! runner ([`crate::runner::run_with`]) builds, runs and reports all three.

pub mod current;
pub mod icps;
pub mod synchronous;

pub use current::{CurrentAuthority, CurrentByzantineMode, CurrentMsg};
pub use icps::{DigestVector, FetchPolicy, IcpsAuthority, IcpsByzantineMode, IcpsMsg, VectorEntry};
pub use synchronous::{Pack, SyncAuthority, SyncByzantineMode, SyncMsg};

use crate::document::DirDocument;
use partialtor_crypto::{Committee, Digest32, SigningKey};
use partialtor_simnet::{Node, SimDuration, SimTime};

/// What every protocol's authority is built from: its place in the run.
pub struct Seat {
    /// Protocol instance id.
    pub run_id: u64,
    /// This authority's index.
    pub index: u8,
    /// Committee size.
    pub n: usize,
    /// Lock-step round length Δ (the ICPS protocol has no rounds).
    pub round: SimDuration,
    /// This authority's vote.
    pub doc: DirDocument,
    /// Signing key.
    pub signing: SigningKey,
    /// Committee public keys: a clone of the run's one [`Committee`], so
    /// that a signature another authority already verified is not
    /// verified again.
    pub keys: Committee,
}

/// One directory authority of any of the three protocols.
pub trait Authority: Node + Sized {
    /// The protocol it runs.
    const KIND: ProtocolKind;
    /// How one seat behaves (honest by default).
    type Mode: Default;
    /// Creates the authority of `seat`, behaving as `mode`.
    fn new(seat: Seat, mode: Self::Mode) -> Self;
    /// What it achieved so far, handing over its round records.
    fn report(&mut self) -> AuthorityReport;
}

/// When a successful lock-step authority's consensus became valid: at the
/// end of round 4, in seconds.
fn lockstep_valid_at(success: bool, round: SimDuration) -> Option<f64> {
    success.then(|| {
        round
            .saturating_mul(crate::calibration::LOCKSTEP_ROUNDS)
            .as_secs_f64()
    })
}

/// Per-authority result.
#[derive(Clone, Debug, PartialEq)]
pub struct AuthorityReport {
    /// Authority index.
    pub index: usize,
    /// Whether it obtained a majority-signed consensus.
    pub success: bool,
    /// Its consensus digest.
    pub digest: Option<Digest32>,
    /// The paper's network-time metric, seconds.
    pub network_time_secs: Option<f64>,
    /// Absolute simulated time at which its consensus became valid.
    pub valid_at_secs: Option<f64>,
    /// The BFT view whose two-chain committed (ICPS only; 0 = happy path).
    pub decided_round: Option<u64>,
    /// What it found at each round boundary (empty until a protocol
    /// records phases; the current protocol does).
    pub phases: Vec<Phase>,
}

/// What one authority found at one round boundary of its run. Only the
/// current protocol records phases so far; Fig. 1's daemon log is
/// rendered from them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Round 2 begins: the votes still missing are requested from every
    /// other authority.
    FetchVotes {
        /// The boundary.
        at: SimTime,
        /// Authorities whose votes are missing.
        missing: Vec<u8>,
    },
    /// Round 3 begins: outstanding vote fetches are abandoned, and a
    /// consensus is computed iff `held >= needed`.
    ComputeConsensus {
        /// The boundary.
        at: SimTime,
        /// Authorities whose votes never arrived.
        missing: Vec<u8>,
        /// Votes held.
        held: usize,
        /// Votes a consensus needs.
        needed: usize,
    },
    /// Round 4 ends: the signatures over this authority's consensus are
    /// counted.
    CloseSignatures {
        /// The boundary.
        at: SimTime,
        /// Whether a consensus was computed in round 3.
        computed: bool,
        /// Signatures matching its digest, own included.
        matching: usize,
        /// Signatures a valid consensus needs.
        needed: usize,
    },
}

/// Which protocol a scenario runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// The deployed v3 directory protocol.
    Current,
    /// Luo et al.'s synchronous protocol.
    Synchronous,
    /// Interactive consistency under partial synchrony (this paper).
    Icps,
}

impl ProtocolKind {
    /// The three protocols, in the paper's order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Current,
        ProtocolKind::Synchronous,
        ProtocolKind::Icps,
    ];
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolKind::Current => write!(f, "Current"),
            ProtocolKind::Synchronous => write!(f, "Synchronous"),
            ProtocolKind::Icps => write!(f, "Ours"),
        }
    }
}

/// Hand-built runs for the protocol unit tests: raw link rates, seeded
/// keys and a fixed run id, where [`crate::runner::Scenario`] nets the
/// background load and derives keys and run id from its seed.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::calibration;
    use partialtor_simnet::prelude::*;

    /// `n` signing keys seeded `key_base + i`, and their committee.
    pub(crate) fn committee(n: usize, key_base: u8) -> (Vec<SigningKey>, Committee) {
        let signers: Vec<SigningKey> = (0..n as u8)
            .map(|i| SigningKey::from_seed([i + key_base; 32]))
            .collect();
        let keys = signers.iter().map(SigningKey::verifying_key).collect();
        (signers, keys)
    }

    /// Seat `i` of run `run_id`: a synthetic `relays`-sized vote, 150 s
    /// rounds.
    pub(crate) fn seat(
        i: usize,
        run_id: u64,
        relays: u64,
        (signers, keys): &(Vec<SigningKey>, Committee),
    ) -> Seat {
        Seat {
            run_id,
            index: i as u8,
            n: signers.len(),
            round: calibration::round_duration(),
            doc: DirDocument::synthetic(run_id, i as u8, calibration::vote_size_bytes(relays)),
            signing: signers[i].clone(),
            keys: keys.clone(),
        }
    }

    /// `n` honest authorities of run `run_id` on `scaled_topology(n, seed)`,
    /// every link at `bandwidth_bps`.
    pub(crate) fn build_sim<A: Authority>(
        n: usize,
        relays: u64,
        bandwidth_bps: f64,
        seed: u64,
        run_id: u64,
        key_base: u8,
    ) -> Simulation<A> {
        let committee = committee(n, key_base);
        let nodes = (0..n)
            .map(|i| A::new(seat(i, run_id, relays, &committee), A::Mode::default()))
            .collect();
        let config = SimConfig {
            seed,
            default_up_bps: bandwidth_bps,
            default_down_bps: bandwidth_bps,
            ..SimConfig::default()
        };
        Simulation::new(scaled_topology(n, seed), nodes, config)
    }
}
