//! The three Tor directory protocols under evaluation.
//!
//! | Module | Paper name | Network model | Communication |
//! |---|---|---|---|
//! | [`current`] | Current \[37\] | bounded synchrony | O(n²d + n²κ) |
//! | [`synchronous`] | Synchronous (Luo et al.) \[23\] | bounded synchrony | O(n³d + n⁴κ) |
//! | [`icps`] | Our Work | partial synchrony | O(n²d + n⁴κ) |

pub mod current;
pub mod icps;
pub mod synchronous;

pub use current::{
    AuthorityOutcome, CurrentAuthority, CurrentByzantineMode, CurrentConfig, CurrentMsg,
};
pub use icps::{
    DigestVector, FetchPolicy, IcpsAuthority, IcpsByzantineMode, IcpsConfig, IcpsMsg, IcpsOutcome,
    VectorEntry,
};
pub use synchronous::{Pack, SyncAuthority, SyncByzantineMode, SyncConfig, SyncMsg, SyncOutcome};

use partialtor_simnet::SimTime;

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

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolKind::Current => write!(f, "Current"),
            ProtocolKind::Synchronous => write!(f, "Synchronous"),
            ProtocolKind::Icps => write!(f, "Ours"),
        }
    }
}
