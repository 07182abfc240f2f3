//! Calibration constants anchoring the simulation to the paper's setting.
//!
//! The paper's absolute numbers come from Shadow running the real Tor
//! stack on a tornettools-generated network; ours come from a fluid-flow
//! simulator. These constants fix the quantities every layer shares.
//! Each is defined once: the link rates and the consensus lifetime
//! belong to the distribution tier (`partialtor-dirdist`) and are
//! re-exported here under the names the protocol layer uses.

use partialtor_simnet::SimDuration;

pub use partialtor_dirdist::{
    AUTHORITY_LINK_BPS, CACHE_LINK_BPS, VALID_SECS as CONSENSUS_VALID_SECS,
};

/// The lock-step round length Δ of the deployed directory protocol
/// (§3.2: "the currently deployed parameter of 150 s").
pub const ROUND_SECS: u64 = 150;

/// Lock-step round length as a duration.
pub const fn round_duration() -> SimDuration {
    SimDuration::from_secs(ROUND_SECS)
}

/// Number of lock-step rounds per protocol run (Fig. 4).
pub const LOCKSTEP_ROUNDS: u64 = 4;

/// Residual bandwidth available to a DDoS victim (§4.3, after Jansen et
/// al.): 0.5 Mbit/s.
pub const ATTACK_RESIDUAL_BPS: f64 = 0.5e6;

/// The paper's flood rate against one authority (§4.3): 240 Mbit/s — the
/// 250 Mbit/s link minus the ~10 Mbit/s the directory protocol needs.
pub const ATTACK_FLOOD_MBPS: f64 = 240.0;

/// A flood rate that exceeds every link class the simulations model
/// (authority 250 Mbit/s, cache 100 Mbit/s, the 1 Gbit/s sensitivity
/// row): [`flooded_residual_bps`] maps it to a fully dead link.
pub const OFFLINE_FLOOD_MBPS: f64 = 1_000.0;

/// Flood rate that saturates a directory-cache link (equal to the cache
/// link rate, so the victim drops to zero).
pub const CACHE_FLOOD_MBPS: f64 = CACHE_LINK_BPS / 1e6;

/// Stressor-service price (§4.3, from Jansen et al. \[22\]): dollars
/// per Mbit/s of attack traffic per hour, amortized. The paper's
/// five-of-nine five-minute campaign costs $0.074 per breached run and
/// $53.28 per month of sustained outage at this rate.
pub const USD_PER_MBIT_HOUR: f64 = 0.00074;

/// Fraction of a link's rate a flood must reach before queue collapse
/// leaves the victim only the Jansen et al. residual. Calibrated so the
/// paper's 240 Mbit/s flood on a 250 Mbit/s link (96 %) yields the
/// 0.5 Mbit/s residual rather than the naive 10 Mbit/s remainder.
pub const FLOOD_SATURATION_FRACTION: f64 = 0.95;

/// Bandwidth left to a victim whose `link_bps` uplink is flooded at
/// `flood_bps` (§4.3): a flood at or above the link rate kills the link;
/// one past the saturation knee leaves the Jansen et al. residual;
/// a smaller flood just subtracts.
///
/// # Examples
///
/// ```
/// use partialtor::calibration::flooded_residual_bps;
/// // The paper's 240 Mbit/s flood leaves a 250 Mbit/s authority 0.5 Mbit/s.
/// assert_eq!(flooded_residual_bps(250e6, 240e6), 0.5e6);
/// // An over-the-top flood kills the link outright.
/// assert_eq!(flooded_residual_bps(250e6, 1_000e6), 0.0);
/// // A weak flood merely subtracts.
/// assert_eq!(flooded_residual_bps(250e6, 100e6), 150e6);
/// ```
pub fn flooded_residual_bps(link_bps: f64, flood_bps: f64) -> f64 {
    if flood_bps <= 0.0 {
        link_bps
    } else if flood_bps >= link_bps {
        0.0
    } else if flood_bps >= FLOOD_SATURATION_FRACTION * link_bps {
        ATTACK_RESIDUAL_BPS.min(link_bps)
    } else {
        link_bps - flood_bps
    }
}

/// Fixed overhead of a vote document (header, authority certs), bytes.
pub const VOTE_BASE_BYTES: u64 = 20 * 1024;

/// Marginal vote size per listed relay, bytes (status lines, descriptor
/// digests, measurement metadata).
pub const VOTE_PER_RELAY_BYTES: u64 = 640;

/// Background directory-service load per listed relay, bits/s, at each
/// authority: descriptor uploads, consensus and descriptor fetches from
/// caches and clients. The January 2021 outage report (paper §2.1) shows
/// this load reaching hundreds of Mbit/s under fetch storms; the nominal
/// value here (≈ 6.6 Mbit/s at 8 000 relays) anchors the Fig. 7 bandwidth
/// requirement.
///
/// The distribution layer no longer *uses* a calibrated constant for
/// this: its authority background load is computed from the two typed
/// document classes (see
/// [`DistConfig::direct_client_load_bps`](partialtor_dirdist::DistConfig::direct_client_load_bps)
/// and the session's fetch-feedback loop). [`derived_bg_per_relay_bps`]
/// recomputes the steady-state piece of this constant from those same
/// document classes; a test pins the two to the same order of
/// magnitude.
pub const BG_PER_RELAY_BPS: f64 = 830.0;

/// The steady-state directory load per listed relay at one authority,
/// bits/s, *derived* from the distribution layer's document classes
/// instead of calibrated: `caches + clients × direct_fraction`
/// requesters each fetch, per relay and per hour, a proposal-140 diff
/// share (`2 × churn` consensus entry lines) plus the churned relay's
/// microdescriptor share, spread over the authorities; each relay also
/// uploads its own descriptor to every authority when it churns.
///
/// The §2.1 fetch-storm *excess* over this steady state is what the
/// calibrated [`BG_PER_RELAY_BPS`] additionally folds in — and what the
/// session's feedback loop now models dynamically instead.
pub fn derived_bg_per_relay_bps(
    clients: u64,
    caches: u64,
    direct_fetch_fraction: f64,
    churn_per_hour: f64,
) -> f64 {
    use partialtor_dirdist::docmodel::{CONSENSUS_PER_RELAY_BYTES, MICRODESC_PER_RELAY_BYTES};
    let requesters = caches as f64 + clients as f64 * direct_fetch_fraction;
    let fetch_bytes_per_relay_hour = requesters
        * (2.0 * churn_per_hour * CONSENSUS_PER_RELAY_BYTES as f64
            + churn_per_hour * MICRODESC_PER_RELAY_BYTES as f64);
    let upload_bytes_per_relay_hour = churn_per_hour * MICRODESC_PER_RELAY_BYTES as f64;
    (fetch_bytes_per_relay_hour / N_AUTHORITIES as f64 + upload_bytes_per_relay_hour) * 8.0
        / 3_600.0
}

/// Fraction of the link the voting path retains under background
/// contention (Tor's scheduler keeps serving the dirauth protocol even
/// when client traffic would otherwise saturate the link).
pub const PROTOCOL_SHARE_FLOOR: f64 = 0.2;

/// Bandwidth effectively available to the directory protocol on a link of
/// `link_bps` at an authority serving `relays` relays' background
/// directory traffic.
///
/// # Examples
///
/// ```
/// use partialtor::calibration::effective_bandwidth;
/// // A 250 Mbit/s authority loses ~6.6 Mbit/s to background traffic.
/// let eff = effective_bandwidth(250e6, 8_000);
/// assert!(eff > 240e6 && eff < 250e6);
/// // A starved victim keeps the floor share.
/// assert_eq!(effective_bandwidth(1e6, 8_000), 0.2e6);
/// ```
pub fn effective_bandwidth(link_bps: f64, relays: u64) -> f64 {
    let background = BG_PER_RELAY_BPS * relays as f64;
    (link_bps - background).max(PROTOCOL_SHARE_FLOOR * link_bps)
}

/// Synthetic vote-document size for a network with `relays` relays.
///
/// # Examples
///
/// ```
/// use partialtor::calibration::vote_size_bytes;
/// assert!(vote_size_bytes(8_000) > 5 * 1000 * 1000);
/// ```
pub const fn vote_size_bytes(relays: u64) -> u64 {
    VOTE_BASE_BYTES + relays * VOTE_PER_RELAY_BYTES
}

/// Number of directory authorities (n).
pub const N_AUTHORITIES: usize = 9;

/// Majority threshold for consensus validity: > n/2 signatures.
pub const fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// Fault tolerance of the partial-synchrony protocol: largest f with
/// n ≥ 3f + 1.
pub const fn partial_synchrony_f(n: usize) -> usize {
    (n - 1) / 3
}

/// Wire-encoding overhead factor of Luo et al.'s synchronous prototype's
/// vote packs: per-list signature envelopes and text re-encoding roughly
/// double the transmitted pack bytes. The paper observes that the
/// prototype "fares worse" than the current protocol and attributes this
/// to "the increased complexity in their implementation" (§6.2).
pub const SYNC_PACK_OVERHEAD_FACTOR: u64 = 2;

/// Base timeout of the BFT agreement rounds, milliseconds. Generous enough
/// for WAN latencies, small against the 150 s lock-step rounds.
pub const BFT_BASE_TIMEOUT_MS: u64 = 5_000;

/// Dissemination timeout Δ of the ICPS protocol (the paper reuses the
/// deployed 150 s bound as its post-GST Δ).
pub const fn dissemination_timeout() -> SimDuration {
    SimDuration::from_secs(ROUND_SECS)
}

/// How long after a failed run the lock-step protocols retry (§6.2:
/// "the fallback mechanism that reruns the protocol after 30 minutes").
pub const FALLBACK_RETRY_SECS: u64 = 30 * 60;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_size_is_affine_in_relays() {
        let d1 = vote_size_bytes(1_000);
        let d2 = vote_size_bytes(2_000);
        let d3 = vote_size_bytes(3_000);
        assert_eq!(d3 - d2, d2 - d1);
        assert_eq!(d2 - d1, 1_000 * VOTE_PER_RELAY_BYTES);
    }

    #[test]
    fn thresholds_for_nine_authorities() {
        assert_eq!(majority(9), 5, "5 of 9 signatures make a consensus valid");
        assert_eq!(partial_synchrony_f(9), 2, "ICPS tolerates 2 of 9 faulty");
        // Bounded-synchrony tolerance (n−1)/2 = 4, per the paper's §2.2
        // comparison.
        assert_eq!((N_AUTHORITIES - 1) / 2, 4);
    }

    #[test]
    fn paper_figures() {
        assert_eq!(ROUND_SECS * LOCKSTEP_ROUNDS, 600, "10-minute protocol");
        assert_eq!(CONSENSUS_VALID_SECS, 10_800);
        assert_eq!(CACHE_FLOOD_MBPS, 100.0);
    }

    /// The calibrated constant and the document-class derivation must
    /// agree to within an order of magnitude at Tor scale — the
    /// calibrated value sits *above* the derived steady state because
    /// it also folds in fetch-storm headroom the session now models
    /// dynamically.
    #[test]
    fn derived_background_load_matches_calibration_order() {
        let derived = derived_bg_per_relay_bps(3_000_000, 2_000, 0.01, 0.02);
        assert!(
            derived > 0.1 * BG_PER_RELAY_BPS && derived < 10.0 * BG_PER_RELAY_BPS,
            "derived {derived} bits/s per relay vs calibrated {BG_PER_RELAY_BPS}"
        );
        assert!(
            derived < BG_PER_RELAY_BPS,
            "steady state must sit below the storm-inclusive calibration: {derived}"
        );
        // More requesters, more load — the derivation is live arithmetic,
        // not another constant.
        assert!(
            derived_bg_per_relay_bps(3_000_000, 2_000, 0.05, 0.02) > derived * 2.0,
            "more direct fetchers must show up in the derived load"
        );
    }
}
