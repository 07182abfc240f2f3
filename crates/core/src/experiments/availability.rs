//! The paper's headline claim as a timeline: sustained five-minute hourly
//! DDoS windows bring the whole Tor network down three hours after the
//! last valid consensus (§2.1), at $53.28/month.
//!
//! Simulates a day of hourly consensus runs. Under attack, the current
//! protocol fails every run; clients keep using the last document until
//! its three-hour validity expires — then the network is dead. The ICPS
//! protocol regenerates a document a few seconds after every attack
//! window, so the network never goes down.

use super::sustained;
use crate::adversary::AttackPlan;
use crate::calibration::CONSENSUS_VALID_SECS;
use crate::protocols::ProtocolKind;
use partialtor_dirdist::{DistConfig, DocModel};
use partialtor_obs::Tracer;

/// Reference fleet used to weight downtime by clients rather than by
/// the binary "does any valid document exist" check.
const REFERENCE_FLEET_CLIENTS: u64 = 1_000_000;

/// Caches in the reference distribution tier.
const REFERENCE_FLEET_CACHES: usize = 50;

/// One hourly run in the timeline.
#[derive(Clone, Debug)]
pub struct HourRow {
    /// Hour index (run starts at `hour * 3600` s).
    pub hour: u64,
    /// Whether the run produced a valid consensus.
    pub produced: bool,
    /// Offset within the hour at which it became valid, seconds.
    pub valid_at_offset_secs: Option<f64>,
    /// Whether the network still has any unexpired consensus at the end
    /// of this hour.
    pub network_alive: bool,
    /// Time-averaged fraction of the reference fleet with no valid
    /// consensus this hour (cannot build circuits).
    pub dead_client_fraction: f64,
    /// Time-averaged fraction without a *fresh* consensus (stale holders
    /// plus the dead).
    pub stale_client_fraction: f64,
}

/// The availability timeline of one protocol under sustained attack.
#[derive(Clone, Debug)]
pub struct AvailabilityResult {
    /// Protocol label.
    pub protocol: String,
    /// Hourly rows.
    pub rows: Vec<HourRow>,
    /// First simulated second at which the network was dead, if ever.
    pub death_at_secs: Option<u64>,
    /// Fraction of client-time lost over the whole horizon — the
    /// client-weighted form of "the network is down".
    pub client_weighted_downtime: f64,
}

/// Simulates `hours` hourly runs of the current and ICPS protocols — one
/// sweep batch — with a five-minute attack window at the start of each,
/// and tracks each protocol's document validity.
pub fn run_experiment(hours: u64, seed: u64) -> Vec<AvailabilityResult> {
    let plan = AttackPlan::five_of_nine().sustained_hourly(hours);
    // Client weighting: replay each timeline through the distribution
    // layer with a reference fleet — cache fetches see the same hourly
    // attack windows the protocol runs did — and read each hour's
    // staleness off its fleet row.
    let config = DistConfig {
        seed,
        clients: REFERENCE_FLEET_CLIENTS,
        n_caches: REFERENCE_FLEET_CACHES,
        link_windows: plan.dist_windows(),
        ..DistConfig::default()
    };
    sustained::run(
        [ProtocolKind::Current, ProtocolKind::Icps],
        &plan,
        hours,
        seed,
        8_000,
    )
    .into_iter()
    .map(|arm| timeline(arm, &config))
    .collect()
}

/// One protocol's timeline from its arm of the sweep.
fn timeline(arm: sustained::SustainedArm, config: &DistConfig) -> AvailabilityResult {
    let dist = sustained::replay(
        config,
        DocModel::synthetic(config.relays),
        arm.inputs,
        &Tracer::disabled(),
    )
    .into_report();

    // The last pre-attack consensus was generated at t = 0 (the attack
    // begins with the run of hour 1).
    let mut last_valid_consensus_at: i64 = 0;
    let mut rows = Vec::new();
    let mut death_at_secs = None;
    for ((hour, report), fleet_row) in (1..).zip(&arm.reports).zip(&dist.fleet.rows[1..]) {
        let produced = report.success;
        let valid_at_offset_secs = report.last_valid_secs;
        if produced {
            let offset = valid_at_offset_secs.unwrap_or(0.0) as i64;
            last_valid_consensus_at = (hour * 3600) as i64 + offset;
        }
        // Network is alive at the end of this hour iff some consensus is
        // still within its three-hour validity.
        let end_of_hour = ((hour + 1) * 3600) as i64;
        let network_alive = end_of_hour - last_valid_consensus_at <= CONSENSUS_VALID_SECS as i64;
        if !network_alive && death_at_secs.is_none() {
            death_at_secs = Some((last_valid_consensus_at + CONSENSUS_VALID_SECS as i64) as u64);
        }
        rows.push(HourRow {
            hour,
            produced,
            valid_at_offset_secs,
            network_alive,
            dead_client_fraction: fleet_row.dead_fraction,
            stale_client_fraction: fleet_row.stale_fraction,
        });
    }

    AvailabilityResult {
        protocol: arm.protocol.to_string(),
        rows,
        death_at_secs,
        client_weighted_downtime: dist.fleet.client_weighted_downtime,
    }
}

/// Renders the timelines.
pub fn render(results: &[AvailabilityResult]) -> String {
    let mut out = String::new();
    out.push_str("=== Network availability under sustained hourly DDoS ===\n");
    out.push_str("(5 victims × 5 minutes at the start of every hourly run; $53.28/month)\n");
    for result in results {
        out.push_str(&format!("\n--- {} ---\n", result.protocol));
        out.push_str(&format!(
            "{:>5} {:>10} {:>16} {:>14} {:>9} {:>9}\n",
            "hour", "consensus", "valid at (+s)", "network alive", "stale %", "dead %"
        ));
        for row in &result.rows {
            out.push_str(&format!(
                "{:>5} {:>10} {:>16} {:>14} {:>9.1} {:>9.1}\n",
                row.hour,
                if row.produced { "ok" } else { "FAILED" },
                row.valid_at_offset_secs
                    .map(|t| format!("{t:.0}"))
                    .unwrap_or_else(|| "-".into()),
                if row.network_alive { "yes" } else { "DOWN" },
                100.0 * row.stale_client_fraction,
                100.0 * row.dead_client_fraction,
            ));
        }
        match result.death_at_secs {
            Some(t) => out.push_str(&format!(
                "network down from t = {t} s ({:.1} h) onwards\n",
                t as f64 / 3600.0
            )),
            None => out.push_str("network stayed up for the whole period\n"),
        }
        out.push_str(&format!(
            "client-weighted downtime: {:.1}% of client-time lost\n",
            100.0 * result.client_weighted_downtime
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_attack_kills_current_in_three_hours() {
        let result = &run_experiment(5, 31)[0];
        assert_eq!(result.protocol, ProtocolKind::Current.to_string());
        assert!(result.rows.iter().all(|r| !r.produced), "every run fails");
        // Last valid document from t = 0 expires at t = 3 h.
        assert_eq!(result.death_at_secs, Some(CONSENSUS_VALID_SECS));
        assert!(!result.rows.last().unwrap().network_alive);
        // Client-weighted view: the fleet dies with the document.
        assert!(
            result.client_weighted_downtime > 0.3,
            "a large share of client-time must be lost: {}",
            result.client_weighted_downtime
        );
        let last = result.rows.last().unwrap();
        assert!(last.dead_client_fraction > 0.95, "{last:?}");
        assert!(last.stale_client_fraction > 0.99);
    }

    #[test]
    fn icps_stays_up_indefinitely() {
        let result = &run_experiment(5, 31)[1];
        assert_eq!(result.protocol, ProtocolKind::Icps.to_string());
        assert!(result.rows.iter().all(|r| r.produced), "every run succeeds");
        assert!(result.rows.iter().all(|r| r.network_alive));
        assert_eq!(result.death_at_secs, None);
        // Each document appears shortly after the five-minute window.
        for row in &result.rows {
            let t = row.valid_at_offset_secs.unwrap();
            assert!((300.0..400.0).contains(&t), "hour {}: {t}", row.hour);
        }
        // Client-weighted view: nobody falls off the network.
        assert!(
            result.client_weighted_downtime < 0.02,
            "downtime {}",
            result.client_weighted_downtime
        );
        assert!(
            result.rows.iter().all(|r| r.dead_client_fraction < 0.05),
            "{:?}",
            result.rows
        );
    }

    /// Value pin on the rendered timelines of both protocols: the
    /// distribution replay behind the client columns must not move.
    #[test]
    fn timelines_are_pinned() {
        let text = render(&run_experiment(3, 31));
        assert_eq!(
            partialtor_crypto::sha256::digest(text.as_bytes()).to_hex(),
            "1735d8d38a7014c5f68c3de3dd6e6ac4960caeb1cd94fa7298aeb7a6eb6adf47"
        );
    }
}
