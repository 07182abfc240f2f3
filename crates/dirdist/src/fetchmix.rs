//! The realized fetch mix of one stepped hour, as a replayable value.
//!
//! A [`FleetHourRow`] records *aggregate* outcomes; the serving path
//! (`partialtor-dircached`'s `dirload` generator) needs the hour's
//! traffic as a *distribution* it can sample requests from: how many
//! bootstraps landed on which version, how many refreshes moved from
//! which base to which target (and whether that pair was served as a
//! proposal-140 diff), and how many probes found nothing and burned a
//! failed-probe round trip. [`FetchMix`] is exactly that, derived from
//! the row's passive transition accounting plus the session's
//! [`DocTable`] — no re-simulation, no sampling: its byte arithmetic
//! reproduces the row's egress and request totals to the byte (a pinned
//! test holds the five-of-nine session to this).
//!
//! The type is serializable by hand ([`FetchMix::encode`] /
//! [`FetchMix::parse_all`], a line-oriented `key=value` text format) so
//! a `dirsim clients --fetch-mix FILE` export can be replayed later by
//! a `dirload` process that shares no memory with the session.

use crate::docmodel::{DocClass, DocTable};
use crate::fleet::{FleetHourRow, FAILED_PROBE_BYTES, REQUEST_BYTES};
use crate::timeline::Publication;

/// Successful bootstraps onto one version, with the full-document costs
/// each was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootstrapClass {
    /// Version the clients landed on.
    pub version: usize,
    /// Clients served.
    pub count: u64,
    /// Full consensus payload each fetched, bytes.
    pub consensus_bytes: u64,
    /// Full descriptor-set payload each fetched, bytes.
    pub descriptor_bytes: u64,
}

/// Refreshes that moved clients from one base version to a target, with
/// the incremental costs each was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefreshClass {
    /// Base version the clients held.
    pub from_version: usize,
    /// Target version they fetched.
    pub to_version: usize,
    /// Publication age of the base relative to the target, hours — the
    /// diff-base age a serving daemon's retention window is judged by.
    pub base_age_hours: u64,
    /// Clients served.
    pub count: u64,
    /// Consensus payload each fetched, bytes (a diff inside the retain
    /// window, the full document beyond it).
    pub consensus_bytes: u64,
    /// Whether the consensus response was a proposal-140 diff.
    pub consensus_is_diff: bool,
    /// Churned-descriptor payload each fetched, bytes.
    pub descriptor_bytes: u64,
}

/// One hour's realized fetch mix: everything a load generator needs to
/// replay the hour's client traffic against a real serving daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchMix {
    /// The hour this mix realizes.
    pub hour: u64,
    /// Successful bootstraps by target version.
    pub bootstraps: Vec<BootstrapClass>,
    /// Refresh flows by (base, target) pair.
    pub refreshes: Vec<RefreshClass>,
    /// Bootstrap attempts that found nothing live (each cost
    /// [`FAILED_PROBE_BYTES`] on the wire) — the retry-storm traffic.
    pub failed_probes: u64,
}

impl FetchMix {
    /// Derives the mix of one stepped hour from its row, the session's
    /// size table, and the publications (for base ages). Exact: the
    /// mix's [byte arithmetic](FetchMix::served_bytes) reproduces the
    /// row's egress and request totals.
    pub fn from_row(row: &FleetHourRow, table: &DocTable, publications: &[Publication]) -> Self {
        FetchMix {
            hour: row.hour,
            bootstraps: row
                .bootstrap_targets
                .iter()
                .map(|b| BootstrapClass {
                    version: b.version,
                    count: b.count,
                    consensus_bytes: table.full_bytes(DocClass::Consensus, b.version),
                    descriptor_bytes: table.full_bytes(DocClass::Descriptors, b.version),
                })
                .collect(),
            refreshes: row
                .refresh_transitions
                .iter()
                .map(|t| {
                    let consensus =
                        table.response(DocClass::Consensus, Some(t.from_version), t.to_version);
                    let descriptors =
                        table.response(DocClass::Descriptors, Some(t.from_version), t.to_version);
                    RefreshClass {
                        from_version: t.from_version,
                        to_version: t.to_version,
                        base_age_hours: publications[t.to_version]
                            .hour
                            .saturating_sub(publications[t.from_version].hour),
                        count: t.count,
                        consensus_bytes: consensus.bytes,
                        consensus_is_diff: consensus.is_diff,
                        descriptor_bytes: descriptors.bytes,
                    }
                })
                .collect(),
            failed_probes: row.bootstrap_attempts - row.bootstrap_successes,
        }
    }

    /// Total successful bootstraps.
    pub fn bootstrap_count(&self) -> u64 {
        self.bootstraps.iter().map(|b| b.count).sum()
    }

    /// Total refresh fetches.
    pub fn refresh_count(&self) -> u64 {
        self.refreshes.iter().map(|r| r.count).sum()
    }

    /// Total fetch operations to replay (each bootstrap or refresh is
    /// one consensus plus one descriptor request; each failed probe one
    /// round trip).
    pub fn total_fetches(&self) -> u64 {
        self.bootstrap_count() + self.refresh_count() + self.failed_probes
    }

    /// Consensus payload the tier served under this mix, bytes —
    /// exactly the row's `cache_egress_bytes`.
    pub fn consensus_bytes(&self) -> u64 {
        let boot: u64 = self
            .bootstraps
            .iter()
            .map(|b| b.count * b.consensus_bytes)
            .sum();
        let refresh: u64 = self
            .refreshes
            .iter()
            .map(|r| r.count * r.consensus_bytes)
            .sum();
        boot + refresh
    }

    /// Descriptor payload the tier served under this mix, bytes —
    /// exactly the row's `descriptor_egress_bytes`.
    pub fn descriptor_bytes(&self) -> u64 {
        let boot: u64 = self
            .bootstraps
            .iter()
            .map(|b| b.count * b.descriptor_bytes)
            .sum();
        let refresh: u64 = self
            .refreshes
            .iter()
            .map(|r| r.count * r.descriptor_bytes)
            .sum();
        boot + refresh
    }

    /// Total payload served, bytes — exactly the row's
    /// `cache_egress_bytes + descriptor_egress_bytes` (the quantity the
    /// session charges against the service budget).
    pub fn served_bytes(&self) -> u64 {
        self.consensus_bytes() + self.descriptor_bytes()
    }

    /// Request-side and failed-probe bytes — exactly the row's
    /// `request_bytes`.
    pub fn request_bytes(&self) -> u64 {
        (self.bootstrap_count() + self.refresh_count()) * REQUEST_BYTES
            + self.failed_probes * FAILED_PROBE_BYTES
    }

    /// Fraction of refresh consensus fetches answered with a diff
    /// (1.0 when there are no refreshes).
    pub fn diff_fraction(&self) -> f64 {
        let total = self.refresh_count();
        if total == 0 {
            return 1.0;
        }
        let diffs: u64 = self
            .refreshes
            .iter()
            .filter(|r| r.consensus_is_diff)
            .map(|r| r.count)
            .sum();
        diffs as f64 / total as f64
    }

    /// Line-oriented text encoding (the `--fetch-mix` file format); see
    /// [`FetchMix::parse_all`] for the inverse.
    pub fn encode(&self) -> String {
        let mut out = format!("fetchmix v1 hour={}\n", self.hour);
        for b in &self.bootstraps {
            out.push_str(&format!(
                "bootstrap version={} count={} consensus={} descriptors={}\n",
                b.version, b.count, b.consensus_bytes, b.descriptor_bytes
            ));
        }
        for r in &self.refreshes {
            out.push_str(&format!(
                "refresh from={} to={} age={} count={} consensus={} diff={} descriptors={}\n",
                r.from_version,
                r.to_version,
                r.base_age_hours,
                r.count,
                r.consensus_bytes,
                u8::from(r.consensus_is_diff),
                r.descriptor_bytes
            ));
        }
        out.push_str(&format!("probes count={}\n", self.failed_probes));
        out.push_str("end\n");
        out
    }

    /// Encodes a sequence of hour mixes into one file body.
    pub fn encode_all(mixes: &[FetchMix]) -> String {
        mixes.iter().map(FetchMix::encode).collect()
    }

    /// Parses one or more concatenated [`FetchMix::encode`] blocks.
    /// Rejects malformed lines with a description rather than panicking,
    /// and rejects a block whose counts or byte totals overflow `u64`,
    /// so every accessor is total on a parsed mix.
    pub fn parse_all(text: &str) -> Result<Vec<FetchMix>, String> {
        let mut mixes = Vec::new();
        let mut current: Option<FetchMix> = None;
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fail = |what: &str| format!("fetchmix line {}: {what}: {line:?}", number + 1);
            let mut fields = line.split_whitespace();
            let word = fields.next().expect("non-empty line has a first token");
            let mut pairs = std::collections::BTreeMap::new();
            for field in fields {
                if let Some((key, value)) = field.split_once('=') {
                    pairs.insert(key, value);
                } else if !(word == "fetchmix" && field == "v1") {
                    return Err(fail("expected key=value"));
                }
            }
            let num = |key: &str| -> Result<u64, String> {
                pairs
                    .get(key)
                    .ok_or_else(|| fail(&format!("missing {key}=")))?
                    .parse::<u64>()
                    .map_err(|_| fail(&format!("bad {key}=")))
            };
            match word {
                "fetchmix" => {
                    if current.is_some() {
                        return Err(fail("new block before `end`"));
                    }
                    current = Some(FetchMix {
                        hour: num("hour")?,
                        bootstraps: Vec::new(),
                        refreshes: Vec::new(),
                        failed_probes: 0,
                    });
                }
                "bootstrap" => {
                    let mix = current.as_mut().ok_or_else(|| fail("outside a block"))?;
                    mix.bootstraps.push(BootstrapClass {
                        version: num("version")? as usize,
                        count: num("count")?,
                        consensus_bytes: num("consensus")?,
                        descriptor_bytes: num("descriptors")?,
                    });
                }
                "refresh" => {
                    let diff = num("diff")?;
                    let mix = current.as_mut().ok_or_else(|| fail("outside a block"))?;
                    mix.refreshes.push(RefreshClass {
                        from_version: num("from")? as usize,
                        to_version: num("to")? as usize,
                        base_age_hours: num("age")?,
                        count: num("count")?,
                        consensus_bytes: num("consensus")?,
                        consensus_is_diff: diff != 0,
                        descriptor_bytes: num("descriptors")?,
                    });
                }
                "probes" => {
                    let mix = current.as_mut().ok_or_else(|| fail("outside a block"))?;
                    mix.failed_probes = num("count")?;
                }
                "end" => {
                    let mix = current.take().ok_or_else(|| fail("`end` without block"))?;
                    if !mix.totals_fit() {
                        return Err(fail("block's counts or byte totals overflow u64"));
                    }
                    mixes.push(mix);
                }
                _ => return Err(fail("unknown record")),
            }
        }
        if current.is_some() {
            return Err("fetchmix: unterminated block (missing `end`)".into());
        }
        Ok(mixes)
    }

    /// Whether every sum and product the accessors take fits in `u64`:
    /// the fetch total, the payload bytes (whose partial sums are the
    /// consensus and descriptor totals) and the request bytes, which
    /// also bound `dirload`'s per-class sampling weights.
    fn totals_fit(&self) -> bool {
        fn sum(terms: impl IntoIterator<Item = Option<u64>>) -> Option<u64> {
            terms
                .into_iter()
                .try_fold(0u64, |acc, term| acc.checked_add(term?))
        }
        let rows = self
            .bootstraps
            .iter()
            .map(|b| (b.count, b.consensus_bytes, b.descriptor_bytes))
            .chain(
                self.refreshes
                    .iter()
                    .map(|r| (r.count, r.consensus_bytes, r.descriptor_bytes)),
            );
        let fits = || {
            let served = sum(rows.clone().map(|(count, ..)| Some(count)))?;
            sum([Some(served), Some(self.failed_probes)])?;
            sum(rows.clone().flat_map(|(count, consensus, descriptors)| {
                [count.checked_mul(consensus), count.checked_mul(descriptors)]
            }))?;
            sum([
                served.checked_mul(REQUEST_BYTES),
                self.failed_probes.checked_mul(FAILED_PROBE_BYTES),
            ])
        };
        fits().is_some()
    }

    /// The busiest mix in a sequence (most total fetches) — the hour a
    /// capacity replay wants by default.
    pub fn busiest(mixes: &[FetchMix]) -> Option<&FetchMix> {
        mixes.iter().max_by_key(|m| m.total_fetches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistConfig, DistSession, DocModel, HourInput, LinkWindow, TierNode};

    fn five_of_nine_session(hours: u64, tail: u64) -> DistSession {
        let windows: Vec<LinkWindow> = (1..=hours)
            .flat_map(|h| {
                (0..5).map(move |i| LinkWindow {
                    node: TierNode::Authority(i),
                    start_secs: (h * 3_600) as f64,
                    duration_secs: 300.0,
                    bps: 0.5e6,
                })
            })
            .collect();
        let config = DistConfig {
            clients: 100_000,
            n_caches: 20,
            link_windows: windows,
            feedback: true,
            ..DistConfig::default()
        };
        let mut session = DistSession::new(&config, DocModel::synthetic(4_000));
        for hour in 1..=(hours + tail) {
            let input = if hour <= hours {
                HourInput::failed()
            } else {
                HourInput::produced(330.0)
            };
            session.step_hour(input);
        }
        session
    }

    /// The satellite pin: every hour of a five-of-nine campaign (24 h of
    /// breached runs plus a recovery tail, feedback on) yields a mix
    /// whose byte arithmetic matches the session's own accounting to
    /// the byte — egress, descriptors, and request-side traffic.
    #[test]
    fn five_of_nine_mix_matches_session_accounting_exactly() {
        let session = five_of_nine_session(24, 4);
        let mixes = session.fetch_mixes();
        assert_eq!(mixes.len(), session.hour_reports().len());
        for (mix, report) in mixes.iter().zip(session.hour_reports()) {
            let row = &report.fleet;
            assert_eq!(mix.hour, row.hour);
            assert_eq!(mix.bootstrap_count(), row.bootstrap_successes);
            assert_eq!(mix.refresh_count(), row.refresh_fetches);
            assert_eq!(
                mix.consensus_bytes(),
                row.cache_egress_bytes,
                "hour {}",
                row.hour
            );
            assert_eq!(mix.descriptor_bytes(), row.descriptor_egress_bytes);
            assert_eq!(
                mix.served_bytes(),
                row.cache_egress_bytes + row.descriptor_egress_bytes
            );
            assert_eq!(mix.request_bytes(), row.request_bytes, "hour {}", row.hour);
        }
        // The campaign leaves its signature in the mixes: failed probes
        // during the outage, a bootstrap storm in the recovery tail.
        let storm: u64 = mixes.iter().map(|m| m.failed_probes).sum();
        assert!(storm > 0, "a 24 h outage must strand probes");
        let tail_bootstraps: u64 = mixes[25..].iter().map(FetchMix::bootstrap_count).sum();
        assert!(
            tail_bootstraps > 0,
            "the tail must re-bootstrap the dead pool"
        );
        // Healthy steady-state hours refresh on diffs.
        assert!(mixes[1].diff_fraction() > 0.0);
    }

    #[test]
    fn encode_parse_round_trips() {
        let session = five_of_nine_session(3, 2);
        let mixes = session.fetch_mixes();
        let text = FetchMix::encode_all(&mixes);
        let parsed = FetchMix::parse_all(&text).expect("own encoding parses");
        assert_eq!(parsed, mixes);
        assert!(FetchMix::busiest(&parsed).is_some());
    }

    #[test]
    fn parse_rejects_malformed_input_without_panicking() {
        for bad in [
            "bootstrap version=1 count=2 consensus=3 descriptors=4\n",
            "fetchmix v1 hour=1\nfetchmix v1 hour=2\n",
            "fetchmix v1 hour=1\nrefresh from=x to=1 age=0 count=1 consensus=1 diff=1 descriptors=1\nend\n",
            "fetchmix v1 hour=1\nwhatever k=1\nend\n",
            "fetchmix v1 hour=1\nprobes count=1\n",
            "fetchmix v1\nend\n",
        ] {
            assert!(FetchMix::parse_all(bad).is_err(), "must reject: {bad:?}");
        }
        assert_eq!(FetchMix::parse_all("\n\n").unwrap(), Vec::new());
    }

    /// A count whose fetch total or byte product leaves `u64` is
    /// rejected at parse time (it used to panic in `busiest` in a debug
    /// build and wrap in a release build).
    #[test]
    fn parse_rejects_overflowing_totals() {
        let max = u64::MAX;
        for bad in [
            format!("fetchmix v1 hour=1\nbootstrap version=1 count={max} consensus=1 descriptors=0\nprobes count=1\nend\n"),
            format!("fetchmix v1 hour=1\nbootstrap version=1 count=2 consensus={max} descriptors=0\nprobes count=0\nend\n"),
            format!("fetchmix v1 hour=1\nrefresh from=0 to=1 age=1 count=3 consensus=1 diff=1 descriptors=0\nprobes count={max}\nend\n"),
        ] {
            let error = FetchMix::parse_all(&bad).expect_err("overflow must be rejected");
            assert!(error.contains("overflow"), "{error}");
        }
    }
}
