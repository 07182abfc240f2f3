//! Fig. 1: the authority log transcript while five authorities are under
//! attack.
//!
//! Runs the current protocol with the headline DDoS (five victims,
//! 0.5 Mbit/s residual, covering the vote rounds) and renders the daemon
//! log of an *unattacked* authority from its round records: it notices the
//! missing votes, asks every other authority for copies, gives up, and
//! fails the consensus with fewer votes than the required five.

use crate::adversary::AttackPlan;
use crate::protocols::{Phase, ProtocolKind};
use crate::runner::{run, Scenario};
use partialtor_crypto::sha256;
use partialtor_simnet::SimTime;

/// Result of the Fig. 1 reproduction.
#[derive(Clone, Debug)]
pub struct Fig1Result {
    /// The rendered transcript of one unattacked authority.
    pub transcript: String,
    /// Whether the run failed as the paper shows.
    pub consensus_failed: bool,
    /// Votes the observed authority held at consensus time.
    pub votes_held_line: Option<String>,
}

/// Runs the experiment.
pub fn run_experiment(seed: u64) -> Fig1Result {
    let scenario = Scenario {
        seed,
        relays: 8_000,
        attack: AttackPlan::five_of_nine(),
        ..Scenario::default()
    };
    let report = run(ProtocolKind::Current, &scenario);
    // Authority 8 is outside the victim set.
    let transcript = render_transcript(&report.authorities[8].phases);
    let votes_held_line = transcript
        .lines()
        .find(|l| l.contains("We don't have enough votes"))
        .map(str::to_string);
    Fig1Result {
        consensus_failed: !report.success,
        votes_held_line,
        transcript,
    }
}

/// Seconds between simulation start and the fake wall-clock epoch of the
/// transcript (Fig. 1's lines sit around 01:24, i.e. the run that started
/// at 01:20).
const LOG_EPOCH_SECS: u64 = 3600 + 20 * 60;

/// Renders one authority's round records the way `tor` writes its daemon
/// log — `Jan 01 01:24:30.011 [notice] …`, one line per event.
pub fn render_transcript(phases: &[Phase]) -> String {
    let mut lines = Vec::new();
    let mut log = |at: SimTime, level: &str, text: String| {
        let total_ms = (at.as_secs_f64() * 1000.0).round() as u64;
        let secs = LOG_EPOCH_SECS + total_ms / 1000;
        let ms = total_ms % 1000;
        let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
        lines.push(format!(
            "Jan 01 {h:02}:{m:02}:{s:02}.{ms:03} [{level}] {text}"
        ));
    };
    for phase in phases {
        match *phase {
            Phase::FetchVotes { at, ref missing } => {
                let text = "Time to fetch any votes that we're missing.";
                log(at, "notice", text.into());
                if !missing.is_empty() {
                    let fingerprints: Vec<String> = missing
                        .iter()
                        .map(|&i| sha256::digest_parts(&[b"authority-fp", &[i]]).short_hex(20))
                        .collect();
                    let text = format!(
                        "We're missing votes from {} authorities ({}). \
                         Asking every other authority for a copy.",
                        missing.len(),
                        fingerprints.join("\n    ")
                    );
                    log(at, "notice", text);
                }
            }
            Phase::ComputeConsensus {
                at,
                ref missing,
                held,
                needed,
            } => {
                for i in missing {
                    let text = format!(
                        "connection_dir_client_request_failed(): \
                         Giving up downloading votes from 100.0.0.{}:8080",
                        i + 1
                    );
                    log(at, "info", text);
                }
                log(at, "notice", "Time to compute a consensus.".into());
                if held < needed {
                    let text = format!(
                        "We don't have enough votes to generate a consensus: {held} of {needed}"
                    );
                    log(at, "warn", text);
                }
            }
            Phase::CloseSignatures {
                at,
                computed,
                matching,
                needed,
            } => {
                if computed && matching < needed {
                    let text = format!(
                        "A consensus needs {needed} good signatures from recognized \
                         authorities for us to accept it. This one has {matching}."
                    );
                    log(at, "warn", text);
                }
            }
        }
    }
    lines.join("\n")
}

/// Renders the transcript for printing.
pub fn render(result: &Fig1Result) -> String {
    let mut out = String::new();
    out.push_str("=== Fig. 1: authority log under the 5-authority DDoS ===\n\n");
    out.push_str(&result.transcript);
    out.push_str("\n\n");
    out.push_str(&format!(
        "consensus generation failed: {}\n",
        result.consensus_failed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_matches_paper_shape() {
        let result = run_experiment(11);
        assert!(result.consensus_failed, "the attack must break the run");
        assert!(result
            .transcript
            .contains("Time to fetch any votes that we're missing."));
        assert!(result
            .transcript
            .contains("We're missing votes from 5 authorities"));
        assert!(result
            .transcript
            .contains("Giving up downloading votes from 100.0.0."));
        assert!(result.transcript.contains("Time to compute a consensus."));
        let line = result.votes_held_line.expect("failure line present");
        // The observed authority holds the 4 unattacked votes, needs 5.
        assert!(line.contains("4 of 5"), "{line}");
    }

    /// SHA-256 and line count of a rendered report.
    fn pin(text: &str) -> (String, usize) {
        let digest = sha256::digest(text.as_bytes()).to_hex();
        (digest, text.lines().count())
    }

    #[test]
    fn report_is_byte_identical_to_the_pinned_transcripts() {
        // Seed 42 is what `dirsim fig fig1` prints. The seed moves no
        // line: the victims, round boundaries and fingerprints are fixed.
        for seed in [42, 11] {
            assert_eq!(
                pin(&render(&run_experiment(seed))),
                (
                    "cf481b1f70f9bdf675403c8b0fc6ba89dd605481fa1f47b6e66c3b83d9a4846d".into(),
                    17
                ),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn a_calm_run_logs_only_the_two_round_notices() {
        let scenario = Scenario {
            seed: 42,
            ..Scenario::default()
        };
        let report = run(ProtocolKind::Current, &scenario);
        assert!(report.success);
        assert_eq!(
            render_transcript(&report.authorities[8].phases),
            "Jan 01 01:22:30.000 [notice] Time to fetch any votes that we're missing.\n\
             Jan 01 01:25:00.000 [notice] Time to compute a consensus."
        );
    }

    #[test]
    fn an_equivocator_holding_a_majority_has_enough_votes() {
        use crate::protocols::{testing, Authority, CurrentAuthority, CurrentByzantineMode};
        use partialtor_simnet::prelude::*;

        let committee = testing::committee(9, 1);
        let nodes = (0..9)
            .map(|i| {
                let mode = match i {
                    0 => CurrentByzantineMode::EquivocateVotes,
                    _ => CurrentByzantineMode::Honest,
                };
                CurrentAuthority::new(testing::seat(i, 5, 1_000, &committee), mode)
            })
            .collect();
        let mut sim = Simulation::new(authority_topology(5), nodes, SimConfig::default());
        sim.run_until(SimTime::from_secs(700));
        let transcript = render_transcript(&sim.node_mut(NodeId(0)).report().phases);
        assert!(
            transcript.contains("Time to compute a consensus."),
            "{transcript}"
        );
        assert!(!transcript.contains("enough votes"), "{transcript}");
    }
}
