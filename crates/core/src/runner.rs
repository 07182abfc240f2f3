//! Scenario orchestration: builds a committee, documents, topology and
//! attack schedule, runs one protocol to completion, and extracts a
//! uniform [`RunReport`].
//!
//! Every experiment in [`crate::experiments`] is a loop over scenarios fed
//! through [`run`], or a batch of them fed through [`sweep`]. A run's
//! committee — its authorities' keys and the [`Committee`] that remembers
//! which signatures have passed — is derived from the scenario's
//! `(seed, n)` alone: [`run`] and [`run_with`] derive one per run, and a
//! [`sweep`] derives one per unit of work, the jobs of one `(seed, n)`
//! group that one worker runs in job order.

use crate::adversary::AttackPlan;
use crate::calibration;
use crate::document::DirDocument;
use crate::protocols::{
    Authority, AuthorityReport, CurrentAuthority, IcpsAuthority, ProtocolKind, Seat, SyncAuthority,
};
use partialtor_crypto::Committee;
use partialtor_simnet::prelude::*;
use partialtor_tordoc::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// One experiment configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Simulation seed (topology, document noise, determinism).
    pub seed: u64,
    /// Committee size.
    pub n: usize,
    /// Relay population size (drives vote-document size).
    pub relays: u64,
    /// Default authority link bandwidth, bits/s.
    pub bandwidth_bps: f64,
    /// Authorities whose links are statically limited (the Fig. 7 victim
    /// set).
    pub limited: Vec<usize>,
    /// Bandwidth of the limited authorities, bits/s.
    pub limited_bps: f64,
    /// The attack campaign on this run's local clock (Fig. 1 / Fig. 11
    /// use one window per victim; pulsed-attack ablations use several).
    /// Only authority windows apply — the protocol simulation has no
    /// cache nodes.
    pub attack: AttackPlan,
    /// Generate real `tordoc` votes instead of synthetic sized documents.
    /// Only sensible for small relay counts.
    pub real_docs: bool,
    /// Lock-step round length Δ in seconds (the deployed 150 s by
    /// default; the timeout-scaling ablation sweeps it).
    pub round_secs: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            seed: 1,
            n: calibration::N_AUTHORITIES,
            relays: 8_000,
            bandwidth_bps: calibration::AUTHORITY_LINK_BPS,
            limited: Vec::new(),
            limited_bps: calibration::ATTACK_RESIDUAL_BPS,
            attack: AttackPlan::empty(),
            real_docs: false,
            round_secs: calibration::ROUND_SECS,
        }
    }
}

impl Scenario {
    /// The run id used for signature domain separation.
    fn run_id(&self) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.relays
    }

    fn bandwidth_of(&self, index: usize) -> f64 {
        if self.limited.contains(&index) {
            self.limited_bps
        } else {
            self.bandwidth_bps
        }
    }

    /// Link rate net of the background directory-service load.
    fn effective(&self, raw_bps: f64) -> f64 {
        calibration::effective_bandwidth(raw_bps, self.relays)
    }

    /// The votes of `committee`, this scenario's `(seed, n)` authorities.
    fn documents(&self, committee: &AuthoritySet) -> Vec<DirDocument> {
        if self.real_docs {
            let population = generate_population(&PopulationConfig {
                seed: self.seed,
                count: self.relays as usize,
            });
            committee
                .iter()
                .map(|auth| {
                    let config = ViewConfig {
                        measures_bandwidth: auth.id.0 % 3 == 0,
                        ..ViewConfig::default()
                    };
                    let view = authority_view(&population, auth.id, self.seed, &config);
                    let meta =
                        VoteMeta::standard(auth.id, &auth.name, auth.fingerprint_hex(), 3_600);
                    DirDocument::real(Vote::new(meta, view))
                })
                .collect()
        } else {
            let size = calibration::vote_size_bytes(self.relays);
            (0..self.n as u8)
                .map(|i| DirDocument::synthetic(self.run_id(), i, size))
                .collect()
        }
    }

    fn topology(&self) -> LatencyMatrix {
        if self.n == 9 {
            authority_topology(self.seed)
        } else {
            scaled_topology(self.n, self.seed)
        }
    }

    fn sim_config(&self) -> SimConfig {
        let effective = self.effective(self.bandwidth_bps);
        SimConfig {
            seed: self.seed,
            default_up_bps: effective,
            default_down_bps: effective,
            wire_overhead_bytes: 64,
            latency_jitter: 0.0,
        }
    }

    fn apply_network_schedule<N: Node>(&self, sim: &mut Simulation<N>) {
        for &index in &self.limited {
            let effective = self.effective(self.limited_bps);
            sim.schedule_bandwidth_change(
                SimTime::ZERO,
                NodeId(index),
                Some(effective),
                Some(effective),
            );
        }
        self.attack.schedule(
            sim,
            self.n,
            |target, window| {
                // The victim's residual is derived from its raw link and
                // the window's flood rate, then shares the link with the
                // background directory load like any other rate.
                let residual = calibration::flooded_residual_bps(
                    self.bandwidth_of(target),
                    window.flood_mbps * 1e6,
                );
                self.effective(residual).min(residual)
            },
            |target| self.effective(self.bandwidth_of(target)),
        );
    }
}

/// Aggregate result of one scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// The protocol run.
    pub protocol: ProtocolKind,
    /// Whether any authority obtained a valid consensus document.
    pub success: bool,
    /// Median network time over successful authorities, seconds.
    pub network_time_secs: Option<f64>,
    /// Earliest and latest authority completion times, seconds.
    pub first_valid_secs: Option<f64>,
    /// Latest completion time, seconds.
    pub last_valid_secs: Option<f64>,
    /// Per-authority details.
    pub authorities: Vec<AuthorityReport>,
    /// Total bytes enqueued on all uplinks.
    pub total_tx_bytes: u64,
    /// Total messages sent.
    pub total_tx_msgs: u64,
    /// Bytes/messages by message kind.
    pub by_kind: BTreeMap<String, (u64, u64)>,
    /// Simulated end time, seconds.
    pub end_time_secs: f64,
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(values[(values.len() - 1) / 2])
}

fn finish_report<N: Node>(
    protocol: ProtocolKind,
    sim: &Simulation<N>,
    authorities: Vec<AuthorityReport>,
) -> RunReport {
    let times: Vec<f64> = authorities
        .iter()
        .filter(|a| a.success)
        .filter_map(|a| a.network_time_secs)
        .collect();
    let valid_times: Vec<f64> = authorities.iter().filter_map(|a| a.valid_at_secs).collect();
    let metrics = sim.metrics();
    // The current and ICPS protocols already require a majority of
    // signatures for any single authority to count as successful; the
    // synchronous protocol's per-authority success only records "decided
    // the designated pack", so a valid (majority-signed) consensus needs a
    // majority of successful authorities.
    let successes = authorities.iter().filter(|a| a.success).count();
    let success = match protocol {
        ProtocolKind::Synchronous => successes >= calibration::majority(authorities.len()),
        _ => successes > 0,
    };
    RunReport {
        protocol,
        success,
        network_time_secs: median(times),
        first_valid_secs: valid_times.iter().cloned().reduce(f64::min),
        last_valid_secs: valid_times.iter().cloned().reduce(f64::max),
        authorities,
        total_tx_bytes: metrics.total_tx_bytes(),
        total_tx_msgs: metrics.total_tx_msgs(),
        by_kind: metrics
            .by_kind()
            .iter()
            .map(|(k, v)| (k.to_string(), (v.bytes, v.count)))
            .collect(),
        end_time_secs: sim.now().as_secs_f64(),
    }
}

/// The committee a run derives from its scenario's `(seed, n)`: the
/// authorities (names and signing keys) and one [`Committee`] over their
/// public keys. Every run handed the same `Keys` shares its verified set.
struct Keys {
    authorities: AuthoritySet,
    committee: Committee,
}

impl Keys {
    fn derive(scenario: &Scenario) -> Self {
        let authorities = AuthoritySet::with_size(scenario.seed, scenario.n);
        let committee = authorities.verifying_keys().into();
        Keys {
            authorities,
            committee,
        }
    }
}

/// Runs one scenario under the chosen protocol.
pub fn run(protocol: ProtocolKind, scenario: &Scenario) -> RunReport {
    let _span = partialtor_obs::span("runner.run");
    run_keyed(protocol, scenario, &Keys::derive(scenario))
}

fn run_keyed(protocol: ProtocolKind, scenario: &Scenario, keys: &Keys) -> RunReport {
    match protocol {
        ProtocolKind::Current => run_in::<CurrentAuthority>(scenario, keys, |_| Default::default()),
        ProtocolKind::Synchronous => {
            run_in::<SyncAuthority>(scenario, keys, |_| Default::default())
        }
        ProtocolKind::Icps => run_in::<IcpsAuthority>(scenario, keys, |_| Default::default()),
    }
}

/// Runs one scenario with an `A` in every seat, seat `i` behaving as
/// `mode(i)`.
///
/// The run derives its own committee, and its nodes share one
/// [`Committee`], so each signature is verified once per run. Lock-step
/// protocols run one minute past their fourth round; ICPS, which has no
/// rounds, gets four hours (the paper's 0.5 Mbit/s runs take about
/// fifteen minutes).
pub fn run_with<A: Authority>(scenario: &Scenario, mode: impl Fn(usize) -> A::Mode) -> RunReport {
    run_in::<A>(scenario, &Keys::derive(scenario), mode)
}

/// The one run path: [`run_with`] on keys derived for `scenario`'s
/// `(seed, n)`, by this run or by an earlier run of its sweep unit.
fn run_in<A: Authority>(
    scenario: &Scenario,
    keys: &Keys,
    mode: impl Fn(usize) -> A::Mode,
) -> RunReport {
    let round = SimDuration::from_secs(scenario.round_secs);
    let nodes: Vec<A> = keys
        .authorities
        .iter()
        .zip(scenario.documents(&keys.authorities))
        .enumerate()
        .map(|(i, (authority, doc))| {
            let seat = Seat {
                run_id: scenario.run_id(),
                index: i as u8,
                n: scenario.n,
                round,
                doc,
                signing: authority.signing_key.clone(),
                keys: keys.committee.clone(),
            };
            A::new(seat, mode(i))
        })
        .collect();
    let mut sim = Simulation::new(scenario.topology(), nodes, scenario.sim_config());
    scenario.apply_network_schedule(&mut sim);
    sim.run_until(match A::KIND {
        ProtocolKind::Icps => SimTime::from_secs(4 * 3600),
        _ => {
            SimTime::ZERO
                + round.saturating_mul(calibration::LOCKSTEP_ROUNDS)
                + SimDuration::from_secs(60)
        }
    });
    let authorities = (0..scenario.n)
        .map(|i| sim.node_mut(NodeId(i)).report())
        .collect();
    finish_report(A::KIND, &sim, authorities)
}

/// One entry in a [`sweep`] batch.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// Protocol to run.
    pub protocol: ProtocolKind,
    /// Scenario to run it on.
    pub scenario: Scenario,
}

impl SweepJob {
    /// Convenience constructor.
    pub fn new(protocol: ProtocolKind, scenario: Scenario) -> Self {
        SweepJob { protocol, scenario }
    }
}

/// Process-wide explicit worker count (0 = unset: use every available
/// core); set from the `dirsim --threads` flag.
static SWEEP_THREADS_OVERRIDE: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// Sets (or, with `None`, clears) an explicit sweep worker count for this
/// process — the one way to pin sweep workers; `Some(1)` forces serial
/// sweeps.
pub fn set_sweep_threads(threads: Option<usize>) {
    SWEEP_THREADS_OVERRIDE.store(
        threads.map_or(0, |t| t.max(1)),
        std::sync::atomic::Ordering::Relaxed,
    );
}

fn auto_worker_count(jobs: usize) -> usize {
    let configured = match SWEEP_THREADS_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    configured.clamp(1, jobs.max(1))
}

/// Runs a batch of scenarios, fanning them out across all cores.
///
/// Every simulation is a pure function of its `(protocol, scenario)`
/// pair, so the batch's reports are byte-identical to a serial loop over
/// [`run`], and `reports[i]` always corresponds to `jobs[i]`.
///
/// The jobs of one `(seed, n)` share one derived committee: its keys are
/// derived once, and a signature verified in one run is answered from
/// the shared set in the next. That changes no report — a verdict is a
/// function of the verified bytes alone, failures are never stored, and
/// verification costs no simulated time. A unit of work is such a group,
/// or a contiguous chunk of it when the batch has fewer groups than
/// workers; each runs on one worker in job order, so the work counters
/// of a batch are exact for a given `(jobs, threads)`.
///
/// Worker count defaults to the available cores, capped at the number
/// of units rather than jobs, and can be pinned with
/// [`set_sweep_threads`].
pub fn sweep(jobs: &[SweepJob]) -> Vec<RunReport> {
    sweep_threads(jobs, auto_worker_count(jobs.len()))
}

/// [`sweep`] with an explicit worker count (`<= 1` runs serially).
/// Exposed so determinism tests can compare serial and parallel sweeps
/// without touching process-global state.
pub fn sweep_threads(jobs: &[SweepJob], threads: usize) -> Vec<RunReport> {
    let units = plan_units(jobs, threads.max(1));
    let reports = par_map_threads(&units, threads, |unit| run_unit(jobs, unit));
    // The units partition the job indices: sorting puts every report
    // back in its job's slot.
    let mut slots: Vec<(usize, RunReport)> = units
        .iter()
        .zip(reports)
        .flat_map(|(unit, reports)| unit.iter().copied().zip(reports))
        .collect();
    slots.sort_unstable_by_key(|&(index, _)| index);
    slots.into_iter().map(|(_, report)| report).collect()
}

/// Runs the jobs at `unit`'s indices in order, on one committee derived
/// by the first of them (inside its `runner.run` span).
fn run_unit(jobs: &[SweepJob], unit: &[usize]) -> Vec<RunReport> {
    let mut keys: Option<Keys> = None;
    unit.iter()
        .map(|&index| {
            let SweepJob { protocol, scenario } = &jobs[index];
            let _span = partialtor_obs::span("runner.run");
            let keys = keys.get_or_insert_with(|| Keys::derive(scenario));
            run_keyed(*protocol, scenario, keys)
        })
        .collect()
}

/// Splits a sweep batch into units of work, each a list of job indices
/// in ascending order that share one `(seed, n)`.
///
/// Every group of jobs with the same `(seed, n)` is one unit, in order of
/// first appearance. When there are fewer groups than `workers`, groups
/// are cut into contiguous chunks of near-equal size — one more chunk at
/// a time for the group whose chunks are largest — until there are
/// `workers` units or every unit is a single job, so no batch loses
/// parallelism to the grouping.
fn plan_units(jobs: &[SweepJob], workers: usize) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<(u64, usize), usize> = HashMap::new();
    for (index, job) in jobs.iter().enumerate() {
        let key = (job.scenario.seed, job.scenario.n);
        let group = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[group].push(index);
    }
    let mut chunks = vec![1; groups.len()];
    for _ in groups.len()..workers {
        let widest = (0..groups.len())
            .filter(|&g| chunks[g] < groups[g].len())
            .max_by_key(|&g| (groups[g].len().div_ceil(chunks[g]), std::cmp::Reverse(g)));
        match widest {
            Some(g) => chunks[g] += 1,
            None => break,
        }
    }
    groups
        .iter()
        .zip(chunks)
        .flat_map(|(group, count)| {
            (0..count).map(move |k| {
                group[k * group.len() / count..(k + 1) * group.len() / count].to_vec()
            })
        })
        .collect()
}

/// Order-preserving parallel map over `items` using all available cores.
///
/// The generic escape hatch behind [`sweep`] for drivers whose unit of
/// work is not a single protocol run (e.g. Fig. 7's per-relay-count
/// binary search or the consensus-diff measurements).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, auto_worker_count(items.len()), f)
}

fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    // Work-stealing by atomic index; each result lands in its input's
    // slot, so output order is independent of scheduling.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let worker = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            let result = f(item);
            *slots[index].lock().expect("result slot") = Some(result);
        };
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        // Join the OS threads, not only their closures (all the scope
        // waits for): a worker still exiting when the next batch spawns
        // keeps its allocator arena and stack, the new worker gets fresh
        // ones, and peak memory then depends on that race.
        for worker in workers {
            worker.join().expect("a sweep worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AttackPlan;

    /// A mixed batch covering all three protocols, several seeds and
    /// relay counts, and attacked scenarios. Seed 7 recurs across
    /// protocols, relay counts, calm and attacked runs, and a four-seat
    /// committee beside nine seats, so the batch has shared committees to
    /// get wrong.
    fn mixed_jobs() -> Vec<SweepJob> {
        let mut jobs = Vec::new();
        for (i, protocol) in ProtocolKind::ALL.into_iter().cycle().take(9).enumerate() {
            jobs.push(SweepJob::new(
                protocol,
                Scenario {
                    seed: 11 + i as u64,
                    relays: 500 + 250 * i as u64,
                    ..Scenario::default()
                },
            ));
            let attack = if i % 2 == 0 {
                AttackPlan::empty()
            } else {
                AttackPlan::five_of_nine()
            };
            jobs.push(SweepJob::new(
                protocol,
                Scenario {
                    seed: 7,
                    n: if i % 3 == 2 { 4 } else { 9 },
                    relays: 1_000 + 500 * (i as u64 / 3),
                    attack,
                    ..Scenario::default()
                },
            ));
        }
        jobs.push(SweepJob::new(
            ProtocolKind::Icps,
            Scenario {
                seed: 3,
                relays: 2_000,
                attack: AttackPlan::five_of_nine(),
                ..Scenario::default()
            },
        ));
        jobs
    }

    /// Eight jobs of one `(seed, n)`: `plan_units` cuts their one group
    /// into as many units as there are workers, so each worker count
    /// runs this batch as a different set of units.
    fn one_committee_jobs() -> Vec<SweepJob> {
        ProtocolKind::ALL
            .into_iter()
            .cycle()
            .take(8)
            .enumerate()
            .map(|(i, protocol)| {
                let attack = if i % 2 == 0 {
                    AttackPlan::empty()
                } else {
                    AttackPlan::five_of_nine()
                };
                SweepJob::new(
                    protocol,
                    Scenario {
                        seed: 7,
                        relays: 500 + 250 * i as u64,
                        attack,
                        ..Scenario::default()
                    },
                )
            })
            .collect()
    }

    /// The worker counts CI runs on (1, 2 and 4 cores) and 8 return the
    /// serial reports, on the mixed batch and on one whose units differ
    /// at every count.
    #[test]
    fn sweep_parallel_matches_serial_byte_for_byte() {
        let one_committee = one_committee_jobs();
        for workers in [1, 2, 4, 8] {
            assert_eq!(plan_units(&one_committee, workers).len(), workers);
        }
        for jobs in [mixed_jobs(), one_committee] {
            assert!(jobs.len() >= 8, "determinism check needs a real batch");
            let serial = sweep_threads(&jobs, 1);
            for threads in [2, 4, 8] {
                let parallel = sweep_threads(&jobs, threads);
                assert_eq!(serial.len(), parallel.len());
                for (index, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                    assert_eq!(a, b, "job {index} diverged at {threads} workers");
                    // Belt and braces: the rendered reports must match
                    // byte for byte, catching any non-PartialEq drift in
                    // nested types.
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "job {index} debug repr at {threads} workers"
                    );
                }
            }
        }
    }

    /// Every slot holds its own job's report, byte for byte what a lone
    /// `run` of that job gives.
    #[test]
    fn sweep_preserves_input_order() {
        let jobs = mixed_jobs();
        let reports = sweep(&jobs);
        assert_eq!(reports.len(), jobs.len());
        for (index, (job, report)) in jobs.iter().zip(&reports).enumerate() {
            let alone = run(job.protocol, &job.scenario);
            assert_eq!(report, &alone, "job {index}");
            assert_eq!(format!("{report:?}"), format!("{alone:?}"), "job {index}");
        }
    }

    /// Every index once, each unit ascending and of one `(seed, n)`.
    fn assert_partition(jobs: &[SweepJob], units: &[Vec<usize>]) {
        let mut seen: Vec<usize> = units.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..jobs.len()).collect::<Vec<_>>());
        for unit in units {
            assert!(!unit.is_empty());
            assert!(
                unit.windows(2).all(|w| w[0] < w[1]),
                "{unit:?} out of order"
            );
            let key = |&i: &usize| (jobs[i].scenario.seed, jobs[i].scenario.n);
            assert!(unit.iter().all(|i| key(i) == key(&unit[0])), "{unit:?}");
        }
    }

    fn calm_job(seed: u64, relays: u64) -> SweepJob {
        SweepJob::new(
            ProtocolKind::Current,
            Scenario {
                seed,
                relays,
                ..Scenario::default()
            },
        )
    }

    #[test]
    fn the_unit_plan_partitions_the_batch() {
        let jobs = mixed_jobs();
        for workers in [1, 2, 3, 8, 64] {
            let units = plan_units(&jobs, workers);
            assert_partition(&jobs, &units);
            // Eleven distinct seeds plus seed 7's `n = 4` group.
            assert_eq!(units.len(), 12.max(workers.min(jobs.len())), "{workers}");
        }
        assert!(plan_units(&[], 4).is_empty());
    }

    #[test]
    fn a_one_seed_batch_is_cut_into_a_unit_per_worker() {
        let jobs: Vec<SweepJob> = (0..40).map(|i| calm_job(5, 500 + i)).collect();
        assert_eq!(plan_units(&jobs, 1), [(0..40).collect::<Vec<_>>()]);
        for workers in [2, 8] {
            let units = plan_units(&jobs, workers);
            assert_partition(&jobs, &units);
            assert!(units.len() >= workers, "{workers} workers: {units:?}");
            // Contiguous chunks of near-equal size.
            assert_eq!(units.concat(), (0..40).collect::<Vec<_>>());
            let sizes: Vec<usize> = units.iter().map(Vec::len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn a_batch_of_many_seeds_keeps_its_groups_whole() {
        // Interleaved like the frontier's hourly jobs: seed varies fastest.
        let jobs: Vec<SweepJob> = (0..8)
            .flat_map(|k| (0..24).map(move |seed| calm_job(seed, 1_000 + k)))
            .collect();
        for workers in [1, 2, 8] {
            let units = plan_units(&jobs, workers);
            assert_partition(&jobs, &units);
            assert_eq!(units.len(), 24);
            for (seed, unit) in units.iter().enumerate() {
                let group: Vec<usize> = (0..8).map(|k| 24 * k + seed).collect();
                assert_eq!(unit, &group);
            }
        }
    }

    /// SHA-256 of each whole report, for the three protocols on four
    /// scenarios: calm, the headline attack, a scaled four-seat committee
    /// with one limited link, and real documents.
    #[test]
    fn reports_are_byte_identical_to_the_pins() {
        let scenarios = [
            Scenario {
                relays: 1_000,
                ..Scenario::default()
            },
            Scenario {
                attack: AttackPlan::five_of_nine(),
                ..Scenario::default()
            },
            Scenario {
                n: 4,
                limited: vec![1],
                ..Scenario::default()
            },
            Scenario {
                relays: 60,
                real_docs: true,
                ..Scenario::default()
            },
        ];
        let digests: Vec<String> = scenarios
            .iter()
            .flat_map(|scenario| ProtocolKind::ALL.map(|protocol| run(protocol, scenario)))
            .map(|report| partialtor_crypto::sha256::digest(format!("{report:?}").as_bytes()))
            .map(|digest| digest.to_hex())
            .collect();
        assert_eq!(
            digests,
            [
                "0e7ff981bbfeb472a35e200ed33ff711938f2469842a03f0641cc8e63bd1b9ad",
                "1e7caf87a7bb8c11f19d2e2ea9148693027abfa4596ee25f700600eb2af5a105",
                "7b532afeec4a7d674b92f5f03e5164004149da73fae47dfee55ad847edcba164",
                "2b360d93efeecc5c004e7d6e5705fc5425ae1e2f8eeed424a423863869b9697a",
                "b2dd2eef28fc168f998b416a7848637087eba57c7947490bfb02c37069683d18",
                "40ab699f38d7aedb597a95f7801396b2cf99d65aa989171fed3a01cc8b30c72f",
                "27a8c6a732267599652e25b62dd70fcbaccb051ba718af10242ee4bf4dd540d2",
                "ea8e1df10e2338e8cd9e7ac163978c5373a4d8e4aa5f1ff414788525eb2a631a",
                "4807a0fc9b38c80e166a638848b662d2d353db917dc98aebf418516a16ffac2d",
                "85c0f6f751889f5d1ce671fe8fcd5193cdcd81cdd8bdc495c7c1b62d1a317311",
                "8727fc2f689fe1c9a04444d1edb4eae133355445fe3cb7aaeacac29487ee01e0",
                "e381d9d5f38298d93e8f00dded59632fd9107555c79d4c013cec5fcd3a90a20b",
            ]
        );
    }

    #[test]
    fn par_map_is_order_stable_for_uneven_work() {
        let items: Vec<u64> = (0..40).collect();
        let doubled = par_map(&items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_thread_override_takes_precedence_over_env() {
        // The override is process-global but only changes worker counts,
        // never results (sweeps are deterministic), so flipping it here
        // cannot perturb concurrently running tests.
        set_sweep_threads(Some(3));
        assert_eq!(auto_worker_count(100), 3);
        set_sweep_threads(Some(0));
        assert_eq!(auto_worker_count(100), 1, "0 clamps to serial");
        set_sweep_threads(None);
        assert!(auto_worker_count(100) >= 1);
    }

    #[test]
    fn all_three_protocols_succeed_on_healthy_network() {
        let scenario = Scenario {
            relays: 1_000,
            ..Scenario::default()
        };
        for protocol in ProtocolKind::ALL {
            let report = run(protocol, &scenario);
            assert!(report.success, "{protocol} failed: {report:?}");
            assert!(report.network_time_secs.unwrap() < 60.0, "{protocol} slow");
        }
    }

    #[test]
    fn headline_attack_breaks_current_but_not_icps() {
        let scenario = Scenario {
            relays: 8_000,
            attack: AttackPlan::five_of_nine(),
            ..Scenario::default()
        };
        let current = run(ProtocolKind::Current, &scenario);
        assert!(
            !current.success,
            "five minutes of DDoS must break the current protocol"
        );
        let icps = run(ProtocolKind::Icps, &scenario);
        assert!(icps.success, "ICPS must recover after the attack window");
        // Recovery shortly after the 300 s attack window (Fig. 11).
        let last = icps.last_valid_secs.unwrap();
        assert!(
            (300.0..400.0).contains(&last),
            "recovery at {last}, expected shortly after 300 s"
        );
    }

    #[test]
    fn real_documents_flow_end_to_end() {
        let scenario = Scenario {
            relays: 60,
            real_docs: true,
            ..Scenario::default()
        };
        for protocol in ProtocolKind::ALL {
            let report = run(protocol, &scenario);
            assert!(report.success, "{protocol} failed with real docs");
            // All successful authorities agree on one digest.
            let digests: std::collections::BTreeSet<_> = report
                .authorities
                .iter()
                .filter(|a| a.success)
                .filter_map(|a| a.digest)
                .collect();
            assert_eq!(digests.len(), 1, "{protocol} digest divergence");
        }
    }
}
