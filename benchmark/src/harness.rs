//! Shared measuring code: the op loop, the set-up timer, the output
//! checker and the driver of the simulator workloads.

use crate::json::{self, Value};
use crate::metrics::Values;
use crate::sim::SimWorkload;
use crate::spans::Spans;
use crate::stats;
use std::time::Instant;

/// Parts an untraced pass is cut into; the fixture is built, and the
/// build timed, before each. The host changes speed every few seconds
/// (README, "Noise"): builds bunched at the start of a run all see one
/// speed, and `setup_s` then jumps between the speeds from run to run
/// (it moved 36 % and 41 % between two sets where the ops moved 15 % and
/// 5 %), where builds spread over the run see what the ops see.
pub const SEGMENTS: usize = 4;

/// Before each segment the fixture is built once, and up to
/// [`BUILDS_PER_SEGMENT`] times while that takes less than
/// [`SEGMENT_BUILD_SECS`], so that a 60 ms fixture is not judged by four
/// samples.
const BUILDS_PER_SEGMENT: usize = 3;
const SEGMENT_BUILD_SECS: f64 = 0.5;

/// Share of `--seconds` each of the two passes of a traced run gets;
/// the open loop and the layer probes use the rest.
const TRACED_PASS_SHARE: f64 = 0.4;

/// One invocation's arguments.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// Seconds each measured pass of this run gets: all of `--seconds`
    /// untraced, a share of it traced.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * TRACED_PASS_SHARE
        } else {
            self.seconds
        }
    }
}

/// What a run reports besides its metrics.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reading the run.
    pub notes: Vec<String>,
}

impl Tally {
    /// Failure messages kept; the counts are always complete.
    const NOTES_KEPT: usize = 8;

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < Self::NOTES_KEPT {
            self.notes.push(note);
        }
    }

    /// Whether the run's outputs were right: ops ran and none failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Adds another tally's counts and notes to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.iter().cloned());
        self.notes.truncate(Self::NOTES_KEPT);
    }
}

/// The result of one benchmark process.
pub struct RunResult {
    pub tally: Tally,
    pub values: Values,
    /// Sample count, median and tail of the op time of the untraced
    /// pass, for the printed table.
    pub op_samples: usize,
    pub op_ms_p50: f64,
    pub op_tail: Option<(f64, f64)>,
}

/// One measured pass over a workload, from its first op to its last.
#[derive(Debug, Default, PartialEq)]
pub struct Pass {
    /// Wall milliseconds of every op that completed and passed its
    /// checks, ascending.
    pub ops_ms: Vec<f64>,
    /// Wall seconds the pass took.
    pub wall_s: f64,
    /// Process CPU seconds used meanwhile.
    pub cpu_s: f64,
}

impl Pass {
    /// Median wall milliseconds of an op.
    fn op_ms_p50(&self) -> f64 {
        stats::median(&self.ops_ms)
    }
}

/// What a workload measured, as it hands it over to [`finish`].
pub struct Passes {
    pub setup_s: f64,
    /// The untraced pass.
    pub plain: Pass,
    /// The traced pass and its spans, on a traced run.
    pub traced: Option<(Pass, Spans)>,
}

/// Turns the passes into the run's result: the end-to-end metrics of an
/// untraced run, or the benchmark's own per-layer metrics and the span
/// file of a traced one (whose other per-layer metrics are in `values`
/// already).
pub fn finish(name: &str, tally: Tally, mut values: Values, passes: Passes) -> RunResult {
    let plain = &passes.plain;
    let op_tail = stats::tail(&plain.ops_ms);
    match &passes.traced {
        Some((traced, spans)) => {
            values.set(
                "bench.trace_overhead_ratio",
                traced.op_ms_p50() / plain.op_ms_p50(),
            );
            values.set("bench.op_ms_p50", plain.op_ms_p50());
            values.set("bench.op_ms_tail", op_tail.map_or(0.0, |(_, v)| v));
            values.set("bench.op_samples", plain.ops_ms.len() as f64);
            spans.save_and_print(name);
        }
        None => {
            let ops = plain.ops_ms.len() as f64;
            values.set("setup_s", passes.setup_s);
            values.set("cpu_ms_per_op", plain.cpu_s / ops * 1e3);
            values.set("ops_per_s", ops / plain.wall_s);
        }
    }
    RunResult {
        tally,
        values,
        op_samples: plain.ops_ms.len(),
        op_ms_p50: plain.op_ms_p50(),
        op_tail,
    }
}

/// Builds a workload's fixture whenever asked and times every build.
pub struct Setup<B> {
    build: B,
    secs: Vec<f64>,
}

impl<F, B: FnMut() -> F> Setup<B> {
    pub fn new(build: B) -> Self {
        Setup {
            build,
            secs: Vec::new(),
        }
    }

    /// Builds the fixture, more than once if it is cheap, and returns
    /// the last build. The caller drops its previous fixture first: two
    /// daemons or two document series alive at once would not be what
    /// one run sets up.
    pub fn build(&mut self) -> F {
        let mut spent = 0.0;
        let mut fixture = None;
        for _ in 0..BUILDS_PER_SEGMENT {
            drop(fixture.take());
            let start = Instant::now();
            fixture = Some((self.build)());
            let secs = start.elapsed().as_secs_f64();
            self.secs.push(secs);
            spent += secs;
            if spent + secs > SEGMENT_BUILD_SECS {
                break;
            }
        }
        fixture.expect("BUILDS_PER_SEGMENT > 0")
    }

    /// Median seconds of the builds so far.
    pub fn median_secs(&self) -> f64 {
        stats::median(&self.secs)
    }
}

/// Runs `op` until `budget_s` is used: a further op starts only when,
/// going by the last one, it would end inside the budget, and at least
/// `min_ops` run whatever the budget. `check` sees every output after
/// the clock has stopped, so the pass's time is the sum of its ops'.
/// `next_segment` runs, also off the clock, before the first op that
/// starts `segment_s` or more of measured time after the last call.
pub fn run_ops<T>(
    budget_s: f64,
    min_ops: usize,
    segment_s: f64,
    mut op: impl FnMut(u32) -> T,
    mut check: impl FnMut(T),
    mut next_segment: impl FnMut(),
) -> Pass {
    let mut pass = Pass::default();
    let mut segment_end = segment_s;
    loop {
        if pass.wall_s >= segment_end {
            next_segment();
            segment_end = pass.wall_s + segment_s;
        }
        let cpu = stats::process_cpu_secs();
        let start = Instant::now();
        let output = op(pass.ops_ms.len() as u32);
        let wall = start.elapsed().as_secs_f64();
        pass.cpu_s += stats::process_cpu_secs() - cpu;
        pass.wall_s += wall;
        pass.ops_ms.push(wall * 1e3);
        check(output);
        if pass.ops_ms.len() >= min_ops && pass.wall_s + wall > budget_s {
            pass.ops_ms.sort_by(f64::total_cmp);
            return pass;
        }
    }
}

/// Checks the reports of a simulator workload: every op of a run prints
/// the same bytes, the seed-independent invariants hold, and on seed 1
/// the headline values equal `expected.json`.
struct Checker<'a, W: SimWorkload> {
    workload: &'a W,
    expected: Option<Value>,
    first: Option<String>,
    last: Option<W::Output>,
    tally: Tally,
}

impl<'a, W: SimWorkload> Checker<'a, W> {
    fn new(workload: &'a W, name: &str, seed: u64) -> Self {
        let expected = (seed == 1).then(|| {
            json::parse(include_str!("../expected.json"))
                .expect("expected.json parses")
                .get(name)
                .cloned()
                .expect("expected.json has a section per simulator workload")
        });
        Checker {
            workload,
            expected,
            first: None,
            last: None,
            tally: Tally::default(),
        }
    }

    fn check(&mut self, output: W::Output) {
        self.tally.attempted += 1;
        let mut problems = self.workload.violations(&output);
        let report = self.workload.report(&output);
        match &self.first {
            None => self.first = Some(report.to_string()),
            Some(first) if first != report => {
                problems.push("report differs from the run's first report".to_string())
            }
            Some(_) => {}
        }
        if let Some(expected) = &self.expected {
            for (name, value) in self.workload.facts(&output) {
                if expected.get(name) != Some(&value) {
                    problems.push(format!(
                        "{name} = {value:?}, expected.json says {:?}",
                        expected.get(name)
                    ));
                }
            }
        }
        if !problems.is_empty() {
            self.tally.fail(problems.join("; "));
        }
        self.last = Some(output);
    }
}

/// Runs one simulator workload: untraced for the end-to-end metrics,
/// or — with `--trace 1` — a shorter untraced pass, a traced pass that
/// must print the same report, and the layer probes.
pub fn run_sim<W: SimWorkload>(name: &'static str, args: RunArgs) -> RunResult {
    let mut setup = Setup::new(|| W::setup(args.seed));
    let workload = setup.build();
    let mut checker = Checker::new(&workload, name, args.seed);
    let mut values = Values::default();

    // A fixture is its parameters and a warmed-up process, so the ops go
    // on with the first one; the later builds are only timed.
    let budget = args.pass_seconds();
    let (min_ops, segment_s) = if args.trace {
        (1, f64::INFINITY)
    } else {
        (W::MIN_OPS, budget / SEGMENTS as f64)
    };
    let plain = run_ops(
        budget,
        min_ops,
        segment_s,
        |_| workload.op(),
        |o| checker.check(o),
        || drop(setup.build()),
    );
    let traced = args.trace.then(|| {
        let mut spans = Spans::new(Instant::now());
        partialtor_obs::reset_profiler();
        partialtor_obs::set_profiling(true);
        let traced = run_ops(
            budget,
            1,
            f64::INFINITY,
            |op| workload.traced_op(&mut spans, op),
            |o| checker.check(o),
            || {},
        );
        partialtor_obs::set_profiling(false);
        let ops = traced.ops_ms.len() as f64;
        for (row, calls, busy_s) in partialtor_obs::profile_report() {
            let metric = match row {
                "runner.run" => {
                    values.set("core.runner_run.calls", calls as f64 / ops);
                    "core.runner_run.busy_s"
                }
                "frontier.best_response" => "core.frontier_best_response.busy_s",
                "tier.run_to" => "dirdist.tier_run_to.busy_s",
                "fleet.step_hour" => "dirdist.fleet_step_hour.busy_s",
                _ => continue,
            };
            values.set(metric, busy_s / ops);
        }
        partialtor_obs::reset_profiler();

        let ms = |ns: Vec<u64>| -> Vec<f64> { ns.iter().map(|&n| n as f64 / 1e6).collect() };
        let outage = ms(spans.durations_ns("dirdist.step_hour.outage"));
        let mut all = ms(spans.durations_ns("dirdist.step_hour"));
        all.extend_from_slice(&outage);
        if !all.is_empty() {
            let all = stats::sorted(&all);
            values.set("dirdist.step_hour_ms_p50", stats::median(&all));
            values.set("dirdist.step_hour_ms_p99", stats::percentile(&all, 99.0));
            values.set("dirdist.step_hour_outage_ms_p50", stats::median(&outage));
        }
        let last = checker.last.as_ref().expect("the traced pass ran an op");
        for (metric, value) in workload.layer_counts(last) {
            values.set(metric, value);
        }
        (traced, spans)
    });

    let passes = Passes {
        setup_s: setup.median_secs(),
        plain,
        traced,
    };
    finish(name, checker.tally, values, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ops_honours_the_floor_and_the_budget() {
        // A zero budget still runs the floor.
        let forever = f64::INFINITY;
        let pass = run_ops(0.0, 3, forever, |i| i, |_| {}, || {});
        assert_eq!(pass.ops_ms.len(), 3);
        // 2 ms ops in a 15 ms budget: several, but never past the budget
        // by more than one op.
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        let pass = run_ops(0.015, 1, forever, |_| nap(), |_| {}, || {});
        let ops = pass.ops_ms.len();
        assert!((2..=7).contains(&ops), "{ops} ops");
        assert!(pass.wall_s < 0.030 && pass.cpu_s >= 0.0);
        // The op times are ascending and add up to the pass's.
        assert!(pass.ops_ms.windows(2).all(|w| w[0] <= w[1]));
        assert!((pass.ops_ms.iter().sum::<f64>() - pass.wall_s * 1e3).abs() < 1e-6);
    }

    #[test]
    fn an_untraced_run_reports_the_whole_pass() {
        let pass = Pass {
            ops_ms: vec![100.0, 200.0, 300.0, 400.0],
            wall_s: 1.0,
            cpu_s: 2.0,
        };

        let passes = Passes {
            setup_s: 0.5,
            plain: pass,
            traced: None,
        };
        let result = finish("test", Tally::default(), Values::default(), passes);
        let value = |name| result.values.get(name).unwrap();
        assert_eq!(value("setup_s"), 0.5);
        assert!((value("cpu_ms_per_op") - 500.0).abs() < 1e-9);
        assert!((value("ops_per_s") - 4.0).abs() < 1e-9);
        assert_eq!(
            (result.op_samples, result.op_ms_p50, result.op_tail),
            (4, 250.0, None)
        );
    }

    #[test]
    fn ops_are_numbered_and_checked_in_order() {
        let mut seen = Vec::new();
        run_ops(0.0, 4, f64::INFINITY, |i| i * 10, |v| seen.push(v), || {});
        assert_eq!(seen, [0, 10, 20, 30]);
    }

    #[test]
    fn segments_start_between_ops_and_off_the_clock() {
        // 4 ms ops, a segment every 10 ms of measured time: a new segment
        // before the fourth op (12 ms in) and the seventh (24 ms in).
        let nap = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let mut starts = Vec::new();
        let ops = std::cell::Cell::new(0);
        let pass = run_ops(
            0.0,
            8,
            0.010,
            |i| {
                ops.set(i + 1);
                nap(4)
            },
            |_| {},
            || {
                starts.push(ops.get());
                nap(20)
            },
        );
        assert_eq!(starts, [3, 6]);
        assert!(
            pass.wall_s < 0.060,
            "{} s: a segment start was timed",
            pass.wall_s
        );
    }

    #[test]
    fn setup_times_every_build_and_keeps_one_fixture() {
        let mut built = 0;
        let mut setup = Setup::new(|| {
            built += 1;
            built
        });
        // Instant builds are repeated up to the cap; the last is kept.
        assert_eq!(setup.build(), BUILDS_PER_SEGMENT);
        assert_eq!(setup.build(), 2 * BUILDS_PER_SEGMENT);
        assert_eq!(setup.secs.len(), 2 * BUILDS_PER_SEGMENT);
        assert!(setup.median_secs() >= 0.0);
        // A build that uses the segment's budget is made once.
        let mut slow = Setup::new(|| {
            std::thread::sleep(std::time::Duration::from_secs_f64(SEGMENT_BUILD_SECS * 0.6));
        });
        slow.build();
        assert_eq!(slow.secs.len(), 1);
        assert!(slow.median_secs() >= SEGMENT_BUILD_SECS * 0.6);
    }
}
