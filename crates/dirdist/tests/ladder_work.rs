//! What the blame ladder costs in fleet replays, counted exactly.
//!
//! With attribution on, every session hour steps the real fleet once and
//! then replays the hour on clones of the pre-hour fleet, one replay per
//! rung of the ladder (`dirdist::attribution`). Each step — real or
//! replayed — is one `fleet.step_hour` span of the `obs` profiler, so the
//! span's call count is the session's whole fleet-stepping work.
//!
//! The session is a week-shaped run cut to 56 hours: a healthy day, a
//! day-long five-of-nine flood with failed runs (hours 25–48) and a
//! budget-bound recovery. It counts 134 steps: 57 real ones (hour 0
//! included) plus 77 replays. A ladder that replays every structurally
//! relevant rung counts 203; skipping the rungs entered with no downtime
//! left to explain removes 69 of them. The count is deterministic and
//! independent of the machine: it moves only when a change adds or
//! removes a replay.
//!
//! The profiler is process-global, so this file holds exactly one test.

use partialtor_dirdist::{
    CachePlacement, ChurnSchedule, ClientRegions, DistConfig, DistSession, DocModel, HourInput,
    LinkWindow, TierNode,
};
use partialtor_obs::{profile_report, reset_profiler, set_profiling};

#[test]
fn week_shaped_session_replays_only_unexplained_downtime() {
    let cfg = DistConfig {
        clients: 300_000,
        n_caches: 10,
        placement: CachePlacement::ClientWeighted,
        client_regions: ClientRegions::TorMetrics,
        feedback: true,
        attribution: true,
        churn: ChurnSchedule::weekly(),
        link_windows: (25..=48u64)
            .flat_map(|hour| {
                (0..5).map(move |authority| LinkWindow {
                    node: TierNode::Authority(authority),
                    start_secs: (hour * 3_600) as f64,
                    duration_secs: 300.0,
                    bps: 0.5e6,
                })
            })
            .collect(),
        ..DistConfig::default()
    };

    reset_profiler();
    set_profiling(true);
    let mut session = DistSession::new(&cfg, DocModel::synthetic(8_000));
    for hour in 1..=56u64 {
        session.step_hour(if (25..=48).contains(&hour) {
            HourInput::failed()
        } else {
            HourInput::produced(330.0)
        });
    }
    set_profiling(false);
    let report = session.into_report();
    assert_eq!(report.hours.len(), 57);

    let steps = profile_report()
        .iter()
        .find(|(name, _, _)| *name == "fleet.step_hour")
        .map_or(0, |&(_, calls, _)| calls);
    reset_profiler();
    assert_eq!(steps, 134, "57 real steps plus 77 rung replays");
}
