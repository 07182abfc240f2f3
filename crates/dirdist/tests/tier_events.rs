//! What the cache tier costs the simulated network, counted exactly.
//!
//! Every fetch, response, link completion, timer and background-load
//! change of the cache tier is one event of its `simnet` engine, so the
//! engine's processed-event count is the tier's whole network work. The
//! count is deterministic and independent of the machine: it moves only
//! when a change adds or removes an event — a new message, timer or
//! link-rate change — and not when the engine gets faster at
//! dispatching the same ones.
//!
//! The session is the week-shaped run of `ladder_work.rs`, cut to 56
//! hours: a healthy day, a day-long five-of-nine flood with failed runs
//! (hours 25–48) and a budget-bound recovery. Its tier processes 4 259
//! events through hour 56.

use partialtor_dirdist::{
    CachePlacement, ChurnSchedule, ClientRegions, DistConfig, DistSession, DocModel, HourInput,
    LinkWindow, TierNode,
};

#[test]
fn week_shaped_session_tier_event_count_is_pinned() {
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

    let mut session = DistSession::new(&cfg, DocModel::synthetic(8_000));
    for hour in 1..=56u64 {
        session.step_hour(if (25..=48).contains(&hour) {
            HourInput::failed()
        } else {
            HourInput::produced(330.0)
        });
    }
    assert_eq!(session.tier().events_processed(), 4_259);
    assert_eq!(session.into_report().hours.len(), 57);
}
