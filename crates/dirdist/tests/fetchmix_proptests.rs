//! Property-based test of the `fetchmix v1` parser on hostile input: a
//! real session's export, mutated by byte flips, dropped or duplicated
//! lines and numbers swapped for 0, `u64::MAX` or 2⁶⁴. `parse_all` must
//! never panic, and every accessor of a mix it accepts must run (the
//! test build keeps overflow checks on, so an unchecked sum panics).

use partialtor_dirdist::{
    DistConfig, DistSession, DocModel, FetchMix, HourInput, LinkWindow, TierNode,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// `encode_all` of a five-of-nine session: three failed hours, then two
/// healthy ones — bootstraps, diff refreshes and failed probes all occur.
fn session_export() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let config = DistConfig {
            clients: 20_000,
            n_caches: 10,
            link_windows: (1..=3u64)
                .flat_map(|hour| {
                    (0..5).map(move |i| LinkWindow {
                        node: TierNode::Authority(i),
                        start_secs: (hour * 3_600) as f64,
                        duration_secs: 300.0,
                        bps: 0.5e6,
                    })
                })
                .collect(),
            ..DistConfig::default()
        };
        let mut session = DistSession::new(&config, DocModel::synthetic(2_000));
        for hour in 1..=5 {
            session.step_hour(if hour <= 3 {
                HourInput::failed()
            } else {
                HourInput::produced(330.0)
            });
        }
        FetchMix::encode_all(&session.fetch_mixes())
    })
}

/// Applies one edit: `op` picks the kind, `at` the byte, line or number
/// it lands on, `byte` the replacement byte or number.
fn mutate(text: &str, op: u8, at: usize, byte: u8) -> String {
    match op {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            if !bytes.is_empty() {
                let len = bytes.len();
                bytes[at % len] = byte;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 | 2 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let index = at % lines.len();
                if op == 1 {
                    lines.remove(index);
                } else {
                    lines.insert(index, lines[index]);
                }
            }
            lines.iter().map(|line| format!("{line}\n")).collect()
        }
        _ => {
            let numbers: Vec<(usize, usize)> = text
                .char_indices()
                .filter(|&(i, c)| {
                    c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit())
                })
                .map(|(start, _)| {
                    let len = text[start..]
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(text.len() - start);
                    (start, start + len)
                })
                .collect();
            if numbers.is_empty() {
                return text.to_string();
            }
            let (start, end) = numbers[at % numbers.len()];
            let replacement =
                ["0", "18446744073709551615", "18446744073709551616"][byte as usize % 3];
            format!("{}{replacement}{}", &text[..start], &text[end..])
        }
    }
}

#[test]
fn the_unmutated_export_parses() {
    let mixes = FetchMix::parse_all(session_export()).expect("own export parses");
    assert_eq!(mixes.len(), 6);
    assert!(mixes.iter().any(|m| m.failed_probes > 0));
    assert!(mixes.iter().any(|m| m.bootstrap_count() > 0));
    assert!(mixes.iter().any(|m| m.refresh_count() > 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_exports_parse_or_fail_without_panicking(
        edits in proptest::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..6),
    ) {
        let mut text = session_export().to_string();
        for (op, at, byte) in edits {
            text = mutate(&text, op, at, byte);
        }
        if let Ok(mixes) = FetchMix::parse_all(&text) {
            for mix in &mixes {
                mix.bootstrap_count();
                mix.refresh_count();
                mix.total_fetches();
                mix.consensus_bytes();
                mix.descriptor_bytes();
                mix.served_bytes();
                mix.request_bytes();
                mix.diff_fraction();
            }
            FetchMix::busiest(&mixes);
            // What the parser accepts, the encoder writes back.
            prop_assert_eq!(FetchMix::parse_all(&FetchMix::encode_all(&mixes)), Ok(mixes));
        }
    }
}
