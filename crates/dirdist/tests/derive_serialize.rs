//! The vendored `#[derive(Serialize)]`: keys are the field names in
//! declaration order, each value is the field's own `ToJson`, and
//! `#[serde(skip)]` / `#[serde(flatten)]` keep serde's meaning.

use partialtor_obs::json::ToJson;
use serde::Serialize;

#[derive(Serialize)]
struct Shape {
    authorities: usize,
    rotate: bool,
}

#[derive(Serialize)]
struct Latency {
    p50_secs: f64,
}

#[derive(Serialize)]
struct Probe {
    label: &'static str,
    #[serde(skip)]
    #[allow(dead_code)]
    scratch: Vec<u64>,
    #[serde(flatten)]
    shape: Shape,
    hours: u64,
    downtime: f64,
    before: Option<Latency>,
    after: Option<Latency>,
    rows: Vec<Latency>,
    owner: String,
}

#[test]
fn derive_writes_fields_in_order_honouring_skip_and_flatten() {
    let probe = Probe {
        label: "five \"of\" nine",
        scratch: vec![1, 2, 3],
        shape: Shape {
            authorities: 5,
            rotate: false,
        },
        hours: 24,
        downtime: 0.875,
        before: None,
        after: Some(Latency { p50_secs: 1.5 }),
        rows: vec![Latency { p50_secs: 0.25 }, Latency { p50_secs: f64::NAN }],
        owner: String::from("auth0"),
    };
    assert_eq!(
        probe.to_json().render(),
        r#"{"label":"five \"of\" nine","authorities":5,"rotate":false,"hours":24,"downtime":0.875,"before":null,"after":{"p50_secs":1.5},"rows":[{"p50_secs":0.25},{"p50_secs":null}],"owner":"auth0"}"#
    );
}
