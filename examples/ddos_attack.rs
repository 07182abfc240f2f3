//! The paper's headline attack, §4: five minutes of DDoS against five of
//! the nine directory authorities breaks the deployed protocol — and what
//! it costs.
//!
//! ```text
//! cargo run --release --example ddos_attack
//! ```

use partialtor::adversary::AttackPlan;
use partialtor::attack::AttackCostModel;
use partialtor::experiments::fig1_attack_log::render_transcript;
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{run, Scenario};

fn main() {
    let scenario = Scenario {
        seed: 99,
        relays: 8_000,
        attack: AttackPlan::five_of_nine(),
        ..Scenario::default()
    };

    println!("== Current protocol under the 5-authority, 5-minute DDoS ==\n");
    let current = run(ProtocolKind::Current, &scenario);
    println!("{}", render_transcript(&current.authorities[8].phases));
    println!(
        "\ncurrent protocol produced a valid consensus: {}",
        current.success
    );

    println!("\n== Same attack against the ICPS protocol ==\n");
    let icps = run(ProtocolKind::Icps, &scenario);
    println!("ICPS produced a valid consensus: {}", icps.success);
    if let Some(t) = icps.last_valid_secs {
        println!(
            "all authorities valid at t = {t:.1} s ({:.1} s after the attack ended)",
            t - 300.0
        );
    }

    println!("\n== What the attack costs (§4.3) ==\n");
    let model = AttackCostModel::paper();
    println!("per breached run : ${:.3}", model.cost_per_run());
    println!("per month        : ${:.2}", model.cost_per_month());

    assert!(!current.success && icps.success);
}
