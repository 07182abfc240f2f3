//! `partialtor` — interactive consistency under partial synchrony for the
//! Tor directory protocol.
//!
//! This crate is the reproduction's core: it implements the paper's
//! contribution (the ICPS directory protocol of §5) together with both
//! baselines (the deployed v3 protocol and Luo et al.'s synchronous
//! protocol), the §4 DDoS attack and cost model, and the experiment
//! drivers that regenerate every table and figure of the evaluation.
//!
//! # Layout
//!
//! * [`calibration`] — the constants anchoring simulation to the paper;
//! * [`document`] — vote documents in transit (real or synthetic);
//! * [`signing`] — signature domains shared by the protocols;
//! * [`protocols`] — the three directory protocols as simulation nodes;
//! * [`adversary`] — the typed attack model ([`AttackPlan`] over
//!   authorities *and* caches) every layer consumes, priced by the
//!   §4.3 stressor arithmetic;
//! * [`defense`] — the typed mitigation model ([`DefensePlan`]) with
//!   its own $/month cost arithmetic, the attacker's counterpart;
//! * [`monitor`] — the consensus-health monitor of Table 1's footnote;
//! * [`runner`] — scenario orchestration returning uniform reports;
//! * [`experiments`] — one driver per paper table/figure (plus ablations
//!   and the budgeted adversary strategy search).
//!
//! # Examples
//!
//! Reproducing the headline result — five minutes of DDoS breaks the
//! deployed protocol, while the ICPS protocol recovers within seconds of
//! the attack ending:
//!
//! ```
//! use partialtor::adversary::AttackPlan;
//! use partialtor::protocols::ProtocolKind;
//! use partialtor::runner::{run, Scenario};
//!
//! let scenario = Scenario {
//!     relays: 8_000,
//!     attack: AttackPlan::five_of_nine(),
//!     ..Scenario::default()
//! };
//! assert!(!run(ProtocolKind::Current, &scenario).success);
//! assert!(run(ProtocolKind::Icps, &scenario).success);
//! ```

pub mod adversary;
pub mod calibration;
pub mod defense;
pub mod document;
pub mod experiments;
pub mod monitor;
pub mod protocols;
pub mod runner;
pub mod signing;
pub mod trace_export;

pub use adversary::{AttackPlan, AttackWindow, Target};
pub use defense::DefensePlan;
pub use document::DirDocument;
pub use partialtor_obs::json;
pub use protocols::{AuthorityReport, ProtocolKind};
pub use runner::{run, RunReport, Scenario};
