//! Vendored stand-in for `serde`.
//!
//! The workspace builds without network access, so the real serde cannot
//! be fetched. What the workspace needs of it is `#[derive(Serialize)]`
//! on its report structs, and the shim's derive makes that real: it
//! writes the struct as a JSON object through
//! `partialtor_obs::json::ToJson` (keys are the field names in
//! declaration order). `#[serde(skip)]` and `#[serde(flatten)]` keep
//! serde's meaning; see `serde_derive` for what else the derive
//! rejects.

pub use serde_derive::Serialize;
