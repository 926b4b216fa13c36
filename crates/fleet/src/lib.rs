//! # vidi-fleet — multi-tenant record/replay sessions
//!
//! Everything below this crate runs **one** record or replay session per
//! process. Record/replay that serves many users needs the layer the rr
//! deployability literature calls out as the actual hard part: graceful
//! degradation and failure containment across tenants. This crate provides
//! it, in-process, over the streaming trace pipeline:
//!
//! * [`Fleet`] — a supervisor multiplexing N concurrent sessions over a
//!   pool of worker threads. Each session runs behind a catch-unwind
//!   boundary: a panicking or faulted session transitions to a terminal
//!   [`SessionState::Failed`] with an attributed cause, and its neighbors
//!   never notice.
//! * [`CreditArbiter`] — generalizes the trace store's per-session
//!   bandwidth credit to N competing recordings with deficit-round-robin
//!   fairness. A starved session degrades through its **own**
//!   `stall_budget`; it can never steal a neighbor's credit.
//! * Admission control ([`AdmissionLedger`], [`AdmissionError`]) — every
//!   session reserves its [`streaming_buffer_bound`] worth of memory up
//!   front; an admission that would exceed the global budget is rejected
//!   with a typed error (or, optionally, satisfied by LRU-evicting an idle
//!   session) instead of OOMing.
//! * [`FleetRequest`]/[`FleetResponse`] — an in-process, wire-shaped API:
//!   submit a session, poll status, fetch the certified trace prefix of a
//!   live, failed, or evicted session. A crashed session's partial trace
//!   replays to its longest certified prefix.
//!
//! [`streaming_buffer_bound`]: vidi_core::VidiConfig::streaming_buffer_bound

#![forbid(unsafe_code)]

mod api;
mod arbiter;
mod fleet;
mod ledger;
mod session;

pub use api::{FleetRequest, FleetResponse};
pub use arbiter::{ArbiterStats, CreditArbiter};
pub use fleet::{solo_image, Fleet, FleetConfig, FleetStats, SessionStatus};
pub use ledger::{AdmissionError, AdmissionLedger};
pub use session::{
    FailureCause, RunEnd, SessionFailure, SessionId, SessionMode, SessionReport, SessionSpec,
    SessionState, SharedImage, TracePrefix,
};
