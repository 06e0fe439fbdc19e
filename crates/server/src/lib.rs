//! # rescue-server
//!
//! The multi-tenant diagnosis service: thousands of live supervisor
//! sessions behind one long-running process, each an incremental
//! [`rescue_diagnosis::DiagnosisSession`] hosted by the shared
//! [`rescue_diagnosis::SessionManager`] (the same lifecycle code
//! `diagnose --follow` runs single-tenant).
//!
//! * [`wire`] — the `rescue-wire-v1` line-delimited JSON protocol:
//!   `create`/`attach`/`detach`/`destroy` session verbs, batched alarm
//!   ingestion with explicit backpressure replies, streaming diagnosis
//!   responses, `stats`/`profile` telemetry verbs.
//! * [`server`] — the TCP service: thread-per-connection over a shared
//!   manager, Mattern-style "drain then stop" shutdown (the accept loop
//!   and every connection thread poll one shutdown flag on their receive
//!   timeouts, like the threaded transport in `rescue-net`).
//! * [`load`] — the `rescue-load` generator: N concurrent connections
//!   driving interleaved alarm streams over M sessions, measuring
//!   client-side p50/p99 push latency and sessions/sec, optionally
//!   verifying every session's final diagnosis byte-identically against a
//!   local single-session batch run.
//! * [`slo`] — declared service objectives (`--slo push_p99_ms=250`),
//!   the `ok|degraded|failing` health state machine, and the watchdog
//!   that evaluates them over the delta between its own ticks.
//!
//! Observability (DESIGN.md §16): requests may carry a trace context
//! (`"flow"`/`"lamport"`) that a tracing server `flow_recv`s into its
//! collector, a `metrics` verb serves a Prometheus-style exposition with
//! rolling-window rates, and `ping` reports health.
//!
//! Binaries: `rescue-server` (serve nets over TCP), `rescue-load` (drive
//! a server; the E18/E19 experiments and the CI smoke job use the same
//! code through [`load::run_load`]), and `rescue-top` (a live terminal
//! dashboard over the `metrics` verb).

pub mod load;
pub mod server;
pub mod slo;
pub mod wire;

pub use load::{run_load, LoadReport, LoadSpec};
pub use server::{serve, spawn, ServerConfig, ServerHandle, ServerReport};
pub use slo::{Health, SloSpec};
