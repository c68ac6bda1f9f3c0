//! # unet-serve — simulation as a service
//!
//! Everything else in this workspace is one-shot: build the topology,
//! compile the route plan, run, exit. This crate is the long-lived
//! counterpart the ROADMAP's "serves heavy traffic" north star asks for — a
//! TCP server that keeps the expensive artifacts (compiled route plans,
//! metric aggregates) alive across requests:
//!
//! * [`protocol`] — the versioned newline-delimited JSON wire format
//!   (`unet-serve/3`):
//!   `simulate` / `metrics` requests, `result` /
//!   `error` / `overloaded` responses, and a per-request `trace` context
//!   that threads one `trace_id` from client through router to backend;
//! * `conn` — the connection front both tiers share: the blocking
//!   acceptor (the drain wakes it), `queue_cap` connection slots (beyond them a typed
//!   `overloaded` rejection with a `retry_after_ms` hint, never unbounded
//!   buffering), one thread per connection reading lines of at most
//!   [`MAX_LINE_BYTES`], and the graceful drain;
//! * [`server`] — the simulation handler behind that front; each
//!   simulation runs on one of `workers` long-lived engine threads, in
//!   arrival order. A cold workload builds its route plan exactly once: the
//!   first request takes the shared
//!   [`SharedPlanCache`](unet_core::SharedPlanCache)'s build lease and
//!   racing requests for the same workload wait on it; per-request
//!   deadlines ride the
//!   engine's phase-boundary cancellation; every request records stage
//!   spans (`accept` → `admit` → `queue_wait` → … → `serialize`) into a tail-sampled
//!   trace that [`Server::drain`] hands back alongside the metrics, as a
//!   [`RequestTrace`] rendered only on request;
//! * [`loadgen`] — a deterministic closed-loop load generator for capacity
//!   experiments (E19, E21, E22) and CI smoke tests;
//! * [`client`] — the typed [`Client`] behind
//!   `unet request`;
//! * [`ring`] — the consistent-hash ring that maps request keys to
//!   shards (and gives the failover order when one dies);
//! * [`router`] — the sharding front-end behind `unet shard`:
//!   spec-affine forwarding to N backend servers, per-backend
//!   health learnt from the forwards themselves (a failed forward
//!   ejects, the first forward after a backoff reinstates), and
//!   `shard`-labelled aggregated metrics;
//! * [`signal`] — SIGTERM/SIGINT-to-flag plumbing for graceful drain.
//!
//! ```
//! use unet_serve::{Server, ServeConfig};
//! use unet_serve::client::Client;
//! use unet_serve::protocol::SimulateReq;
//!
//! let server = Server::start(ServeConfig::default()).expect("bind");
//! let mut client = Client::connect(&server.addr().to_string()).expect("connect");
//! let spec = SimulateReq {
//!     guest: "ring:12".into(), host: "torus:2x2".into(),
//!     steps: 2, seed: 7, deadline_ms: None, id: None,
//! };
//! let result = client.simulate(&spec).expect("round trip");
//! assert!(result.verified);
//! drop(client);
//! let report = server.drain();
//! assert_eq!(report.stats.completed, 1);
//! ```

#![deny(missing_docs)]

pub mod client;
mod conn;
pub mod loadgen;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;
pub mod signal;

pub use client::{Client, ClientError, ClientSpans, ServerError, SimulateResult};
pub use conn::MAX_LINE_BYTES;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{Request, Response, PROTOCOL};
pub use ring::Ring;
pub use router::{Router, RouterDrainReport, RouterStats, ShardConfig};
pub use server::{DrainReport, RequestTrace, ServeConfig, Server, ServerStats};
