//! # remedy-serve
//!
//! A resident fairness service: named datasets with delta-maintained
//! [`RegionIndex`](remedy_core::RegionIndex)es held in memory by a
//! long-lived daemon, answered over TCP with a line-delimited JSON
//! protocol.
//!
//! The batch CLI pays the full build cost (load, discretize, one
//! counting pass over the lattice) on every invocation. The service
//! pays it once per [`Session`]: `load` builds the index, `ingest`
//! streams [`RowEdit`](remedy_dataset::RowEdit) batches through the
//! index's delta maintenance, and `identify` answers from the resident
//! counts — byte-identical to a cold batch run on the same final
//! dataset, at a fraction of the latency.
//!
//! ## Protocol
//!
//! One JSON object per line, one response line per request, in order:
//!
//! ```text
//! → {"op":"load","session":"a","source":"compas","rows":2000}
//! ← {"ok":true,"op":"load","session":"a","rows":2000,"epoch":0}
//! → {"op":"ingest","session":"a","edits":[{"kind":"flip","row":3}]}
//! ← {"ok":true,"op":"ingest","applied":1,"rows":2000,"edits":1,"batches":1,"epoch":1}
//! → {"op":"identify","session":"a","tau":0.1}
//! ← {"ok":true,"op":"identify","count":17,"rows":2000,"epoch":1,"text":"remedy-ibs v1\n…"}
//! ```
//!
//! Errors reuse the pipeline taxonomy: every failure response carries a
//! `"kind"` token ([`ErrorKind`](remedy_pipeline::ErrorKind)) so clients
//! decide retry policy the same way the pipeline engine does.
//!
//! ## Failure model
//!
//! Each connection runs on its own thread; each request is executed
//! under `catch_unwind`, so a panicking request becomes a structured
//! `stage-panic` response and the daemon — including every other
//! session and connection — keeps serving. Mutating operations validate
//! their whole input before touching any state, which is what makes
//! poisoned-lock recovery sound (see [`session::lock_session`]).
//!
//! ## Durability
//!
//! With a `--data-dir`, each named session owns an on-disk directory:
//! an append-only, fsync'd write-ahead log of edit batches ([`wal`])
//! layered over periodic columnar snapshots ([`durable`]). A mutation
//! is acknowledged only after it is durable; on restart the server
//! recovers every session — newest valid snapshot plus WAL tail replay —
//! byte-identical to one that never crashed. The front door sheds load
//! instead of stalling: past `--max-conns`, or when a session's WAL
//! backlog hits its bound with checkpoints failing, clients get a typed
//! transient `overloaded` error and can back off and retry.

pub mod client;
pub mod durable;
pub mod protocol;
pub mod server;
pub mod session;
pub mod wal;

pub use client::Client;
pub use durable::{Durable, DurableConfig, DurablePolicy};
pub use protocol::Request;
pub use server::{ServeOptions, Server, MAX_REQUEST_LINE};
pub use session::{Registry, Session, SessionSummary};
