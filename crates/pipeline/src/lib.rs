//! # remedy-pipeline
//!
//! End-to-end runs as a cached, parallel DAG of typed stages:
//!
//! ```text
//! Load ──► Discretize ──► Identify ──► branch: [Remedy] ─► Train ─► Audit
//! ```
//!
//! A [`Plan`] declares the dataset, the shared identification parameters,
//! and a fan-out of branches — each a (remedy technique, model)
//! pair. [`run`] executes the DAG:
//!
//! * **Content-hashed caching** ([`cache`]) — every stage's key is the
//!   stable FNV-1a/128 digest of its inputs (upstream artifact hashes +
//!   its own parameters, via [`remedy_core::hash::StableHasher`]).
//!   Re-running a plan with one changed knob (say τ_c) replays every
//!   stage upstream of the change from `.remedy-cache/` and recomputes
//!   only what the change can affect.
//! * **Parallel branches** ([`engine`]) — branches share one identify
//!   artifact and fan out over scoped worker threads.
//! * **Run manifest** ([`manifest`]) — each run yields a [`RunManifest`]
//!   (serializable to `run.json`) recording per-stage wall time, cache
//!   hit/miss, artifact hashes, and per-branch fairness/accuracy metrics.
//! * **Determinism** — one master seed drives generation, splitting,
//!   remedy sampling, and training, and every artifact format round-trips
//!   floats bit-exactly, so identical plans produce byte-identical
//!   artifacts.
//!
//! ```no_run
//! use remedy_pipeline::{run, PipelineOptions, Plan};
//!
//! let plan = Plan::parse(
//!     "dataset compas\nrows 2000\nbranch base technique=none model=dt\n\
//!      branch ps technique=ps model=dt\n",
//! )?;
//! let manifest = run(&plan, &PipelineOptions::default())?;
//! println!("{}", manifest.to_json());
//! # Ok::<(), remedy_pipeline::PipelineError>(())
//! ```

//! * **Fault tolerance** — errors carry an [`ErrorKind`] taxonomy that
//!   drives policy: transient I/O is retried ([`retry`]), corrupt cache
//!   entries are quarantined and recomputed ([`cache`]), stage panics are
//!   contained to their branch ([`engine`]), and killed runs resume from
//!   their incrementally-flushed manifest. The [`failpoint`] registry
//!   (behind the `failpoints` feature) injects faults deterministically
//!   for tests.

pub mod cache;
pub mod engine;
pub mod error;
pub mod failpoint;
pub mod json;
pub mod manifest;
pub mod plan;
pub mod retry;
pub mod shard;
pub mod stages;

pub use cache::{ArtifactCache, CacheKey, GcPolicy, GcStats};
pub use engine::{run, run_with, PipelineOptions};
pub use error::{ErrorKind, PipelineError};
pub use manifest::{BranchFailure, BranchOutcome, RunManifest, RunStatus, StageRecord};
pub use plan::{BranchSpec, ModelKind, Plan, SourceFormat};
pub use retry::RetryPolicy;
pub use shard::{worker_body, worker_threads, WorkerMode, WORKER_EXIT_FATAL};
