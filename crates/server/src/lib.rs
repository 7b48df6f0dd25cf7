//! Network serving front-end for frozen DFR classifiers.
//!
//! `dfr-serve` answers "how do we predict fast and bit-identically";
//! this crate answers "how do we put that on a socket under load". It is
//! `std`-only (no async runtime, no external protocol libraries):
//!
//! * [`frame`] — the wire protocol: length-prefixed binary frames with a
//!   versioned header; decoding is total (malformed, truncated and
//!   oversized frames are rejected, never panicked on).
//! * [`AdmissionQueue`] — the bounded admission queue. Overload is
//!   **explicit**: a full queue rejects with `Busy` + a retry hint
//!   instead of queueing unboundedly, and the deadline-based coalescer
//!   bounds the latency any request can lose waiting for batch
//!   companions.
//! * [`ModelRegistry`] — digest-keyed model store with atomic hot-swap:
//!   [`ModelRegistry::publish`] a retrained model and the very next
//!   batch serves it, while digest-pinned clients keep getting the exact
//!   version they asked for. Every response carries the serving model's
//!   content digest.
//! * [`Server`] — accept loop, per-connection reader/writer threads, and
//!   the batcher thread that drains the queue into
//!   [`ServeSession`](dfr_serve::ServeSession)s. Coalescing never
//!   changes bytes: responses are bitwise identical to calling the
//!   session directly, pinned by the loopback suite in
//!   `tests/loopback.rs`.
//! * [`OnlinePublisher`] — the continual-learning loop: absorbs labelled
//!   series into `dfr-core`'s rank-1
//!   [`OnlineRidge`](dfr_core::online::OnlineRidge) learner and on a
//!   configurable cadence refits, refreezes and
//!   [`ModelRegistry::publish`]es — live traffic hot-swaps onto the new
//!   readout at the next batch boundary.
//! * [`Client`] — a small blocking client used by the tests and the
//!   benchmark's serve workloads, with built-in jittered-backoff
//!   retry ([`Client::call_with_retry`]) honoring the server's
//!   `retry_after_ms` hints.
//! * [`faults`] — deterministic, seeded fault injection (delayed/torn
//!   reads, slow-drip writes, mid-frame disconnects, scheduled panics)
//!   compiled into the shipping binary behind a zero-cost
//!   [`FaultPlan::none`] default. The failure-hardening it exercises —
//!   idle-connection reaping, `catch_unwind` panic quarantine, graceful
//!   drain, crash-safe model persistence
//!   ([`ModelRegistry::persist_to`]/[`ModelRegistry::load_from`]) — is
//!   soaked in `tests/chaos.rs` and documented in `DESIGN.md` §14.
//!
//! # Example
//!
//! ```
//! use dfr_core::DfrClassifier;
//! use dfr_linalg::Matrix;
//! use dfr_serve::FrozenModel;
//! use dfr_server::{Client, ModelRegistry, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut model = DfrClassifier::paper_default(6, 2, 3, 0)?;
//! model.reservoir_mut().set_params(0.05, 0.1)?;
//! let frozen = FrozenModel::freeze(&model);
//! let digest = frozen.content_digest();
//!
//! let registry = Arc::new(ModelRegistry::new(frozen));
//! let mut server = Server::bind("127.0.0.1:0", registry, ServerConfig::default())?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let series = Matrix::filled(12, 2, 0.2);
//! let prediction = client.predict(&series)?;
//! assert_eq!(prediction.digest, digest);
//! assert_eq!(prediction.class, model.predict(&series)?);
//!
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod frame;

mod client;
mod error;
mod publisher;
mod queue;
mod registry;
mod server;

pub use client::{Client, ClientPrediction, RetryPolicy};
pub use error::ServerError;
pub use faults::{FaultPlan, FaultSpec, INJECTED_PANIC};
pub use frame::{Status, DEFAULT_MAX_BODY, PROTOCOL_VERSION};
pub use publisher::{OnlinePublisher, PublisherConfig};
pub use queue::{AdmissionQueue, AdmitError};
pub use registry::{ModelRegistry, PersistReport};
pub use server::{Server, ServerConfig, StatsSnapshot};
