//! # fgmon-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the `finegrain-monitor` reproduction of
//! *"Exploiting RDMA operations for Providing Efficient Fine-Grained
//! Resource Monitoring in Cluster-based Servers"* (CLUSTER 2006).
//!
//! Everything above this crate — the simulated node OS, the InfiniBand-like
//! fabric, the monitoring schemes, the RUBiS workload — is expressed as
//! [`Actor`]s exchanging timestamped messages through an [`Engine`].
//!
//! Design properties:
//!
//! * **Virtual time only.** [`SimTime`] is nanoseconds since simulation
//!   start; wall-clock never enters simulation logic, so a (seed, config)
//!   pair fully determines every output byte.
//! * **Deterministic ordering.** Ties at equal timestamps are broken by
//!   lane-structured sequence numbers (per-actor staging streams; see
//!   [`engine`]'s module docs).
//! * **Sequential semantics, optional sharding.** Actors need no
//!   synchronization: each engine runs one handler at a time, and the
//!   sharded executor in [`parallel`] gives each shard of a world its own
//!   event order inside the one engine, runs the shards one lookahead
//!   window at a time on the calling thread, and reproduces the
//!   sequential run bitwise.
//! * **Self-contained metrics.** A log-bucketed [`metrics::Histogram`],
//!   [`metrics::TimeSeries`] and counters live in a shared
//!   [`metrics::Recorder`], avoiding external metric dependencies.

pub mod engine;
pub mod metrics;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{Actor, ActorId, Ctx, Engine, RunOutcome};
pub use metrics::{
    Counter, CounterId, Histogram, HistogramId, Recorder, SeriesId, Summary, TimeSeries,
};
pub use parallel::{run_sharded, ShardPlan};
pub use queue::QueueKind;
pub use rng::{DetRng, ZipfSampler};
pub use time::{SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
