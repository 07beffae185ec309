//! # fgmon-core — RDMA-based fine-grained resource monitoring
//!
//! The primary contribution of the reproduced paper: five front-end-pull
//! resource-monitoring schemes for cluster-based servers —
//! `Socket-Async`, `Socket-Sync`, `RDMA-Async`, `RDMA-Sync` and
//! `e-RDMA-Sync` — plus a multicast-push extension.
//!
//! * [`backend`] — the back-end exporters (Figs. 1–2 of the paper).
//! * [`client`] — the front-end [`client::MonitorClient`] component.
//! * [`frontend`] — a standalone polling service for micro-benchmarks.
//! * [`accuracy`] — reported-vs-ground-truth analysis (Figs. 5–6).
//!
//! The headline property, realized structurally in the simulation exactly
//! as on hardware: the RDMA-Sync family involves **no back-end thread and
//! no back-end CPU**, so its monitoring latency is independent of back-end
//! load and its values are always current.

pub mod accuracy;
pub mod backend;
pub mod client;
pub mod frontend;

pub use accuracy::{mean_deviation, mean_reported, scheme_quality, AccuracyMetric, SchemeQuality};
pub use backend::{
    make_backend, BackendConfig, McastPushBackend, RdmaAsyncBackend, RdmaSyncBackend,
    SocketBackend, MONITOR_GROUP,
};
pub use client::{BackendHandle, BackendView, MonitorClient, MON_TOKEN_BASE};
pub use frontend::MonitorFrontendService;
