//! # fgmon-cluster — testbed assembly and experiment scenarios
//!
//! Builds complete simulated clusters mirroring the paper's testbed
//! (8 dual-CPU back-ends behind a front-end dispatcher on an
//! InfiniBand-like fabric) and provides one pre-wired *world* per
//! experiment family:
//!
//! * [`scenarios::micro_latency`] — Fig. 3;
//! * [`scenarios::float_granularity`] — Fig. 4;
//! * [`scenarios::accuracy_world`] — Figs. 5–6;
//! * [`scenarios::rubis_world`] — Table 1, Figs. 7 and 9;
//! * [`scenarios::ganglia_world`] — Fig. 8;
//! * [`scenarios::big_cluster`] — the RUBiS world at 64–256 back-ends
//!   with east-west ring chatter, the sharded executor's workload;
//! * [`scenarios::lossy_fabric`], [`scenarios::congested_switch`],
//!   [`scenarios::crash_during_burst`], [`scenarios::gray_failure_world`]
//!   — fault-injected robustness scenarios (no paper figure; the
//!   adversarial axis);
//! * [`scenarios::torn_read_world`] — the race sanitizer's canonical
//!   RDMA-read/host-write overlap reproducer;
//! * [`scenarios::flaky_rdma_failover`],
//!   [`scenarios::crash_restart_recovery`] — self-healing monitoring
//!   channels: circuit-breaker failover to the socket path and
//!   epoch-fenced crash-restart re-registration;
//! * [`scenarios::noisy_neighbor`], [`scenarios::noisy_rubis`] — a
//!   hostile co-tenant on a multi-tenant fabric, with and without QoS;
//! * [`scenarios::rdma_lock_world`] — the RDMA-CAS lock service under
//!   contention and epoch-fenced crash recovery;
//! * [`scenarios::chaos_world`] — every invariant-bearing subsystem in
//!   one cluster, for the chaos search's sampled fault schedules.
//!
//! Every world's torn-read sanitizer follows `FGMON_RACE_CHECK`;
//! [`Cluster::set_race_mode`] pins another mode before the run.
//!
//! Plus plain-text/CSV table rendering ([`report`]) and a multi-threaded
//! parameter-sweep runner ([`sweep`]).

pub mod builder;
pub mod report;
pub mod scenarios;
pub mod summary;
pub mod sweep;

pub use builder::{Cluster, ClusterBuilder};
pub use report::Table;
pub use scenarios::{
    accuracy_world, big_cluster, chaos_world, congested_switch, crash_during_burst,
    crash_restart_recovery, fault_compare_world, flaky_rdma_failover, float_granularity,
    ganglia_world, gray_failure_world, lossy_fabric, micro_latency, noisy_neighbor, noisy_rubis,
    rdma_lock_crash, rdma_lock_world, rubis_world, torn_read_world, AccuracyWorld, ChaosWorld,
    CrashWorld, FailoverWorld, FaultCompareWorld, FloatWorld, GangliaWorld, LockWorld, MicroWorld,
    NoisyWorld, RubisWorld, RubisWorldCfg, TornReadWorld, CHAOS_POLL, GT_PERIOD, NOISY_RATE_LIMIT,
};
pub use summary::{
    channel_health_section, node_summaries, pooled_responses, render_report, NodeSummary,
    ResponseSummary,
};
pub use sweep::sweep_parallel;
