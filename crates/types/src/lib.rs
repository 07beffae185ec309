//! # fgmon-types — shared vocabulary of the finegrain-monitor simulation
//!
//! Identifier newtypes, the closed actor message vocabulary ([`Msg`]),
//! load-information structures, the monitoring [`Scheme`] enum, and the
//! calibrated cost-model configuration used across every crate.

pub mod config;
pub mod fault;
pub mod health;
pub mod ids;
pub mod load;
pub mod lock;
pub mod msg;
pub mod payload;
pub mod race;
pub mod scheme;
pub mod tenancy;

pub use config::{CostModel, NetConfig, OsConfig};
pub use fault::{
    FaultEffect, FaultOp, FaultPlan, FaultPlanError, FaultRule, FrameFate, ReplyOutcome,
    RetryPolicy, RetryTracker, TimeoutAction,
};
pub use health::{
    BreakerConfig, BreakerEvent, BreakerState, ChannelHealthStats, CircuitBreaker, FenceGate,
    FenceVerdict, RecordFence,
};
pub use ids::{
    ConnId, McastGroup, NodeId, RegionId, ReqId, ServiceSlot, ShardId, TenantId, ThreadId,
};
pub use load::{LoadSnapshot, LoadWeights, NodeCapacity, SharedSnapshot, MAX_CPUS};
pub use lock::{LockTable, TicketLock, FETCH_SENTINEL, LOCK_STRIDE, W_OWNER, W_SERVING, W_TAIL};
pub use msg::{BatchedRead, Msg, NetMsg, NodeMsg, PostedKey, RdmaResult, RegionData};
pub use payload::{Payload, QueryClass, RequestKind, SharedPayload};
pub use race::{
    RaceDetector, RaceMode, RaceReport, ReadVerdict, SharedRaceDetector, TornRead,
    MAX_TORN_DIAGNOSTICS, SEQLOCK_MAX_RETRIES, WRITE_LOG_RETENTION_NANOS,
};
pub use scheme::Scheme;
pub use tenancy::{
    NicContentionConfig, QosPolicy, TenancyConfig, TenantStats, TokenBucket, MAX_TENANTS,
};
