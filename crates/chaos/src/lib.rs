//! # fgmon-chaos — deterministic chaos search
//!
//! FoundationDB-style simulation testing for the monitoring cluster:
//! sample random fault schedules from a typed grammar, run each against
//! the combined [`fgmon_cluster::chaos_world`] under both the sequential
//! engine and the sharded executor, evaluate a registry of
//! cluster invariants at every segment boundary, and delta-debug any
//! failing schedule down to a locally minimal, ready-to-commit
//! reproducer.
//!
//! The pieces:
//!
//! * [`grammar`] — [`Schedule`]: a seed plus a list of
//!   [`fgmon_types::FaultRule`]s, the fabric's own fault vocabulary, and
//!   the seeded [`SchedulePlanner`] that samples them. Every schedule is
//!   a pure function of `(planner seed, index)`.
//! * [`invariants`] — the [`INVARIANTS`] registry and the stateful
//!   [`InvariantProbe`] that evaluates it: stale-admission (fence
//!   regression cross-check), corrupt-rejection, breaker soundness,
//!   lock mutual exclusion and ticket-FIFO accounting, monotone virtual
//!   time, and the availability floor for bounded schedules.
//! * [`search`](mod@search) — [`run_schedule`]/[`search`](fn@search):
//!   segmented execution with per-segment checks, sequential-vs-sharded
//!   verdict equality (the two legs run at once, one world per thread),
//!   wall-clock budgeting, and shrink-on-failure.
//! * [`shrink`](mod@shrink) — ddmin ([`shrink`](fn@shrink)) with a
//!   verified 1-minimal postcondition ([`is_one_minimal`]).
//! * [`report`] — reproducer snippets that replay the exact failing fate
//!   stream ([`reproducer_snippet`], [`write_reproducer`]).
//!
//! The `chaos-canary` cargo feature (forwarded to `fgmon-core`) arms a
//! seeded bug — the monitoring client waves exactly one provably stale
//! record through its fence — which the canary tests use to prove the
//! search finds and shrinks real violations, not just that green runs
//! stay green.

pub mod grammar;
pub mod invariants;
pub mod report;
pub mod search;
pub mod shrink;

pub use grammar::{
    PlannerConfig, Schedule, SchedulePlanner, BACKEND, FRONTEND, LOCK_CLIENT_A, LOCK_CLIENT_B,
    LOCK_HOST, WORLD_NODES,
};
pub use invariants::{InvariantProbe, Violation, INVARIANTS};
pub use report::{reproducer_snippet, write_reproducer};
pub use search::{
    run_schedule, search, Failure, RunConfig, RunVerdict, SearchConfig, SearchOutcome,
};
pub use shrink::{is_one_minimal, shrink, MAX_SHRINK_RUNS};
