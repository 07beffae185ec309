//! Fault model: deterministic, seedable descriptions of network and node
//! misbehaviour, plus the retry/backoff state machine used to survive it.
//!
//! The paper's argument is about monitoring *under duress*: overloaded
//! back-ends delay socket replies while RDMA-Sync stays fresh (Figs. 3, 8).
//! A [`FaultPlan`] makes that duress an explicit, reproducible input: one
//! table of [`FaultRule`]s that the fabric consults for every frame,
//! hashing `plan.seed` with the handling event's key so two runs with the
//! same seed and plan are bit-identical.
//!
//! The plan is pure data — it never draws random numbers itself. The
//! fabric owns the dice; the plan answers "what is the loss probability /
//! latency multiplier / crash state for this frame at this instant?".

use std::collections::VecDeque;

use fgmon_sim::{SimDuration, SimTime};

use crate::ids::NodeId;

/// Which fabric operation a fault rule applies to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultOp {
    /// Two-sided socket frames (request or reply legs).
    Socket,
    /// One-sided RDMA read requests and their data-return legs.
    RdmaRead,
    /// One-sided RDMA write requests and their ack legs.
    RdmaWrite,
    /// Hardware multicast frames (applied per member delivery).
    Mcast,
}

/// One row of a [`FaultPlan`]: `effect` holds over the half-open window
/// `[from, until)`; `until = SimTime::MAX` never ends.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultRule {
    pub from: SimTime,
    pub until: SimTime,
    pub effect: FaultEffect,
}

/// What a [`FaultRule`] does while active. Each variant carries exactly
/// the scope it matches on; `None` endpoints and ops are wildcards.
///
/// The first four are the blunt faults: frames vanish, nodes die, links
/// slow uniformly. The rest model gray failures, where the system keeps
/// *partially* working — deterministic where the physics is (a partition
/// drops every matching frame, a slow NIC slows every frame) and
/// probabilistic where it is not, with all dice owned by the fabric.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultEffect {
    /// Independent frame loss with `probability` in `[0, 1]`.
    Loss {
        src: Option<NodeId>,
        dst: Option<NodeId>,
        op: Option<FaultOp>,
        probability: f64,
    },
    /// Every wire/NIC latency is multiplied by `latency_mult >= 1` — the
    /// congested-switch model (shared-NIC contention, noisy neighbours).
    Congestion { latency_mult: f64 },
    /// Fail-stop: frames to or from `node` are dropped, and the node
    /// restarts at `until` unless that is `SimTime::MAX`.
    Crash { node: NodeId },
    /// A fixed extra delay on every frame touching `node` (firmware
    /// hiccup, DMA-ring exhaustion).
    NicStall { node: NodeId, extra: SimDuration },
    /// Asymmetric partition: every frame `src → dst` is dropped while the
    /// reverse direction flows.
    Partition {
        src: Option<NodeId>,
        dst: Option<NodeId>,
    },
    /// Every frame touching `node` pays `latency_mult >= 1` — a sick NIC
    /// serving reads slowly, the gray failure the paper's §6 hinges on.
    SlowNic { node: NodeId, latency_mult: f64 },
    /// Snapshots `node` produces carry `measured_at` shifted by
    /// `skew_nanos` (its clock is wrong, so everything it stamps is);
    /// negative skew saturates at time zero.
    ClockSkew { node: NodeId, skew_nanos: i64 },
    /// A socket frame is delivered a second time `echo_delay` later. RDMA
    /// verbs ride an RC transport that executes exactly once in hardware,
    /// so one-sided ops never duplicate.
    Duplicate {
        probability: f64,
        echo_delay: SimDuration,
    },
    /// A frame is held back by `extra`; in a discrete-event fabric added
    /// delay *is* reordering.
    Reorder {
        src: Option<NodeId>,
        dst: Option<NodeId>,
        op: Option<FaultOp>,
        probability: f64,
        extra: SimDuration,
    },
    /// A snapshot `node` produces is bit-perturbed in flight, leaving its
    /// integrity seal stale for `LoadSnapshot::checksum_ok` to catch.
    Corruption {
        node: Option<NodeId>,
        probability: f64,
    },
}

impl FaultEffect {
    /// The rule family's name, as [`FaultPlanError`] reports it.
    fn kind(&self) -> &'static str {
        match self {
            FaultEffect::Loss { .. } => "loss",
            FaultEffect::Congestion { .. } => "congestion",
            FaultEffect::Crash { .. } => "crash",
            FaultEffect::NicStall { .. } => "nic-stall",
            FaultEffect::Partition { .. } => "partition",
            FaultEffect::SlowNic { .. } => "slow-nic",
            FaultEffect::ClockSkew { .. } => "clock-skew",
            FaultEffect::Duplicate { .. } => "duplicate",
            FaultEffect::Reorder { .. } => "reorder",
            FaultEffect::Corruption { .. } => "corruption",
        }
    }

    /// The nodes the effect names.
    fn nodes(&self) -> [Option<NodeId>; 2] {
        match *self {
            FaultEffect::Loss { src, dst, .. }
            | FaultEffect::Partition { src, dst }
            | FaultEffect::Reorder { src, dst, .. } => [src, dst],
            FaultEffect::Crash { node }
            | FaultEffect::NicStall { node, .. }
            | FaultEffect::SlowNic { node, .. }
            | FaultEffect::ClockSkew { node, .. } => [Some(node), None],
            FaultEffect::Corruption { node, .. } => [node, None],
            FaultEffect::Congestion { .. } | FaultEffect::Duplicate { .. } => [None, None],
        }
    }
}

/// Complete fault schedule for one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed the fabric hashes into every fate draw, so the plan never
    /// perturbs non-fault random streams.
    pub seed: u64,
    /// The rules, in the order they were added.
    pub rules: Vec<FaultRule>,
}

/// What the plan does to one frame at one instant. Each field folds the
/// matching active rules of one kind, in table order.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FrameFate {
    /// An endpoint is fail-stopped.
    pub crashed: bool,
    /// The directed path is severed.
    pub partitioned: bool,
    /// Drop probability; independent rules compose as `1 − Π(1 − p)`.
    pub loss: f64,
    /// Flight-latency multiplier: congestion times each endpoint's
    /// slow-NIC product, each factor at least 1.
    pub latency_mult: f64,
    /// NIC-stall delay summed over both endpoints.
    pub stall: SimDuration,
    /// Hold-back probability, composed like `loss`.
    pub reorder: f64,
    /// The largest hold-back delay among matching reorder rules.
    pub reorder_extra: SimDuration,
}

/// Why a [`FaultPlan`] was rejected. `rule` names the rule's kind,
/// `index` its position in [`FaultPlan::rules`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultPlanError {
    /// A probability field outside `[0, 1]` (or NaN).
    ProbabilityOutOfRange {
        rule: &'static str,
        index: usize,
        value: f64,
    },
    /// A latency multiplier that is not finite or below 1.
    BadLatencyMult {
        rule: &'static str,
        index: usize,
        value: f64,
    },
    /// A window with `from > until`.
    InvertedWindow { rule: &'static str, index: usize },
    /// A window with `from == until`: it can never fire, which is an
    /// authoring bug, not a no-op worth silently accepting.
    ZeroDurationWindow { rule: &'static str, index: usize },
    /// Two crash windows for the same node overlap. The cluster
    /// schedules one restart at each window's end, so overlapping
    /// windows would boot a node mid-crash.
    OverlappingCrashWindows {
        node: NodeId,
        first: usize,
        second: usize,
    },
    /// A rule names a node the cluster does not have: a crash there
    /// would schedule a restart on no actor, and any other rule would
    /// silently never fire.
    UnknownNode {
        rule: &'static str,
        index: usize,
        node: NodeId,
        nodes: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { rule, index, value } => {
                write!(f, "{rule} rule {index}: probability {value} outside [0, 1]")
            }
            FaultPlanError::BadLatencyMult { rule, index, value } => {
                write!(
                    f,
                    "{rule} rule {index}: latency_mult {value} must be finite and >= 1"
                )
            }
            FaultPlanError::InvertedWindow { rule, index } => {
                write!(f, "{rule} rule {index}: from > until")
            }
            FaultPlanError::ZeroDurationWindow { rule, index } => {
                write!(
                    f,
                    "{rule} rule {index}: zero-duration window can never fire"
                )
            }
            FaultPlanError::OverlappingCrashWindows {
                node,
                first,
                second,
            } => {
                write!(
                    f,
                    "crash windows {first} and {second} overlap on node {node}"
                )
            }
            FaultPlanError::UnknownNode {
                rule,
                index,
                node,
                nodes,
            } => {
                write!(
                    f,
                    "{rule} rule {index}: names {node}, but the cluster has {nodes} nodes"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// No rules at all: the fabric takes its zero-overhead fast path and
    /// draws no random numbers.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Any rules that mutate snapshot *payloads* (skew, corruption)? The
    /// fabric caches this so the common no-payload-fault case costs one
    /// boolean test per frame.
    pub fn has_payload_faults(&self) -> bool {
        self.rules.iter().any(|r| {
            matches!(
                r.effect,
                FaultEffect::ClockSkew { .. } | FaultEffect::Corruption { .. }
            )
        })
    }

    /// The rules active at `now`, in table order.
    fn active(&self, now: SimTime) -> impl Iterator<Item = &FaultEffect> {
        self.rules
            .iter()
            .filter(move |r| r.from <= now && now < r.until)
            .map(|r| &r.effect)
    }

    /// Add a rule active over `[from, until)`.
    pub fn rule(mut self, from: SimTime, until: SimTime, effect: FaultEffect) -> Self {
        self.rules.push(FaultRule {
            from,
            until,
            effect,
        });
        self
    }

    /// Add a loss rule matching any frame.
    pub fn lossy_all(self, probability: f64) -> Self {
        self.lossy(SimTime::ZERO, SimTime::MAX, None, None, None, probability)
    }

    /// Add a loss rule for one operation kind on any link.
    pub fn lossy_op(self, op: FaultOp, probability: f64) -> Self {
        self.lossy(
            SimTime::ZERO,
            SimTime::MAX,
            None,
            None,
            Some(op),
            probability,
        )
    }

    /// Add a loss rule for one operation kind active only in
    /// `[from, until)` — a transient outage of one transport (e.g. an NIC
    /// firmware bug dropping RDMA reads until it is rebooted).
    pub fn lossy_op_window(
        self,
        op: FaultOp,
        probability: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.lossy(from, until, None, None, Some(op), probability)
    }

    /// Add a loss rule for one directed link.
    pub fn lossy_link(self, src: NodeId, dst: NodeId, probability: f64) -> Self {
        self.lossy(
            SimTime::ZERO,
            SimTime::MAX,
            Some(src),
            Some(dst),
            None,
            probability,
        )
    }

    fn lossy(
        self,
        from: SimTime,
        until: SimTime,
        src: Option<NodeId>,
        dst: Option<NodeId>,
        op: Option<FaultOp>,
        probability: f64,
    ) -> Self {
        let loss = FaultEffect::Loss {
            src,
            dst,
            op,
            probability,
        };
        self.rule(from, until, loss)
    }

    /// Add a congestion window.
    pub fn congested(self, from: SimTime, until: SimTime, latency_mult: f64) -> Self {
        self.rule(from, until, FaultEffect::Congestion { latency_mult })
    }

    /// Add a fail-stop crash window for a node.
    pub fn crash(self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.rule(from, until, FaultEffect::Crash { node })
    }

    /// Add a NIC stall window for a node.
    pub fn nic_stall(
        self,
        node: NodeId,
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
    ) -> Self {
        self.rule(from, until, FaultEffect::NicStall { node, extra })
    }

    /// Add an asymmetric partition: `src → dst` frames drop in the
    /// window, the reverse direction is untouched.
    pub fn partition(
        self,
        src: Option<NodeId>,
        dst: Option<NodeId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.rule(from, until, FaultEffect::Partition { src, dst })
    }

    /// Add a slow-NIC window for a node.
    pub fn slow_nic(self, node: NodeId, latency_mult: f64, from: SimTime, until: SimTime) -> Self {
        self.rule(from, until, FaultEffect::SlowNic { node, latency_mult })
    }

    /// Add a clock-skew window on a node's reported timestamps.
    pub fn clock_skew(self, node: NodeId, skew_nanos: i64, from: SimTime, until: SimTime) -> Self {
        self.rule(from, until, FaultEffect::ClockSkew { node, skew_nanos })
    }

    /// Add a socket-frame duplication rule.
    pub fn duplicated(
        self,
        probability: f64,
        echo_delay: SimDuration,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        let dup = FaultEffect::Duplicate {
            probability,
            echo_delay,
        };
        self.rule(from, until, dup)
    }

    /// Add a reordering rule for one operation kind (any if `None`) on
    /// any link.
    pub fn reordered(
        self,
        op: Option<FaultOp>,
        probability: f64,
        extra: SimDuration,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        let reorder = FaultEffect::Reorder {
            src: None,
            dst: None,
            op,
            probability,
            extra,
        };
        self.rule(from, until, reorder)
    }

    /// Add a payload bit-corruption rule for snapshots produced by `node`
    /// (any producer if `None`).
    pub fn corrupting(
        self,
        node: Option<NodeId>,
        probability: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.rule(from, until, FaultEffect::Corruption { node, probability })
    }

    /// Check every rule for well-formedness. Returns the first problem
    /// found, in table order, as a typed [`FaultPlanError`].
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (index, r) in self.rules.iter().enumerate() {
            let rule = r.effect.kind();
            match r.effect {
                FaultEffect::Loss { probability, .. }
                | FaultEffect::Duplicate { probability, .. }
                | FaultEffect::Reorder { probability, .. }
                | FaultEffect::Corruption { probability, .. }
                    if !(0.0..=1.0).contains(&probability) =>
                {
                    return Err(FaultPlanError::ProbabilityOutOfRange {
                        rule,
                        index,
                        value: probability,
                    });
                }
                FaultEffect::Congestion { latency_mult }
                | FaultEffect::SlowNic { latency_mult, .. }
                    if !latency_mult.is_finite() || latency_mult < 1.0 =>
                {
                    return Err(FaultPlanError::BadLatencyMult {
                        rule,
                        index,
                        value: latency_mult,
                    });
                }
                _ => {}
            }
            if r.from > r.until {
                return Err(FaultPlanError::InvertedWindow { rule, index });
            }
            if r.from == r.until {
                return Err(FaultPlanError::ZeroDurationWindow { rule, index });
            }
        }
        // Crash windows on the same node must not overlap: the cluster
        // schedules a restart at each window's end, and a restart inside
        // another crash window would boot a node the plan says is down.
        // Windows are half-open, so a window starting exactly where the
        // previous ends is legal.
        let mut crashes: Vec<(NodeId, SimTime, SimTime, usize)> = self
            .rules
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r.effect {
                FaultEffect::Crash { node } => Some((node, r.from, r.until, i)),
                _ => None,
            })
            .collect();
        crashes.sort_by_key(|&(node, from, _, _)| (node.0, from.0));
        for pair in crashes.windows(2) {
            let (n0, _, until0, i0) = pair[0];
            let (n1, from1, _, i1) = pair[1];
            if n0 == n1 && from1 < until0 {
                return Err(FaultPlanError::OverlappingCrashWindows {
                    node: n0,
                    first: i0,
                    second: i1,
                });
            }
        }
        Ok(())
    }

    /// Check that every node a rule names exists in a cluster of `nodes`
    /// nodes.
    pub fn check_nodes(&self, nodes: usize) -> Result<(), FaultPlanError> {
        for (index, r) in self.rules.iter().enumerate() {
            if let Some(node) = r
                .effect
                .nodes()
                .into_iter()
                .flatten()
                .find(|n| n.index() >= nodes)
            {
                return Err(FaultPlanError::UnknownNode {
                    rule: r.effect.kind(),
                    index,
                    node,
                    nodes,
                });
            }
        }
        Ok(())
    }

    /// Everything the plan does to one `op` frame from `src` to `dst` at
    /// `now`, in one pass over the table.
    ///
    /// Completion legs (read-data, write-ack) only know their initiator,
    /// so the caller passes `None` for the unknown side. Each kind folds
    /// into its own accumulator in table order, so interleaving rules of
    /// different kinds never changes a fate.
    pub fn frame_fate(
        &self,
        src: Option<NodeId>,
        dst: Option<NodeId>,
        op: FaultOp,
        now: SimTime,
    ) -> FrameFate {
        let touches = |node: NodeId| src == Some(node) || dst == Some(node);
        // A rule's pinned endpoint never matches an unknown one.
        let link = |s: Option<NodeId>, d: Option<NodeId>| {
            s.is_none_or(|n| src == Some(n)) && d.is_none_or(|n| dst == Some(n))
        };
        let op_matches = |want: Option<FaultOp>| want.is_none_or(|o| o == op);
        let (mut crashed, mut partitioned) = (false, false);
        let (mut keep, mut hold) = (1.0f64, 1.0f64);
        let (mut congestion, mut slow_src, mut slow_dst) = (1.0f64, 1.0f64, 1.0f64);
        let (mut stall, mut reorder_extra) = (SimDuration::ZERO, SimDuration::ZERO);
        for effect in self.active(now) {
            match *effect {
                FaultEffect::Crash { node } => crashed |= touches(node),
                FaultEffect::Partition { src: s, dst: d } => {
                    partitioned |= link(s, d);
                }
                FaultEffect::Loss {
                    src: s,
                    dst: d,
                    op: o,
                    probability,
                } => {
                    if link(s, d) && op_matches(o) {
                        keep *= 1.0 - probability.clamp(0.0, 1.0);
                    }
                }
                FaultEffect::Congestion { latency_mult } => congestion *= latency_mult,
                FaultEffect::SlowNic { node, latency_mult } => {
                    if src == Some(node) {
                        slow_src *= latency_mult;
                    }
                    if dst == Some(node) {
                        slow_dst *= latency_mult;
                    }
                }
                FaultEffect::NicStall { node, extra } => {
                    if src == Some(node) {
                        stall += extra;
                    }
                    if dst == Some(node) {
                        stall += extra;
                    }
                }
                FaultEffect::Reorder {
                    src: s,
                    dst: d,
                    op: o,
                    probability,
                    extra,
                } => {
                    if link(s, d) && op_matches(o) {
                        hold *= 1.0 - probability.clamp(0.0, 1.0);
                        reorder_extra = reorder_extra.max(extra);
                    }
                }
                FaultEffect::ClockSkew { .. }
                | FaultEffect::Duplicate { .. }
                | FaultEffect::Corruption { .. } => {}
            }
        }
        FrameFate {
            crashed,
            partitioned,
            loss: (1.0 - keep).clamp(0.0, 1.0),
            latency_mult: congestion.max(1.0) * slow_src.max(1.0) * slow_dst.max(1.0),
            stall,
            reorder: (1.0 - hold).clamp(0.0, 1.0),
            reorder_extra,
        }
    }

    /// Payload fate for a snapshot `producer` stamped, in flight at
    /// `now`: the net clock skew (active rules summed, saturating) and
    /// the combined corruption probability.
    pub fn payload_fate(&self, producer: NodeId, now: SimTime) -> (i64, f64) {
        let (mut skew, mut keep) = (0i64, 1.0f64);
        for effect in self.active(now) {
            match *effect {
                FaultEffect::ClockSkew { node, skew_nanos } if node == producer => {
                    skew = skew.saturating_add(skew_nanos);
                }
                FaultEffect::Corruption { node, probability }
                    if node.is_none_or(|n| n == producer) =>
                {
                    keep *= 1.0 - probability.clamp(0.0, 1.0);
                }
                _ => {}
            }
        }
        (skew, (1.0 - keep).clamp(0.0, 1.0))
    }

    /// Duplication fate for a socket frame at `now`: combined probability
    /// and the largest echo delay among active rules.
    pub fn duplication(&self, now: SimTime) -> (f64, SimDuration) {
        let (mut keep, mut echo) = (1.0f64, SimDuration::ZERO);
        for effect in self.active(now) {
            if let FaultEffect::Duplicate {
                probability,
                echo_delay,
            } = *effect
            {
                keep *= 1.0 - probability.clamp(0.0, 1.0);
                echo = echo.max(echo_delay);
            }
        }
        ((1.0 - keep).clamp(0.0, 1.0), echo)
    }
}

// ---------------------------------------------------------------------------
// Retry/backoff state machine
// ---------------------------------------------------------------------------

/// Timeout/retry policy for monitor polls.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Per-attempt deadline. `SimDuration::MAX` disables the machinery
    /// entirely (legacy wait-forever behaviour).
    pub timeout: SimDuration,
    /// Retries allowed after the first attempt of a poll.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff on each successive retry.
    pub backoff_mult: f64,
    /// Upper bound on any single backoff delay. Exponential growth
    /// saturates here instead of overflowing (or stalling a backend for
    /// geological time at high attempt counts).
    pub max_backoff: SimDuration,
    /// Consecutive gave-up polls before the backend is declared
    /// [`RetryTracker::is_unreachable`].
    pub unreachable_after: u32,
}

impl RetryPolicy {
    /// Legacy behaviour: never time out, never retry.
    pub const OFF: RetryPolicy = RetryPolicy {
        timeout: SimDuration::MAX,
        max_retries: 0,
        backoff_base: SimDuration::ZERO,
        backoff_mult: 1.0,
        max_backoff: SimDuration::MAX,
        unreachable_after: u32::MAX,
    };

    /// A sensible default for fault-tolerant runs: 3 retries with
    /// exponential backoff capped at 8x the timeout, unreachable after 2
    /// consecutive failures.
    pub fn aggressive(timeout: SimDuration) -> Self {
        RetryPolicy {
            timeout,
            max_retries: 3,
            backoff_base: SimDuration(timeout.nanos() / 4),
            backoff_mult: 2.0,
            max_backoff: timeout.mul_f64(8.0),
            unreachable_after: 2,
        }
    }

    pub fn enabled(&self) -> bool {
        self.timeout != SimDuration::MAX
    }

    /// Backoff before retry number `attempt` (1-based: the first retry is
    /// attempt 1 and waits `backoff_base`). Saturates at `max_backoff`:
    /// each step multiplies saturatingly, and the loop exits as soon as
    /// the cap is reached, so arbitrarily large attempt counts are O(1)
    /// past the cap and can never overflow.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let mut d = self.backoff_base.min(self.max_backoff);
        if self.backoff_mult <= 1.0 {
            return d;
        }
        for _ in 1..attempt {
            if d >= self.max_backoff {
                return self.max_backoff;
            }
            d = d.mul_f64(self.backoff_mult).min(self.max_backoff);
        }
        d
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::OFF
    }
}

/// What the caller should do about a request that exceeded its deadline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimeoutAction {
    /// Re-issue the poll as a fresh request after `backoff`; register the
    /// new request id with [`RetryTracker::begin_retry`] carrying this
    /// `attempt` number.
    Retry {
        req: u64,
        attempt: u32,
        backoff: SimDuration,
    },
    /// Retry budget exhausted: abandon this poll cycle.
    GiveUp { req: u64 },
}

/// How a reply was classified by [`RetryTracker::on_reply`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplyOutcome {
    /// The request was outstanding; its sample should be accepted.
    Accepted,
    /// The request had already timed out: the reply must be ignored so
    /// the sample is never double-counted.
    LateIgnored,
    /// Unknown request id (never begun, or aged out of the dead ring).
    Unknown,
}

/// Retired request ids remembered for late-reply detection.
const DEAD_RING: usize = 64;

/// Per-backend timeout/retry bookkeeping. Pure data: the caller supplies
/// `now`, the tracker never schedules anything itself, which is what makes
/// it property-testable in isolation.
#[derive(Clone, Debug)]
pub struct RetryTracker {
    policy: RetryPolicy,
    /// Outstanding attempts: (request id, retry attempt number, send
    /// time). At most a few dozen are in flight, so a capacity-retaining
    /// Vec with a linear scan beats per-poll map node churn.
    inflight: Vec<(u64, u32, SimTime)>,
    /// Recently timed-out or abandoned request ids.
    dead: VecDeque<u64>,
    consecutive_failures: u32,
    unreachable: bool,
    /// Polls that exceeded their deadline.
    pub timed_out: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Poll cycles abandoned after the retry budget.
    pub gave_up: u64,
    /// Replies that arrived after their request timed out.
    pub late_ignored: u64,
}

impl RetryTracker {
    pub fn new(policy: RetryPolicy) -> Self {
        RetryTracker {
            policy,
            inflight: Vec::new(),
            dead: VecDeque::new(),
            consecutive_failures: 0,
            unreachable: false,
            timed_out: 0,
            retries: 0,
            gave_up: 0,
            late_ignored: 0,
        }
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    pub fn is_unreachable(&self) -> bool {
        self.unreachable
    }

    /// Register a fresh poll attempt (attempt number 0).
    pub fn begin(&mut self, req: u64, now: SimTime) {
        self.begin_attempt(req, 0, now);
    }

    /// Register the retry promised by a [`TimeoutAction::Retry`].
    pub fn begin_retry(&mut self, req: u64, attempt: u32, now: SimTime) {
        debug_assert!(
            attempt <= self.policy.max_retries,
            "retry attempt {attempt} exceeds budget {}",
            self.policy.max_retries
        );
        self.retries += 1;
        self.begin_attempt(req, attempt, now);
    }

    fn begin_attempt(&mut self, req: u64, attempt: u32, now: SimTime) {
        debug_assert!(
            !self.inflight.iter().any(|&(r, _, _)| r == req),
            "request id {req} already in flight"
        );
        self.inflight.push((req, attempt, now));
    }

    /// When outstanding request `req` was sent, if it still is.
    pub fn sent_at(&self, req: u64) -> Option<SimTime> {
        self.inflight.iter().find(|r| r.0 == req).map(|r| r.2)
    }

    /// Expire every attempt whose deadline has passed, returning what to
    /// do about each. Call on a timer (or before issuing new polls).
    pub fn poll_timeouts(&mut self, now: SimTime) -> Vec<TimeoutAction> {
        let mut actions = Vec::new();
        self.poll_timeouts_into(now, &mut actions);
        actions
    }

    /// Like [`RetryTracker::poll_timeouts`], but appends into a
    /// caller-owned buffer so steady-state timeout sweeps never allocate.
    pub fn poll_timeouts_into(&mut self, now: SimTime, actions: &mut Vec<TimeoutAction>) {
        if !self.policy.enabled() {
            return;
        }
        let mut i = 0;
        while i < self.inflight.len() {
            let (req, attempt, sent) = self.inflight[i];
            if sent + self.policy.timeout <= now {
                self.inflight.remove(i);
                self.timed_out += 1;
                self.remember_dead(req);
                if attempt < self.policy.max_retries {
                    actions.push(TimeoutAction::Retry {
                        req,
                        attempt: attempt + 1,
                        backoff: self.policy.backoff_for(attempt + 1),
                    });
                } else {
                    actions.push(TimeoutAction::GiveUp { req });
                    self.gave_up += 1;
                    self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                    if self.consecutive_failures >= self.policy.unreachable_after {
                        self.unreachable = true;
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    /// Classify an arriving reply. An `Accepted` reply clears the failure
    /// streak and re-admits an unreachable backend.
    pub fn on_reply(&mut self, req: u64) -> ReplyOutcome {
        if let Some(pos) = self.inflight.iter().position(|&(r, _, _)| r == req) {
            self.inflight.remove(pos);
            self.consecutive_failures = 0;
            self.unreachable = false;
            ReplyOutcome::Accepted
        } else if self.dead.contains(&req) {
            self.late_ignored += 1;
            ReplyOutcome::LateIgnored
        } else {
            ReplyOutcome::Unknown
        }
    }

    fn remember_dead(&mut self, req: u64) {
        if self.dead.len() == DEAD_RING {
            self.dead.pop_front();
        }
        self.dead.push_back(req);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn fate(plan: &FaultPlan, src: Option<NodeId>, dst: Option<NodeId>, at: u64) -> FrameFate {
        plan.frame_fate(src, dst, FaultOp::Socket, SimTime(at))
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(
            fate(&plan, Some(NodeId(0)), Some(NodeId(1)), 5),
            FrameFate {
                crashed: false,
                partitioned: false,
                loss: 0.0,
                latency_mult: 1.0,
                stall: SimDuration::ZERO,
                reorder: 0.0,
                reorder_extra: SimDuration::ZERO,
            }
        );
        assert_eq!(plan.payload_fate(NodeId(0), SimTime(5)), (0, 0.0));
        assert_eq!(plan.duplication(SimTime(5)), (0.0, SimDuration::ZERO));
    }

    #[test]
    fn loss_rules_compose_independently() {
        let plan = FaultPlan::new(1)
            .lossy_all(0.5)
            .lossy_link(NodeId(0), NodeId(1), 0.5);
        let p = fate(&plan, Some(NodeId(0)), Some(NodeId(1)), 5).loss;
        assert!((p - 0.75).abs() < 1e-12);
        // Other links only see the wildcard rule.
        let p = fate(&plan, Some(NodeId(2)), Some(NodeId(1)), 5).loss;
        assert!((p - 0.5).abs() < 1e-12);
        // Unknown endpoints match wildcards but not the directed rule.
        let p = plan
            .frame_fate(None, None, FaultOp::RdmaRead, SimTime(5))
            .loss;
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn op_filter_applies() {
        let plan = FaultPlan::new(1).lossy_op(FaultOp::Socket, 0.9);
        assert!(fate(&plan, None, None, 5).loss > 0.0);
        assert_eq!(
            plan.frame_fate(None, None, FaultOp::RdmaRead, SimTime(5))
                .loss,
            0.0
        );
    }

    #[test]
    fn crash_windows_are_half_open() {
        let plan = FaultPlan::new(0).crash(NodeId(3), SimTime(100), SimTime(200));
        let crashed = |node: u16, at: u64| fate(&plan, Some(NodeId(node)), None, at).crashed;
        assert!(!crashed(3, 99));
        assert!(crashed(3, 100));
        assert!(crashed(3, 199));
        assert!(!crashed(3, 200));
        assert!(!crashed(4, 150));
        // Either endpoint being down loses the frame.
        assert!(fate(&plan, Some(NodeId(0)), Some(NodeId(3)), 150).crashed);
    }

    #[test]
    fn congestion_and_stalls_window() {
        let plan = FaultPlan::new(0)
            .congested(SimTime(10), SimTime(20), 3.0)
            .nic_stall(NodeId(1), SimTime(10), SimTime(20), SimDuration(5 * MS));
        assert_eq!(fate(&plan, None, None, 9).latency_mult, 1.0);
        assert_eq!(fate(&plan, None, None, 10).latency_mult, 3.0);
        assert_eq!(
            fate(&plan, Some(NodeId(1)), None, 15).stall,
            SimDuration(5 * MS)
        );
        assert_eq!(
            fate(&plan, Some(NodeId(2)), None, 15).stall,
            SimDuration::ZERO
        );
        // A frame a stalled NIC both sends and receives pays twice.
        assert_eq!(
            fate(&plan, Some(NodeId(1)), Some(NodeId(1)), 15).stall,
            SimDuration(10 * MS)
        );
    }

    #[test]
    fn validate_rejects_bad_rules() {
        assert!(FaultPlan::new(0).lossy_all(1.5).validate().is_err());
        assert!(FaultPlan::new(0).lossy_all(f64::NAN).validate().is_err());
        assert!(FaultPlan::new(0)
            .congested(SimTime(0), SimTime(10), 0.5)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .crash(NodeId(0), SimTime(10), SimTime(5))
            .validate()
            .is_err());
    }

    #[test]
    fn validate_reports_typed_errors() {
        assert_eq!(
            FaultPlan::new(0).lossy_all(1.5).validate(),
            Err(FaultPlanError::ProbabilityOutOfRange {
                rule: "loss",
                index: 0,
                value: 1.5
            })
        );
        assert_eq!(
            FaultPlan::new(0)
                .duplicated(-0.1, SimDuration(MS), SimTime(0), SimTime(10))
                .validate(),
            Err(FaultPlanError::ProbabilityOutOfRange {
                rule: "duplicate",
                index: 0,
                value: -0.1
            })
        );
        assert_eq!(
            FaultPlan::new(0)
                .reordered(None, 2.0, SimDuration(MS), SimTime(0), SimTime(10))
                .validate(),
            Err(FaultPlanError::ProbabilityOutOfRange {
                rule: "reorder",
                index: 0,
                value: 2.0
            })
        );
        assert_eq!(
            FaultPlan::new(0)
                .corrupting(None, f64::INFINITY, SimTime(0), SimTime(10))
                .validate(),
            Err(FaultPlanError::ProbabilityOutOfRange {
                rule: "corruption",
                index: 0,
                value: f64::INFINITY
            })
        );
        assert_eq!(
            FaultPlan::new(0)
                .slow_nic(NodeId(1), 0.5, SimTime(0), SimTime(10))
                .validate(),
            Err(FaultPlanError::BadLatencyMult {
                rule: "slow-nic",
                index: 0,
                value: 0.5
            })
        );
        assert_eq!(
            FaultPlan::new(0)
                .partition(None, Some(NodeId(1)), SimTime(10), SimTime(5))
                .validate(),
            Err(FaultPlanError::InvertedWindow {
                rule: "partition",
                index: 0
            })
        );
    }

    #[test]
    fn validate_rejects_zero_duration_windows() {
        assert_eq!(
            FaultPlan::new(0)
                .crash(NodeId(2), SimTime(50), SimTime(50))
                .validate(),
            Err(FaultPlanError::ZeroDurationWindow {
                rule: "crash",
                index: 0
            })
        );
        assert_eq!(
            FaultPlan::new(0)
                .clock_skew(NodeId(1), 1_000, SimTime(7), SimTime(7))
                .validate(),
            Err(FaultPlanError::ZeroDurationWindow {
                rule: "clock-skew",
                index: 0
            })
        );
        assert_eq!(
            FaultPlan::new(0)
                .lossy_op_window(FaultOp::Socket, 0.5, SimTime(3), SimTime(3))
                .validate(),
            Err(FaultPlanError::ZeroDurationWindow {
                rule: "loss",
                index: 0
            })
        );
    }

    #[test]
    fn validate_rejects_overlapping_crash_windows() {
        // Overlap on the same node, listed out of order.
        let plan = FaultPlan::new(0)
            .crash(NodeId(3), SimTime(150), SimTime(300))
            .crash(NodeId(3), SimTime(100), SimTime(200));
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::OverlappingCrashWindows {
                node: NodeId(3),
                first: 1,
                second: 0
            })
        );
        // Touching windows are legal (half-open intervals).
        assert!(FaultPlan::new(0)
            .crash(NodeId(3), SimTime(100), SimTime(200))
            .crash(NodeId(3), SimTime(200), SimTime(300))
            .validate()
            .is_ok());
        // Same windows on different nodes are legal.
        assert!(FaultPlan::new(0)
            .crash(NodeId(3), SimTime(100), SimTime(200))
            .crash(NodeId(4), SimTime(100), SimTime(200))
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_reports_table_indices_and_unknown_nodes() {
        // Errors name a rule by its position in the one table.
        assert_eq!(
            FaultPlan::new(0)
                .lossy_all(0.5)
                .crash(NodeId(1), SimTime(10), SimTime(20))
                .slow_nic(NodeId(1), 0.5, SimTime(0), SimTime(10))
                .validate(),
            Err(FaultPlanError::BadLatencyMult {
                rule: "slow-nic",
                index: 2,
                value: 0.5
            })
        );
        let plan = FaultPlan::new(0)
            .lossy_link(NodeId(0), NodeId(1), 0.5)
            .partition(None, Some(NodeId(4)), SimTime(0), SimTime(10));
        assert_eq!(plan.check_nodes(5), Ok(()));
        let err = plan.check_nodes(2).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::UnknownNode {
                rule: "partition",
                index: 1,
                node: NodeId(4),
                nodes: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "partition rule 1: names node4, but the cluster has 2 nodes"
        );
    }

    #[test]
    fn partitions_are_directional_and_windowed() {
        let plan = FaultPlan::new(0).partition(
            Some(NodeId(0)),
            Some(NodeId(1)),
            SimTime(100),
            SimTime(200),
        );
        let cut = |src: Option<NodeId>, dst: Option<NodeId>, at: u64| {
            fate(&plan, src, dst, at).partitioned
        };
        assert!(!plan.is_empty());
        assert!(cut(Some(NodeId(0)), Some(NodeId(1)), 150));
        // Reverse direction flows — the asymmetry that makes it gray.
        assert!(!cut(Some(NodeId(1)), Some(NodeId(0)), 150));
        // Outside the window both directions flow.
        assert!(!cut(Some(NodeId(0)), Some(NodeId(1)), 99));
        assert!(!cut(Some(NodeId(0)), Some(NodeId(1)), 200));
        // A pinned endpoint never matches an unknown one.
        assert!(!cut(None, Some(NodeId(1)), 150));

        // Wildcard src severs all ingress to node 1.
        let ingress = FaultPlan::new(0).partition(None, Some(NodeId(1)), SimTime(0), SimTime(10));
        assert!(fate(&ingress, Some(NodeId(5)), Some(NodeId(1)), 5).partitioned);
        assert!(!fate(&ingress, Some(NodeId(1)), Some(NodeId(5)), 5).partitioned);
    }

    #[test]
    fn slow_nic_multiplies_and_windows() {
        let plan = FaultPlan::new(0)
            .slow_nic(NodeId(1), 4.0, SimTime(10), SimTime(20))
            .slow_nic(NodeId(1), 2.0, SimTime(10), SimTime(30));
        let mult = |node: u16, at: u64| fate(&plan, Some(NodeId(node)), None, at).latency_mult;
        assert_eq!(mult(1, 9), 1.0);
        assert_eq!(mult(1, 15), 8.0);
        assert_eq!(mult(1, 25), 2.0);
        assert_eq!(mult(2, 15), 1.0);
        // Each endpoint pays its own NIC's multiplier.
        assert_eq!(
            fate(&plan, Some(NodeId(1)), Some(NodeId(1)), 25).latency_mult,
            4.0
        );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn clock_skew_sums_and_windows() {
        let plan = FaultPlan::new(0)
            .clock_skew(NodeId(1), 5_000, SimTime(10), SimTime(20))
            .clock_skew(NodeId(1), -2_000, SimTime(10), SimTime(30));
        let skew = |node: u16, at: u64| plan.payload_fate(NodeId(node), SimTime(at)).0;
        assert_eq!(skew(1, 9), 0);
        assert_eq!(skew(1, 15), 3_000);
        assert_eq!(skew(1, 25), -2_000);
        assert_eq!(skew(2, 15), 0);
        assert!(plan.has_payload_faults());
        assert!(!FaultPlan::new(0).lossy_all(0.1).has_payload_faults());
    }

    #[test]
    fn duplicate_and_reorder_fates_compose() {
        let plan = FaultPlan::new(0)
            .duplicated(0.5, SimDuration(2 * MS), SimTime(0), SimTime(100))
            .duplicated(0.5, SimDuration(MS), SimTime(0), SimTime(100));
        let (p, echo) = plan.duplication(SimTime(50));
        assert!((p - 0.75).abs() < 1e-12);
        assert_eq!(echo, SimDuration(2 * MS));
        assert_eq!(plan.duplication(SimTime(100)).0, 0.0);

        let plan = FaultPlan::new(0).reordered(
            Some(FaultOp::Socket),
            0.4,
            SimDuration(3 * MS),
            SimTime(0),
            SimTime(100),
        );
        let held = fate(&plan, None, None, 50);
        assert!((held.reorder - 0.4).abs() < 1e-12);
        assert_eq!(held.reorder_extra, SimDuration(3 * MS));
        // Op filter applies.
        assert_eq!(
            plan.frame_fate(None, None, FaultOp::RdmaRead, SimTime(50))
                .reorder,
            0.0
        );
    }

    #[test]
    fn corruption_targets_producers() {
        let plan = FaultPlan::new(0).corrupting(Some(NodeId(1)), 0.3, SimTime(0), SimTime(100));
        let corrupt =
            |plan: &FaultPlan, node: u16, at: u64| plan.payload_fate(NodeId(node), SimTime(at)).1;
        assert!((corrupt(&plan, 1, 50) - 0.3).abs() < 1e-12);
        assert_eq!(corrupt(&plan, 2, 50), 0.0);
        assert_eq!(corrupt(&plan, 1, 100), 0.0);
        assert!(plan.has_payload_faults());
        let any = FaultPlan::new(0).corrupting(None, 0.2, SimTime(0), SimTime(100));
        assert!((corrupt(&any, 9, 50) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fault_plan_error_displays() {
        let e = FaultPlan::new(0)
            .crash(NodeId(3), SimTime(100), SimTime(300))
            .crash(NodeId(3), SimTime(200), SimTime(400))
            .validate()
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("overlap"), "{msg}");
        assert!(msg.contains("node3"), "{msg}");
    }

    #[test]
    fn retry_tracker_happy_path() {
        let pol = RetryPolicy {
            timeout: SimDuration(10 * MS),
            max_retries: 2,
            backoff_base: SimDuration(MS),
            backoff_mult: 2.0,
            max_backoff: SimDuration::MAX,
            unreachable_after: 2,
        };
        let mut t = RetryTracker::new(pol);
        t.begin(1, SimTime(7));
        assert_eq!(t.outstanding(), 1);
        // The row keeps the send time until the reply retires it.
        assert_eq!(t.sent_at(1), Some(SimTime(7)));
        assert_eq!(t.sent_at(2), None);
        assert_eq!(t.on_reply(1), ReplyOutcome::Accepted);
        assert_eq!(t.sent_at(1), None);
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.timed_out, 0);
    }

    #[test]
    fn retry_then_give_up_marks_unreachable() {
        let pol = RetryPolicy {
            timeout: SimDuration(10),
            max_retries: 1,
            backoff_base: SimDuration(5),
            backoff_mult: 2.0,
            max_backoff: SimDuration::MAX,
            unreachable_after: 1,
        };
        let mut t = RetryTracker::new(pol);
        t.begin(1, SimTime(0));
        let acts = t.poll_timeouts(SimTime(10));
        assert_eq!(
            acts,
            vec![TimeoutAction::Retry {
                req: 1,
                attempt: 1,
                backoff: SimDuration(5)
            }]
        );
        t.begin_retry(2, 1, SimTime(15));
        let acts = t.poll_timeouts(SimTime(25));
        assert_eq!(acts, vec![TimeoutAction::GiveUp { req: 2 }]);
        assert!(t.is_unreachable());
        assert_eq!(t.timed_out, 2);
        assert_eq!(t.gave_up, 1);
        // A late reply for the dead request is ignored, not accepted.
        assert_eq!(t.on_reply(1), ReplyOutcome::LateIgnored);
        assert_eq!(t.late_ignored, 1);
        assert!(t.is_unreachable());
        // A fresh successful poll re-admits the backend.
        t.begin(3, SimTime(30));
        assert_eq!(t.on_reply(3), ReplyOutcome::Accepted);
        assert!(!t.is_unreachable());
    }

    #[test]
    fn disabled_policy_never_times_out() {
        let mut t = RetryTracker::new(RetryPolicy::OFF);
        t.begin(1, SimTime(0));
        assert!(t.poll_timeouts(SimTime::MAX).is_empty());
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let pol = RetryPolicy {
            timeout: SimDuration(100),
            max_retries: 3,
            backoff_base: SimDuration(8),
            backoff_mult: 2.0,
            max_backoff: SimDuration::MAX,
            unreachable_after: u32::MAX,
        };
        assert_eq!(pol.backoff_for(1), SimDuration(8));
        assert_eq!(pol.backoff_for(2), SimDuration(16));
        assert_eq!(pol.backoff_for(3), SimDuration(32));
    }

    #[test]
    fn backoff_saturates_at_cap_for_high_attempts() {
        let pol = RetryPolicy {
            timeout: SimDuration(100),
            max_retries: u32::MAX,
            backoff_base: SimDuration(8),
            backoff_mult: 2.0,
            max_backoff: SimDuration(1_000),
            unreachable_after: u32::MAX,
        };
        // Growth is exponential below the cap, then pinned at it.
        assert_eq!(pol.backoff_for(5), SimDuration(128));
        assert_eq!(pol.backoff_for(8), SimDuration(1_000));
        // High attempt counts neither overflow nor take O(attempt) time:
        // once the cap is hit the loop exits immediately.
        assert_eq!(pol.backoff_for(10_000), SimDuration(1_000));
        assert_eq!(pol.backoff_for(u32::MAX), SimDuration(1_000));

        // Without a cap the product saturates at SimDuration::MAX instead
        // of wrapping.
        let uncapped = RetryPolicy {
            max_backoff: SimDuration::MAX,
            ..pol
        };
        assert_eq!(uncapped.backoff_for(200), SimDuration::MAX);

        // A base already above the cap is clamped down to it.
        let clamped = RetryPolicy {
            backoff_base: SimDuration(5_000),
            ..pol
        };
        assert_eq!(clamped.backoff_for(1), SimDuration(1_000));

        // Non-growing multipliers return the base without looping.
        let flat = RetryPolicy {
            backoff_mult: 1.0,
            ..pol
        };
        assert_eq!(flat.backoff_for(u32::MAX), SimDuration(8));
    }
}
