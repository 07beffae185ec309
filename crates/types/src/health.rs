//! Channel health: the per-backend circuit breaker, epoch fencing of
//! monitoring records, and the counters that make both observable.
//!
//! The paper treats the monitoring scheme as a static choice; real
//! deployments must survive the RDMA path itself degrading (NIC
//! exhaustion, co-tenant pressure, node restarts). This module supplies
//! the *vocabulary* for recovery: a [`CircuitBreaker`] that turns retry
//! give-ups into an explicit `Closed → Open → HalfOpen` channel state, a
//! [`FenceGate`] that rejects records from a stale boot generation, and
//! [`ChannelHealthStats`] counters surfaced through the cluster summary.
//!
//! Everything here is pure data in the [`crate::fault::RetryTracker`]
//! style: the caller supplies `now`, nothing schedules or draws random
//! numbers, which is what makes the state machines property-testable in
//! isolation. Seeded probe jitter enters through the `jitter` argument of
//! [`CircuitBreaker::on_failure`] — the embedding client passes a factor
//! drawn from its own deterministic RNG stream.

use fgmon_sim::{SimDuration, SimTime};

/// Where a backend's primary monitoring channel stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Healthy: every poll uses the primary (RDMA) path.
    Closed,
    /// Tripped: polls go over the fallback path until `until`, when the
    /// breaker moves to [`BreakerState::HalfOpen`] and probes the primary.
    Open { until: SimTime },
    /// Probing: the next primary-path completion decides — success closes
    /// the breaker, failure re-opens it with a grown cool-down.
    HalfOpen,
}

impl BreakerState {
    /// Short human label for summaries.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Trip/cool-down thresholds for a [`CircuitBreaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive primary-path failures that trip a closed breaker.
    pub trip_after: u32,
    /// Cool-down before the first half-open probe after a trip.
    pub cooldown: SimDuration,
    /// Cool-down growth per consecutive re-open (failed probe).
    pub cooldown_mult: f64,
    /// Upper bound on the grown cool-down.
    pub max_cooldown: SimDuration,
    /// Consecutive successful probes required to close a half-open
    /// breaker.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 3,
            cooldown: SimDuration::from_millis(200),
            cooldown_mult: 2.0,
            max_cooldown: SimDuration::from_secs(2),
            probe_successes: 1,
        }
    }
}

impl BreakerConfig {
    /// Validate thresholds; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.trip_after == 0 {
            return Err("trip_after must be >= 1".into());
        }
        if self.probe_successes == 0 {
            return Err("probe_successes must be >= 1".into());
        }
        if !self.cooldown_mult.is_finite() || self.cooldown_mult < 1.0 {
            return Err(format!(
                "cooldown_mult {} must be finite and >= 1",
                self.cooldown_mult
            ));
        }
        if self.max_cooldown < self.cooldown {
            return Err("max_cooldown below cooldown".into());
        }
        Ok(())
    }
}

/// What a breaker transition did, so the embedding client can count it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerEvent {
    /// No state change.
    None,
    /// `Closed → Open`: the failure streak reached `trip_after`.
    Tripped,
    /// `HalfOpen → Open`: a probe failed; the cool-down grew.
    Reopened,
    /// `HalfOpen → Closed`: enough probes succeeded.
    Restored,
}

/// Per-backend `Closed → Open → HalfOpen` channel state machine.
///
/// Pure caller-supplies-`now` data, like [`crate::fault::RetryTracker`]:
/// feed it primary-path outcomes via [`CircuitBreaker::on_success`] /
/// [`CircuitBreaker::on_failure`] and ask [`CircuitBreaker::allow_primary`]
/// before each poll. Fallback-path outcomes must *not* be fed — only the
/// primary channel's health is being judged.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Consecutive primary failures while closed.
    failures: u32,
    /// Consecutive probe successes while half-open.
    probe_streak: u32,
    /// Cool-down currently in force (grows on re-opens, resets on close).
    cooldown_cur: SimDuration,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            failures: 0,
            probe_streak: 0,
            cooldown_cur: cfg.cooldown,
        }
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn is_closed(&self) -> bool {
        self.state == BreakerState::Closed
    }

    /// Should the next poll use the primary path? `Closed` and `HalfOpen`
    /// say yes; `Open` says yes only once the cool-down has elapsed, in
    /// which case the breaker moves to `HalfOpen` and the poll doubles as
    /// the probe. Returns `(use_primary, is_probe)`.
    pub fn allow_primary(&mut self, now: SimTime) -> (bool, bool) {
        match self.state {
            BreakerState::Closed => (true, false),
            BreakerState::HalfOpen => (true, true),
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen;
                    self.probe_streak = 0;
                    (true, true)
                } else {
                    (false, false)
                }
            }
        }
    }

    /// Record a successful primary-path completion.
    pub fn on_success(&mut self, _now: SimTime) -> BreakerEvent {
        match self.state {
            BreakerState::Closed => {
                self.failures = 0;
                BreakerEvent::None
            }
            BreakerState::HalfOpen => {
                self.probe_streak += 1;
                if self.probe_streak >= self.cfg.probe_successes {
                    self.state = BreakerState::Closed;
                    self.failures = 0;
                    self.probe_streak = 0;
                    self.cooldown_cur = self.cfg.cooldown;
                    BreakerEvent::Restored
                } else {
                    BreakerEvent::None
                }
            }
            // A late success while open must not short-circuit the
            // cool-down: only half-open probes close the breaker (no
            // flapping within the cool-down window).
            BreakerState::Open { .. } => BreakerEvent::None,
        }
    }

    /// Record a failed primary-path attempt (retry give-up, stale
    /// generation, invalidated region). `jitter` scales the cool-down
    /// (clamped to `[0.5, 2.0]`); pass a factor drawn from a seeded RNG
    /// stream for deterministic-but-decorrelated probe times, or `1.0`.
    pub fn on_failure(&mut self, now: SimTime, jitter: f64) -> BreakerEvent {
        match self.state {
            BreakerState::Closed => {
                self.failures = self.failures.saturating_add(1);
                if self.failures >= self.cfg.trip_after {
                    self.open(now, jitter);
                    BreakerEvent::Tripped
                } else {
                    BreakerEvent::None
                }
            }
            BreakerState::HalfOpen => {
                // Failed probe: re-open with a grown, freshly restarted
                // cool-down.
                self.cooldown_cur = self
                    .cooldown_cur
                    .mul_f64(self.cfg.cooldown_mult)
                    .min(self.cfg.max_cooldown);
                self.open(now, jitter);
                BreakerEvent::Reopened
            }
            // Already open: late give-ups for pre-trip polls change
            // nothing.
            BreakerState::Open { .. } => BreakerEvent::None,
        }
    }

    /// Skip the remaining cool-down and probe on the next poll. Used when
    /// an out-of-band signal (the backend's own re-registration
    /// advertisement) says the primary path is back. A handshake-driven
    /// shortcut, deliberately outside the flap-free cool-down property:
    /// it fires only on explicit backend messages, never on completions.
    pub fn nudge_probe(&mut self) {
        if let BreakerState::Open { .. } = self.state {
            self.state = BreakerState::HalfOpen;
            self.probe_streak = 0;
        }
    }

    fn open(&mut self, now: SimTime, jitter: f64) {
        let jitter = if jitter.is_finite() {
            jitter.clamp(0.5, 2.0)
        } else {
            1.0
        };
        self.state = BreakerState::Open {
            until: now + self.cooldown_cur.mul_f64(jitter),
        };
        self.failures = 0;
        self.probe_streak = 0;
    }
}

// ---------------------------------------------------------------------------
// Epoch fencing
// ---------------------------------------------------------------------------

/// Generation/sequence stamp carried by every monitoring record: the
/// producing node's boot generation and a per-region write sequence. A
/// restarted node re-registers its regions under a higher generation, so
/// any record still carrying the old one is provably pre-crash.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecordFence {
    pub generation: u32,
    pub seq: u64,
}

/// How [`FenceGate::admit`] classified a record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FenceVerdict {
    /// Same generation as before: accept.
    Admitted,
    /// First record of a newer generation (node restarted): accept and
    /// re-base the gate.
    GenerationAdvanced,
    /// Record from an older boot generation: must be discarded.
    StaleGeneration,
}

/// Client-side fence: tracks the newest generation seen per backend and
/// rejects records from older ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct FenceGate {
    latest: Option<RecordFence>,
}

impl FenceGate {
    /// Newest fence accepted so far.
    pub fn latest(&self) -> Option<RecordFence> {
        self.latest
    }

    /// Judge a record's fence, advancing the gate on acceptance.
    pub fn admit(&mut self, fence: RecordFence) -> FenceVerdict {
        match self.latest {
            None => {
                self.latest = Some(fence);
                FenceVerdict::Admitted
            }
            Some(latest) => {
                if fence.generation < latest.generation {
                    FenceVerdict::StaleGeneration
                } else if fence.generation > latest.generation {
                    self.latest = Some(fence);
                    FenceVerdict::GenerationAdvanced
                } else {
                    if fence.seq > latest.seq {
                        self.latest = Some(fence);
                    }
                    FenceVerdict::Admitted
                }
            }
        }
    }

    /// Forget everything (e.g. after an explicit re-pin handshake).
    pub fn reset(&mut self) {
        self.latest = None;
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Channel-health transition counters for one backend (or, merged, a
/// whole client). All-`u64` and `Eq` so determinism tests can compare
/// them bitwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChannelHealthStats {
    /// `Closed → Open` transitions.
    pub trips: u64,
    /// `HalfOpen → Open` transitions (failed probes).
    pub reopens: u64,
    /// `HalfOpen → Closed` transitions (primary path restored).
    pub restorations: u64,
    /// Primary-path probes issued while half-open.
    pub probes: u64,
    /// Polls diverted to the fallback (socket) path while open.
    pub fallback_polls: u64,
    /// Records discarded for carrying a stale boot generation.
    pub stale_gen_rejected: u64,
    /// Boot-generation advances observed (node restarts survived).
    pub generation_advances: u64,
    /// `RegionInvalidated` completions received.
    pub region_invalidated: u64,
    /// Region re-advertisements received and re-pinned.
    pub repins: u64,
    /// Records rejected because their integrity seal did not match
    /// their content (payload bit-corruption in flight).
    pub corrupt_rejected: u64,
    /// Records *admitted into the view* whose generation was behind the
    /// fence gate's high-water mark. The admit paths re-check every
    /// record against the gate independently of the verdict that let it
    /// through, so this stays zero by construction in correct builds —
    /// it is the chaos harness's stale-admission invariant observable.
    pub fence_regressions: u64,
}

impl ChannelHealthStats {
    /// Fold another backend's counters into this one.
    pub fn merge(&mut self, other: &ChannelHealthStats) {
        self.trips += other.trips;
        self.reopens += other.reopens;
        self.restorations += other.restorations;
        self.probes += other.probes;
        self.fallback_polls += other.fallback_polls;
        self.stale_gen_rejected += other.stale_gen_rejected;
        self.generation_advances += other.generation_advances;
        self.region_invalidated += other.region_invalidated;
        self.repins += other.repins;
        self.corrupt_rejected += other.corrupt_rejected;
        self.fence_regressions += other.fence_regressions;
    }

    /// Did anything health-related happen at all?
    pub fn any_activity(&self) -> bool {
        *self != ChannelHealthStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            cooldown: SimDuration(100 * MS),
            cooldown_mult: 2.0,
            max_cooldown: SimDuration(400 * MS),
            probe_successes: 1,
        }
    }

    #[test]
    fn trips_only_after_streak() {
        let mut b = CircuitBreaker::new(cfg());
        let t = SimTime::ZERO;
        assert_eq!(b.on_failure(t, 1.0), BreakerEvent::None);
        assert_eq!(b.on_success(t), BreakerEvent::None); // streak resets
        assert_eq!(b.on_failure(t, 1.0), BreakerEvent::None);
        assert_eq!(b.on_failure(t, 1.0), BreakerEvent::None);
        assert_eq!(b.on_failure(t, 1.0), BreakerEvent::Tripped);
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: SimTime(100 * MS)
            }
        );
    }

    #[test]
    fn open_blocks_primary_until_cooldown_then_probes() {
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(SimTime::ZERO, 1.0);
        }
        assert_eq!(b.allow_primary(SimTime(50 * MS)), (false, false));
        // A success arriving mid-cool-down (late fallback echo) must not
        // close the breaker.
        assert_eq!(b.on_success(SimTime(60 * MS)), BreakerEvent::None);
        assert!(!b.is_closed());
        // Cool-down elapsed: the next poll is the probe.
        assert_eq!(b.allow_primary(SimTime(100 * MS)), (true, true));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.on_success(SimTime(101 * MS)), BreakerEvent::Restored);
        assert!(b.is_closed());
    }

    #[test]
    fn failed_probe_reopens_with_grown_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(SimTime::ZERO, 1.0);
        }
        assert_eq!(b.allow_primary(SimTime(100 * MS)), (true, true));
        assert_eq!(b.on_failure(SimTime(110 * MS), 1.0), BreakerEvent::Reopened);
        // Cool-down doubled and restarted from the failure instant.
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: SimTime(310 * MS)
            }
        );
        // Growth saturates at max_cooldown.
        assert_eq!(b.allow_primary(SimTime(310 * MS)), (true, true));
        b.on_failure(SimTime(310 * MS), 1.0);
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: SimTime(710 * MS)
            }
        );
        // Restoration resets the cool-down for the next outage.
        assert_eq!(b.allow_primary(SimTime(710 * MS)), (true, true));
        b.on_success(SimTime(710 * MS));
        assert!(b.is_closed());
        for _ in 0..3 {
            b.on_failure(SimTime(800 * MS), 1.0);
        }
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: SimTime(900 * MS)
            }
        );
    }

    #[test]
    fn jitter_scales_and_is_clamped() {
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(SimTime::ZERO, 0.9);
        }
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: SimTime(90 * MS)
            }
        );
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure(SimTime::ZERO, f64::NAN);
        }
        assert_eq!(
            b.state(),
            BreakerState::Open {
                until: SimTime(100 * MS)
            }
        );
    }

    #[test]
    fn fence_gate_rejects_stale_generation_only() {
        let mut g = FenceGate::default();
        let f = |generation, seq| RecordFence { generation, seq };
        assert_eq!(g.admit(f(1, 5)), FenceVerdict::Admitted);
        assert_eq!(g.admit(f(1, 7)), FenceVerdict::Admitted);
        // Same-generation reordering is not a generation violation.
        assert_eq!(g.admit(f(1, 6)), FenceVerdict::Admitted);
        assert_eq!(g.latest(), Some(f(1, 7)));
        assert_eq!(g.admit(f(2, 0)), FenceVerdict::GenerationAdvanced);
        // Anything from generation 1 is now provably pre-restart.
        assert_eq!(g.admit(f(1, 999)), FenceVerdict::StaleGeneration);
        assert_eq!(g.latest(), Some(f(2, 0)));
    }

    #[test]
    fn health_stats_merge_and_activity() {
        let mut a = ChannelHealthStats::default();
        assert!(!a.any_activity());
        let b = ChannelHealthStats {
            trips: 1,
            fallback_polls: 4,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.trips, 2);
        assert_eq!(a.fallback_polls, 8);
        assert!(a.any_activity());
    }
}
