//! Multi-tenant NIC contention and QoS vocabulary.
//!
//! The paper's one-sided schemes assume the NIC itself has headroom; a
//! hostile co-tenant saturating one-sided verbs invalidates that
//! assumption by thrashing the NIC's QP/ICM cache and doorbell queues.
//! This module holds the *pure data* side of the model — the contention
//! parameters, the QoS policies that restore isolation, the
//! deterministic token-bucket limiter, and the per-tenant counters —
//! so the invariants are unit- and property-testable without a fabric.
//!
//! All of it is sim-path code: no wall clock, no ambient randomness,
//! callers supply `now` explicitly.

use fgmon_sim::{SimDuration, SimTime};

use crate::ids::TenantId;

/// Fixed tenant-table width. Per-tenant counters live in fixed-size
/// arrays inside `FabricStats` so the stats stay `Copy` and shard
/// absorption stays a plain field-wise sum.
pub const MAX_TENANTS: usize = 4;

/// Parameters of the per-NIC QP-cache / doorbell pressure model.
///
/// Pressure is accounted per *target* NIC over aligned windows of
/// `window` nanoseconds: every one-sided completion the target serves
/// bumps the window counter. Once the counter exceeds
/// `qp_cache_slots`, the NIC is past its cached-QP working set and
/// every further completion in the window pays `thrash_penalty`
/// (ICM cache miss → PCIe round-trip for the QP context). Past
/// `overload_slots` the receive pipeline sheds load: completions are
/// dropped with probability `overload_drop`, drawn from the same pure
/// seeded interposer the fault plans use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NicContentionConfig {
    /// Aligned accounting window.
    pub window: SimDuration,
    /// Completions per window the QP cache absorbs at full speed.
    pub qp_cache_slots: u32,
    /// Extra completion latency once the cache thrashes.
    pub thrash_penalty: SimDuration,
    /// Completions per window past which the NIC sheds load.
    pub overload_slots: u32,
    /// Drop probability applied past `overload_slots`.
    pub overload_drop: f64,
}

impl Default for NicContentionConfig {
    fn default() -> Self {
        NicContentionConfig {
            window: SimDuration::from_millis(1),
            qp_cache_slots: 32,
            thrash_penalty: SimDuration::from_micros(40),
            overload_slots: 96,
            overload_drop: 0.35,
        }
    }
}

/// Tenant-isolation scheme enforced by the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum QosPolicy {
    /// No isolation: all tenants share the NIC unprotected.
    #[default]
    None,
    /// Per-tenant token-bucket rate limit, enforced by each posting
    /// node's own NIC (one bucket per node, see
    /// [`TenancyConfig::post_limiter`]). Over-budget posts are dropped
    /// and counted as `rate_limited` against the posting tenant. The
    /// priority tenant (by default [`TenantId::INFRA`]) is exempt.
    RateLimit {
        /// Ops each non-infra tenant may post per window, per node.
        ops_per_window: u32,
        /// Aligned limiter window.
        window: SimDuration,
    },
    /// Prioritized monitoring QP class: completions initiated by the
    /// priority tenant ride reserved QP-cache slots and skip both the
    /// thrash penalty and overload shedding. Other tenants' traffic is
    /// untouched — host-side (socket) pressure in particular remains.
    PriorityQp,
}

/// Complete tenancy configuration installed on a fabric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenancyConfig {
    pub contention: NicContentionConfig,
    pub qos: QosPolicy,
    /// Tenant protected by [`QosPolicy::PriorityQp`] and exempt from
    /// [`QosPolicy::RateLimit`].
    pub priority_tenant: TenantId,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            contention: NicContentionConfig::default(),
            qos: QosPolicy::None,
            priority_tenant: TenantId::INFRA,
        }
    }
}

impl TenancyConfig {
    pub fn with_qos(qos: QosPolicy) -> Self {
        TenancyConfig {
            qos,
            ..TenancyConfig::default()
        }
    }

    /// The source-NIC token bucket a node of `tenant` posts through, or
    /// `None` when the policy leaves that tenant unlimited (no rate
    /// limit, or `tenant` is the priority tenant).
    pub fn post_limiter(&self, tenant: TenantId) -> Option<TokenBucket> {
        match self.qos {
            QosPolicy::RateLimit {
                ops_per_window,
                window,
            } if tenant != self.priority_tenant => Some(TokenBucket::new(ops_per_window, window)),
            _ => None,
        }
    }
}

/// Deterministic aligned-window token bucket.
///
/// Admits at most `max_ops` operations inside any aligned window of
/// `window` nanoseconds (windows start at multiples of the window
/// length from time zero). The caller supplies `now`; the bucket holds
/// no clock and draws no randomness, so for any event schedule the
/// admission decision sequence is a pure function of the timestamps —
/// the property the isolation proptests pin down.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenBucket {
    max_ops: u32,
    window: SimDuration,
    /// Index of the window `used` counts for.
    epoch: u64,
    used: u32,
}

impl TokenBucket {
    pub fn new(max_ops: u32, window: SimDuration) -> Self {
        assert!(window.nanos() > 0, "token bucket window must be positive");
        TokenBucket {
            max_ops,
            window,
            epoch: 0,
            used: 0,
        }
    }

    /// Which aligned window `now` falls in.
    #[inline]
    pub fn window_index(&self, now: SimTime) -> u64 {
        now.nanos() / self.window.nanos()
    }

    /// Admit or reject one op at `now`. Timestamps must be supplied in
    /// nondecreasing order (sim time never goes backwards).
    pub fn try_admit(&mut self, now: SimTime) -> bool {
        let epoch = self.window_index(now);
        if epoch != self.epoch {
            self.epoch = epoch;
            self.used = 0;
        }
        if self.used < self.max_ops {
            self.used += 1;
            true
        } else {
            false
        }
    }

    /// Ops admitted in the window `now` falls in.
    pub fn used_in_window(&self, now: SimTime) -> u32 {
        if self.window_index(now) == self.epoch {
            self.used
        } else {
            0
        }
    }
}

/// Per-tenant fabric counters. Lives in a fixed `[TenantStats;
/// MAX_TENANTS]` array inside `FabricStats`; every field is a plain
/// sum, so shard-replica absorption is field-wise addition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Ops (socket frames + one-sided posts) offered at source NICs.
    pub posted: u64,
    /// Posts dropped at source by the rate-limit QoS.
    pub rate_limited: u64,
    /// One-sided completions delivered to this tenant's initiators.
    pub completions: u64,
    /// Completions that paid the QP-cache thrash penalty.
    pub thrashed: u64,
    /// Completions shed by an overloaded target NIC.
    pub contention_dropped: u64,
}

impl TenantStats {
    pub fn absorb(&mut self, other: &TenantStats) {
        self.posted += other.posted;
        self.rate_limited += other.rate_limited;
        self.completions += other.completions;
        self.thrashed += other.thrashed;
        self.contention_dropped += other.contention_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_caps_each_aligned_window() {
        let w = SimDuration::from_millis(1);
        let mut b = TokenBucket::new(3, w);
        for i in 0..5 {
            let ok = b.try_admit(SimTime(i * 10));
            assert_eq!(ok, i < 3, "op {i}");
        }
        assert_eq!(b.used_in_window(SimTime(40)), 3);
        // Next window: budget resets.
        assert!(b.try_admit(SimTime(w.nanos())));
        assert_eq!(b.used_in_window(SimTime(w.nanos())), 1);
        assert_eq!(b.used_in_window(SimTime(3 * w.nanos())), 0);
    }

    #[test]
    fn tenant_stats_absorb_sums_every_counter() {
        let a = TenantStats {
            posted: 1,
            rate_limited: 2,
            completions: 3,
            thrashed: 4,
            contention_dropped: 5,
        };
        let mut b = a;
        b.absorb(&a);
        assert_eq!(
            b,
            TenantStats {
                posted: 2,
                rate_limited: 4,
                completions: 6,
                thrashed: 8,
                contention_dropped: 10,
            }
        );
    }

    #[test]
    fn only_rate_limited_non_priority_tenants_get_a_bucket() {
        let w = SimDuration::from_millis(1);
        let limited = TenancyConfig::with_qos(QosPolicy::RateLimit {
            ops_per_window: 4,
            window: w,
        });
        assert_eq!(
            limited.post_limiter(TenantId(1)),
            Some(TokenBucket::new(4, w))
        );
        assert_eq!(limited.post_limiter(TenantId::INFRA), None);
        for qos in [QosPolicy::None, QosPolicy::PriorityQp] {
            assert_eq!(TenancyConfig::with_qos(qos).post_limiter(TenantId(1)), None);
        }
    }

    #[test]
    fn default_config_is_unisolated() {
        let cfg = TenancyConfig::default();
        assert_eq!(cfg.qos, QosPolicy::None);
        assert_eq!(cfg.priority_tenant, TenantId::INFRA);
        assert!(cfg.contention.overload_slots > cfg.contention.qp_cache_slots);
    }
}
