//! Property-based tests for the workload models and the fault-injection
//! primitives (the retry state machine and `FaultPlan` are pure data in
//! `fgmon-types`, so they are testable here without a running cluster).

#![cfg(test)]

use fgmon_sim::{DetRng, SimDuration, SimTime};
use fgmon_types::{
    BreakerConfig, BreakerEvent, BreakerState, CircuitBreaker, FaultOp, FaultPlan, NodeId,
    QueryClass, ReplyOutcome, RetryPolicy, RetryTracker, TimeoutAction,
};
use proptest::prelude::*;

use crate::rubis::{QueryProfile, TransitionMatrix};
use crate::zipf::ZipfCatalog;

proptest! {
    /// Service demands are positive, finite, and bounded by the spike
    /// envelope.
    #[test]
    fn rubis_demand_bounded(seed in 0u64.., class_idx in 0usize..8) {
        let class = QueryClass::ALL[class_idx];
        let p = QueryProfile::of(class);
        let mut rng = DetRng::new(seed);
        for _ in 0..64 {
            let d = p.sample_cpu(&mut rng);
            prop_assert!(d.nanos() > 0, "demand must be positive");
            // Envelope: worst case is a spiked draw with an extreme
            // exponential tail; 100x mean x mult is astronomically
            // conservative but catches unit errors (ms vs ns).
            let cap = p.cpu_mean.nanos() as f64 * p.spike_mult * 100.0;
            prop_assert!((d.nanos() as f64) < cap, "demand {} beyond envelope", d);
        }
    }

    /// Session walks only ever visit valid query classes, from any start.
    #[test]
    fn transition_closed_over_classes(seed in 0u64.., start_idx in 0usize..8) {
        let m = TransitionMatrix::default();
        let mut rng = DetRng::new(seed);
        let mut class = QueryClass::ALL[start_idx];
        for _ in 0..256 {
            class = m.next(class, &mut rng);
            prop_assert!(QueryClass::ALL.contains(&class));
        }
    }

    /// Catalog sizes are within bounds and sampling stays in range for
    /// any (n, alpha).
    #[test]
    fn zipf_catalog_bounds(n in 1usize..2000, alpha in 0.0f64..1.5, seed in 0u64..) {
        let mut rng = DetRng::new(seed);
        let c = ZipfCatalog::new(n, alpha, &mut rng);
        prop_assert_eq!(c.len(), n);
        for _ in 0..32 {
            let (doc, size) = c.sample(&mut rng);
            prop_assert!((doc as usize) < n);
            prop_assert!((1..=512).contains(&size));
            prop_assert_eq!(c.size_of(doc), Some(size));
        }
        // Service cost is monotone in size.
        prop_assert!(ZipfCatalog::service_cost(512) > ZipfCatalog::service_cost(1));
    }

    /// The estimated stationary mix is a probability distribution.
    #[test]
    fn transition_mix_is_distribution(seed in 0u64..) {
        let m = TransitionMatrix::default();
        let mut rng = DetRng::new(seed);
        let mix = m.estimate_mix(&mut rng, 5_000);
        let total: f64 = mix.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(mix.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Drive the retry state machine through whole poll cycles against a
    /// randomly lossy channel: attempts never exceed the retry budget,
    /// every cycle resolves, and nothing stays in flight afterwards.
    #[test]
    fn retries_never_exceed_budget(
        seed in 0u64..,
        timeout_ms in 1u64..40,
        max_retries in 0u32..5,
        drop_p in 0.0f64..=1.0,
    ) {
        let policy = RetryPolicy {
            timeout: SimDuration::from_millis(timeout_ms),
            max_retries,
            backoff_base: SimDuration::from_millis(1),
            backoff_mult: 2.0,
            max_backoff: SimDuration::MAX,
            unreachable_after: 2,
        };
        let mut t = RetryTracker::new(policy);
        let mut rng = DetRng::new(seed);
        let mut now = SimTime::ZERO;
        let mut next_req = 1u64;
        const CYCLES: u64 = 24;
        for _ in 0..CYCLES {
            let mut req = next_req;
            next_req += 1;
            t.begin(req, now);
            let mut attempts = 1u32;
            loop {
                if rng.f64() >= drop_p {
                    // Reply arrives before the deadline.
                    prop_assert_eq!(t.on_reply(req), ReplyOutcome::Accepted);
                    break;
                }
                // Reply lost: advance past the deadline and expire.
                now += SimDuration::from_millis(timeout_ms + 1);
                let actions = t.poll_timeouts(now);
                prop_assert_eq!(actions.len(), 1);
                match actions[0] {
                    TimeoutAction::Retry { req: r, attempt, backoff } => {
                        prop_assert_eq!(r, req);
                        prop_assert!(attempt <= max_retries);
                        now += backoff;
                        req = next_req;
                        next_req += 1;
                        t.begin_retry(req, attempt, now);
                        attempts += 1;
                    }
                    TimeoutAction::GiveUp { req: r } => {
                        prop_assert_eq!(r, req);
                        break;
                    }
                }
            }
            prop_assert!(attempts <= max_retries + 1,
                "cycle used {} attempts with budget {}", attempts, max_retries);
            prop_assert_eq!(t.outstanding(), 0);
        }
        prop_assert!(t.retries <= CYCLES * max_retries as u64);
        prop_assert_eq!(t.timed_out, t.retries + t.gave_up);
    }

    /// A reply for a request that already timed out is classified
    /// `LateIgnored` — and stays ignored no matter how often or late it
    /// shows up, so a sample can never be double-counted.
    #[test]
    fn late_reply_is_ignored_never_double_counted(
        timeout_ms in 1u64..40,
        extra_ms in 0u64..500,
        dupes in 1usize..4,
    ) {
        let policy = RetryPolicy {
            timeout: SimDuration::from_millis(timeout_ms),
            max_retries: 0,
            backoff_base: SimDuration::from_millis(1),
            backoff_mult: 2.0,
            max_backoff: SimDuration::MAX,
            unreachable_after: u32::MAX,
        };
        let mut t = RetryTracker::new(policy);
        t.begin(7, SimTime::ZERO);
        let after = SimTime(SimDuration::from_millis(timeout_ms + 1 + extra_ms).nanos());
        let actions = t.poll_timeouts(after);
        prop_assert_eq!(actions.len(), 1);
        prop_assert_eq!(t.timed_out, 1);
        prop_assert_eq!(t.outstanding(), 0);
        for k in 1..=dupes {
            prop_assert_eq!(t.on_reply(7), ReplyOutcome::LateIgnored);
            prop_assert_eq!(t.late_ignored, k as u64);
        }
        // A fresh request on the same tracker is unaffected.
        t.begin(8, after);
        prop_assert_eq!(t.on_reply(8), ReplyOutcome::Accepted);
        // Ids nobody ever sent are Unknown, not Accepted.
        prop_assert_eq!(t.on_reply(9999), ReplyOutcome::Unknown);
    }

    /// `FaultPlan` invariants under arbitrary rule composition: validation
    /// accepts what the builders produce, combined loss stays a
    /// probability and never drops below the strongest single rule,
    /// latency multipliers stay finite and >= 1, and crash windows are
    /// half-open.
    #[test]
    fn fault_plan_invariants(
        probs in prop::collection::vec(0.0f64..=1.0, 0..6),
        mults in prop::collection::vec(1.0f64..8.0, 0..4),
        at in 0u64..10_000,
        node in 0u16..8,
    ) {
        let mut plan = FaultPlan::new(9);
        for &p in &probs {
            plan = plan.lossy_all(p);
        }
        for (i, &m) in mults.iter().enumerate() {
            let from = SimTime(i as u64 * 1_000);
            plan = plan.congested(from, SimTime(from.nanos() + 5_000), m);
        }
        prop_assert!(plan.validate().is_ok());

        for op in [FaultOp::Socket, FaultOp::RdmaRead, FaultOp::RdmaWrite, FaultOp::Mcast] {
            let fate = plan.frame_fate(Some(NodeId(0)), Some(NodeId(1)), op, SimTime(at));
            let p = fate.loss;
            prop_assert!((0.0..=1.0).contains(&p));
            let strongest = probs.iter().copied().fold(0.0f64, f64::max);
            prop_assert!(p >= strongest - 1e-12,
                "composed loss {} below strongest rule {}", p, strongest);
            let m = fate.latency_mult;
            prop_assert!(m.is_finite() && m >= 1.0);
        }

        let crashy = FaultPlan::new(1).crash(NodeId(node), SimTime(100), SimTime(200));
        let crashed = |n: u16, at: u64| {
            crashy.frame_fate(Some(NodeId(n)), None, FaultOp::Socket, SimTime(at)).crashed
        };
        prop_assert!(!crashed(node, 99));
        prop_assert!(crashed(node, 100));
        prop_assert!(crashed(node, 199));
        prop_assert!(!crashed(node, 200));
        // Other nodes are unaffected.
        prop_assert!(!crashed(node + 1, 150));

        // Malformed probabilities are rejected, not silently clamped.
        prop_assert!(FaultPlan::new(0).lossy_all(1.5).validate().is_err());
        prop_assert!(FaultPlan::new(0).congested(SimTime(0), SimTime(1), 0.5).validate().is_err());
    }

    /// The circuit breaker trips exactly at `trip_after` *consecutive*
    /// failures — any interleaved success resets the streak — and once
    /// open it ignores both successes and failures and keeps the primary
    /// path blocked until the cool-down elapses: no flapping within the
    /// window.
    #[test]
    fn breaker_trips_only_after_streak_and_never_flaps(
        trip_after in 1u32..6,
        cooldown_ms in 1u64..50,
        outcomes in prop::collection::vec(any::<bool>(), 1..64),
    ) {
        let cfg = BreakerConfig {
            trip_after,
            cooldown: SimDuration::from_millis(cooldown_ms),
            cooldown_mult: 2.0,
            max_cooldown: SimDuration::from_millis(cooldown_ms * 8),
            probe_successes: 1,
        };
        prop_assert!(cfg.validate().is_ok());
        let mut b = CircuitBreaker::new(cfg);
        let mut now = SimTime::ZERO;
        let mut streak = 0u32;
        for &ok in &outcomes {
            if !b.is_closed() {
                break;
            }
            now += SimDuration::from_millis(1);
            if ok {
                prop_assert_eq!(b.on_success(now), BreakerEvent::None);
                streak = 0;
            } else {
                streak += 1;
                let ev = b.on_failure(now, 1.0);
                if streak == trip_after {
                    prop_assert_eq!(ev, BreakerEvent::Tripped);
                } else {
                    prop_assert!(streak < trip_after, "missed trip at streak {}", streak);
                    prop_assert_eq!(ev, BreakerEvent::None);
                }
            }
        }
        if let BreakerState::Open { until } = b.state() {
            // While open, completions of any kind change nothing.
            prop_assert_eq!(b.on_success(now), BreakerEvent::None);
            prop_assert_eq!(b.on_failure(now, 1.0), BreakerEvent::None);
            prop_assert_eq!(b.state(), BreakerState::Open { until });
            // Blocked strictly inside the window, probing at its end.
            let just_before = SimTime(until.nanos() - 1);
            if just_before >= now {
                prop_assert_eq!(b.allow_primary(just_before), (false, false));
            }
            prop_assert_eq!(b.allow_primary(until), (true, true));
            prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        }
    }

    /// Failed half-open probes re-open with a geometrically grown
    /// cool-down that restarts from the failure instant and saturates at
    /// `max_cooldown`; a successful probe closes the breaker and resets
    /// the growth for the next outage.
    #[test]
    fn breaker_probe_failure_reopens_and_restore_resets_cooldown(
        reopen_count in 1u32..8,
        cooldown_ms in 1u64..20,
    ) {
        let c = SimDuration::from_millis(cooldown_ms);
        let cfg = BreakerConfig {
            trip_after: 1,
            cooldown: c,
            cooldown_mult: 2.0,
            max_cooldown: c.mul_f64(8.0),
            probe_successes: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        prop_assert_eq!(b.on_failure(SimTime::ZERO, 1.0), BreakerEvent::Tripped);
        let mut expected = c;
        let mut until = SimTime(expected.nanos());
        prop_assert_eq!(b.state(), BreakerState::Open { until });
        for _ in 0..reopen_count {
            prop_assert_eq!(b.allow_primary(until), (true, true));
            expected = expected.mul_f64(2.0).min(cfg.max_cooldown);
            let now = until;
            prop_assert_eq!(b.on_failure(now, 1.0), BreakerEvent::Reopened);
            until = now + expected;
            prop_assert_eq!(b.state(), BreakerState::Open { until });
        }
        // Restoration closes the breaker and resets the cool-down, so the
        // next outage starts from the base window again.
        prop_assert_eq!(b.allow_primary(until), (true, true));
        prop_assert_eq!(b.on_success(until), BreakerEvent::Restored);
        prop_assert!(b.is_closed());
        prop_assert_eq!(b.on_failure(until, 1.0), BreakerEvent::Tripped);
        prop_assert_eq!(b.state(), BreakerState::Open { until: until + c });
    }
}

// ---------------------------------------------------------------------------
// Multi-tenancy and lock-service isolation invariants (pure models from
// `fgmon-types`: the token-bucket limiter and the ticket-lock words).
// ---------------------------------------------------------------------------

proptest! {
    /// The token bucket never admits more than `max_ops` operations in
    /// any aligned window, for *any* event schedule: arbitrary
    /// inter-arrival gaps, bursts, and idle stretches.
    #[test]
    fn token_bucket_never_exceeds_rate(
        max_ops in 1u32..64,
        window_us in 1u64..5_000,
        gaps_ns in prop::collection::vec(0u64..20_000_000, 1..512),
    ) {
        use std::collections::BTreeMap;
        use fgmon_types::TokenBucket;

        let window = SimDuration::from_micros(window_us);
        let mut bucket = TokenBucket::new(max_ops, window);
        let mut now = SimTime::ZERO;
        let mut admitted_per_window: BTreeMap<u64, u32> = BTreeMap::new();
        for gap in gaps_ns {
            now += SimDuration(gap);
            let win = now.nanos() / window.nanos();
            if bucket.try_admit(now) {
                *admitted_per_window.entry(win).or_insert(0) += 1;
            }
            // The bucket's own view agrees with the external tally.
            prop_assert_eq!(
                bucket.used_in_window(now),
                admitted_per_window.get(&win).copied().unwrap_or(0)
            );
        }
        for (&win, &n) in &admitted_per_window {
            prop_assert!(
                n <= max_ops,
                "window {} admitted {} ops with budget {}", win, n, max_ops
            );
        }
    }

    /// A saturating burst inside one window is admitted exactly up to
    /// the budget, and the next window starts with a full budget again.
    #[test]
    fn token_bucket_budget_is_exact(
        max_ops in 1u32..64,
        window_us in 1u64..1_000,
        burst in 1u32..256,
    ) {
        use fgmon_types::TokenBucket;
        let window = SimDuration::from_micros(window_us);
        let mut bucket = TokenBucket::new(max_ops, window);
        // Aligned window start, so the whole burst lands inside it.
        let t0 = SimTime(7 * window.nanos());
        let admitted = (0..burst).filter(|_| bucket.try_admit(t0)).count() as u32;
        prop_assert_eq!(admitted, burst.min(max_ops));
        let t1 = SimTime(8 * window.nanos());
        prop_assert!(bucket.try_admit(t1), "fresh window must re-admit");
    }

    /// Ticket-lock isolation invariants under arbitrary interleavings:
    /// drive N clients through take-ticket → wait → enter → release in
    /// an arbitrary schedule order over the *pure* word model. Grants
    /// are mutually exclusive (the owner guard never collides) and
    /// FIFO-fair (grants happen in strict ticket order).
    #[test]
    fn ticket_lock_is_exclusive_and_fifo(
        n_clients in 2usize..6,
        schedule in prop::collection::vec(0usize..6, 1..400),
    ) {
        use fgmon_types::TicketLock;

        #[derive(Clone, Copy, PartialEq)]
        enum St { Idle, Queued { ticket: u32 }, Holding { ticket: u32, epoch: u32 } }

        let mut lock = TicketLock::default();
        let mut st = vec![St::Idle; n_clients];
        let mut grant_order: Vec<u32> = Vec::new();
        let mut holders = 0u32;
        for pick in schedule {
            let c = pick % n_clients;
            let key = c as u64 + 1;
            match st[c] {
                St::Idle => {
                    st[c] = St::Queued { ticket: lock.take_ticket() };
                }
                St::Queued { ticket } => {
                    if let Some(epoch) = lock.poll_grant(ticket) {
                        prop_assert!(lock.enter_guard(key),
                            "owner guard collided: exclusion violated");
                        holders += 1;
                        prop_assert_eq!(holders, 1, "two holders at once");
                        grant_order.push(ticket);
                        st[c] = St::Holding { ticket, epoch };
                    }
                }
                St::Holding { ticket, epoch } => {
                    prop_assert!(lock.try_release(epoch, ticket, key),
                        "live holder's release must succeed");
                    holders -= 1;
                    st[c] = St::Idle;
                }
            }
        }
        // FIFO fairness: grants happened in strict ticket order.
        for pair in grant_order.windows(2) {
            prop_assert!(pair[0] < pair[1],
                "grants out of FIFO order: {:?}", grant_order);
        }
    }

    /// Epoch fencing: once the lease manager advances past a dead
    /// holder, no operation carrying the fenced generation ever
    /// succeeds again — release fails, the guard cannot be re-asserted
    /// over a successor, and only a *fresh* ticket under the new epoch
    /// is granted.
    #[test]
    fn fenced_generation_cannot_reacquire(
        waiters in 0u32..5,
        stale_retries in 1usize..8,
    ) {
        use fgmon_types::TicketLock;

        let mut lock = TicketLock::default();
        let dead_key = 1u64;
        let dead_ticket = lock.take_ticket();
        for _ in 0..waiters {
            lock.take_ticket();
        }
        let dead_epoch = lock.poll_grant(dead_ticket).expect("first ticket is granted");
        prop_assert!(lock.enter_guard(dead_key));

        // The holder "crashes"; the lease manager fences it.
        let (new_epoch, skipped) = lock.fence_advance();
        prop_assert_eq!(new_epoch, dead_epoch + 1);
        prop_assert_eq!(skipped, dead_ticket);

        // Nothing the fenced generation retries can ever succeed.
        for _ in 0..stale_retries {
            prop_assert!(!lock.try_release(dead_epoch, dead_ticket, dead_key),
                "fenced release must fail");
            prop_assert_eq!(lock.poll_grant(dead_ticket), None,
                "fenced ticket must never be granted again");
        }

        // The successor proceeds under the new epoch; a fresh ticket
        // from the fenced client queues behind everyone as usual.
        if waiters > 0 {
            prop_assert_eq!(lock.poll_grant(dead_ticket + 1), Some(new_epoch));
        }
        let fresh = lock.take_ticket();
        prop_assert!(fresh > dead_ticket);
    }
}
