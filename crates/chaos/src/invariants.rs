//! The cluster invariant registry: properties that must hold in *every*
//! run, no matter what fault schedule the fabric is executing. The
//! search driver evaluates the registry at each segment boundary (the
//! recorder-flush cadence) and once more at end of run.
//!
//! Each invariant is deliberately counter-based: the production code
//! maintains the observables (often redundantly, e.g. the fence gate's
//! admit-time cross-check behind `fence_regressions`), and the registry
//! only asserts over them. That keeps a check cheap enough to run every
//! segment and — critically — identical under sequential and sharded
//! execution, so verdicts can be compared bitwise across shard counts.

use fgmon_cluster::ChaosWorld;
use fgmon_core::MonitorFrontendService;
use fgmon_sim::SimTime;
use fgmon_workload::{LockClient, LockHost};

/// Names of every registered invariant, in check order.
pub const INVARIANTS: &[&str] = &[
    // No record admitted into a monitoring view may carry a generation
    // behind the fence gate's high-water mark (`fence_regressions` is the
    // admit-time cross-check counter; zero by construction).
    "stale-admission",
    // No admitted snapshot may fail its integrity seal.
    "corrupt-rejection",
    // Circuit-breaker counter soundness: restorations require trips,
    // probe outcomes cannot outnumber probes.
    "breaker-soundness",
    // RDMA-CAS lock mutual exclusion: the owner guard is never found
    // held at grant time.
    "lock-exclusion",
    // Ticket FIFO: the serving counter passes a waiting ticket only via
    // an explicit lease fence, and grant accounting stays consistent.
    "lock-fifo",
    // Engine and per-node virtual time only move forward between checks.
    "time-monotone",
    // With every fault window closed before the quiet tail, both
    // monitoring channels and the lock service must have made progress
    // by end of run (final check only).
    "availability-floor",
];

/// One invariant violation, with enough detail to read the failure
/// without re-running the schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    pub invariant: &'static str,
    /// Virtual time of the check that caught it, in milliseconds.
    pub at_ms: u64,
    pub detail: String,
}

/// Stateful invariant probe for one run. Create one per world, call
/// [`InvariantProbe::check`] at each segment boundary and
/// [`InvariantProbe::final_check`] once after the horizon.
#[derive(Default)]
pub struct InvariantProbe {
    /// Individual invariant evaluations performed.
    pub checks: u64,
    pub violations: Vec<Violation>,
    last_now: SimTime,
    last_busy: Vec<u64>,
}

impl InvariantProbe {
    pub fn new() -> Self {
        Self::default()
    }

    fn fail(&mut self, invariant: &'static str, now: SimTime, detail: String) {
        self.violations.push(Violation {
            invariant,
            at_ms: now.0 / 1_000_000,
            detail,
        });
    }

    /// Evaluate every per-segment invariant against the world's current
    /// state.
    pub fn check(&mut self, w: &mut ChaosWorld) {
        let now = w.cluster.eng.now();

        // stale-admission + corrupt-rejection + breaker-soundness over
        // both monitoring channels.
        for (label, slot) in [("socket", w.fe_socket), ("rdma", w.fe_rdma)] {
            let svc: &MonitorFrontendService = w.cluster.service(w.frontend, slot);
            let client = &svc.client;
            self.checks += 1;
            let h = client.health_total();
            if h.fence_regressions > 0 {
                self.fail(
                    "stale-admission",
                    now,
                    format!(
                        "{label} channel admitted {} record(s) behind the fence high-water mark",
                        h.fence_regressions
                    ),
                );
            }
            self.checks += 1;
            for view in client.views() {
                if let Some(snap) = &view.latest {
                    if !snap.checksum_ok() {
                        self.fail(
                            "corrupt-rejection",
                            now,
                            format!(
                                "{label} channel holds a snapshot whose seal does not match \
                                 (measured_at {})",
                                snap.measured_at
                            ),
                        );
                    }
                }
            }
            self.checks += 1;
            if h.restorations > h.trips || h.reopens + h.restorations > h.probes + h.trips {
                self.fail(
                    "breaker-soundness",
                    now,
                    format!(
                        "{label} channel breaker counters inconsistent: trips {} reopens {} \
                         restorations {} probes {}",
                        h.trips, h.reopens, h.restorations, h.probes
                    ),
                );
            }
        }

        // lock-exclusion + lock-fifo over the lock service.
        let fences = {
            let host: &LockHost = w.cluster.service(w.lock_host, w.host_slot);
            host.fences
        };
        let mut skipped_total = 0;
        for (&node, &slot) in w.lock_clients.iter().zip(&w.client_slots) {
            let c: &LockClient = w.cluster.service(node, slot);
            self.checks += 1;
            if c.exclusion_violations > 0 {
                self.fail(
                    "lock-exclusion",
                    now,
                    format!(
                        "{node}: owner guard found held at grant {} time(s)",
                        c.exclusion_violations
                    ),
                );
            }
            self.checks += 1;
            let settled = c.releases + c.release_fenced;
            if settled > c.acquisitions || c.acquisitions > settled + 1 {
                self.fail(
                    "lock-fifo",
                    now,
                    format!(
                        "{node}: grant accounting broken — acquisitions {} releases {} \
                         fenced {}",
                        c.acquisitions, c.releases, c.release_fenced
                    ),
                );
            }
            skipped_total += c.grant_skipped;
        }
        self.checks += 1;
        if skipped_total > 0 && fences == 0 {
            self.fail(
                "lock-fifo",
                now,
                format!("serving counter passed {skipped_total} ticket(s) without a lease fence"),
            );
        }

        // time-monotone: engine clock and per-node CPU accounting only
        // move forward.
        self.checks += 1;
        if now < self.last_now {
            self.fail(
                "time-monotone",
                now,
                format!("engine clock moved backwards: {} -> {}", self.last_now, now),
            );
        }
        self.last_now = now;
        let nodes = w.cluster.node_count();
        self.last_busy.resize(nodes, 0);
        for i in 0..nodes {
            let node_id = fgmon_types::NodeId(i as u16);
            let busy: u64 = w
                .cluster
                .node_mut(node_id)
                .core_mut()
                .cpu_acct
                .iter()
                .map(|a| a.busy_total.nanos())
                .sum();
            self.checks += 1;
            if busy < self.last_busy[i] {
                self.fail(
                    "time-monotone",
                    now,
                    format!(
                        "{node_id}: CPU busy accounting moved backwards ({} -> {busy})",
                        self.last_busy[i]
                    ),
                );
            }
            self.last_busy[i] = busy;
        }
    }

    /// End-of-run check. `expect_availability` is true when the schedule
    /// left the guaranteed quiet tail fault-free (the planner always
    /// does; hand-built schedules may not).
    pub fn final_check(&mut self, w: &mut ChaosWorld, expect_availability: bool) {
        self.check(w);
        if !expect_availability {
            return;
        }
        let now = w.cluster.eng.now();
        for (label, slot) in [("socket", w.fe_socket), ("rdma", w.fe_rdma)] {
            let svc: &MonitorFrontendService = w.cluster.service(w.frontend, slot);
            self.checks += 1;
            let replies: u64 = svc.client.views().iter().map(|v| v.replies).sum();
            if replies == 0 {
                self.fail(
                    "availability-floor",
                    now,
                    format!("{label} channel accepted zero records over a bounded schedule"),
                );
            }
        }
        self.checks += 1;
        let acquisitions: u64 = w
            .lock_clients
            .iter()
            .zip(&w.client_slots)
            .map(|(&n, &s)| w.cluster.service::<LockClient>(n, s).acquisitions)
            .sum();
        if acquisitions == 0 {
            self.fail(
                "availability-floor",
                now,
                "no lock client ever acquired over a bounded schedule".to_string(),
            );
        }
    }
}
