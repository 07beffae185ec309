//! The schedule grammar: a chaos schedule is a seed plus a list of
//! [`FaultRule`]s — the fabric's own fault vocabulary — and the seeded
//! planner samples random schedules from it.

use fgmon_sim::{DetRng, SimDuration, SimTime};
use fgmon_types::{FaultEffect, FaultOp, FaultPlan, FaultRule, NodeId};

/// Node roles in the chaos world (see `fgmon_cluster::chaos_world`).
pub const FRONTEND: NodeId = NodeId(0);
/// The monitored back-end: the only snapshot producer, so payload rules
/// (clock skew, corruption) always target it.
pub const BACKEND: NodeId = NodeId(1);
/// Lock-table host. The grammar never crashes it: a dead host stalls
/// every lock client without exercising any fencing machinery.
pub const LOCK_HOST: NodeId = NodeId(2);
/// First closed-loop lock client.
pub const LOCK_CLIENT_A: NodeId = NodeId(3);
/// Second closed-loop lock client.
pub const LOCK_CLIENT_B: NodeId = NodeId(4);

/// Number of nodes in the chaos world.
pub const WORLD_NODES: u16 = 5;

/// A complete chaos schedule: the world seed plus the sampled fault
/// rules. Equality is structural, which is what the shrinker's subset
/// search needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// World seed: drives the cluster's RNG hierarchy and (xored) the
    /// fault plan's fate stream.
    pub seed: u64,
    pub ops: Vec<FaultRule>,
}

impl Schedule {
    /// The fabric's fault plan for this schedule. Subsets of a valid
    /// schedule always compile to a valid plan: per-node crash windows
    /// are the only cross-rule constraint and the planner samples at
    /// most one crash per node.
    pub fn compile(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed ^ 0xCA05,
            rules: self.ops.clone(),
        }
    }

    /// Latest instant at which any rule is still active.
    pub fn max_until(&self) -> SimTime {
        self.ops
            .iter()
            .map(|r| r.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Bounds the planner samples inside. The defaults leave a quiet tail —
/// a fault-free suffix of the run — long enough for retries, breaker
/// probes, and lock recovery to drain, which is what makes the
/// availability-floor invariant sound for *every* sampled schedule.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Virtual run length schedules are sampled against.
    pub horizon_ms: u64,
    /// Most rules a schedule may carry.
    pub max_ops: usize,
    /// Guaranteed fault-free suffix: no window may extend past
    /// `horizon_ms - quiet_tail_ms`.
    pub quiet_tail_ms: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            horizon_ms: 3_000,
            max_ops: 4,
            quiet_tail_ms: 800,
        }
    }
}

/// Seeded schedule sampler. Every schedule is a pure function of
/// `(planner seed, schedule index)`, so a failing index reproduces
/// anywhere without shipping the planner's state.
pub struct SchedulePlanner {
    root: DetRng,
    cfg: PlannerConfig,
    next_idx: u64,
}

impl SchedulePlanner {
    pub fn new(seed: u64, cfg: PlannerConfig) -> Self {
        SchedulePlanner {
            // lint: rng-construction — the planner is the root of the chaos
            // search's own seeded hierarchy; schedules must be reproducible
            // from a bare u64 with no cluster in sight.
            root: DetRng::new(seed ^ 0x5EED_CA05),
            cfg,
            next_idx: 0,
        }
    }

    pub fn config(&self) -> PlannerConfig {
        self.cfg
    }

    /// Sample the next schedule. Panics if the sampled plan fails
    /// [`FaultPlan::validate`] — the grammar is supposed to make invalid
    /// plans unrepresentable, so a validation failure here is a planner
    /// bug, not a finding.
    pub fn next_schedule(&mut self) -> Schedule {
        let idx = self.next_idx;
        self.next_idx += 1;
        let mut rng = self.root.fork_idx("schedule", idx);
        let seed = rng.range_u64(1, u64::MAX);
        let n_ops = 1 + rng.index(self.cfg.max_ops);
        // One incident time per schedule: every rule's window is jittered
        // around it (see `sample_rule`). Independently placed windows
        // rarely overlap, and the failures worth finding are fault
        // *interactions* — an echo spanning a crash window, a partition
        // across a lock grant — not disjoint solo faults.
        let hi = self.cfg.horizon_ms - self.cfg.quiet_tail_ms;
        let incident_ms = 300 + rng.range_u64(0, hi - 300);
        let mut ops = Vec::with_capacity(n_ops);
        let mut crashed = [false; WORLD_NODES as usize];
        for _ in 0..n_ops {
            ops.push(self.sample_rule(&mut rng, incident_ms, &mut crashed));
        }
        let schedule = Schedule { seed, ops };
        if let Err(e) = schedule.compile().validate() {
            panic!("planner sampled an invalid schedule (idx {idx}): {e}");
        }
        schedule
    }

    /// Sample one rule. Kinds are weighted so crash/duplicate pairs — the
    /// combination most likely to produce stale-generation traffic —
    /// appear in a healthy fraction of schedules, and every window is
    /// jittered ±250 ms around the schedule's incident time so the
    /// sampled faults actually overlap. Windows are whole milliseconds.
    fn sample_rule(&self, rng: &mut DetRng, incident_ms: u64, crashed: &mut [bool]) -> FaultRule {
        let at_ms = |ms: u64| SimTime(ms * 1_000_000);
        let lo = 200;
        let hi = self.cfg.horizon_ms - self.cfg.quiet_tail_ms;
        let mut from_ms = (incident_ms + rng.range_u64(0, 500))
            .saturating_sub(250)
            .clamp(lo, hi - 220);
        let len = 120 + rng.range_u64(0, 900);
        let mut until_ms = (from_ms + len).min(hi);
        // Weighted kind table: Crash and Duplicate twice.
        let effect = match rng.index(11) {
            // Loss covers the socket and RDMA-read classes only. CAS
            // frames (requests *and* their acks) ride the RdmaWrite
            // class, and silently eating a CAS ack models a transport
            // failure RC verbs exclude by contract — the fabric's
            // duplication fate is socket-only for the same reason. A
            // releaser that cannot tell "ack lost" from "fenced" skips
            // its owner-guard clear and every later grant misfires the
            // exclusion probe; the first clean-sweep run found exactly
            // that and shrank it to one RdmaWrite-loss rule.
            0 => FaultEffect::Loss {
                src: None,
                dst: None,
                op: Some([FaultOp::Socket, FaultOp::RdmaRead][rng.index(2)]),
                probability: 0.1 + 0.8 * rng.f64(),
            },
            1 => {
                let src = NodeId(rng.index(WORLD_NODES as usize) as u16);
                let mut dst = NodeId(rng.index(WORLD_NODES as usize) as u16);
                if dst == src {
                    dst = NodeId((dst.0 + 1) % WORLD_NODES);
                }
                FaultEffect::Partition {
                    src: Some(src),
                    dst: Some(dst),
                }
            }
            2 => FaultEffect::SlowNic {
                node: NodeId(rng.index(WORLD_NODES as usize) as u16),
                latency_mult: 1.5 + 6.0 * rng.f64(),
            },
            3 => {
                let skew_us = rng.range_u64(1, 5_000) as i64 * if rng.chance(0.5) { -1 } else { 1 };
                FaultEffect::ClockSkew {
                    node: BACKEND,
                    skew_nanos: skew_us * 1_000,
                }
            }
            4 | 5 => FaultEffect::Duplicate {
                probability: 0.05 + 0.45 * rng.f64(),
                echo_delay: SimDuration::from_millis(100 + rng.range_u64(0, 800)),
            },
            6 => FaultEffect::Reorder {
                src: None,
                dst: None,
                op: Some(FaultOp::Socket),
                probability: 0.05 + 0.45 * rng.f64(),
                extra: SimDuration::from_millis(20 + rng.range_u64(0, 800)),
            },
            7 => FaultEffect::Corruption {
                node: Some(BACKEND),
                probability: 0.05 + 0.55 * rng.f64(),
            },
            8 | 9 => {
                // Crash candidates: the monitored back-end and the lock
                // clients. At most one crash per node per schedule — the
                // plan validator rejects overlapping windows, and
                // arbitrary shrinker subsets must stay valid.
                let pool = [BACKEND, LOCK_CLIENT_A, LOCK_CLIENT_B];
                let free: Vec<NodeId> = pool
                    .iter()
                    .copied()
                    .filter(|n| !crashed[n.0 as usize])
                    .collect();
                if free.is_empty() {
                    FaultEffect::Loss {
                        src: None,
                        dst: None,
                        op: Some(FaultOp::Socket),
                        probability: 0.1 + 0.8 * rng.f64(),
                    }
                } else {
                    let node = free[rng.index(free.len())];
                    crashed[node.0 as usize] = true;
                    from_ms = (incident_ms + rng.range_u64(0, 500))
                        .saturating_sub(250)
                        .clamp(300, hi - 350);
                    until_ms = (from_ms + 300 + rng.range_u64(0, 500)).min(hi);
                    FaultEffect::Crash { node }
                }
            }
            _ => FaultEffect::Congestion {
                latency_mult: 2.0 + 18.0 * rng.f64(),
            },
        };
        FaultRule {
            from: at_ms(from_ms),
            until: at_ms(until_ms),
            effect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_schedules_compile_and_validate() {
        let cfg = PlannerConfig::default();
        let mut p = SchedulePlanner::new(7, cfg);
        for _ in 0..500 {
            let s = p.next_schedule();
            assert!(!s.ops.is_empty() && s.ops.len() <= cfg.max_ops);
            s.compile().validate().expect("sampled plan validates");
            s.compile()
                .check_nodes(WORLD_NODES as usize)
                .expect("sampled rules name chaos-world nodes");
            assert!(
                s.max_until() <= SimTime((cfg.horizon_ms - cfg.quiet_tail_ms) * 1_000_000),
                "the quiet tail must stay fault-free"
            );
        }
    }

    #[test]
    fn schedules_are_pure_functions_of_seed_and_index() {
        let a: Vec<Schedule> = {
            let mut p = SchedulePlanner::new(42, PlannerConfig::default());
            (0..20).map(|_| p.next_schedule()).collect()
        };
        let b: Vec<Schedule> = {
            let mut p = SchedulePlanner::new(42, PlannerConfig::default());
            (0..20).map(|_| p.next_schedule()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<Schedule> = {
            let mut p = SchedulePlanner::new(43, PlannerConfig::default());
            (0..20).map(|_| p.next_schedule()).collect()
        };
        assert_ne!(a, c, "different planner seeds must explore differently");
    }

    #[test]
    fn subsets_of_sampled_schedules_stay_valid() {
        let mut p = SchedulePlanner::new(11, PlannerConfig::default());
        for _ in 0..100 {
            let s = p.next_schedule();
            for skip in 0..s.ops.len() {
                let mut ops = s.ops.clone();
                ops.remove(skip);
                Schedule { seed: s.seed, ops }
                    .compile()
                    .validate()
                    .expect("subset validates");
            }
        }
    }
}
