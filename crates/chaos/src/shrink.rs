//! Delta-debugging shrinker: minimize a failing schedule to a locally
//! minimal reproducer (ddmin). The predicate is arbitrary — usually "the
//! sequential run reports a violation" — and the result is 1-minimal:
//! removing any single remaining op makes the predicate pass.

use fgmon_types::FaultRule;

use crate::grammar::Schedule;

/// Upper bound on predicate evaluations per shrink. Each evaluation is
/// a full simulated run, so runaway shrinks must be impossible; ddmin on
/// the grammar's tiny op counts stays far below this.
pub const MAX_SHRINK_RUNS: usize = 256;

fn without_chunk(ops: &[FaultRule], n: usize, i: usize) -> Vec<FaultRule> {
    let chunk = ops.len().div_ceil(n);
    let lo = (i * chunk).min(ops.len());
    let hi = ((i + 1) * chunk).min(ops.len());
    let mut out = Vec::with_capacity(ops.len().saturating_sub(hi - lo));
    out.extend_from_slice(&ops[..lo]);
    out.extend_from_slice(&ops[hi..]);
    out
}

fn chunk_of(ops: &[FaultRule], n: usize, i: usize) -> Vec<FaultRule> {
    let chunk = ops.len().div_ceil(n);
    let lo = (i * chunk).min(ops.len());
    let hi = ((i + 1) * chunk).min(ops.len());
    ops[lo..hi].to_vec()
}

/// Minimize `schedule` under `fails` with classic ddmin. Returns a
/// schedule that still fails and is 1-minimal (removing any single op
/// passes), or the input unchanged if the budget ran out first. The
/// world seed is never varied: the reproducer must replay the exact run
/// that failed.
pub fn shrink(schedule: &Schedule, fails: &mut dyn FnMut(&Schedule) -> bool) -> Schedule {
    let mk = |ops: Vec<FaultRule>| Schedule {
        seed: schedule.seed,
        ops,
    };
    let mut ops = schedule.ops.clone();
    let mut budget = MAX_SHRINK_RUNS;
    let mut run = |s: &Schedule, budget: &mut usize| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        fails(s)
    };
    let mut n = 2;
    while ops.len() >= 2 && budget > 0 {
        let mut reduced = false;
        // Try each chunk alone (fast path toward tiny reproducers) …
        for i in 0..n.min(ops.len()) {
            let candidate = chunk_of(&ops, n, i);
            if candidate.len() < ops.len() && run(&mk(candidate.clone()), &mut budget) {
                ops = candidate;
                n = 2;
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        // … then each complement (drop one chunk).
        for i in 0..n.min(ops.len()) {
            let candidate = without_chunk(&ops, n, i);
            if candidate.len() < ops.len() && run(&mk(candidate.clone()), &mut budget) {
                ops = candidate;
                n = (n - 1).max(2);
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        if n >= ops.len() {
            break;
        }
        n = (2 * n).min(ops.len());
    }
    mk(ops)
}

/// Does removing any single op make the schedule pass? (The shrinker's
/// postcondition; exposed so property tests can verify it directly.)
pub fn is_one_minimal(schedule: &Schedule, fails: &mut dyn FnMut(&Schedule) -> bool) -> bool {
    if schedule.ops.len() <= 1 {
        return true;
    }
    (0..schedule.ops.len()).all(|i| {
        let mut ops = schedule.ops.clone();
        ops.remove(i);
        !fails(&Schedule {
            seed: schedule.seed,
            ops,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::BACKEND;
    use fgmon_sim::SimTime;
    use fgmon_types::FaultEffect;

    fn op(from: u64) -> FaultRule {
        FaultRule {
            from: SimTime(from),
            until: SimTime(from + 100),
            effect: FaultEffect::Crash { node: BACKEND },
        }
    }

    #[test]
    fn shrinks_to_the_single_culprit() {
        let s = Schedule {
            seed: 1,
            ops: (0..8).map(|i| op(i * 10)).collect(),
        };
        let needle = op(40);
        let mut fails = |c: &Schedule| c.ops.contains(&needle);
        let shrunk = shrink(&s, &mut fails);
        assert_eq!(shrunk.ops, vec![needle]);
        assert!(is_one_minimal(&shrunk, &mut fails));
    }

    #[test]
    fn shrinks_a_conjunction_to_both_culprits() {
        let s = Schedule {
            seed: 1,
            ops: (0..7).map(|i| op(i * 10)).collect(),
        };
        let a = op(10);
        let b = op(50);
        let mut fails = |c: &Schedule| c.ops.contains(&a) && c.ops.contains(&b);
        let shrunk = shrink(&s, &mut fails);
        assert_eq!(shrunk.ops.len(), 2);
        assert!(shrunk.ops.contains(&a) && shrunk.ops.contains(&b));
        assert!(is_one_minimal(&shrunk, &mut fails));
    }

    #[test]
    fn never_returns_a_passing_schedule() {
        let s = Schedule {
            seed: 1,
            ops: (0..5).map(|i| op(i * 10)).collect(),
        };
        let mut fails = |c: &Schedule| c.ops.len() % 2 == 1; // non-monotone
        let shrunk = shrink(&s, &mut fails);
        assert!(fails(&shrunk), "shrink output must still fail");
        assert!(is_one_minimal(&shrunk, &mut fails));
    }
}
