//! Shrinker property suite: across many seeded cases, the ddmin result
//! (a) still fails, and (b) is 1-minimal — removing any single op makes
//! the predicate pass. Predicates are synthetic (subset-containment and
//! a non-monotone parity family), so the properties are checked exactly
//! and cheaply, independent of any simulated world.

use fgmon_chaos::{is_one_minimal, shrink, PlannerConfig, Schedule, SchedulePlanner};
use fgmon_sim::DetRng;
use fgmon_types::FaultRule;

/// Sample a schedule with plenty of ops to shrink.
fn fat_schedule(planner: &mut SchedulePlanner) -> Schedule {
    // Concatenate several sampled schedules so cases regularly reach
    // 8–12 ops (single samples cap at the planner's max_ops).
    let mut s = planner.next_schedule();
    for _ in 0..3 {
        s.ops.extend(planner.next_schedule().ops);
    }
    // Drop duplicate op values (vanishingly rare, but identical copies
    // would make value-based containment predicates non-1-minimal).
    let mut seen: Vec<FaultRule> = Vec::new();
    s.ops.retain(|op| {
        if seen.contains(op) {
            false
        } else {
            seen.push(*op);
            true
        }
    });
    s
}

#[test]
fn shrunk_schedules_still_fail_and_are_one_minimal() {
    let planner_cfg = PlannerConfig::default();
    let mut planner = SchedulePlanner::new(0x0051_214B, planner_cfg);
    // lint: rng-construction — harness-side case generator for the
    // shrinker property suite; no simulation state involved.
    let rng = DetRng::new(0x0051_214C);
    let mut cases = 0;
    while cases < 60 {
        let schedule = fat_schedule(&mut planner);
        if schedule.ops.len() < 3 {
            continue;
        }
        cases += 1;
        // Target subset: 1–3 ops that must all be present to "fail".
        let mut case_rng = rng.fork_idx("case", cases);
        let n_targets = 1 + case_rng.index(3);
        let mut targets: Vec<FaultRule> = Vec::new();
        for _ in 0..n_targets {
            let pick = schedule.ops[case_rng.index(schedule.ops.len())];
            if !targets.contains(&pick) {
                targets.push(pick);
            }
        }
        let mut fails = |s: &Schedule| targets.iter().all(|t| s.ops.contains(t));
        assert!(fails(&schedule), "the full schedule contains its targets");
        let shrunk = shrink(&schedule, &mut fails);
        assert!(
            fails(&shrunk),
            "case {cases}: shrunk schedule must still fail"
        );
        assert!(
            is_one_minimal(&shrunk, &mut fails),
            "case {cases}: removing any single op must pass; shrunk = {:?}",
            shrunk.ops
        );
        // For subset predicates the minimum is exactly the target set.
        assert_eq!(
            shrunk.ops.len(),
            targets.len(),
            "case {cases}: subset predicate shrinks to its target set"
        );
    }
}

#[test]
fn shrinker_handles_non_monotone_predicates() {
    let mut planner = SchedulePlanner::new(0x0051_214D, PlannerConfig::default());
    for case in 0..20 {
        let schedule = fat_schedule(&mut planner);
        if schedule.ops.is_empty() {
            continue;
        }
        // Parity predicate: fails iff the op count is odd. Non-monotone,
        // so ddmin's subset steps frequently pass; the result must still
        // fail and be 1-minimal.
        let mut fails = |s: &Schedule| s.ops.len() % 2 == 1;
        let odd = if schedule.ops.len() % 2 == 1 {
            schedule
        } else {
            let mut s = schedule;
            s.ops.pop();
            s
        };
        if odd.ops.is_empty() {
            continue;
        }
        let shrunk = shrink(&odd, &mut fails);
        assert!(fails(&shrunk), "case {case}: parity shrink still fails");
        assert!(is_one_minimal(&shrunk, &mut fails), "case {case}");
    }
}
