//! The clean-build chaos sweep: with no canary armed, a schedule sweep
//! must report zero invariant violations, and every schedule's verdict
//! must be identical under the sequential engine and two worker shards.
//!
//! Schedule count scales with `FGMON_CHAOS_SCHEDULES` (CI smoke uses 64;
//! the acceptance sweep runs 200 in release; the default keeps plain
//! `cargo test` quick).

#![cfg(not(feature = "chaos-canary"))]

use fgmon_chaos::{
    run_schedule, search, PlannerConfig, RunConfig, Schedule, SchedulePlanner, SearchConfig,
};

fn schedules_from_env(default: usize) -> usize {
    std::env::var("FGMON_CHAOS_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[test]
fn sweep_reports_zero_violations_with_identical_verdicts() {
    let cfg = SearchConfig {
        schedules: schedules_from_env(24),
        seed: 0xC405_0001,
        // CI bounds the job with `FGMON_CHAOS_BUDGET_MS`; any failing
        // schedule's shrunk reproducer lands under `target/` for the
        // artifact upload.
        budget_ms: std::env::var("FGMON_CHAOS_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok()),
        reproducer_dir: Some(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-reproducers"),
        ),
        ..Default::default()
    };
    let out = search(&cfg);
    assert!(
        out.schedules_run == cfg.schedules || out.out_of_budget,
        "a sweep stops early only when out of wall-clock budget"
    );
    assert!(
        out.divergences.is_empty(),
        "sequential and sharded verdicts diverged on schedules {:?}",
        out.divergences
    );
    assert!(
        out.failures.is_empty(),
        "clean build must satisfy every invariant; first reproducer:\n{}",
        out.failures[0].reproducer
    );
    assert!(
        out.total_checks > 0 || out.out_of_budget,
        "the registry must actually run"
    );
}

/// Sequential verdicts `(events, checks, fault_checks, violations)` of
/// the sweep planner's first schedules, pinned across commits: a planner
/// draw or a fate that moves changes at least one of these.
const GOLDEN_VERDICTS: [(u64, u64, u64, usize); 8] = [
    (31_217, 207, 9_164, 0),
    (32_261, 207, 9_821, 0),
    (35_466, 207, 10_903, 0),
    (34_648, 207, 10_540, 0),
    (36_510, 207, 10_835, 0),
    (33_349, 207, 10_174, 0),
    (29_585, 207, 9_048, 0),
    (31_845, 207, 9_699, 0),
];

#[test]
fn first_sweep_verdicts_match_golden() {
    let mut planner = SchedulePlanner::new(0xC405_0001, PlannerConfig::default());
    let cfg = RunConfig::default();
    let got: Vec<(u64, u64, u64, usize)> = (0..GOLDEN_VERDICTS.len())
        .map(|_| {
            let v = run_schedule(&planner.next_schedule(), 1, &cfg);
            (v.events, v.checks, v.fault_checks, v.violations.len())
        })
        .collect();
    assert_eq!(got, GOLDEN_VERDICTS);
}

#[test]
fn verdicts_are_reproducible_run_to_run() {
    let mut planner = SchedulePlanner::new(77, Default::default());
    let schedule: Schedule = planner.next_schedule();
    let cfg = RunConfig::default();
    let a = run_schedule(&schedule, 1, &cfg);
    let b = run_schedule(&schedule, 1, &cfg);
    assert_eq!(a, b, "same schedule, same verdict, bit for bit");
    assert!(a.events > 1_000, "the world must actually run");
    assert!(a.checks > 0);
}

#[test]
fn wall_clock_budget_stops_the_sweep_early() {
    let cfg = SearchConfig {
        schedules: 1_000_000,
        seed: 0xC405_0002,
        budget_ms: Some(0),
        ..Default::default()
    };
    let out = search(&cfg);
    assert!(out.out_of_budget);
    assert_eq!(out.schedules_run, 0);
}
