//! The clean-build chaos sweep: with no canary armed, a schedule sweep
//! must report zero invariant violations, and every schedule's verdict
//! must be identical under the sequential engine and on two shards.
//!
//! Schedule count scales with `FGMON_CHAOS_SCHEDULES` (CI smoke uses 64;
//! the acceptance sweep runs 200 in release; the default keeps plain
//! `cargo test` quick).

#![cfg(not(feature = "chaos-canary"))]

use fgmon_chaos::{
    run_schedule, search, PlannerConfig, RunConfig, Schedule, SchedulePlanner, SearchConfig,
};

/// Read an integer knob from the environment; unset means `None`.
/// Anything but a plain decimal integer panics, so a typo cannot
/// silently change how much the sweep checks.
fn int_from_env(var: &str) -> Option<u64> {
    let raw = std::env::var_os(var)?;
    let value = raw.to_string_lossy();
    match value.parse() {
        Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => Some(n),
        _ => panic!("{var}={value:?} is not a plain integer; accepted: unset or decimal digits"),
    }
}

#[test]
fn sweep_reports_zero_violations_with_identical_verdicts() {
    let cfg = SearchConfig {
        schedules: int_from_env("FGMON_CHAOS_SCHEDULES").map_or(24, |n| n as usize),
        seed: 0xC405_0001,
        // CI bounds the job with `FGMON_CHAOS_BUDGET_MS`; any failing
        // schedule's shrunk reproducer lands under `target/` for the
        // artifact upload.
        budget_ms: int_from_env("FGMON_CHAOS_BUDGET_MS"),
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

/// `search` runs each schedule's two legs at once, one world per thread;
/// its outcome must be what running them one after the other gives.
#[test]
fn concurrent_legs_match_serial_legs() {
    let cfg = SearchConfig {
        schedules: 4,
        seed: 0xC405_0003,
        ..Default::default()
    };
    let out = search(&cfg);
    let mut planner = SchedulePlanner::new(cfg.seed, cfg.planner);
    let (mut total_checks, mut divergences, mut failing) = (0, Vec::new(), Vec::new());
    for index in 0..cfg.schedules {
        let schedule = planner.next_schedule();
        let sequential = run_schedule(&schedule, 1, &cfg.run);
        let sharded = run_schedule(&schedule, 2, &cfg.run);
        total_checks += sequential.checks;
        if sequential != sharded {
            divergences.push(index);
        } else if sequential.failed() {
            failing.push(index);
        }
    }
    assert!(total_checks > 0, "the registry must actually run");
    assert_eq!(out.schedules_run, cfg.schedules);
    assert_eq!(out.total_checks, total_checks);
    assert_eq!(out.divergences, divergences);
    let failed: Vec<usize> = out.failures.iter().map(|f| f.index).collect();
    assert_eq!(failed, failing);
}
