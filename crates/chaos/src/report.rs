//! Reproducer emission: render a shrunk failing schedule as a
//! ready-to-commit scenario snippet and (optionally) write it where CI
//! can pick it up as an artifact.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{FaultEffect, FaultOp, FaultRule, NodeId};

use crate::grammar::Schedule;
use crate::search::{RunConfig, RunVerdict};

/// Render the shrunk schedule as a paste-ready `#[test]` body: the
/// compiled plan's seed and one `FaultPlan::rule` call per rule, field
/// for field, so committing the snippet replays the same fate stream bit
/// for bit.
pub fn reproducer_snippet(schedule: &Schedule, verdict: &RunVerdict, cfg: &RunConfig) -> String {
    let plan = schedule.compile();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Chaos reproducer — {} rule(s), world seed {:#x}.",
        plan.rules.len(),
        schedule.seed
    );
    for v in &verdict.violations {
        let _ = writeln!(
            out,
            "// violated: {} at {} ms — {}",
            v.invariant, v.at_ms, v.detail
        );
    }
    let _ = writeln!(
        out,
        "use fgmon_cluster::chaos_world;\n\
         use fgmon_sim::{{SimDuration, SimTime}};\n\
         use fgmon_types::{{FaultEffect, FaultOp, FaultPlan, NodeId, RaceMode}};\n"
    );
    let _ = writeln!(out, "let plan = FaultPlan::new({:#x})", plan.seed);
    for (i, rule) in plan.rules.iter().enumerate() {
        let eol = if i + 1 == plan.rules.len() { ";" } else { "" };
        let _ = writeln!(out, "    {}{eol}", rule_call(rule));
    }
    let _ = writeln!(
        out,
        "let mut w = chaos_world(plan, {:#x}, RaceMode::Off);\n\
         w.cluster.run_for(SimDuration::from_millis({}));",
        schedule.seed,
        cfg.horizon.nanos() / 1_000_000,
    );
    out
}

/// The `FaultPlan::rule` builder call that adds `rule`.
fn rule_call(rule: &FaultRule) -> String {
    let node = |n: NodeId| format!("NodeId({})", n.0);
    let any = |n: Option<NodeId>| n.map_or("None".to_string(), |n| format!("Some({})", node(n)));
    let op = |o: Option<FaultOp>| o.map_or("None".to_string(), |o| format!("Some(FaultOp::{o:?})"));
    let dur = |d: SimDuration| format!("SimDuration({})", grouped(d.nanos()));
    let time = |t: SimTime| format!("SimTime({})", grouped(t.nanos()));
    let effect = match rule.effect {
        FaultEffect::Loss {
            src,
            dst,
            op: o,
            probability,
        } => format!(
            "Loss {{ src: {}, dst: {}, op: {}, probability: {probability:?} }}",
            any(src),
            any(dst),
            op(o)
        ),
        FaultEffect::Congestion { latency_mult } => {
            format!("Congestion {{ latency_mult: {latency_mult:?} }}")
        }
        FaultEffect::Crash { node: n } => format!("Crash {{ node: {} }}", node(n)),
        FaultEffect::NicStall { node: n, extra } => {
            format!("NicStall {{ node: {}, extra: {} }}", node(n), dur(extra))
        }
        FaultEffect::Partition { src, dst } => {
            format!("Partition {{ src: {}, dst: {} }}", any(src), any(dst))
        }
        FaultEffect::SlowNic {
            node: n,
            latency_mult,
        } => format!(
            "SlowNic {{ node: {}, latency_mult: {latency_mult:?} }}",
            node(n)
        ),
        FaultEffect::ClockSkew {
            node: n,
            skew_nanos,
        } => format!(
            "ClockSkew {{ node: {}, skew_nanos: {skew_nanos} }}",
            node(n)
        ),
        FaultEffect::Duplicate {
            probability,
            echo_delay,
        } => format!(
            "Duplicate {{ probability: {probability:?}, echo_delay: {} }}",
            dur(echo_delay)
        ),
        FaultEffect::Reorder {
            src,
            dst,
            op: o,
            probability,
            extra,
        } => format!(
            "Reorder {{ src: {}, dst: {}, op: {}, probability: {probability:?}, extra: {} }}",
            any(src),
            any(dst),
            op(o),
            dur(extra)
        ),
        FaultEffect::Corruption {
            node: n,
            probability,
        } => {
            format!(
                "Corruption {{ node: {}, probability: {probability:?} }}",
                any(n)
            )
        }
    };
    format!(
        ".rule({}, {}, FaultEffect::{effect})",
        time(rule.from),
        time(rule.until)
    )
}

/// `n` with `_` between digit triples, as a Rust literal.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Write a reproducer snippet under `dir` (created on demand). Returns
/// the file path.
pub fn write_reproducer(dir: &Path, index: usize, snippet: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{index:04}.rs"));
    fs::write(&path, snippet)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{BACKEND, FRONTEND, LOCK_CLIENT_A, LOCK_CLIENT_B, LOCK_HOST};
    use crate::invariants::Violation;
    use fgmon_types::FaultPlan;

    fn rule(from_ms: u64, until_ms: u64, effect: FaultEffect) -> FaultRule {
        FaultRule {
            from: SimTime(from_ms * 1_000_000),
            until: SimTime(until_ms * 1_000_000),
            effect,
        }
    }

    fn snippet(ops: Vec<FaultRule>) -> String {
        let verdict = RunVerdict {
            violations: vec![Violation {
                invariant: "stale-admission",
                at_ms: 1_250,
                detail: "test".into(),
            }],
            checks: 10,
            events: 100,
            fault_checks: 50,
        };
        let schedule = Schedule { seed: 0xBEEF, ops };
        reproducer_snippet(&schedule, &verdict, &RunConfig::default())
    }

    #[test]
    fn snippet_contains_the_full_builder_chain() {
        let snip = snippet(vec![
            rule(500, 1_100, FaultEffect::Crash { node: BACKEND }),
            rule(300, 900, FaultEffect::Congestion { latency_mult: 2.0 }),
        ]);
        assert!(snip.contains("let plan = FaultPlan::new(0x74ea)"));
        assert!(snip.contains("violated: stale-admission at 1250 ms"));
        assert!(snip.contains("chaos_world(plan, 0xbeef, RaceMode::Off)"));
        assert!(snip.contains("run_for(SimDuration::from_millis(3000))"));
        // The chain ends exactly once, on its last rule.
        let ends: Vec<bool> = snip
            .lines()
            .filter(|l| l.starts_with("    .rule("))
            .map(|l| l.ends_with(';'))
            .collect();
        assert_eq!(ends, [false, true]);
    }

    /// One rule of each effect renders as a `FaultPlan::rule` call, and
    /// those calls, pasted as code, rebuild the plan the schedule
    /// compiles to.
    #[test]
    fn snippet_replays_every_effect() {
        let ops = vec![
            rule(
                200,
                900,
                FaultEffect::Loss {
                    src: Some(FRONTEND),
                    dst: Some(BACKEND),
                    op: Some(FaultOp::Socket),
                    probability: 0.25,
                },
            ),
            rule(300, 700, FaultEffect::Congestion { latency_mult: 2.5 }),
            rule(500, 1_100, FaultEffect::Crash { node: BACKEND }),
            rule(
                250,
                450,
                FaultEffect::NicStall {
                    node: LOCK_HOST,
                    extra: SimDuration::from_micros(40),
                },
            ),
            rule(
                400,
                600,
                FaultEffect::Partition {
                    src: Some(FRONTEND),
                    dst: None,
                },
            ),
            rule(
                350,
                950,
                FaultEffect::SlowNic {
                    node: LOCK_CLIENT_A,
                    latency_mult: 1.75,
                },
            ),
            rule(
                600,
                1_400,
                FaultEffect::ClockSkew {
                    node: BACKEND,
                    skew_nanos: -2_000_000,
                },
            ),
            rule(
                300,
                900,
                FaultEffect::Duplicate {
                    probability: 0.125,
                    echo_delay: SimDuration::from_millis(400),
                },
            ),
            rule(
                450,
                800,
                FaultEffect::Reorder {
                    src: None,
                    dst: Some(LOCK_CLIENT_B),
                    op: Some(FaultOp::RdmaRead),
                    probability: 0.5,
                    extra: SimDuration::from_millis(20),
                },
            ),
            rule(
                100,
                1_900,
                FaultEffect::Corruption {
                    node: None,
                    probability: 0.0625,
                },
            ),
        ];
        let compiled = Schedule {
            seed: 0xBEEF,
            ops: ops.clone(),
        }
        .compile();
        let snip = snippet(ops);
        for call in [
            ".rule(SimTime(200_000_000), SimTime(900_000_000), FaultEffect::Loss { \
             src: Some(NodeId(0)), dst: Some(NodeId(1)), op: Some(FaultOp::Socket), \
             probability: 0.25 })",
            ".rule(SimTime(300_000_000), SimTime(700_000_000), \
             FaultEffect::Congestion { latency_mult: 2.5 })",
            ".rule(SimTime(500_000_000), SimTime(1_100_000_000), \
             FaultEffect::Crash { node: NodeId(1) })",
            ".rule(SimTime(250_000_000), SimTime(450_000_000), \
             FaultEffect::NicStall { node: NodeId(2), extra: SimDuration(40_000) })",
            ".rule(SimTime(400_000_000), SimTime(600_000_000), \
             FaultEffect::Partition { src: Some(NodeId(0)), dst: None })",
            ".rule(SimTime(350_000_000), SimTime(950_000_000), \
             FaultEffect::SlowNic { node: NodeId(3), latency_mult: 1.75 })",
            ".rule(SimTime(600_000_000), SimTime(1_400_000_000), \
             FaultEffect::ClockSkew { node: NodeId(1), skew_nanos: -2000000 })",
            ".rule(SimTime(300_000_000), SimTime(900_000_000), FaultEffect::Duplicate { \
             probability: 0.125, echo_delay: SimDuration(400_000_000) })",
            ".rule(SimTime(450_000_000), SimTime(800_000_000), FaultEffect::Reorder { \
             src: None, dst: Some(NodeId(4)), op: Some(FaultOp::RdmaRead), \
             probability: 0.5, extra: SimDuration(20_000_000) })",
            ".rule(SimTime(100_000_000), SimTime(1_900_000_000), \
             FaultEffect::Corruption { node: None, probability: 0.0625 })",
        ] {
            assert!(snip.contains(call), "missing {call} in\n{snip}");
        }
        let pasted = FaultPlan::new(0x74ea)
            .rule(
                SimTime(200_000_000),
                SimTime(900_000_000),
                FaultEffect::Loss {
                    src: Some(NodeId(0)),
                    dst: Some(NodeId(1)),
                    op: Some(FaultOp::Socket),
                    probability: 0.25,
                },
            )
            .rule(
                SimTime(300_000_000),
                SimTime(700_000_000),
                FaultEffect::Congestion { latency_mult: 2.5 },
            )
            .rule(
                SimTime(500_000_000),
                SimTime(1_100_000_000),
                FaultEffect::Crash { node: NodeId(1) },
            )
            .rule(
                SimTime(250_000_000),
                SimTime(450_000_000),
                FaultEffect::NicStall {
                    node: NodeId(2),
                    extra: SimDuration(40_000),
                },
            )
            .rule(
                SimTime(400_000_000),
                SimTime(600_000_000),
                FaultEffect::Partition {
                    src: Some(NodeId(0)),
                    dst: None,
                },
            )
            .rule(
                SimTime(350_000_000),
                SimTime(950_000_000),
                FaultEffect::SlowNic {
                    node: NodeId(3),
                    latency_mult: 1.75,
                },
            )
            .rule(
                SimTime(600_000_000),
                SimTime(1_400_000_000),
                FaultEffect::ClockSkew {
                    node: NodeId(1),
                    skew_nanos: -2000000,
                },
            )
            .rule(
                SimTime(300_000_000),
                SimTime(900_000_000),
                FaultEffect::Duplicate {
                    probability: 0.125,
                    echo_delay: SimDuration(400_000_000),
                },
            )
            .rule(
                SimTime(450_000_000),
                SimTime(800_000_000),
                FaultEffect::Reorder {
                    src: None,
                    dst: Some(NodeId(4)),
                    op: Some(FaultOp::RdmaRead),
                    probability: 0.5,
                    extra: SimDuration(20_000_000),
                },
            )
            .rule(
                SimTime(100_000_000),
                SimTime(1_900_000_000),
                FaultEffect::Corruption {
                    node: None,
                    probability: 0.0625,
                },
            );
        assert_eq!(pasted, compiled);
        compiled.validate().expect("every-effect plan validates");
    }
}
