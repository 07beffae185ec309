//! End-to-end checks of the determinism lint: the real workspace must be
//! clean, and a seeded violation must fail the gate with exit code 1.

use std::path::{Path, PathBuf};
use std::process::Command;

use fgmon_lint::{analyze, load_workspace, scan_workspace, scan_workspace_opts, ScanOptions};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// Build a minimal fake workspace containing one sim-path file.
fn seed_tree(name: &str, source: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("create seeded tree");
    std::fs::write(src.join("bad.rs"), source).expect("write seeded file");
    root
}

/// Build a fake workspace from (workspace-relative path, content) pairs,
/// replacing whatever an earlier run seeded under the same name.
fn seed_files(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    for (rel, content) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).expect("create seeded tree");
        std::fs::write(&path, content).expect("write seeded file");
    }
    root
}

#[test]
fn real_workspace_is_clean() {
    let findings = scan_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "sim-path crates must stay lint-clean, found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violation_is_found_by_library() {
    let root = seed_tree(
        "lint-lib-seed",
        "pub fn bad() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let findings = scan_workspace(&root).expect("scan seeded tree");
    assert!(!findings.is_empty());
    assert!(findings.iter().all(|f| f.rule == "wall-clock"));
    assert_eq!(findings[0].path, "crates/sim/src/bad.rs");
    assert_eq!(findings[0].line, 1);
}

#[test]
fn cli_exits_nonzero_on_violation_and_zero_on_clean() {
    let bad = seed_tree(
        "lint-cli-bad",
        "use std::collections::HashMap;\npub fn f() { std::thread::spawn(|| ()); }\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--root"])
        .arg(&bad)
        .output()
        .expect("run fgmon-lint");
    assert_eq!(out.status.code(), Some(1), "violations must fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hash-collections"));
    assert!(stdout.contains("thread-spawn"));

    // A clean tree (one inert file) passes.
    let clean = seed_tree("lint-cli-clean", "pub fn fine() -> u32 { 1 }\n");
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--root"])
        .arg(&clean)
        .output()
        .expect("run fgmon-lint");
    assert_eq!(out.status.code(), Some(0));

    // And the real workspace passes through the CLI too.
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run fgmon-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace not lint-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn json_mode_emits_parseable_array() {
    let bad = seed_tree("lint-cli-json", "pub use std::time::SystemTime;\n");
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--json", "--root"])
        .arg(&bad)
        .output()
        .expect("run fgmon-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
    assert!(trimmed.contains("\"rule\": \"wall-clock\""));
    assert!(trimmed.contains("\"line\": 1"));
}

/// The tenancy and lock modules ride the sim path and must be scanned:
/// a violation seeded into each of their homes (`types`, `workload`) is
/// found, proving neither crate is exempt.
#[test]
fn tenancy_and_lock_modules_are_scanned() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-tenancy-seed");
    for (dir, file) in [
        ("crates/types/src", "tenancy.rs"),
        ("crates/types/src", "lock.rs"),
        ("crates/workload/src", "locks.rs"),
    ] {
        let d = root.join(dir);
        std::fs::create_dir_all(&d).expect("create seeded tree");
        std::fs::write(
            d.join(file),
            "use std::collections::HashMap;\npub type T = HashMap<u32, u32>;\n",
        )
        .expect("write seeded file");
    }
    let findings = scan_workspace(&root).expect("scan seeded tree");
    for path in [
        "crates/types/src/tenancy.rs",
        "crates/types/src/lock.rs",
        "crates/workload/src/locks.rs",
    ] {
        assert!(
            findings
                .iter()
                .any(|f| f.path == path && f.rule == "hash-collections"),
            "{path} must be covered by the determinism lint"
        );
    }

    // And the real modules exist where the lint looks for them.
    for path in [
        "crates/types/src/tenancy.rs",
        "crates/types/src/lock.rs",
        "crates/workload/src/locks.rs",
    ] {
        assert!(workspace_root().join(path).is_file(), "{path} moved");
    }
}

/// One seeded violation per new rule family, each asserted with its rule
/// id and exact line.
#[test]
fn each_new_rule_family_fires_with_exact_line() {
    let root = seed_files(
        "lint-new-rules-seed",
        &[
            (
                "crates/sim/src/float.rs",
                "pub struct Recorder {\n    total: f64,\n}\nimpl Recorder {\n    pub fn merge(&mut self, xs: &[f64]) {\n        for x in xs {\n            self.total += x;\n        }\n    }\n}\n",
            ),
            (
                "crates/sim/src/cast.rs",
                "pub fn compress(now_nanos: u64) -> u32 {\n    now_nanos as u32\n}\n",
            ),
            (
                "crates/sim/src/cell.rs",
                "pub struct Slot {\n    load: std::cell::RefCell<f64>,\n}\n",
            ),
            (
                "crates/sim/src/unsafe_peek.rs",
                "pub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            ),
            (
                "crates/sim/src/stale.rs",
                "// lint: wall-clock — the Instant this justified is long gone\npub fn fine() -> u32 {\n    1\n}\n",
            ),
            (
                "crates/cluster/src/sweep.rs",
                "pub fn sweep_merge(v: u64) -> u64 {\n    let _m = std::sync::Mutex::new(v);\n    v\n}\n",
            ),
            (
                "crates/sim/src/engine.rs",
                "pub struct Engine;\nimpl Engine {\n    pub fn step(&mut self) {\n        sweep_merge(1);\n    }\n}\n",
            ),
        ],
    );
    let findings = scan_workspace(&root).expect("scan seeded tree");
    let expect: &[(&str, &str, usize)] = &[
        ("float-order", "crates/sim/src/float.rs", 7),
        ("truncating-cast", "crates/sim/src/cast.rs", 2),
        ("interior-mutability", "crates/sim/src/cell.rs", 2),
        ("unsafe-block", "crates/sim/src/unsafe_peek.rs", 2),
        ("stale-suppression", "crates/sim/src/stale.rs", 1),
        // `sweep_merge` uses the sanctioned Mutex in an allow-path file,
        // but `Engine::step` re-enters it from the event path.
        ("allow-reentry", "crates/cluster/src/sweep.rs", 1),
    ];
    for (rule, path, line) in expect {
        assert!(
            findings
                .iter()
                .any(|f| f.rule == *rule && f.path == *path && f.line == *line),
            "{rule} not reported at {path}:{line}; got:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    // No other rule families fire on this tree (the raw Mutex match in
    // sweep.rs stays allow-path'd).
    let mut seen: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    seen.sort_unstable();
    seen.dedup();
    let mut want: Vec<&str> = expect.iter().map(|(r, _, _)| *r).collect();
    want.sort_unstable();
    assert_eq!(seen, want);
}

/// The sync-primitive needle gaps the old engine shipped with are
/// closed: every narrow atomic fires, and the interior-mutability cells
/// get their own rule.
#[test]
fn closed_needle_gaps_each_fire() {
    for (i, (construct, rule)) in [
        ("std::sync::atomic::AtomicU8::new(0)", "sync-primitive"),
        ("std::sync::atomic::AtomicU16::new(0)", "sync-primitive"),
        ("std::sync::atomic::AtomicI32::new(0)", "sync-primitive"),
        ("std::cell::Cell::new(0u64)", "interior-mutability"),
        ("std::cell::RefCell::new(0u64)", "interior-mutability"),
    ]
    .iter()
    .enumerate()
    {
        let root = seed_tree(
            &format!("lint-gap-seed-{i}"),
            &format!("pub fn f() {{ let _x = {construct}; }}\n"),
        );
        let findings = scan_workspace(&root).expect("scan seeded tree");
        assert_eq!(
            findings.len(),
            1,
            "{construct}: expected exactly one finding"
        );
        assert_eq!(findings[0].rule, *rule, "{construct}");
        assert_eq!(findings[0].line, 1);
    }
}

/// Reachability mode: the same forbidden construct is a violation when
/// `Engine::run` can reach it and ignorable when only dead code holds it.
#[test]
fn reachability_mode_distinguishes_live_from_dead() {
    let root = seed_files(
        "lint-reach-seed",
        &[(
            "crates/sim/src/engine.rs",
            "pub struct Engine;\nimpl Engine {\n    pub fn run(&mut self) {\n        hot();\n    }\n}\nfn hot() {\n    let _m: std::collections::HashMap<u32, u32> = Default::default();\n}\nfn cold() {\n    let _m: std::collections::HashMap<u32, u32> = Default::default();\n}\n",
        )],
    );
    let strict = scan_workspace(&root).expect("strict scan");
    assert_eq!(
        strict.len(),
        2,
        "strict mode reports both the live and the dead construct"
    );
    let reach =
        scan_workspace_opts(&root, &ScanOptions { reachability: true }).expect("reachability scan");
    assert_eq!(reach.len(), 1, "reachability mode keeps only the live one");
    assert_eq!(reach[0].rule, "hash-collections");
    assert_eq!(reach[0].line, 8, "the construct inside hot(), not cold()");

    // The CLI flag wires through to the same behavior.
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--reachability", "--json", "--root"])
        .arg(&root)
        .output()
        .expect("run fgmon-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("\"rule\"").count(), 1);
}

/// `ganglia` hosts in-sim services and must be covered by the scan.
#[test]
fn ganglia_crate_is_scanned() {
    assert!(
        fgmon_lint::SIM_CRATES.contains(&"ganglia"),
        "ganglia must be a sim-path crate"
    );
    let root = seed_files(
        "lint-ganglia-seed",
        &[(
            "crates/ganglia/src/bad.rs",
            "use std::collections::HashMap;\n",
        )],
    );
    let findings = scan_workspace(&root).expect("scan seeded tree");
    assert!(
        findings
            .iter()
            .any(|f| f.path == "crates/ganglia/src/bad.rs" && f.rule == "hash-collections"),
        "seeded ganglia violation must be found"
    );
    // And the real crate exists where the lint looks for it.
    assert!(workspace_root()
        .join("crates/ganglia/src/gmetad.rs")
        .is_file());
}

/// The lint passes over its own crate: the engine's needle strings live
/// in string literals and its one wall-clock read (the budget timer) is
/// justified, so a token-accurate scan comes back clean.
#[test]
fn lint_crate_passes_self_scan() {
    let files = load_workspace(&workspace_root(), &["lint"]).expect("load lint crate");
    assert!(!files.is_empty(), "lint sources must load");
    let findings = analyze(&files, &ScanOptions::default());
    assert!(
        findings.is_empty(),
        "fgmon-lint must pass its own scan, found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sarif_mode_emits_a_valid_looking_log() {
    let bad = seed_tree("lint-cli-sarif", "pub use std::time::SystemTime;\n");
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--format", "sarif", "--root"])
        .arg(&bad)
        .output()
        .expect("run fgmon-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\": \"2.1.0\""));
    assert!(stdout.contains("\"name\": \"fgmon-lint\""));
    assert!(stdout.contains("\"ruleId\": \"wall-clock\""));
    assert!(stdout.contains("\"startLine\": 1"));
    assert!(stdout.contains("crates/sim/src/bad.rs"));
}

#[test]
fn budget_flag_gates_scan_time() {
    // A generous budget passes on the real workspace...
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--budget-ms", "600000", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run fgmon-lint");
    assert_eq!(out.status.code(), Some(0));
    // ...and an impossible 1 ms budget exits 3 even though the tree is
    // clean (the full-workspace scan lexes dozens of files).
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .args(["check", "--budget-ms", "1", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run fgmon-lint");
    assert_eq!(out.status.code(), Some(3), "budget overrun must exit 3");
    assert!(String::from_utf8_lossy(&out.stderr).contains("budget"));
}

#[test]
fn rules_listing_covers_every_family() {
    let out = Command::new(env!("CARGO_BIN_EXE_fgmon-lint"))
        .arg("rules")
        .output()
        .expect("run fgmon-lint rules");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in [
        "wall-clock",
        "thread-spawn",
        "sync-primitive",
        "interior-mutability",
        "unsafe-block",
        "hash-collections",
        "rng-construction",
        "payload-clone",
        "allow-attr",
        "float-order",
        "truncating-cast",
        "stale-suppression",
        "allow-reentry",
    ] {
        assert!(stdout.contains(id), "rules listing must mention {id}");
    }
}
