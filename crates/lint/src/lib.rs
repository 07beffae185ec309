//! Determinism lint for the simulation-path crates.
//!
//! The whole value of the simulator is bit-reproducible runs: same seed,
//! same event trace, same histograms. That property is global — one
//! `Instant::now()` or one iterated `HashMap` anywhere in the event path
//! silently breaks it, and nothing in the type system objects. This crate
//! is the guard rail: a fast, dependency-free static pass over the
//! sim-path crates that rejects the handful of constructs known to
//! smuggle nondeterminism in.
//!
//! The engine has three layers:
//!
//! * [`lexer`] — a small real Rust lexer (raw strings, nested comments,
//!   char-vs-lifetime, byte literals). Needle rules match against its
//!   stripped text; structural rules consume its token stream.
//! * [`items`] + [`graph`] — a workspace item scanner (fn/impl/mod) and
//!   a conservative name-based call graph. They power `--reachability`
//!   mode (a forbidden construct is only a violation if the event path
//!   can reach it) and the `allow-reentry` check (sanctioned allow-path
//!   code must not be re-entered from per-event code).
//! * [`rules`] — the needle table plus structural families the old
//!   line pass could not express: `float-order`, `truncating-cast`,
//!   `stale-suppression`.
//!
//! Legitimate exceptions are recorded in-place with a
//! `// lint: <rule-id> — why this is sound` comment; the
//! `stale-suppression` rule reports any such comment whose target no
//! longer fires, so justifications cannot rot silently.
//!
//! Run it as `cargo run -p fgmon-lint -- check`.

pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::{Rule, RuleInfo, RULES, STRUCTURAL_RULES};

/// Crates whose `src/` trees run inside (or construct) the simulation and
/// therefore must be deterministic. Harness crates (`bench`) and the
/// vendored compat shims are exempt.
pub const SIM_CRATES: &[&str] = &[
    "sim", "types", "net", "os", "core", "balancer", "cluster", "workload", "ganglia", "chaos",
];

/// One violation found in a source file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see [`rules::RULES`] and [`rules::STRUCTURAL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending raw source line, trimmed.
    pub snippet: String,
    /// The rule's suggested fix.
    pub suggestion: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    help: {}",
            self.path, self.line, self.rule, self.snippet, self.suggestion
        )
    }
}

/// Scan configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanOptions {
    /// When set, needle/structural findings inside functions the call
    /// graph cannot reach from a sim entry point (`Engine::run*`,
    /// `Cluster::run*`, `on_*` handlers, `main`) are dropped. Findings
    /// outside any fn (imports, statics) are always kept, as are
    /// `stale-suppression` and `allow-reentry`.
    pub reachability: bool,
}

/// One source file handed to [`analyze`]: the workspace-relative label
/// (used for reports and `allow_paths` matching) plus its content.
pub struct SourceFile {
    pub label: String,
    pub source: String,
}

/// Compute which lines fall inside `#[cfg(test)]`-gated regions: the
/// attribute line itself through the close of the brace block that
/// follows it (a `mod tests { ... }`, a gated `fn`, etc.).
fn cfg_test_lines(code_lines: &[&str]) -> Vec<bool> {
    let mut skip = vec![false; code_lines.len()];
    let mut i = 0;
    while i < code_lines.len() {
        if !code_lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Skip from the attribute to the end of the next brace block.
        let mut depth = 0usize;
        let mut seen_open = false;
        let mut j = i;
        while j < code_lines.len() {
            skip[j] = true;
            for c in code_lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if seen_open && depth == 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    skip
}

/// Is the finding on `line_idx` suppressed? A suppression is a comment
/// containing `lint: <rule-id>` either on the finding line itself or in
/// the contiguous run of comment/attribute lines directly above it (so a
/// multi-line justification works). Only *comment* text counts — a
/// `lint:` inside a string literal is not a justification. The
/// `allow-attr` rule accepts any `lint:` comment, since its whole demand
/// is "write one".
fn is_suppressed(raw_lines: &[&str], comments: &[String], line_idx: usize, rule_id: &str) -> bool {
    let hits = |j: usize| {
        comments.get(j).is_some_and(|c| {
            c.contains("lint:") && (rule_id == "allow-attr" || c.contains(rule_id))
        })
    };
    if hits(line_idx) {
        return true;
    }
    let mut j = line_idx;
    while j > 0 {
        j -= 1;
        let t = raw_lines.get(j).map_or("", |l| l.trim_start());
        if !(t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![")) {
            break;
        }
        if hits(j) {
            return true;
        }
    }
    false
}

/// Analyze a set of files as one workspace: per-file needle and
/// structural rules, then the cross-file graph passes. Findings come
/// back grouped by file (input order), sorted by line within a file.
pub fn analyze(files: &[SourceFile], opts: &ScanOptions) -> Vec<Finding> {
    let mut lexed_items: Vec<(lexer::Lexed, items::FileItems)> = Vec::new();
    let mut whole_test: Vec<bool> = Vec::new();
    for f in files {
        let lexed = lexer::lex(&f.source);
        let mut its = items::scan_items(&lexed.toks);
        // Whole files gated to test builds (e.g. in-crate proptest
        // modules) never run in the sim path: no findings, no graph
        // nodes.
        let wt = lexed.stripped.lines().any(|l| l.contains("#![cfg(test)]"));
        if wt {
            its.fns.clear();
        }
        whole_test.push(wt);
        lexed_items.push((lexed, its));
    }

    let g = graph::CallGraph::build(&lexed_items);
    let event_live = g.reachable(&lexed_items, graph::event_root);
    let reach_live = if opts.reachability {
        Some(g.reachable(&lexed_items, graph::reach_root))
    } else {
        None
    };

    let mut per_file: Vec<Vec<Finding>> = files.iter().map(|_| Vec::new()).collect();
    for (fi, f) in files.iter().enumerate() {
        if whole_test[fi] {
            continue;
        }
        let (lexed, its) = &lexed_items[fi];
        let raw_lines: Vec<&str> = f.source.lines().collect();
        let code_lines = lexed.code_lines();
        let skip = cfg_test_lines(&code_lines);
        let skipped = |idx: usize| skip.get(idx).copied().unwrap_or(false);

        // Raw matches — pre-suppression, pre-allow-path — shared by the
        // real findings and the stale-suppression pass (a justified
        // construct in its sanctioned home still keeps its comment
        // fresh).
        let mut raw: BTreeSet<(&'static str, usize)> = BTreeSet::new();
        for (idx, code) in code_lines.iter().enumerate() {
            if skipped(idx) {
                continue;
            }
            for rule in rules::RULES {
                if rule.needles.iter().any(|n| rules::line_matches(code, n)) {
                    raw.insert((rule.id, idx));
                }
            }
        }
        for line0 in rules::float_order(lexed, its) {
            if !skipped(line0) {
                raw.insert(("float-order", line0));
            }
        }
        for line0 in rules::truncating_cast(&lexed.toks) {
            if !skipped(line0) {
                raw.insert(("truncating-cast", line0));
            }
        }

        let snippet = |idx: usize| raw_lines.get(idx).unwrap_or(&"").trim().to_string();

        for &(id, idx) in &raw {
            if rules::allow_paths_for(id)
                .iter()
                .any(|p| f.label.contains(p))
            {
                continue;
            }
            if is_suppressed(&raw_lines, &lexed.comments, idx, id) {
                continue;
            }
            if let Some(live) = &reach_live {
                if let Some(ii) = its.fn_at_line(idx) {
                    if !live.contains(&(fi, ii)) {
                        continue;
                    }
                }
            }
            per_file[fi].push(Finding {
                rule: id,
                path: f.label.clone(),
                line: idx + 1,
                snippet: snippet(idx),
                suggestion: rules::suggestion_for(id),
            });
        }

        for idx in rules::stale_suppression(&raw_lines, &code_lines, &lexed.comments, &skip, &raw) {
            per_file[fi].push(Finding {
                rule: "stale-suppression",
                path: f.label.clone(),
                line: idx + 1,
                snippet: snippet(idx),
                suggestion: rules::suggestion_for("stale-suppression"),
            });
        }
    }

    // allow-reentry: allow-path files are sanctioned *homes*, not
    // sanctioned *entry points*. Any fn there that uses the rule's
    // construct and is reachable from the event path gets reported.
    for rule in rules::RULES {
        if rule.allow_paths.is_empty() {
            continue;
        }
        for (fi, f) in files.iter().enumerate() {
            if whole_test[fi] || !rule.allow_paths.iter().any(|p| f.label.contains(p)) {
                continue;
            }
            let (lexed, its) = &lexed_items[fi];
            let raw_lines: Vec<&str> = f.source.lines().collect();
            let code_lines = lexed.code_lines();
            for (ii, fun) in its.fns.iter().enumerate() {
                if fun.cfg_test || fun.body_toks.is_empty() {
                    continue;
                }
                if !event_live.contains(&(fi, ii)) {
                    continue;
                }
                let uses = (fun.lines.0..=fun.lines.1).any(|l| {
                    code_lines
                        .get(l)
                        .is_some_and(|cl| rule.needles.iter().any(|n| rules::line_matches(cl, n)))
                });
                if !uses {
                    continue;
                }
                if is_suppressed(&raw_lines, &lexed.comments, fun.lines.0, "allow-reentry") {
                    continue;
                }
                per_file[fi].push(Finding {
                    rule: "allow-reentry",
                    path: f.label.clone(),
                    line: fun.lines.0 + 1,
                    snippet: raw_lines.get(fun.lines.0).unwrap_or(&"").trim().to_string(),
                    suggestion: rules::suggestion_for("allow-reentry"),
                });
            }
        }
    }

    let mut out = Vec::new();
    for mut v in per_file {
        v.sort_by_key(|f| (f.line, rules::rule_rank(f.rule)));
        out.append(&mut v);
    }
    out
}

/// Scan one file's source in isolation (no cross-file graph edges).
/// `path_label` is the workspace-relative path used both for reports and
/// for `allow_paths` matching.
pub fn scan_source(path_label: &str, source: &str) -> Vec<Finding> {
    analyze(
        &[SourceFile {
            label: path_label.to_string(),
            source: source.to_string(),
        }],
        &ScanOptions::default(),
    )
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// report order.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Load the `crates/<name>/src` trees of the given crates under `root`
/// (the workspace root). Only `src/` is loaded: `tests/`, `benches/`,
/// and the harness crates may use whatever the host offers.
pub fn load_workspace(root: &Path, crates: &[&str]) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for krate in crates {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rs_files(&src, &mut files);
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            let label = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile { label, source });
        }
    }
    Ok(out)
}

/// Scan every sim-path crate under `root` with default options.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    scan_workspace_opts(root, &ScanOptions::default())
}

/// Scan every sim-path crate under `root`.
pub fn scan_workspace_opts(root: &Path, opts: &ScanOptions) -> std::io::Result<Vec<Finding>> {
    Ok(analyze(&load_workspace(root, SIM_CRATES)?, opts))
}

/// Minimal JSON string escaping (the report has no exotic content, but
/// snippets can contain quotes and backslashes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON array (stable field order, one object per
/// finding) for machine consumers.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"snippet\": \"{}\", \"suggestion\": \"{}\"}}{}\n",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.snippet),
            json_escape(f.suggestion),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// Render findings as a SARIF 2.1.0 log, the minimal subset CI
/// annotation consumers need: one run, the full rule table in the
/// driver, one `result` per finding with a physical location.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [{\n");
    out.push_str("    \"tool\": {\"driver\": {\n");
    out.push_str("      \"name\": \"fgmon-lint\",\n");
    out.push_str("      \"rules\": [\n");
    let infos = rules::rule_infos();
    for (i, r) in infos.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"help\": {{\"text\": \"{}\"}}}}{}\n",
            json_escape(r.id),
            json_escape(r.summary),
            json_escape(r.suggestion),
            if i + 1 < infos.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n");
    out.push_str("    }},\n");
    out.push_str("    \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"ruleId\": \"{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            json_escape(f.rule),
            json_escape(&f.snippet),
            json_escape(&f.path),
            f.line,
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  }]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        scan_source("crates/os/src/x.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn flags_wall_clock_and_threads_and_hashes() {
        assert_eq!(
            rules_hit("let t = std::time::Instant::now();"),
            vec!["wall-clock"]
        );
        assert_eq!(
            rules_hit("std::thread::spawn(|| work());"),
            vec!["thread-spawn"]
        );
        assert_eq!(
            rules_hit("let m: HashMap<u32, u32> = HashMap::new();"),
            vec!["hash-collections"]
        );
        assert_eq!(
            rules_hit("let r = DetRng::new(42);"),
            vec!["rng-construction"]
        );
    }

    #[test]
    fn method_spawn_calls_are_threads_too() {
        assert_eq!(
            rules_hit("scope.spawn(|| drain(shard));"),
            vec!["thread-spawn"]
        );
        assert_eq!(
            rules_hit("builder.spawn(move || run())?;"),
            vec!["thread-spawn"]
        );
        // `spawn_thread(` (the simulated OS call) is not an OS thread.
        assert!(rules_hit("os.spawn_thread(name, entry);").is_empty());
    }

    #[test]
    fn interior_mutability_and_unsafe_fire() {
        assert_eq!(
            rules_hit("let c = Cell::new(0u64);"),
            vec!["interior-mutability"]
        );
        assert_eq!(
            rules_hit("load: RefCell<f64>,"),
            vec!["interior-mutability"]
        );
        assert_eq!(
            rules_hit("let p = unsafe { ptr.read() };"),
            vec!["unsafe-block"]
        );
        // Token boundaries: `Cell` must not double-fire inside `RefCell`,
        // and lookalikes stay clean.
        assert!(rules_hit("let c = CellarDoor::new();").is_empty());
    }

    #[test]
    fn token_boundary_spares_lookalikes() {
        // `Instant` must not fire inside `Instantaneous`.
        assert!(rules_hit("/// doc\nfn instantaneous() {}").is_empty());
        assert!(rules_hit("let x = InstantaneousLoad::new();").is_empty());
        // ...but the bare token still fires.
        assert_eq!(rules_hit("use std::time::Instant;"), vec!["wall-clock"]);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        assert!(rules_hit("// HashMap would be wrong here").is_empty());
        assert!(rules_hit("let s = \"HashMap\";").is_empty());
        assert!(rules_hit("/* Instant::now() */ let x = 1;").is_empty());
        assert!(rules_hit("let r = r#\"thread::spawn\"#;").is_empty());
        // Nested block comments and byte strings are opaque too.
        assert!(rules_hit("/* a /* HashMap */ b */ let x = 1;").is_empty());
        assert!(rules_hit("let b = b\"SystemTime\";").is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() { let m = HashMap::new(); }
}
fn also_real() { let m = HashMap::new(); }
";
        let hits = rules_hit(src);
        assert_eq!(hits, vec!["hash-collections"]);
        let f = &scan_source("crates/os/src/x.rs", src)[0];
        assert_eq!(f.line, 7);
    }

    #[test]
    fn file_level_cfg_test_skips_everything() {
        let src = "#![cfg(test)]\nuse std::collections::HashMap;\n";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn suppression_on_same_or_preceding_comment_lines() {
        assert!(rules_hit("let r = DetRng::new(s); // lint: rng-construction — root").is_empty());
        let multi = "\
// lint: rng-construction — this is the root RNG; everything
// else forks from it by label.
let r = DetRng::new(seed);
";
        assert!(rules_hit(multi).is_empty());
        // A comment for a *different* rule does not suppress — and is
        // itself reported as stale, since wall-clock never fires here.
        let wrong = "// lint: wall-clock — nope\nlet r = DetRng::new(seed);\n";
        assert_eq!(
            rules_hit(wrong),
            vec!["stale-suppression", "rng-construction"]
        );
        // Suppression does not leak past non-comment lines (and the
        // orphaned comment is flagged stale).
        let gap = "// lint: rng-construction — stale\nlet x = 1;\nlet r = DetRng::new(seed);\n";
        assert_eq!(
            rules_hit(gap),
            vec!["stale-suppression", "rng-construction"]
        );
    }

    #[test]
    fn lint_markers_inside_strings_do_not_suppress() {
        // The old engine matched `lint:` on raw lines, so a string could
        // silence a same-line finding. Comments-only now.
        let src = "let m = HashMap::new(); let s = \"lint: hash-collections\";";
        assert_eq!(rules_hit(src), vec!["hash-collections"]);
    }

    #[test]
    fn env_reads_need_justification() {
        assert_eq!(
            rules_hit("let v = std::env::var(\"FGMON_X\");"),
            vec!["env-read"]
        );
        assert_eq!(rules_hit("for (k, v) in env::vars() {}"), vec!["env-read"]);
        assert_eq!(rules_hit("let v = var_os(\"FGMON_X\");"), vec!["env-read"]);
        let justified = "\
// lint: env-read — the one sanctioned knob
let v = std::env::var_os(\"FGMON_X\");
";
        assert!(rules_hit(justified).is_empty());
        // `env!` is a compile-time constant, and lookalikes stay clean.
        assert!(rules_hit("let d = env!(\"CARGO_MANIFEST_DIR\");").is_empty());
        assert!(rules_hit("let x = covar_os(1);").is_empty());
    }

    #[test]
    fn payload_clones_need_justification() {
        assert_eq!(
            rules_hit("let copy = packet.payload.clone();"),
            vec!["payload-clone"]
        );
        assert_eq!(rules_hit("send(msg.clone());"), vec!["payload-clone"]);
        // Receiver names that merely *contain* payload still count.
        assert_eq!(
            rules_hit("let p = shared_payload.clone();"),
            vec!["payload-clone"]
        );
        assert!(
            rules_hit("let p = payload.clone(); // lint: payload-clone — Arc refcount bump")
                .is_empty()
        );
        // Unrelated clones stay legal.
        assert!(rules_hit("let v = views.clone();").is_empty());
    }

    #[test]
    fn allow_attr_requires_any_justification() {
        assert_eq!(
            rules_hit("#[allow(dead_code)]\nfn f() {}"),
            vec!["allow-attr"]
        );
        assert!(
            rules_hit("// lint: kept for ffi layout\n#[allow(dead_code)]\nfn f() {}").is_empty()
        );
    }

    #[test]
    fn allow_paths_exempt_the_rng_home() {
        let src = "pub fn new(seed: u64) -> DetRng { DetRng::new(seed) }";
        assert!(scan_source("crates/sim/src/rng.rs", src).is_empty());
        assert!(!scan_source("crates/os/src/x.rs", src).is_empty());
    }

    #[test]
    fn sync_primitives_are_confined_to_the_executor() {
        assert_eq!(
            rules_hit("let m = Mutex::new(queue);"),
            vec!["sync-primitive"]
        );
        assert_eq!(
            rules_hit("let n = AtomicU64::new(0);"),
            vec!["sync-primitive"]
        );
        assert_eq!(
            rules_hit("let (tx, rx) = std::sync::mpsc::channel();"),
            vec!["sync-primitive"]
        );
        // The needle-list gaps the old engine had are closed.
        for narrow in ["AtomicU8", "AtomicU16", "AtomicI32"] {
            assert_eq!(
                rules_hit(&format!("let n = {narrow}::new(0);")),
                vec!["sync-primitive"],
                "{narrow} must fire"
            );
        }
        // The sweep runner and the race detector are the sanctioned
        // homes, and *only* they: the identical line anywhere else still
        // fires.
        let src = "let next = AtomicUsize::new(0); let slot = Mutex::new(None);";
        assert!(scan_source("crates/cluster/src/sweep.rs", src).is_empty());
        assert!(scan_source("crates/types/src/race.rs", src).is_empty());
        for stray in [
            "crates/cluster/src/builder.rs",
            "crates/net/src/fabric.rs",
            "crates/sim/src/engine.rs",
            "crates/sim/src/queue.rs",
        ] {
            let findings = scan_source(stray, src);
            assert!(
                !findings.is_empty() && findings.iter().all(|f| f.rule == "sync-primitive"),
                "stray primitives in {stray} must fire sync-primitive, got {findings:?}"
            );
        }
        // A justified suppression is honored anywhere...
        let justified = "\
// lint: sync-primitive — result slot written once, read after join
let slot = Mutex::new(None);
";
        assert!(rules_hit(justified).is_empty());
        // ...but a justification for a different rule is not (and rots
        // visibly as a stale suppression).
        let wrong = "// lint: thread-spawn — nope\nlet slot = Mutex::new(None);\n";
        assert_eq!(
            rules_hit(wrong),
            vec!["stale-suppression", "sync-primitive"]
        );
        // Token boundaries: `MutexGuard`-like lookalikes in *other* words
        // do not fire.
        assert!(rules_hit("fn mpscale(x: f64) -> f64 { x }").is_empty());
    }

    #[test]
    fn sharded_executor_sync_primitives_are_findings() {
        // The sharded executor steps its shards on one thread, so a lock
        // or an atomic there is a finding like anywhere else in the
        // simulator.
        for src in [
            "let slot = Mutex::new(MailSlot::default());",
            "let wm = AtomicU64::new(0);",
        ] {
            let findings = scan_source("crates/sim/src/parallel.rs", src);
            assert_eq!(
                findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
                vec!["sync-primitive"],
                "{src}"
            );
        }
    }

    #[test]
    fn reachability_mode_drops_dead_code_findings() {
        let src = "\
impl Engine {
    pub fn run_until(&mut self) { self.dispatch(); }
    fn dispatch(&mut self) { live_helper(); }
}
fn live_helper() { let m = HashMap::new(); }
fn dead_helper() { let m = HashMap::new(); }
use std::collections::HashMap;
";
        let files = [SourceFile {
            label: "crates/os/src/x.rs".into(),
            source: src.into(),
        }];
        let strict = analyze(&files, &ScanOptions::default());
        assert_eq!(strict.len(), 3, "both fns + the import in strict mode");
        let reach = analyze(&files, &ScanOptions { reachability: true });
        let lines: Vec<usize> = reach.iter().map(|f| f.line).collect();
        // live_helper (line 5) and the top-level import (line 7) stay;
        // dead_helper (line 6) is dropped.
        assert_eq!(lines, vec![5, 7]);
    }

    #[test]
    fn allow_path_reentered_from_event_path_is_reported() {
        let sweeps = SourceFile {
            label: "crates/cluster/src/sweep.rs".into(),
            source: "\
pub fn sweep_parallel() { let m = Mutex::new(0); }
pub fn merge_locked(x: u64) -> u64 { let g = Mutex::new(x); x }
"
            .into(),
        };
        let engine = SourceFile {
            label: "crates/sim/src/engine.rs".into(),
            source: "impl Engine { pub fn run_until(&mut self) { merge_locked(1); } }".into(),
        };
        let findings = analyze(&[sweeps, engine], &ScanOptions::default());
        // sweep_parallel is allow-path'd and never called from the event
        // path: clean. merge_locked is re-entered from Engine::run_until.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "allow-reentry");
        assert_eq!(findings[0].path, "crates/cluster/src/sweep.rs");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn stale_suppression_reported_via_scan_source() {
        let src = "// lint: wall-clock — long gone\nlet x = 1;\n";
        let f = scan_source("crates/os/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "stale-suppression");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let f = vec![Finding {
            rule: "wall-clock",
            path: "crates/os/src/x.rs".into(),
            line: 3,
            snippet: "let t = \"x\\y\";".into(),
            suggestion: "use SimTime",
        }];
        let j = render_json(&f);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"x\\\\y\\\""));
        assert!(j.contains("\"line\": 3"));
    }

    #[test]
    fn sarif_output_names_tool_rules_and_locations() {
        let f = vec![Finding {
            rule: "float-order",
            path: "crates/ganglia/src/gmetad.rs".into(),
            line: 81,
            snippet: "agg.sum += v;".into(),
            suggestion: "fix the order",
        }];
        let s = render_sarif(&f);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"fgmon-lint\""));
        // Every rule family is declared in the driver.
        for r in rules::rule_ids() {
            assert!(s.contains(&format!("\"id\": \"{r}\"")), "{r} missing");
        }
        assert!(s.contains("\"startLine\": 81"));
        assert!(s.contains("crates/ganglia/src/gmetad.rs"));
    }
}
