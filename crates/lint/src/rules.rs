//! Rule definitions: the needle table plus the structural rule families
//! (`float-order`, `truncating-cast`, `stale-suppression`) that work on
//! the token stream and item model instead of line substrings.

use std::collections::BTreeSet;

use crate::items::FileItems;
use crate::lexer::{Lexed, Tok, TokKind};

/// One needle-based lint rule: a set of patterns to find and a fix to
/// suggest.
pub struct Rule {
    /// Stable identifier, used in reports and suppression comments.
    pub id: &'static str,
    /// One-line statement of what the rule forbids and why.
    pub summary: &'static str,
    /// Patterns that trigger the rule. A needle containing any
    /// non-identifier character is matched as a substring; a bare
    /// identifier is matched on token boundaries (so `Instant` does not
    /// fire on `Instantaneous`, nor `Cell` on `RefCell`).
    pub needles: &'static [&'static str],
    /// Path substrings where the rule does not apply (the construct's
    /// sanctioned home). The call graph separately checks that fns in
    /// these files are not re-entered from the event path
    /// (`allow-reentry`).
    pub allow_paths: &'static [&'static str],
    /// What to write instead.
    pub suggestion: &'static str,
}

/// The needle rule table. Order is report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        summary: "wall-clock time read inside the simulation",
        needles: &[
            "std::time::Instant",
            "std::time::SystemTime",
            "Instant",
            "SystemTime",
            "chrono",
        ],
        allow_paths: &[],
        suggestion: "use the engine clock (`SimTime`/`ctx.now`); real time \
                     differs across runs and machines",
    },
    Rule {
        id: "thread-spawn",
        summary: "OS threads inside the simulation",
        needles: &[
            "std::thread::spawn",
            "thread::spawn",
            "std::thread::scope",
            "thread::scope",
            ".spawn(",
            "available_parallelism",
        ],
        allow_paths: &[],
        suggestion: "the engine is single-threaded by design; model \
                     concurrency as actors/events, or justify engine-free \
                     parallelism with a `// lint: thread-spawn` comment",
    },
    Rule {
        id: "sync-primitive",
        summary: "shared-memory synchronization inside the simulation",
        needles: &[
            "Mutex",
            "RwLock",
            "Condvar",
            "mpsc",
            "AtomicBool",
            "AtomicU8",
            "AtomicU16",
            "AtomicU32",
            "AtomicU64",
            "AtomicUsize",
            "AtomicI8",
            "AtomicI16",
            "AtomicI32",
            "AtomicI64",
            "AtomicIsize",
            "AtomicPtr",
            "parking_lot",
            "crossbeam",
        ],
        allow_paths: &["crates/cluster/src/sweep.rs", "crates/types/src/race.rs"],
        suggestion: "determinism comes from the engine's total event order, \
                     not from locks; actors already run with exclusive \
                     access. Shared-memory coordination belongs only to the \
                     sweep runner (`cluster/sweep.rs`) and the race detector \
                     (`types/race.rs`), or behind a justified \
                     `// lint: sync-primitive` comment",
    },
    Rule {
        id: "interior-mutability",
        summary: "interior-mutability cell in simulation state",
        needles: &["Cell", "RefCell", "UnsafeCell", "OnceCell", "LazyCell"],
        allow_paths: &[],
        suggestion: "state mutated through a shared handle hides write order \
                     from the event trace and breaks shard hand-off (a handle \
                     shared by two shards carries writes past the keyed \
                     mailboxes); thread state through `&mut` on the actor, \
                     or justify with a `// lint: interior-mutability` comment",
    },
    Rule {
        id: "unsafe-block",
        summary: "unsafe code inside the simulation",
        needles: &["unsafe"],
        allow_paths: &[],
        suggestion: "nothing in the sim path needs unsafe; UB can manifest \
                     differently across builds, which silently breaks \
                     bit-reproducibility. Justify any exception with a \
                     `// lint: unsafe-block` comment",
    },
    Rule {
        id: "hash-collections",
        summary: "hash-based collection with nondeterministic iteration order",
        needles: &["HashMap", "HashSet"],
        allow_paths: &[],
        suggestion: "use `BTreeMap`/`BTreeSet`; hash iteration order feeds \
                     event ordering and is randomized per process",
    },
    Rule {
        id: "rng-construction",
        summary: "RNG constructed outside the seeded hierarchy",
        needles: &["DetRng::new", "thread_rng", "rand::rngs", "StdRng", "OsRng"],
        allow_paths: &["crates/sim/src/rng.rs"],
        suggestion: "fork from the cluster's root RNG (`DetRng::fork`) so \
                     every stream derives from the world seed",
    },
    Rule {
        id: "env-read",
        summary: "environment variable read inside the simulation",
        needles: &["env::var", "env::vars", "var_os"],
        allow_paths: &[],
        suggestion: "a hidden environment knob changes a run without \
                     changing its seed or config; pass the value in through \
                     the world's config, or justify the knob with a \
                     `// lint: env-read` comment",
    },
    Rule {
        id: "payload-clone",
        summary: "payload-carrying value cloned on the simulation path",
        needles: &[
            "payload.clone()",
            "payload().clone()",
            "Payload::clone",
            "SharedPayload::clone",
            "msg.clone()",
            "Msg::clone",
            "frame.clone()",
        ],
        allow_paths: &[],
        suggestion: "deep-copying a payload on the hot path defeats the \
                     zero-copy delivery design; share it (`SharedPayload` \
                     is an `Rc`), move it, or justify the copy with a \
                     `// lint: payload-clone` comment",
    },
    Rule {
        id: "allow-attr",
        summary: "#[allow(..)] without a recorded justification",
        needles: &["#[allow(", "#![allow("],
        allow_paths: &[],
        suggestion: "add a `// lint: allow-attr — why` comment above the \
                     attribute (silenced warnings hide exactly the bugs \
                     this pass hunts)",
    },
];

/// Metadata for a rule family that is not needle-based.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub suggestion: &'static str,
}

/// The structural/graph rule families, in report order after [`RULES`].
pub const STRUCTURAL_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "float-order",
        summary: "order-sensitive float accumulation in merge/record code",
        suggestion: "float addition is not associative, so an accumulation \
                     whose iteration order can change (shard merges, map \
                     iteration) yields different bits run-to-run; accumulate \
                     in integers, fix the order, or justify with a \
                     `// lint: float-order` comment stating why the order \
                     is deterministic",
    },
    RuleInfo {
        id: "truncating-cast",
        summary: "narrowing cast of time/sequence arithmetic",
        suggestion: "`SimTime`/sequence u64 arithmetic cast to a narrower \
                     integer silently wraps after enough virtual time; keep \
                     u64 end-to-end or justify with a \
                     `// lint: truncating-cast` comment",
    },
    RuleInfo {
        id: "stale-suppression",
        summary: "`// lint:` suppression whose target no longer fires",
        suggestion: "the justified construct is gone — delete the comment \
                     (rotten suppressions train readers to ignore the next \
                     real one)",
    },
    RuleInfo {
        id: "allow-reentry",
        summary: "sanctioned-home code reachable from the event path",
        suggestion: "this fn lives in an allow-path file and uses the \
                     sanctioned construct, but the call graph shows it is \
                     reachable from per-event code; the exemption covers \
                     harness-side use only. Restructure, or justify with a \
                     `// lint: allow-reentry` comment",
    },
];

/// Rule ids the stale-suppression pass does not police: their own
/// suppressions silence meta-findings, which by construction leave no
/// raw finding behind.
pub const STALE_EXEMPT: &[&str] = &["stale-suppression", "allow-reentry"];

/// Metadata for every rule family, needle and structural, in report
/// order — drives the `rules` CLI listing and the SARIF driver table.
pub fn rule_infos() -> Vec<RuleInfo> {
    RULES
        .iter()
        .map(|r| RuleInfo {
            id: r.id,
            summary: r.summary,
            suggestion: r.suggestion,
        })
        .chain(STRUCTURAL_RULES.iter().map(|r| RuleInfo {
            id: r.id,
            summary: r.summary,
            suggestion: r.suggestion,
        }))
        .collect()
}

/// Every rule id, needle and structural, in report order.
pub fn rule_ids() -> Vec<&'static str> {
    RULES
        .iter()
        .map(|r| r.id)
        .chain(STRUCTURAL_RULES.iter().map(|r| r.id))
        .collect()
}

/// Report rank of a rule id (position in the combined table).
pub fn rule_rank(id: &str) -> usize {
    rule_ids()
        .iter()
        .position(|r| *r == id)
        .unwrap_or(usize::MAX)
}

/// Suggested fix for any rule id.
pub fn suggestion_for(id: &str) -> &'static str {
    if let Some(r) = RULES.iter().find(|r| r.id == id) {
        return r.suggestion;
    }
    STRUCTURAL_RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.suggestion)
        .unwrap_or("")
}

/// Allow-path substrings for a rule id (empty for structural rules —
/// they are suppression-comment-only).
pub fn allow_paths_for(id: &str) -> &'static [&'static str] {
    RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.allow_paths)
        .unwrap_or(&[])
}

pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Match `needle` in a stripped code line. Bare-identifier needles match
/// only on token boundaries.
pub fn line_matches(code: &str, needle: &str) -> bool {
    let token = needle.chars().all(is_ident_char);
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        if !token {
            return true;
        }
        let before_ok = start == 0 || !is_ident_char(code[..start].chars().next_back().unwrap());
        let after_ok = end >= code.len() || !is_ident_char(code[end..].chars().next().unwrap());
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Fn-name/impl-type fragments that mark reduction context for the
/// `float-order` rule: code whose job is to combine many values.
const REDUCTION_MARKERS: &[&str] = &[
    "merge",
    "absorb",
    "record",
    "aggregat",
    "accumulat",
    "reduce",
    "fold",
];

fn is_float_ident(t: &Tok) -> bool {
    t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64")
}

/// `float-order`: inside reduction-context fns, flag (a) float compound
/// assignment under a `for` loop and (b) `.sum()` / `.product()` over an
/// iterator of floats. Returns 0-based lines.
pub fn float_order(lexed: &Lexed, items: &FileItems) -> Vec<usize> {
    let mut out = Vec::new();
    for f in &items.fns {
        if f.cfg_test || f.body_toks.is_empty() {
            continue;
        }
        let name = f.name.to_lowercase();
        let owner = f.owner.as_deref().unwrap_or("").to_lowercase();
        if !REDUCTION_MARKERS
            .iter()
            .any(|m| name.contains(m) || owner.contains(m))
        {
            continue;
        }
        let body = &lexed.toks[f.body_toks.clone()];
        // Float evidence anywhere in the fn's line span — the signature
        // counts (`views: &BTreeMap<u32, f64>` is how most merge fns
        // reveal their element type).
        let float_evidence = lexed
            .toks
            .iter()
            .filter(|t| f.lines.0 <= t.line && t.line <= f.lines.1)
            .any(|t| t.kind == TokKind::Float || is_float_ident(t));

        // Mark which tokens sit inside a `for` loop body. A loop body is
        // the first `{` after `for` outside any parens/brackets, so
        // closure braces in the iterator expression don't count.
        let mut in_for = vec![false; body.len()];
        let mut brace = 0i32;
        let mut pending_for = false;
        let mut delim = 0i32;
        let mut for_braces: Vec<i32> = Vec::new();
        for (k, t) in body.iter().enumerate() {
            match t.text.as_str() {
                "for" if t.kind == TokKind::Ident => {
                    pending_for = true;
                    delim = 0;
                }
                "(" | "[" if pending_for => delim += 1,
                ")" | "]" if pending_for => delim -= 1,
                "{" => {
                    brace += 1;
                    if pending_for && delim == 0 {
                        for_braces.push(brace);
                        pending_for = false;
                    }
                }
                "}" => {
                    if for_braces.last() == Some(&brace) {
                        for_braces.pop();
                    }
                    brace -= 1;
                }
                _ => {}
            }
            in_for[k] = !for_braces.is_empty();
        }

        for (k, t) in body.iter().enumerate() {
            // (a) compound assignment inside a loop.
            if in_for[k]
                && t.kind == TokKind::Punct
                && matches!(t.text.as_str(), "+=" | "-=" | "*=")
            {
                let start = (0..k)
                    .rev()
                    .find(|&j| matches!(body[j].text.as_str(), ";" | "{" | "}"))
                    .map(|j| j + 1)
                    .unwrap_or(0);
                let end = (k..body.len())
                    .find(|&j| body[j].text == ";")
                    .unwrap_or(body.len());
                let stmt = &body[start..end];
                let float_hint = stmt
                    .iter()
                    .any(|t| t.kind == TokKind::Float || is_float_ident(t));
                let rhs_has_ident = body[k + 1..end]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && !is_float_ident(t));
                if float_hint || (rhs_has_ident && float_evidence) {
                    out.push(t.line);
                }
            }
            // (b) `.sum()` / `.product()` reductions.
            if t.kind == TokKind::Ident
                && (t.text == "sum" || t.text == "product")
                && k > 0
                && body[k - 1].text == "."
            {
                match body.get(k + 1).map(|n| n.text.as_str()) {
                    Some("::") => {
                        // Turbofish names the element type: trust it.
                        let mut j = k + 2;
                        let mut float_tf = false;
                        let mut any_tf = false;
                        while j < body.len() && body[j].text != "(" {
                            if body[j].kind == TokKind::Ident {
                                any_tf = true;
                                float_tf |= is_float_ident(&body[j]);
                            }
                            j += 1;
                        }
                        if float_tf || (!any_tf && float_evidence) {
                            out.push(t.line);
                        }
                    }
                    Some("(") if float_evidence => out.push(t.line),
                    _ => {}
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Integer targets a cast can narrow into.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Operand-name fragments that mark time/sequence arithmetic.
const TIME_MARKERS: &[&str] = &["time", "seq", "deadline", "epoch", "nanos", "tick"];

/// `truncating-cast`: `<time-or-seq expr> as <narrow int>`. The operand
/// is recovered by walking back over the postfix chain (idents, field /
/// path segments, balanced call parens and index brackets) feeding the
/// cast. Returns 0-based lines.
pub fn truncating_cast(toks: &[Tok]) -> Vec<usize> {
    let mut out = Vec::new();
    for k in 1..toks.len() {
        let t = &toks[k];
        if !(t.kind == TokKind::Ident && t.text == "as") {
            continue;
        }
        let Some(target) = toks.get(k + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        // Walk the operand chain leftwards, collecting its identifiers.
        let mut parts: Vec<&str> = Vec::new();
        let mut j = k;
        loop {
            if j == 0 {
                break;
            }
            j -= 1;
            let u = &toks[j];
            match u.text.as_str() {
                ")" | "]" => {
                    let (open, close) = if u.text == ")" {
                        ("(", ")")
                    } else {
                        ("[", "]")
                    };
                    let mut depth = 1i32;
                    while depth > 0 && j > 0 {
                        j -= 1;
                        let v = &toks[j];
                        if v.text == close {
                            depth += 1;
                        } else if v.text == open {
                            depth -= 1;
                        } else if v.kind == TokKind::Ident {
                            parts.push(&v.text);
                        }
                    }
                    if depth > 0 {
                        break;
                    }
                    // Loop continues with the token before the opener
                    // (a call/receiver name, or nothing postfix-y).
                }
                "." | "::" => {}
                _ if u.kind == TokKind::Ident => {
                    parts.push(&u.text);
                    // An ident extends the chain only via `.` or `::`.
                    if !(j > 0 && matches!(toks[j - 1].text.as_str(), "." | "::")) {
                        break;
                    }
                }
                _ if u.kind == TokKind::Int || u.kind == TokKind::Float => {
                    if !(j > 0 && matches!(toks[j - 1].text.as_str(), "." | "::")) {
                        break;
                    }
                }
                _ => break,
            }
        }
        let timeish = parts.iter().any(|p| {
            let l = p.to_lowercase();
            TIME_MARKERS.iter().any(|m| l.contains(m)) || l == "now"
        });
        if timeish {
            out.push(t.line);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// `stale-suppression`: a `// lint: <known-rule>` comment none of whose
/// target lines carries a raw (pre-suppression) finding for that rule.
///
/// Targets: the comment's own line when it has code (trailing comment);
/// otherwise the lines below, walking through further comment-only lines
/// and through attribute lines (`#[..]`, which are themselves targets,
/// for `allow-attr`) to the first real code line.
///
/// `raw` holds (rule-id, 0-based line) for every match before
/// suppression and allow-path filtering, so a justified construct in a
/// sanctioned file still counts as fresh. Returns 0-based comment lines.
pub fn stale_suppression(
    raw_lines: &[&str],
    code_lines: &[&str],
    comments: &[String],
    skip: &[bool],
    raw: &BTreeSet<(&'static str, usize)>,
) -> Vec<usize> {
    let known = rule_ids();
    let has_code = |j: usize| code_lines.get(j).is_some_and(|l| !l.trim().is_empty());
    let mut out = Vec::new();
    for (idx, comment) in comments.iter().enumerate() {
        if skip.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let Some(pos) = comment.find("lint:") else {
            continue;
        };
        let named: String = comment[pos + 5..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        let Some(&id) = known.iter().find(|r| **r == named) else {
            // Prose after `lint:` (e.g. a free-form allow-attr
            // justification): nothing to stale-check.
            continue;
        };
        if STALE_EXEMPT.contains(&id) {
            continue;
        }
        let mut targets: Vec<usize> = Vec::new();
        if has_code(idx) {
            targets.push(idx);
        } else {
            let mut j = idx + 1;
            while j < raw_lines.len() {
                let t = raw_lines[j].trim_start();
                if !has_code(j) {
                    if t.starts_with("//") {
                        j += 1; // more justification prose
                        continue;
                    }
                    break; // blank line: suppression attaches to nothing
                }
                targets.push(j);
                if t.starts_with("#[") || t.starts_with("#![") {
                    j += 1; // attributes shield the item below
                    continue;
                }
                break;
            }
        }
        let fresh = targets.iter().any(|&t| raw.contains(&(id, t)));
        if !fresh {
            out.push(idx);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::scan_items;
    use crate::lexer::lex;

    fn float_lines(src: &str) -> Vec<usize> {
        let l = lex(src);
        let items = scan_items(&l.toks);
        float_order(&l, &items)
    }

    #[test]
    fn float_accumulation_in_merge_loops_fires() {
        let src = "\
impl Agg {
    fn merge(&mut self, views: &BTreeMap<u32, f64>) {
        for (_, v) in views {
            self.total += v;
        }
    }
}
";
        assert_eq!(float_lines(src), vec![3]);
    }

    #[test]
    fn integer_accumulation_and_non_reduction_fns_stay_clean() {
        // Integer counters in a merge loop: fine.
        let int_src = "\
fn merge(&mut self, xs: &[u64]) {
    for x in xs {
        self.count += 1;
        self.sum += x;
    }
}
";
        assert!(float_lines(int_src).is_empty());
        // Float accumulation outside reduction-context fns: fine (the
        // rule targets combine paths, not all float math).
        let other_fn = "\
fn lookup(&mut self, xs: &[f64]) {
    for x in xs {
        self.cache += x;
    }
}
";
        assert!(float_lines(other_fn).is_empty());
        // Float accumulation outside any loop: order is fixed.
        let no_loop = "fn record(&mut self, v: f64) { self.total += v; }";
        assert!(float_lines(no_loop).is_empty());
    }

    #[test]
    fn sum_reductions_respect_turbofish() {
        let f64_sum = "fn aggregate(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert_eq!(float_lines(f64_sum), vec![0]);
        let u64_sum = "fn aggregate(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }";
        assert!(float_lines(u64_sum).is_empty());
        // No turbofish: float evidence in the fn decides.
        let inferred = "fn merge_means(xs: &[f64]) -> f64 { let t: f64 = 0.0; xs.iter().sum() }";
        assert_eq!(float_lines(inferred), vec![0]);
    }

    fn cast_lines(src: &str) -> Vec<usize> {
        truncating_cast(&lex(src).toks)
    }

    #[test]
    fn narrowing_time_casts_fire() {
        assert_eq!(cast_lines("let x = now.nanos() as u32;"), vec![0]);
        assert_eq!(cast_lines("let s = self.seq as u16;"), vec![0]);
        assert_eq!(
            cast_lines("let d = (deadline - start_time) as i32;"),
            vec![0]
        );
    }

    #[test]
    fn wide_or_unrelated_casts_stay_clean() {
        // u64/usize targets don't narrow.
        assert!(cast_lines("let x = now.nanos() as u64;").is_empty());
        assert!(cast_lines("let x = deadline as usize;").is_empty());
        // Non-time operands are none of our business.
        assert!(cast_lines("let r = region_id as u32;").is_empty());
        assert!(cast_lines("let b = (len & 0xff) as u8;").is_empty());
    }

    #[test]
    fn stale_suppressions_are_detected() {
        let src = "\
// lint: rng-construction — used to be here
let x = 1;
// lint: wall-clock — still here
let t = Instant::now();
";
        let lexed = lex(src);
        let raw_lines: Vec<&str> = src.lines().collect();
        let code_lines = lexed.code_lines();
        let mut raw = BTreeSet::new();
        raw.insert(("wall-clock", 3usize));
        let skip = vec![false; raw_lines.len()];
        let stale = stale_suppression(&raw_lines, &code_lines, &lexed.comments, &skip, &raw);
        assert_eq!(stale, vec![0]);
    }

    #[test]
    fn prose_and_string_lint_mentions_are_not_stale_checked() {
        // `lint:` followed by prose (allow-attr style) — no known id.
        let prose = "// lint: kept for layout\n#[allow(dead_code)]\nfn f() {}\n";
        let lexed = lex(prose);
        let raw_lines: Vec<&str> = prose.lines().collect();
        let skip = vec![false; raw_lines.len()];
        let stale = stale_suppression(
            &raw_lines,
            &lexed.code_lines(),
            &lexed.comments,
            &skip,
            &BTreeSet::new(),
        );
        assert!(stale.is_empty());
        // `lint: wall-clock` inside a string literal is not a comment.
        let s = "let msg = \"// lint: wall-clock\";\n";
        let lexed = lex(s);
        let raw_lines: Vec<&str> = s.lines().collect();
        let stale = stale_suppression(
            &raw_lines,
            &lexed.code_lines(),
            &lexed.comments,
            &[false; 1],
            &BTreeSet::new(),
        );
        assert!(stale.is_empty());
    }

    #[test]
    fn rule_tables_are_consistent() {
        let ids = rule_ids();
        // No duplicate ids across the needle and structural tables.
        let set: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
        // Ranks follow table order and unknown ids sink to the bottom.
        assert!(rule_rank("wall-clock") < rule_rank("float-order"));
        assert!(rule_rank("nope") > rule_rank("allow-reentry"));
        assert!(!suggestion_for("float-order").is_empty());
        assert_eq!(
            allow_paths_for("rng-construction"),
            &["crates/sim/src/rng.rs"]
        );
        assert!(allow_paths_for("float-order").is_empty());
    }
}
