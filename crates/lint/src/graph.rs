//! Conservative intra-workspace call graph and reachability.
//!
//! Edges are resolved by name, with three precision tiers:
//!
//! * `Type::method(` — if `Type` matches a known impl owner in the
//!   workspace (or is `Self`), only that impl's methods are targets.
//!   If `Type` is unknown (`Mutex::new`, `AtomicU64::new`, std paths),
//!   NO edge is added: the callee is outside the workspace, and wiring
//!   every `::new` together would collapse the graph into one blob.
//! * `.method(` — edges to every workspace method with that name
//!   (receiver type unknown; over-approximates).
//! * `bare(` — edges to every free fn with that name. Macro calls
//!   (`name!(`) are excluded because `!` intervenes.
//!
//! Over-approximation is fine: reachability mode only *drops* findings
//! for unreachable code, so a spurious edge merely keeps a finding that
//! strict mode would have reported anyway. `cfg(test)` fns are excluded
//! from the graph entirely.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::FileItems;
use crate::lexer::{Lexed, TokKind};

/// A function node: (file index, fn index within that file).
pub type FnRef = (usize, usize);

pub struct CallGraph {
    /// Adjacency: caller -> callees.
    edges: BTreeMap<FnRef, BTreeSet<FnRef>>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "mut", "in", "as", "move", "ref",
    "else", "break", "continue", "use", "pub", "impl", "struct", "enum", "trait", "mod", "where",
    "const", "static", "type", "unsafe", "dyn", "Self", "self", "super", "crate", "true", "false",
];

/// Workspace-level names a sim run enters through. Everything reachable
/// from these is "live" for `--reachability` filtering.
pub fn reach_root(name: &str, owner: Option<&str>) -> bool {
    if name.starts_with("on_") || name == "main" {
        return true;
    }
    match owner {
        Some("Engine") => name.starts_with("run") || name == "step",
        Some("Cluster") => name.starts_with("run"),
        _ => false,
    }
}

/// Roots of the *event path* for the allow-reentry check: the per-event
/// dispatch machinery and service handlers. Narrower than
/// [`reach_root`]: `Cluster::run_parallel` is excluded on purpose — it
/// splits and rejoins shards around the per-event path, and the check
/// asks whether sanctioned primitives leak back into per-event code, not
/// whether set-up and tear-down use them.
pub fn event_root(name: &str, owner: Option<&str>) -> bool {
    if name.starts_with("on_") {
        return true;
    }
    owner == Some("Engine") && matches!(name, "step" | "run_until" | "run_for")
}

impl CallGraph {
    /// Build the graph over all files. `files[i]` pairs the lexed file
    /// with its scanned items.
    pub fn build(files: &[(Lexed, FileItems)]) -> CallGraph {
        // Name indexes over non-test fns.
        let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(&str, &str), Vec<FnRef>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        let mut owners: BTreeSet<&str> = BTreeSet::new();
        for (fi, (_, items)) in files.iter().enumerate() {
            for (ii, f) in items.fns.iter().enumerate() {
                if f.cfg_test {
                    continue;
                }
                let r = (fi, ii);
                by_name.entry(&f.name).or_default().push(r);
                match &f.owner {
                    Some(o) => {
                        owners.insert(o);
                        by_owner_name.entry((o, &f.name)).or_default().push(r);
                    }
                    None => free_by_name.entry(&f.name).or_default().push(r),
                }
            }
        }

        let mut edges: BTreeMap<FnRef, BTreeSet<FnRef>> = BTreeMap::new();
        for (fi, (lexed, items)) in files.iter().enumerate() {
            for (ii, f) in items.fns.iter().enumerate() {
                if f.cfg_test {
                    continue;
                }
                let caller = (fi, ii);
                let body = &lexed.toks[f.body_toks.clone()];
                let out = edges.entry(caller).or_default();
                for (k, t) in body.iter().enumerate() {
                    if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
                        continue;
                    }
                    // Only idents immediately followed by `(` are calls.
                    if body.get(k + 1).is_none_or(|n| n.text != "(") {
                        continue;
                    }
                    let name = t.text.as_str();
                    // Look left for the path/receiver shape.
                    let prev = k.checked_sub(1).map(|p| body[p].text.as_str());
                    match prev {
                        Some("::") => {
                            // Qualified: Type::name( or path::name(.
                            let ty = k
                                .checked_sub(2)
                                .map(|p| body[p].text.as_str())
                                .unwrap_or("");
                            let ty = if ty == "Self" {
                                f.owner.as_deref().unwrap_or("")
                            } else {
                                ty
                            };
                            if owners.contains(ty) {
                                if let Some(v) = by_owner_name.get(&(ty, name)) {
                                    out.extend(v.iter().copied());
                                }
                            }
                            // Unknown owner (std / external): no edge.
                        }
                        Some(".") => {
                            // Method call on an unknown receiver: every
                            // workspace method with this name.
                            for (&(_, n), v) in &by_owner_name {
                                if n == name {
                                    out.extend(v.iter().copied());
                                }
                            }
                        }
                        _ => {
                            if let Some(v) = free_by_name.get(name) {
                                out.extend(v.iter().copied());
                            }
                        }
                    }
                }
            }
        }
        CallGraph { edges }
    }

    /// All fns reachable (inclusive) from fns selected by `root`.
    pub fn reachable(
        &self,
        files: &[(Lexed, FileItems)],
        root: impl Fn(&str, Option<&str>) -> bool,
    ) -> BTreeSet<FnRef> {
        let mut seen: BTreeSet<FnRef> = BTreeSet::new();
        let mut queue: VecDeque<FnRef> = VecDeque::new();
        for (fi, (_, items)) in files.iter().enumerate() {
            for (ii, f) in items.fns.iter().enumerate() {
                if !f.cfg_test && root(&f.name, f.owner.as_deref()) {
                    let r = (fi, ii);
                    if seen.insert(r) {
                        queue.push_back(r);
                    }
                }
            }
        }
        while let Some(r) = queue.pop_front() {
            if let Some(next) = self.edges.get(&r) {
                for &n in next {
                    if seen.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::scan_items;
    use crate::lexer::lex;

    fn workspace(srcs: &[&str]) -> Vec<(Lexed, FileItems)> {
        srcs.iter()
            .map(|s| {
                let l = lex(s);
                let items = scan_items(&l.toks);
                (l, items)
            })
            .collect()
    }

    fn find(files: &[(Lexed, FileItems)], name: &str) -> FnRef {
        for (fi, (_, items)) in files.iter().enumerate() {
            for (ii, f) in items.fns.iter().enumerate() {
                if f.name == name {
                    return (fi, ii);
                }
            }
        }
        panic!("no fn named {name}");
    }

    #[test]
    fn reachability_follows_bare_method_and_qualified_calls() {
        let files = workspace(&["\
impl Engine {
    pub fn run_until(&mut self) { self.step(); }
    fn step(&mut self) { dispatch(); }
}
fn dispatch() { Helper::work(); }
impl Helper { fn work() { leaf(); } }
fn leaf() {}
fn dead_code() { leaf(); }
"]);
        let g = CallGraph::build(&files);
        let live = g.reachable(&files, reach_root);
        for name in ["run_until", "step", "dispatch", "work", "leaf"] {
            assert!(live.contains(&find(&files, name)), "{name} should be live");
        }
        assert!(!live.contains(&find(&files, "dead_code")));
    }

    #[test]
    fn unknown_qualified_owners_add_no_edges() {
        // `Mutex::new` must not link to a workspace fn named `new`.
        let files = workspace(&["\
fn main() { let _m = Mutex::new(0); }
impl Widget { fn new() -> Widget { forbidden(); Widget } }
fn forbidden() {}
"]);
        let g = CallGraph::build(&files);
        let live = g.reachable(&files, reach_root);
        assert!(live.contains(&find(&files, "main")));
        assert!(!live.contains(&find(&files, "new")));
        assert!(!live.contains(&find(&files, "forbidden")));
    }

    #[test]
    fn cfg_test_fns_are_outside_the_graph() {
        let files = workspace(&["\
impl Engine { pub fn run_until(&mut self) {} }
#[cfg(test)]
mod tests {
    fn helper() { super::target(); }
}
fn target() {}
"]);
        let g = CallGraph::build(&files);
        let live = g.reachable(&files, reach_root);
        assert!(!live.contains(&find(&files, "target")));
    }

    #[test]
    fn event_roots_are_narrower_than_reach_roots() {
        assert!(reach_root("run_parallel", Some("Cluster")));
        assert!(!event_root("run_parallel", Some("Cluster")));
        assert!(event_root("step", Some("Engine")));
        assert!(event_root("on_packet", Some("Gmond")));
        assert!(!event_root("main", None));
        assert!(reach_root("main", None));
    }
}
