//! Per-workspace call-graph construction over the items recovered by
//! [`crate::parse`].
//!
//! Name resolution is deliberately *suffix-qualified and conservative*:
//! there is no type inference, so a call site resolves to **every**
//! workspace function it could plausibly name, and ambiguity produces
//! edges to all candidates rather than none. False edges make the taint
//! pass over-approximate (a finding that is not actually reachable),
//! which the annotate-with-reason / fingerprint policy absorbs; a
//! *missed* edge would silently hide a real determinism leak, which is
//! the failure mode this analyzer exists to prevent.
//!
//! Resolution rules, in order:
//! - `self.m(..)` → methods named `m` on the enclosing `impl` type,
//!   else every workspace method named `m`;
//! - `x.m(..)` → every workspace method named `m`, unless `m` is a
//!   ubiquitous std method name (`STD_METHODS`) — linking every
//!   `.len()` to every workspace `len` would drown the graph in noise;
//! - `a::b::f(..)` → functions whose fully-qualified path ends with
//!   `a::b::f` (`Self::f` uses the enclosing type);
//! - `f(..)` → free functions named `f` in the same crate, else any
//!   crate.

use crate::lexer::{is_keyword, Tok, TokKind};
use crate::parse::FnItem;

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments of the callee (`["oracle", "rank"]` for
    /// `oracle::rank(..)`, `["m"]` for `x.m(..)`).
    pub segments: Vec<String>,
    /// `.name(..)` method-call syntax.
    pub is_method: bool,
    /// Method call whose receiver is literally `self`.
    pub receiver_self: bool,
    /// 1-based source line of the callee name.
    pub line: u32,
}

/// One file's parsed functions plus their outgoing call sites.
#[derive(Debug)]
pub struct FileFns {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// Crate name from [`crate::config::crate_of`] (facade → `.`).
    pub krate: String,
    /// Items in source order.
    pub fns: Vec<FnItem>,
    /// `calls[i]` = call sites inside `fns[i]` (nested fns excluded —
    /// they own their sites).
    pub calls: Vec<Vec<CallSite>>,
}

/// A node in the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`Graph::files`].
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
}

/// An edge `caller → callee` recorded at a source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node id.
    pub callee: usize,
    /// Call-site line in the caller.
    pub line: u32,
}

/// The whole workspace's call graph.
#[derive(Debug)]
pub struct Graph {
    /// All parsed files.
    pub files: Vec<FileFns>,
    /// Flat node table; ids index into it.
    pub nodes: Vec<FnNode>,
    /// `edges[id]` = outgoing edges of node `id`, deduplicated,
    /// deterministic order.
    pub edges: Vec<Vec<Edge>>,
}

impl Graph {
    /// The [`FnItem`] behind a node id.
    pub fn item(&self, id: usize) -> &FnItem {
        let n = &self.nodes[id];
        &self.files[n.file].fns[n.item]
    }

    /// Workspace-relative file of a node id.
    pub fn file_of(&self, id: usize) -> &str {
        &self.files[self.nodes[id].file].file
    }

    /// Crate of a node id.
    pub fn crate_of(&self, id: usize) -> &str {
        &self.files[self.nodes[id].file].krate
    }
}

/// Method names so ubiquitous in std that cross-linking them to
/// same-named workspace methods would connect everything to everything.
/// Calls to these resolve only via an explicit `self.` receiver.
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_bytes",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "chain",
    "chars",
    "clamp",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "parse",
    "partial_cmp",
    "position",
    "powi",
    "powf",
    "product",
    "push",
    "push_str",
    "remove",
    "resize",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "write",
    "zip",
];

/// Extracts the call sites of every function in one file's code-token
/// stream. `fns` must come from [`crate::parse::parse_items`] over the
/// same tokens.
pub fn extract_calls(code: &[&Tok], fns: &[FnItem]) -> Vec<Vec<CallSite>> {
    let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); fns.len()];
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        let callable = t.kind == TokKind::Ident
            && !is_keyword(t.text)
            && matches!(code.get(i + 1).map(|n| n.text), Some("(") | Some("::"))
                // `f(` directly, or `f::<T>(` turbofish.
            ;
        if !callable {
            i += 1;
            continue;
        }
        // Walk forward through a path `a::b::c` (and a possible
        // turbofish) to the terminal name; only a `(` right after makes
        // it a call.
        let mut segs: Vec<&str> = vec![t.text];
        let mut j = i;
        loop {
            match (code.get(j + 1).map(|n| n.text), code.get(j + 2)) {
                (Some("::"), Some(n)) if n.kind == TokKind::Ident && !is_keyword(n.text) => {
                    segs.push(n.text);
                    j += 2;
                }
                (Some("::"), Some(n)) if n.text == "<" => {
                    // Turbofish: skip to the matching `>`.
                    let mut depth = 0i32;
                    let mut k = j + 2;
                    while k < code.len() {
                        match code[k].text {
                            "<" => depth += 1,
                            ">" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            ";" | "{" => break, // recovery
                            _ => {}
                        }
                        k += 1;
                    }
                    j = k;
                    break;
                }
                _ => break,
            }
        }
        let is_call = code.get(j + 1).map(|n| n.text) == Some("(");
        if !is_call {
            i += 1;
            continue;
        }
        // `fn f(` is a definition; `name!(` is a macro; `|x| (` etc.
        // never reach here (ident required).
        let prev = i.checked_sub(1).map(|p| code[p].text);
        if prev == Some("fn") || code.get(j + 1).map(|n| n.text) == Some("!") {
            i = j + 1;
            continue;
        }
        let is_method = segs.len() == 1 && prev == Some(".");
        let receiver_self =
            is_method && i >= 2 && code[i - 2].text == "self" && code[i - 2].kind == TokKind::Ident;
        // Struct-literal-ish / definition-ish positions are fine: an
        // ident followed by `(` in expression code is a call or a
        // tuple-struct constructor; constructors resolve to nothing and
        // fall out naturally.
        if let Some(fx) = enclosing_fn(fns, i) {
            calls[fx].push(CallSite {
                segments: segs.iter().map(|s| s.to_string()).collect(),
                is_method,
                receiver_self,
                line: t.line,
            });
        }
        i = j + 1;
    }
    calls
}

/// Innermost function whose body contains code-token index `idx`.
pub fn enclosing_fn(fns: &[FnItem], idx: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.contains_token(idx))
        .min_by_key(|(_, f)| f.body.end - f.body.start)
        .map(|(i, _)| i)
}

/// `true` for binary-target sources (`src/main.rs`, `src/bin/**`):
/// their items are not addressable from library code, so cross-file
/// calls never resolve into them — without this, a closure-parameter
/// call like `trial(rng)` in a library happily links to some bench
/// binary's free `trial` fn and drags its panics into every chain.
fn is_binary_target(file: &str) -> bool {
    let ends_main = file.ends_with("src/main.rs");
    let in_bin = file.contains("src/bin/");
    ends_main || in_bin
}

/// Builds the workspace graph from per-file parses.
pub fn build(files: Vec<FileFns>) -> Graph {
    let mut nodes = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (ii, _) in f.fns.iter().enumerate() {
            nodes.push(FnNode { file: fi, item: ii });
        }
    }
    let bin_file: Vec<bool> = files.iter().map(|f| is_binary_target(&f.file)).collect();
    // name → node ids bearing it (source order, deterministic).
    let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for (id, n) in nodes.iter().enumerate() {
        by_name.entry(files[n.file].fns[n.item].name.as_str()).or_default().push(id);
    }

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
    for (id, n) in nodes.iter().enumerate() {
        let f = &files[n.file];
        let caller = &f.fns[n.item];
        for call in &f.calls[n.item] {
            let name = call.segments.last().map(String::as_str).unwrap_or("");
            let Some(cands) = by_name.get(name) else { continue };
            let resolved: Vec<usize> = if call.is_method {
                let self_matches: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let cn = &nodes[c];
                        let cf = &files[cn.file].fns[cn.item];
                        cf.self_type.is_some()
                            && call.receiver_self
                            && cf.self_type == caller.self_type
                            && files[cn.file].krate == f.krate
                    })
                    .collect();
                if !self_matches.is_empty() {
                    self_matches
                } else if STD_METHODS.contains(&name) {
                    // Too generic to cross-link without a receiver type.
                    Vec::new()
                } else {
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            let cn = &nodes[c];
                            files[cn.file].fns[cn.item].self_type.is_some()
                        })
                        .collect()
                }
            } else if call.segments.len() > 1 {
                // Path call: suffix-match against qualified paths, with
                // `Self` resolved to the enclosing impl type.
                let mut want: Vec<&str> = call.segments.iter().map(String::as_str).collect();
                if want.first() == Some(&"Self") {
                    match &caller.self_type {
                        Some(t) => want[0] = t,
                        None => {
                            want.remove(0);
                        }
                    }
                }
                cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let cn = &nodes[c];
                        let q = &files[cn.file].fns[cn.item].qualified;
                        suffix_matches(q, &want)
                    })
                    .collect()
            } else {
                // Bare call: free fns, same crate preferred.
                let free = |c: &usize| {
                    let cn = &nodes[*c];
                    files[cn.file].fns[cn.item].self_type.is_none()
                };
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|c| free(c) && files[nodes[*c].file].krate == f.krate)
                    .collect();
                if !same_crate.is_empty() {
                    same_crate
                } else {
                    cands.iter().copied().filter(free).collect()
                }
            };
            for callee in resolved {
                let cross_into_bin = bin_file[nodes[callee].file] && nodes[callee].file != n.file;
                if callee != id && !cross_into_bin {
                    edges[id].push(Edge { callee, line: call.line });
                }
            }
        }
        edges[id].sort_by_key(|e| (e.callee, e.line));
        edges[id].dedup_by_key(|e| e.callee);
    }
    Graph { files, nodes, edges }
}

/// `true` when the `::`-separated `qualified` path ends with the
/// segment sequence `want` (matching whole segments).
fn suffix_matches(qualified: &str, want: &[&str]) -> bool {
    let q: Vec<&str> = qualified.split("::").collect();
    if want.len() > q.len() {
        return false;
    }
    q[q.len() - want.len()..] == *want
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn file(name: &str, krate: &str, prefix: &str, src: &str) -> FileFns {
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| t.is_code()).collect();
        let fns = parse_items(&code, prefix);
        let calls = extract_calls(&code, &fns);
        FileFns { file: name.to_string(), krate: krate.to_string(), fns, calls }
    }

    fn edge_names(g: &Graph, from: &str) -> Vec<String> {
        let id = (0..g.nodes.len()).find(|&i| g.item(i).qualified == from).unwrap();
        g.edges[id].iter().map(|e| g.item(e.callee).qualified.clone()).collect()
    }

    #[test]
    fn bare_calls_prefer_same_crate() {
        let g = build(vec![
            file("a.rs", "core", "core::a", "pub fn top() { helper(); }\nfn helper() {}"),
            file("b.rs", "other", "other::b", "fn helper() {}"),
        ]);
        assert_eq!(edge_names(&g, "core::a::top"), vec!["core::a::helper"]);
    }

    #[test]
    fn bare_calls_fall_back_across_crates() {
        let g = build(vec![
            file("a.rs", "core", "core::a", "pub fn top() { helper(); }"),
            file("b.rs", "other", "other::b", "pub fn helper() {}"),
        ]);
        assert_eq!(edge_names(&g, "core::a::top"), vec!["other::b::helper"]);
    }

    #[test]
    fn path_calls_suffix_match() {
        let g = build(vec![
            file("a.rs", "core", "core::a", "pub fn top() { oracle::rank(1); b::rank(2); }"),
            file("o.rs", "conformance", "conformance::oracle", "pub fn rank(x: u32) {}"),
            file("b.rs", "core", "core::b", "pub fn rank(x: u32) {}"),
        ]);
        // Edge order is node-id order (file discovery order), not
        // call order.
        assert_eq!(
            edge_names(&g, "core::a::top"),
            vec!["conformance::oracle::rank", "core::b::rank"]
        );
    }

    #[test]
    fn self_method_calls_bind_to_enclosing_impl() {
        let src = "pub struct S;\n\
                   impl S {\n\
                   pub fn outer(&self) { self.inner(); }\n\
                   fn inner(&self) {}\n\
                   }\n\
                   pub struct T;\n\
                   impl T { fn inner(&self) {} }\n";
        let g = build(vec![file("a.rs", "core", "core::a", src)]);
        assert_eq!(edge_names(&g, "core::a::S::outer"), vec!["core::a::S::inner"]);
    }

    #[test]
    fn foreign_method_calls_link_conservatively_but_not_std_names() {
        let src = "pub fn top(x: &W) { x.decode_row(); y.len(); }\n\
                   impl W { pub fn decode_row(&self) {} pub fn len(&self) -> usize { 0 } }\n";
        let g = build(vec![file("a.rs", "core", "core::a", src)]);
        // decode_row links (unique workspace method); len does not
        // (ubiquitous std name, no self receiver).
        assert_eq!(edge_names(&g, "core::a::top"), vec!["core::a::W::decode_row"]);
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let src = "pub fn top() { panic!(\"x\"); vec![1]; }\nfn panic_helper() {}";
        let g = build(vec![file("a.rs", "core", "core::a", src)]);
        assert_eq!(edge_names(&g, "core::a::top"), Vec::<String>::new());
    }

    #[test]
    fn turbofish_calls_resolve() {
        let g = build(vec![
            file("a.rs", "core", "core::a", "pub fn top() { convert::<u32>(1); }"),
            file("b.rs", "core", "core::b", "pub fn convert<T>(x: T) {}"),
        ]);
        assert_eq!(edge_names(&g, "core::a::top"), vec!["core::b::convert"]);
    }

    #[test]
    fn binary_target_fns_are_not_linkable_from_other_files() {
        let g = build(vec![
            file("crates/analog/src/mc.rs", "analog", "analog::mc", "pub fn sample() { trial(); }"),
            file(
                "crates/bench/src/bin/fig7.rs",
                "bench",
                "bench::bin::fig7",
                "fn trial() { x.expect(\"boom\"); }\nfn local() { trial(); }",
            ),
        ]);
        // A library bare call cannot reach a binary's free fn...
        assert_eq!(edge_names(&g, "analog::mc::sample"), Vec::<String>::new());
        // ...but resolution inside the binary itself still works.
        assert_eq!(edge_names(&g, "bench::bin::fig7::local"), vec!["bench::bin::fig7::trial"]);
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let src = "pub fn outer() {\n\
                   fn inner() { deep(); }\n\
                   shallow();\n\
                   }\n\
                   fn deep() {}\n\
                   fn shallow() {}\n";
        let g = build(vec![file("a.rs", "core", "core::a", src)]);
        assert_eq!(edge_names(&g, "core::a::outer"), vec!["core::a::shallow"]);
        assert_eq!(edge_names(&g, "core::a::outer::inner"), vec!["core::a::deep"]);
    }
}
