//! The documents agree with the tree.
//!
//! EXPERIMENTS.md's §5 sections (Figure 6 through the ablations) quote
//! the figures bin's tables. Every line of every fenced block there must
//! occur, verbatim, in `results/figures_all.txt` — the capture CI's
//! "Figures capture" step diffs against a fresh run — so a change that
//! moves a figure row and regenerates the capture fails here until the
//! document quotes the new rows too.
//!
//! README.md and DESIGN.md name the runtime's options and report
//! fields as `ExecutorOptions::x`, `RunReport::x` and `OpRecord::x`;
//! every such name must still exist. EXPERIMENTS.md and CHANGES.md are
//! history and may name what is gone.
//!
//! DESIGN.md's experiment index (§4) and ablation list (§5) say what
//! regenerates each figure; every file, test and `figures` subcommand
//! they name must exist.
//!
//! Every `DESIGN §N` (or `DESIGN.md §N`) cited in `crates/`, `tests/`,
//! README.md and ROADMAP.md names one of DESIGN.md's `## N.` headings.

use std::collections::HashSet;
use std::path::Path;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const FIGURES: &str = include_str!("../results/figures_all.txt");
const README: &str = include_str!("../README.md");
const DESIGN: &str = include_str!("../DESIGN.md");
const EXECUTOR_RS: &str = include_str!("../crates/runtime/src/executor.rs");
const RUN_RS: &str = include_str!("../crates/runtime/src/run.rs");

/// The types whose members the documents name, and the sources that
/// declare them.
const TYPES: [(&str, &str); 3] =
    [("ExecutorOptions", EXECUTOR_RS), ("RunReport", RUN_RS), ("OpRecord", RUN_RS)];

/// The first heading of the §5 sections, and the heading after the last.
const FIRST: &str = "## Figure 6";
const END: &str = "## Figures 1–5";

/// Every non-blank line inside a fenced block of `doc`'s §5 sections,
/// with its line number (1-based).
fn section5_table_lines(doc: &str) -> Vec<(usize, &str)> {
    let (mut in5, mut fenced, mut out) = (false, false, Vec::new());
    for (i, line) in doc.lines().enumerate() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with("## ") {
            in5 = (in5 || line.starts_with(FIRST)) && !line.starts_with(END);
        } else if fenced && in5 && !line.trim().is_empty() {
            out.push((i + 1, line));
        }
    }
    out
}

#[test]
fn experiments_tables_quote_the_figures_capture() {
    let captured: HashSet<&str> = FIGURES.lines().collect();
    let lines = section5_table_lines(EXPERIMENTS);
    assert!(lines.len() > 50, "only {} table lines found: is §5 still fenced?", lines.len());
    let stale: Vec<String> = lines
        .iter()
        .filter(|(_, line)| !captured.contains(line))
        .map(|(n, line)| format!("EXPERIMENTS.md:{n}: {line}"))
        .collect();
    assert!(
        stale.is_empty(),
        "{} table lines are not in results/figures_all.txt:\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// Every `Type::member` inside a backticked span of `doc` (a braced
/// group `Type::{a, b}` names each member), with its line number.
fn named_members<'d>(doc: &'d str, ty: &str) -> Vec<(usize, &'d str)> {
    let ident = |s: &'d str| {
        let end = s.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(s.len());
        &s[..end]
    };
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            for (at, _) in span.match_indices(&format!("{ty}::")) {
                let rest = &span[at + ty.len() + 2..];
                let names: Vec<&str> = match rest.strip_prefix('{') {
                    Some(group) => group.split('}').next().unwrap_or("").split(',').collect(),
                    None => vec![rest],
                };
                out.extend(names.into_iter().map(|n| (i + 1, ident(n.trim()))));
            }
        }
    }
    out
}

/// Whether `src` declares `name` as a `pub` field of `struct ty` or as
/// a `fn` anywhere.
fn declares(src: &str, ty: &str, name: &str) -> bool {
    let fields = src
        .split_once(&format!("pub struct {ty} {{"))
        .and_then(|(_, body)| body.split_once("\n}\n"))
        .map_or("", |(fields, _)| fields);
    fields.contains(&format!("pub {name}:"))
        || src.contains(&format!("fn {name}("))
        || src.contains(&format!("fn {name}<"))
}

#[test]
fn readme_and_design_name_only_fields_that_exist() {
    let mut named = 0;
    let mut missing = Vec::new();
    for (file, doc) in [("README.md", README), ("DESIGN.md", DESIGN)] {
        for (ty, src) in TYPES {
            for (n, name) in named_members(doc, ty) {
                named += 1;
                if name.is_empty() || !declares(src, ty, name) {
                    missing.push(format!("{file}:{n}: `{ty}::{name}`"));
                }
            }
        }
    }
    assert!(named > 10, "only {named} names found: do the documents still use `Type::x`?");
    assert!(
        missing.is_empty(),
        "{} names match no pub field or fn in crates/runtime/src/{{executor,run}}.rs:\n{}",
        missing.len(),
        missing.join("\n")
    );
}

/// The `figures` subcommands: the string arms of `figures.rs`'s `match`.
fn figures_arms(src: &str) -> HashSet<&str> {
    src.lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.split_once("\" =>").map(|(arm, _)| arm))
        .collect()
}

/// Every backticked span DESIGN.md's §4 and §5 use to say what
/// regenerates an experiment, with its line number: each span in the
/// last column of §4's table, and each `figures.rs <exp>` or bare
/// `ablate-*` / `intro-*` span in either section.
fn design_experiment_refs(doc: &str) -> Vec<(usize, &str)> {
    let (mut section, mut out) = ("", Vec::new());
    for (i, line) in doc.lines().enumerate() {
        if line.starts_with("## ") {
            section = line;
            continue;
        }
        if !(section.starts_with("## 4.") || section.starts_with("## 5.")) {
            continue;
        }
        let last_column = match line.trim_end().strip_suffix('|') {
            Some(row) if section.starts_with("## 4.") && !row.starts_with("|---") => {
                row.rsplit('|').next().unwrap_or("")
            }
            _ => "",
        };
        for span in line.split('`').skip(1).step_by(2) {
            let figures = span.contains("figures.rs ")
                || span.starts_with("ablate-")
                || span.starts_with("intro-");
            if figures || last_column.contains(&format!("`{span}`")) {
                out.push((i + 1, span));
            }
        }
    }
    out
}

#[test]
fn design_experiment_index_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap_or_default();
    let design = read("DESIGN.md");
    let figures = read("crates/bench/src/bin/figures.rs");
    let arms = figures_arms(&figures);
    assert!(arms.contains("fig6") && arms.contains("all"), "figures.rs arms not found: {arms:?}");
    let refs = design_experiment_refs(&design);
    assert!(refs.len() > 10, "only {} references found: did §4's table move?", refs.len());
    let unresolved: Vec<String> = refs
        .iter()
        .filter(|(_, span)| {
            let resolves = if let Some((_, exp)) = span.split_once("figures.rs ") {
                arms.contains(exp)
            } else if span.starts_with("ablate-") || span.starts_with("intro-") {
                arms.contains(span)
            } else if let Some((path, rest)) = span.split_once("::") {
                let name = rest.rsplit("::").next().unwrap_or(rest);
                read(path).contains(&format!("fn {name}("))
            } else {
                root.join(span).exists()
            };
            !resolves
        })
        .map(|(n, span)| format!("DESIGN.md:{n}: `{span}`"))
        .collect();
    assert!(
        unresolved.is_empty(),
        "{} experiment references name no file, test or figures subcommand:\n{}",
        unresolved.len(),
        unresolved.join("\n")
    );
}

/// The `.rs` and `.md` files under `dir`, recursively.
fn sources_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            sources_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
            out.push(path);
        }
    }
}

/// The section numbers `text` cites as `DESIGN §N` or `DESIGN.md §N`,
/// with their line numbers.
fn design_citations(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for prefix in ["DESIGN §", "DESIGN.md §"] {
            for (at, _) in line.match_indices(prefix) {
                let rest = &line[at + prefix.len()..];
                let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
                if digits > 0 {
                    out.push((i + 1, &rest[..digits]));
                }
            }
        }
    }
    out
}

#[test]
fn design_section_citations_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let headings: HashSet<&str> = DESIGN
        .lines()
        .filter_map(|l| l.strip_prefix("## ")?.split_once(". ").map(|(n, _)| n))
        .collect();
    assert!(headings.len() > 10, "only {} numbered headings in DESIGN.md", headings.len());
    let mut files = vec![root.join("README.md"), root.join("ROADMAP.md")];
    sources_under(&root.join("crates"), &mut files);
    sources_under(&root.join("tests"), &mut files);
    let (mut cited, mut dangling) = (0, Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_default();
        for (n, section) in design_citations(&text) {
            cited += 1;
            if !headings.contains(section) {
                let rel = file.strip_prefix(root).unwrap_or(file).display();
                dangling.push(format!("{rel}:{n}: DESIGN §{section}"));
            }
        }
    }
    assert!(cited > 5, "only {cited} citations found: do the sources still cite `DESIGN §N`?");
    assert!(
        dangling.is_empty(),
        "{} citations name no `## N.` heading of DESIGN.md:\n{}",
        dangling.len(),
        dangling.join("\n")
    );
}
