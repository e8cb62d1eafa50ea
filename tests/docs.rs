//! The documents agree with the tree.
//!
//! EXPERIMENTS.md's §5 sections (Figure 6 through the ablations) quote
//! the figures bin's tables. Every line of every fenced block there must
//! occur, verbatim, in `results/figures_all.txt` — the capture CI's
//! "Figures capture" step diffs against a fresh run — so a change that
//! moves a figure row and regenerates the capture fails here until the
//! document quotes the new rows too.

use std::collections::HashSet;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const FIGURES: &str = include_str!("../results/figures_all.txt");

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
