//! A textual form for Delirium graphs.
//!
//! The paper's Delirium is a functional coordination language \[15, 16\];
//! for interchange and golden tests this module provides an equivalent
//! line-oriented notation that round-trips through [`parse`]/[`fn@print`]:
//!
//! ```text
//! delirium example
//! node A task cost=10
//! node B dpar tasks=100 mean=5 cv=0.2
//! node M merge cost=3 group=P
//! edge A -> B data=x count=100 bytes=8
//! edge M => A data=loop count=1 bytes=8
//! end
//! ```
//!
//! `->` is a dataflow edge; `=>` is a loop-carried edge within a
//! pipeline group.

use crate::graph::{DataAnno, DelirGraph, NodeKind, Population};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;

/// Errors from parsing the textual form.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Prints a graph in the textual form.
pub fn print(g: &DelirGraph, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "delirium {name}");
    for n in &g.nodes {
        let _ = write!(out, "node {} ", n.name);
        match &n.kind {
            NodeKind::Task { cost } => {
                let _ = write!(out, "task cost={cost}");
            }
            NodeKind::DataParallel { tasks, mean_cost, cv } => {
                let _ = write!(out, "dpar tasks={tasks} mean={mean_cost} cv={cv}");
            }
            NodeKind::Merge { cost } => {
                let _ = write!(out, "merge cost={cost}");
            }
            NodeKind::Mixture { populations } => {
                out.push_str("mix pops=");
                for (i, p) in populations.iter().enumerate() {
                    let sep = if i > 0 { "+" } else { "" };
                    let _ = write!(out, "{sep}{}x{}x{}", p.tasks, p.mean_cost, p.cv);
                }
            }
        }
        if let Some(gr) = &n.group {
            let _ = write!(out, " group={gr}");
        }
        out.push('\n');
    }
    for e in &g.edges {
        let arrow = if e.carried { "=>" } else { "->" };
        let _ = writeln!(
            out,
            "edge {} {arrow} {} data={} count={} bytes={}",
            g.nodes[e.from].name, g.nodes[e.to].name, e.data.name, e.data.count, e.data.elem_bytes
        );
    }
    out.push_str("end\n");
    out
}

/// Parses the textual form back into a graph and its name.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first malformed line.
pub fn parse(src: &str) -> Result<(String, DelirGraph), ParseError> {
    let err = |line: usize, msg: &str| ParseError { line, msg: msg.to_string() };
    let mut name = String::new();
    let mut g = DelirGraph::new();
    // Node names borrowed from the text.
    let mut ids: BTreeMap<&str, usize> = BTreeMap::new();
    let mut saw_header = false;
    let mut saw_end = false;

    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if saw_end {
            return Err(err(lineno, "content after `end`"));
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("delirium") => {
                name = words.next().ok_or_else(|| err(lineno, "missing graph name"))?.to_string();
                saw_header = true;
            }
            Some("node") => {
                if !saw_header {
                    return Err(err(lineno, "node before header"));
                }
                let nname = words.next().ok_or_else(|| err(lineno, "missing node name"))?;
                let kind_word = words.next().ok_or_else(|| err(lineno, "missing node kind"))?;
                let kv = Kv::new(after(line, kind_word), lineno)?;
                let get = |k: &str| kv.number::<f64>(k);
                let kind = match kind_word {
                    "task" => NodeKind::Task { cost: get("cost")? },
                    "merge" => NodeKind::Merge { cost: get("cost")? },
                    "mix" => {
                        let spec = kv.get("pops").ok_or_else(|| err(lineno, "missing pops="))?;
                        let mut populations = Vec::new();
                        for part in spec.split('+') {
                            let fields: Vec<&str> = part.split('x').collect();
                            if fields.len() != 3 {
                                return Err(err(lineno, "bad population spec"));
                            }
                            let parse_f = |s: &str| {
                                s.parse::<f64>().map_err(|_| err(lineno, "bad number in pops"))
                            };
                            populations.push(Population {
                                tasks: parse_f(fields[0])? as usize,
                                mean_cost: parse_f(fields[1])?,
                                cv: parse_f(fields[2])?,
                            });
                        }
                        NodeKind::Mixture { populations }
                    }
                    "dpar" => NodeKind::DataParallel {
                        tasks: get("tasks")? as usize,
                        mean_cost: get("mean")?,
                        cv: get("cv")?,
                    },
                    other => return Err(err(lineno, &format!("unknown node kind `{other}`"))),
                };
                let group = kv.get("group").map(str::to_string);
                let id = g.add_node(nname, kind, group);
                ids.insert(nname, id);
            }
            Some("edge") => {
                let from = words.next().ok_or_else(|| err(lineno, "missing edge source"))?;
                let arrow = words.next().ok_or_else(|| err(lineno, "missing arrow"))?;
                let carried = match arrow {
                    "->" => false,
                    "=>" => true,
                    other => return Err(err(lineno, &format!("bad arrow `{other}`"))),
                };
                let to = words.next().ok_or_else(|| err(lineno, "missing edge target"))?;
                let kv = Kv::new(after(line, to), lineno)?;
                let &from_id =
                    ids.get(from).ok_or_else(|| err(lineno, &format!("unknown node `{from}`")))?;
                let &to_id =
                    ids.get(to).ok_or_else(|| err(lineno, &format!("unknown node `{to}`")))?;
                let data = DataAnno {
                    name: kv.get("data").unwrap_or("data").to_string(),
                    count: kv.number("count")?,
                    elem_bytes: kv.number("bytes")?,
                };
                if carried {
                    g.add_carried_edge(from_id, to_id, data);
                } else {
                    g.add_edge(from_id, to_id, data);
                }
            }
            Some("end") => {
                saw_end = true;
            }
            Some(other) => return Err(err(lineno, &format!("unknown directive `{other}`"))),
            None => unreachable!("blank lines skipped"),
        }
    }
    if !saw_end {
        return Err(err(src.lines().count(), "missing `end`"));
    }
    Ok((name, g))
}

/// The text of `line` after `word`, one of its words.
fn after<'a>(line: &'a str, word: &'a str) -> &'a str {
    let at = word.as_ptr() as usize - line.as_ptr() as usize;
    &line[at + word.len()..]
}

/// The `key=value` words that end a line, borrowed from it; a key
/// given twice reads as its last value.
struct Kv<'a> {
    /// The words, from the first `key=value` on.
    rest: &'a str,
    line: usize,
}

impl<'a> Kv<'a> {
    /// Checks that every word is a `key=value` pair.
    fn new(rest: &'a str, line: usize) -> Result<Self, ParseError> {
        if let Some(w) = rest.split_whitespace().find(|w| !w.contains('=')) {
            return Err(ParseError { line, msg: format!("expected key=value, found `{w}`") });
        }
        Ok(Kv { rest, line })
    }

    /// The value of the last word that starts `key=`.
    fn get(&self, key: &str) -> Option<&'a str> {
        let rest = self.rest;
        rest.rmatch_indices(key).find_map(|(at, _)| {
            let word_start = rest[..at].chars().next_back().is_none_or(char::is_whitespace);
            let value = rest[at + key.len()..].strip_prefix('=')?;
            word_start.then(|| value.split(char::is_whitespace).next().unwrap_or(""))
        })
    }

    /// The number `key` gives, which the line must hold.
    fn number<T: FromStr>(&self, key: &str) -> Result<T, ParseError> {
        let err = |msg: String| ParseError { line: self.line, msg };
        let v = self.get(key).ok_or_else(|| err(format!("missing {key}=")))?;
        v.parse().map_err(|_| err(format!("bad number for {key}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    fn sample() -> DelirGraph {
        let mut g = DelirGraph::new();
        let a = g.add_node("A", NodeKind::Task { cost: 10.0 }, Some("P".into()));
        let b =
            g.add_node("B_I", NodeKind::DataParallel { tasks: 64, mean_cost: 2.5, cv: 1.25 }, None);
        let m = g.add_node("B_M", NodeKind::Merge { cost: 1.0 }, None);
        g.add_edge(a, b, DataAnno::array("q", 4096));
        g.add_edge(b, m, DataAnno::array("output1", 4096));
        g.add_carried_edge(m, a, DataAnno::scalar("token"));
        g
    }

    #[test]
    fn round_trip() {
        let g = sample();
        let text = print(&g, "fig2");
        let (name, g2) = parse(&text).unwrap();
        assert_eq!(name, "fig2");
        assert_eq!(g, g2);
    }

    #[test]
    fn parse_rejects_unknown_node() {
        let e = parse("delirium t\nedge A -> B data=x count=1 bytes=8\nend\n").unwrap_err();
        assert!(e.msg.contains("unknown node"));
    }

    #[test]
    fn a_malformed_edge_number_is_reported_as_bad_not_missing() {
        let edge = |kv: &str| {
            let text = format!("delirium t\nnode A task cost=1\nnode B task cost=1\nedge A -> B data=x {kv}\nend\n");
            parse(&text).map(|_| ()).map_err(|e| e.msg)
        };
        assert_eq!(edge("count=abc bytes=8"), Err("bad number for count".to_string()));
        assert_eq!(edge("count=1 bytes=x"), Err("bad number for bytes".to_string()));
        assert_eq!(edge("bytes=8"), Err("missing count=".to_string()));
        assert_eq!(edge("count=1"), Err("missing bytes=".to_string()));
        assert_eq!(edge("count=1 bytes=8"), Ok(()));
    }

    #[test]
    fn parse_rejects_missing_end() {
        assert!(parse("delirium t\nnode A task cost=1\n").is_err());
    }

    #[test]
    fn parse_rejects_bad_kind() {
        let e = parse("delirium t\nnode A widget cost=1\nend\n").unwrap_err();
        assert!(e.msg.contains("unknown node kind"));
    }

    #[test]
    fn comments_and_blank_lines_ok() {
        let text = "# header\ndelirium t\n\nnode A task cost=1\n# done\nend\n";
        let (_, g) = parse(text).unwrap();
        assert_eq!(g.nodes.len(), 1);
    }

    #[test]
    fn mixture_round_trips() {
        let mut g = DelirGraph::new();
        g.add_node(
            "M",
            NodeKind::Mixture {
                populations: vec![
                    Population { tasks: 10, mean_cost: 2.5, cv: 0.1 },
                    Population { tasks: 4, mean_cost: 9.0, cv: 1.0 },
                ],
            },
            None,
        );
        let text = print(&g, "m");
        assert!(text.contains("mix pops=10x2.5x0.1+4x9x1"));
        let (_, g2) = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn carried_arrow_round_trips() {
        let g = sample();
        let text = print(&g, "x");
        assert!(text.contains("=>"));
        let (_, g2) = parse(&text).unwrap();
        assert!(g2.edges.iter().any(|e| e.carried));
    }
}
