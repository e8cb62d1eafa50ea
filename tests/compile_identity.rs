//! Output identity of the compiler: what `compile` emits and what
//! `analyze_program` annotates are pinned against
//! `tests/golden/compile_identity.txt`, recorded before path-assertion
//! propagation became incremental. A block assertion is compared in a
//! canonical form (atoms and clauses sorted and deduped), so dropping a
//! repeated atom is the only freedom the analysis has.

mod common;

use common::programs::seq_loops_source;
use orchestra_analysis::Assertion;
use orchestra_apps::{climate, emu, psirrfan, vortex};
use orchestra_core::{compile, graph_of_compiled};
use orchestra_lang::ast::Program;
use orchestra_lang::builder::figure1_program;
use orchestra_lang::{parse_program, pretty_print};
use orchestra_split::SplitOptions;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/compile_identity.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `Display` of an assertion with atoms and clauses sorted and deduped.
/// Atoms are linear expressions, so they hold no parenthesis and no
/// `and`/`or`.
fn canonical(a: &Assertion) -> String {
    let text = a.to_string();
    if !text.starts_with('(') {
        return text;
    }
    let mut clauses: Vec<String> = text[1..text.len() - 1]
        .split(") or (")
        .map(|clause| {
            let mut atoms: Vec<&str> = clause.split(" and ").collect();
            atoms.sort_unstable();
            atoms.dedup();
            format!("({})", atoms.join(" and "))
        })
        .collect();
    clauses.sort_unstable();
    clauses.dedup();
    clauses.join(" or ")
}

fn record(name: &str, prog: Program, out: &mut String) {
    let c = compile(prog, &SplitOptions::default());
    let (graph, _) = graph_of_compiled(&c);
    writeln!(out, "== {name}").unwrap();
    writeln!(out, "transformed {:016x}", fnv1a(pretty_print(&c.transformed).as_bytes())).unwrap();
    writeln!(out, "delirium {:016x}", fnv1a(orchestra_delirium::print(&graph, "g").as_bytes()))
        .unwrap();
    let prop = &c.analysis.prop;
    let mut values: Vec<String> = prop.values.iter().map(|(n, v)| format!("{n} = {v}")).collect();
    values.sort_unstable();
    let mut ranges: Vec<String> =
        prop.loop_ranges.iter().map(|(n, r)| format!("{n} in {r}")).collect();
    ranges.sort_unstable();
    for line in values {
        writeln!(out, "value {line}").unwrap();
    }
    for line in ranges {
        writeln!(out, "range {line}").unwrap();
    }
    for (b, a) in prop.assertions.iter().enumerate() {
        writeln!(out, "block {b}: {}", canonical(a)).unwrap();
    }
}

#[test]
fn compiler_output_matches_the_recorded_golden() {
    let mut actual = String::new();
    record("psirrfan", psirrfan::kernel(), &mut actual);
    record("climate", climate::kernel(), &mut actual);
    record("emu", emu::kernel(), &mut actual);
    record("vortex", vortex::kernel(), &mut actual);
    record("figure1", figure1_program(24), &mut actual);
    for loops in [3, 10, 30] {
        let prog = parse_program(&seq_loops_source(loops)).expect("generated source parses");
        record(&format!("seq_{loops}"), prog, &mut actual);
    }
    if actual != GOLDEN {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/compile_identity.actual.txt");
        std::fs::write(path, &actual).expect("write the actual output");
        let line = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        panic!(
            "compiler output differs from tests/golden/compile_identity.txt at line {:?}; \
             the actual output is in {path}",
            line.map(|l| l + 1)
        );
    }
}

#[test]
fn canonical_form_sorts_and_dedups() {
    use orchestra_analysis::{Ineq, SymExpr};
    let atom = |n: &str| Assertion::atom(Ineq::le(&SymExpr::name(n), &SymExpr::constant(0)));
    let (a, b) = (atom("a"), atom("b"));
    assert_eq!(canonical(&b.and(&a)), "(a <= 0 and b <= 0)");
    assert_eq!(canonical(&b.or(&a)), "(a <= 0) or (b <= 0)");
    assert_eq!(canonical(&Assertion::truth()), "true");
    assert_eq!(canonical(&Assertion::falsity()), "false");
}
