//! MF sources whose size is a parameter, for the compile-time suites.
//! Only `std`: `crates/analysis/tests/scaling.rs` includes this file
//! by path.

/// A reference loop `A` (Figure 1's masked column update) followed by
/// `loops - 1` labelled loops in sequence that cycle Bound (reads what
/// `A` writes), Linked (reads the latest Bound loop's output) and Free
/// (touches arrays nothing else does) — the shape of the benchmark's
/// generated `compile` sources, with fixed coefficients.
pub fn seq_loops_source(loops: usize) -> String {
    assert!(loops >= 2, "a program needs the reference loop and one more");
    let mut decls = String::new();
    let mut body = String::from(
        "  A: do col = 1, n where (mask[col] <> 0) {\n    do i = 1, n {\n      result[i] = q[col, i] * 0.5 + q[i, i]\n    }\n    do i = 1, n {\n      q[i, col] = result[i]\n    }\n  }\n",
    );
    let mut last_bound = String::new();
    for k in 0..loops - 1 {
        let out = format!("w{k}");
        decls.push_str(&format!("  float {out}[1..n, 1..n]\n"));
        let c = 0.25 * (1 + k % 15) as f64;
        let rhs = match k % 3 {
            0 => {
                last_bound = out.clone();
                format!("f(q[j, i]) * {c:?}")
            }
            1 => format!("{last_bound}[j, i] + {c:?}"),
            _ => {
                decls.push_str(&format!("  float u{k}[1..n, 1..n]\n"));
                format!("g(u{k}[j, i]) * {c:?} + i")
            }
        };
        body.push_str(&format!(
            "  L{k}: do i = 1, n {{\n    do j = 1, n {{\n      {out}[j, i] = {rhs}\n    }}\n  }}\n"
        ));
    }
    format!(
        "program seq_{loops}\n  integer n = 8\n  integer mask[1..n]\n  float q[1..n, 1..n], result[1..n]\n{decls}{body}end\n"
    )
}
