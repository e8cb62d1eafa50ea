//! Dead code elimination driven by the symbolic analysis: the
//! optimization §3.1 says the analysis "improves".
//!
//! ```sh
//! cargo run --release --example optimizations
//! ```

use orchestra_analysis::dce::eliminate_dead_code;
use orchestra_lang::parse_program;
use orchestra_lang::pretty::pretty_print;

fn main() {
    println!("==== dead code elimination ====\n");
    let src = r#"
program dce
  integer n = 8, unused, temp
  float x[1..n], y[1..n]
  unused = 999
  temp = 3
  do i = 1, n { x[i] = i * 1.0 }
  if (n > 100) {
    do i = 1, n { y[i] = 0.0 }
  } else {
    do i = 1, n { y[i] = x[i] + temp }
  }
end
"#;
    let p = parse_program(src).unwrap();
    let (cleaned, stats) = eliminate_dead_code(&p);
    println!(
        "removed {} assignments, {} loops, folded {} branches:",
        stats.assignments_removed, stats.loops_removed, stats.branches_folded
    );
    println!("{}", pretty_print(&cleaned));
}
