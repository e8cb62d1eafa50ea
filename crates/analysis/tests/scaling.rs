//! `analyze_program` is (near-)linear in program size: four times the
//! loops may cost at most eight times the time. Path-assertion
//! propagation used to re-prove every block's whole conjunction on
//! every edge, which made this ratio about 50.

#[path = "../../../tests/common/programs.rs"]
mod programs;

use orchestra_analysis::analyze_program;
use orchestra_lang::parse_program;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn best_of_5(loops: usize) -> Duration {
    let prog = parse_program(&programs::seq_loops_source(loops)).expect("generated source parses");
    let time_once = || {
        let start = Instant::now();
        black_box(analyze_program(black_box(&prog)));
        start.elapsed()
    };
    (0..5).map(|_| time_once()).min().expect("five runs")
}

#[test]
fn four_times_the_loops_cost_at_most_eight_times_the_time() {
    let (small, large) = (best_of_5(30), best_of_5(120));
    assert!(
        large <= small * 8,
        "analyze_program: 30 loops {small:?}, 120 loops {large:?} ({:.1}x, linear is 4x)",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
