//! `--aa N`: the benchmark checks itself. Two interleaved sets of `N`
//! runs of the same code must agree within the bounds the benchmark
//! sets, by the estimator the driver uses.

use crate::harness::RunArgs;
use crate::metrics::END_TO_END;
use crate::stats::quartiles_exclusive;
use std::process::Command;

/// Reads `"name": {"value": <number>` out of a result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let number = rest.split("\"value\": ").nth(1)?;
    number[..number.find([',', '}'])?].trim().parse().ok()
}

/// One child run; returns its result line.
fn child_run(args: &RunArgs, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    // `output` waits for the child to end.
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "run with seed {seed} failed: {line} {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

/// Runs sets A and B interleaved, `runs` each, run `i` of either set on
/// seed `args.seed + i`, and prints the table. `Ok(true)` when, for
/// every end-to-end metric, B's median is not worse than A's by more
/// than the bound and each set's quartile spread stays within it.
pub fn self_check(args: &RunArgs, runs: usize) -> Result<bool, String> {
    let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for i in 0..runs {
        for (set, label) in sets.iter_mut().zip(["A", "B"]) {
            set.push(child_run(args, args.seed + i as u64)?);
            eprintln!("# {} set {label} run {}/{runs}", args.workload, i + 1);
        }
    }
    println!("| workload | metric | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | B worse by | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut pass = true;
    for (name, _, lower_better, bound) in END_TO_END {
        let quartiles = |set: &Vec<String>| -> Result<[f64; 3], String> {
            let values: Vec<f64> = set.iter().filter_map(|l| value_of(l, name)).collect();
            quartiles_exclusive(&values).filter(|_| values.len() == runs).ok_or_else(|| {
                format!("`{name}` missing from a result line (or fewer than 2 runs)")
            })
        };
        let (a, b) = (quartiles(&sets[0])?, quartiles(&sets[1])?);
        let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
        let worse = if lower_better { b[1] / a[1] - 1.0 } else { 1.0 - b[1] / a[1] };
        let ok = worse <= bound && spread(a) <= bound && spread(b) <= bound;
        pass &= ok;
        println!(
            "| {} | {name} | {:.4} / {:.4} / {:.4} | {:.4} / {:.4} / {:.4} | {:.2}% | {:.2}% | {:+.2}% | {:.0}%{} |",
            args.workload, a[0], a[1], a[2], b[0], b[1], b[2],
            spread(a) * 100.0, spread(b) * 100.0, worse * 100.0, bound * 100.0,
            if ok { "" } else { " EXCEEDED" }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"op_ms_p50\": \
                    {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2e-1, \"unit\": \"s\"}}}";
        assert_eq!(value_of(line, "op_ms_p50"), Some(1.25));
        assert_eq!(value_of(line, "setup_s"), Some(0.2));
        assert_eq!(value_of(line, "ops_per_s"), None);
    }
}
