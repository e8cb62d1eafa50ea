//! The repo's benchmark: one command runs one workload, checks every
//! output against a reference the system under test did not produce,
//! prints every metric by name with its unit, and ends with the result
//! line `/BENCHMARK.json` promises. See `README.md`.

mod aa;
mod compile;
mod exec;
mod gen;
mod harness;
mod host;
mod metrics;
mod serve;
mod spec;
mod stats;
mod sut;
mod trace;

use harness::{run, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Where a run may write: trace files, snapshot directories, sockets.
/// Inside the benchmark's own directory, wherever the checkout is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

const USAGE: &str =
    "usage: orchestra-benchmark --workload <compile|exec_fine|exec_apps|serve_mix> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>] [--aa <runs per set>]";

/// The parsed command line; `aa` > 0 selects the self-check mode.
struct Cli {
    run: RunArgs,
    aa: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs { workload: String::new(), seed: 1, seconds: spec::CAP_SECONDS, trace: false },
        aa: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value.parse::<u64>().map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => cli.run.workload = value.clone(),
            "--seed" => cli.run.seed = number()?,
            "--seconds" => cli.run.seconds = number()?,
            "--trace" => cli.run.trace = number()? != 0,
            "--aa" => cli.aa = number()? as usize,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !metrics::WORKLOADS.contains(&cli.run.workload.as_str()) {
        return Err(format!("unknown workload `{}`", cli.run.workload));
    }
    if !(1..=60).contains(&cli.run.seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    Ok(cli)
}

fn dispatch(args: &RunArgs, started: Instant) -> Result<metrics::Report, String> {
    // Sockets get relative paths (their addresses are short), so every
    // run works from `out/`.
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out/: {e}"))?;
    std::env::set_current_dir(out_dir()).map_err(|e| format!("cannot enter out/: {e}"))?;
    match args.workload.as_str() {
        "compile" => run::<compile::Compile>(args, started),
        "exec_fine" => run::<exec::Fine>(args, started),
        "exec_apps" => run::<exec::Apps>(args, started),
        _ => run::<serve::ServeMix>(args, started),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.aa > 0 {
        return match aa::self_check(&cli.run, cli.aa) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("self-check failed to run: {e}");
                ExitCode::from(2)
            }
        };
    }
    match dispatch(&cli.run, started) {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", cli.run.workload);
            ExitCode::FAILURE
        }
    }
}
