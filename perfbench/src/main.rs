//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics without tracing, the per-layer metrics with it.  A traced run
//! also writes `out/<workload>.json` beside this crate and prints the layer
//! table over every workload traced so far.  Progress goes to stderr.

use perfbench::report::{self, Machine};
use perfbench::workloads::{self, Options, Outcome, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper_sweep|crowd_10k|city_127> \
                     [--seed <n>] [--seconds <s>] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: need a positive number"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: need 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or_else(|| workload.default_seed());
    Ok((
        workload,
        Options {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::probe();
    println!("machine: {}", machine.to_json().to_compact_string());
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );

    // A panicking run fails every point it was checking.
    let outcome = catch_unwind(AssertUnwindSafe(|| workloads::run(workload, &opts)))
        .unwrap_or_else(|_| {
            let points = workload.points(opts.seed).len() as u64;
            Outcome {
                attempted: points,
                failed: points,
                metrics: Vec::new(),
                layer_row: Vec::new(),
            }
        });
    report::print_metrics(&report::listed_metrics(&outcome, opts.trace));

    if opts.trace {
        let dir = report::out_dir();
        match report::write_side_file(&dir, workload, opts.seed, &machine, &outcome) {
            Ok(path) => eprintln!("perfbench: per-layer numbers in {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write the per-layer side file: {e}"),
        }
        println!("{}", report::layer_table(&dir, &machine));
    }
    println!("{}", report::result_line(&outcome, opts.trace));
    ExitCode::SUCCESS
}
