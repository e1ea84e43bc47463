//! `navbench --workload <browse|author> --seed <n>
//! --seconds <n> --trace <0|1>`: runs one workload and prints every metric
//! by name with its unit, then one JSON line. Exits 1 when a correctness
//! check failed, 2 on bad arguments.

use navbench::{run, Config, Workload};
use std::process::ExitCode;

/// The parsed command line: the run, and `--part` when this process is one
/// part of a split run.
fn parse(args: &[String]) -> Result<(Config, Option<usize>), String> {
    let mut part = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| format!("no workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--part" => part = Some(value.parse().map_err(|_| format!("bad part {value:?}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let config = Config::new(
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(1),
        seconds.unwrap_or(15),
        trace.unwrap_or(false),
    );
    Ok((config, part))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, part) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("navbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(part) = part {
        print!("{}", navbench::samples::run_part(&config, part));
        return ExitCode::SUCCESS;
    }
    let report = run(&config);
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
