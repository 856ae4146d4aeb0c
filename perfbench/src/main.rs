//! Command-line entry point:
//! `oneperc-perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]`.
//!
//! Prints a `#`-prefixed report, then one JSON result line. Exits with 1
//! when any output check failed and with 2 on a usage error.

use std::process::ExitCode;

use oneperc_perfbench::{run, Options, Workload, DEFAULT_SEED};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::PaperSweep,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        perturb: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}\nusage: oneperc-perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]", names.join("|"));
            return ExitCode::from(2);
        }
    };
    let output = run(&options);
    print!("{}", output.report);
    println!("{}", output.result_line);
    if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
