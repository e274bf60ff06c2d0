//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the directory the repository is checked out
//! in, prints each metric with its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

use perfbench::plan::Plan;
use perfbench::{run, Options, USAGE, WORK_DIR};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts, &Plan::standard(), Path::new(WORK_DIR)) {
        Ok(outcome) => {
            print!("{}", outcome.human());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
