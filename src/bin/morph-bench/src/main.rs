//! `morph-bench` — the repository benchmark: simulator speed on four
//! pinned 16-core workloads, end to end and layer by layer.
//!
//! ```text
//! morph-bench measure [--workload NAME]... [--seed N] [--seconds S]
//!                     [--trace 0|1] [--out FILE]
//! morph-bench compare A.json B.json
//! ```
//!
//! `measure` runs each selected workload (default: all four) in fresh
//! child processes, one at a time, each run on its own workload seed
//! derived from `--seed`, for at least five runs and until `--seconds`
//! per workload (default 30) are used; with several workloads it
//! interleaves them within each round. It prints every
//! metric by name with its unit, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` makes
//! only the untraced runs (end-to-end metrics), `--trace 1` only traced
//! runs (per-layer metrics); without `--trace` it makes the untraced
//! rounds and then one traced run per workload. `--out` writes every
//! sample as a report `compare` reads.
//!
//! `compare` prints, per workload and metric, the median change of B
//! against A next to the metric's bound, and exits 1 on a regression or
//! on a changed simulated statistic.
//!
//! Exit codes: 0 ok, 1 failed or incorrect runs / regression, 2 usage.

mod measure;
mod probe;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use measure::{Mode, Options};
use workloads::{Pinned, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  morph-bench measure [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  morph-bench compare A.json B.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("measure") => parse_measure(&args[1..]).map(|o| i32::from(!measure::measure(&o))),
        Some("compare") => cmd_compare(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        _ => Err(String::new()),
    };
    std::process::exit(match code {
        Ok(code) => code,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            2
        }
    });
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("--seed {s}: {e}"))
}

fn parse_workload(name: &str) -> Result<&'static Pinned, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })
}

fn parse_measure(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        mode: Mode::Both,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workloads.push(parse_workload(value()?)?),
            "--seed" => opts.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {v}: not a non-negative number"))?;
            }
            "--trace" => {
                opts.mode = match value()?.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    v => return Err(format!("--trace {v}: want 0 or 1")),
                }
            }
            "--out" => opts.out = Some(value()?.clone()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().collect();
    }
    Ok(opts)
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare needs two report files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| report::Report::from_json(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    Ok(i32::from(report::compare(&a, &b)))
}

/// One run in this process (the child side of `measure`).
fn cmd_child(args: &[String]) -> Result<i32, String> {
    let (mut workload, mut seed, mut traced) = (None, DEFAULT_SEED, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(parse_workload(value()?)?),
            "--seed" => seed = parse_seed(value()?)?,
            "--traced" => traced = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    let w = workload.ok_or("child needs --workload")?;
    match measure::child(w, seed, traced) {
        Ok(line) => {
            println!("{line}");
            Ok(0)
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            Ok(1)
        }
    }
}
