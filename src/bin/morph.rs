//! `morph` — command-line experiment runner for the MorphCache
//! reproduction.
//!
//! ```text
//! morph list                                   # workloads and policies
//! morph run --mix 3 --policy morph --epochs 8  # one multiprogrammed run
//! morph run --parsec dedup --policy 4:4:1      # one multithreaded run
//! morph run --mix 1 --faults "pin=0@3"         # fault-injected run
//! morph run --mix 1 --validate-only            # check config, don't run
//! morph matrix --mix 5                         # all policies on one mix
//! morph matrix --mix 5 --retries 2 --run-dir j # ... journalled, with retries
//! morph figures fig13 sec24 --epochs 2         # the paper's figures
//! ```

use std::io::Write;
use std::path::Path;

use morph_system::experiment::{default_jobs, run_cells, MatrixCell};
use morph_system::prelude::*;
use morphcache_repro::figures::{Runs, FIGURES};

use morph_trace::{mixes, parsec, spec};

/// `print!` for results: a failed write to standard output ends `morph`
/// through [`stdout_failed`] instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) = write!(std::io::stdout(), $($arg)*) {
            stdout_failed(&e)
        }
    };
}

/// `println!` for results, ending `morph` like [`out!`] when standard
/// output fails.
macro_rules! outln {
    ($($arg:tt)*) => {
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            stdout_failed(&e)
        }
    };
}

/// Ends `morph` after a failed write to standard output. A reader that
/// has gone (`morph list | head -1`) got all it wanted, so a broken pipe
/// exits 0 without a word; any other failure is reported and exits 1.
fn stdout_failed(e: &std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: writing standard output: {e}");
    std::process::exit(1)
}

/// The policy set `matrix` sweeps over at `n` cores by default: every
/// static topology of `SymmetricTopology::static_set(n)` plus the
/// dynamic policies. At 16 cores this is the original 8-entry list
/// (`16:1:1, 1:1:16, 4:4:1, 8:2:1, 1:16:1, morph, pipp, dsr`).
fn matrix_policies(n: usize) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = SymmetricTopology::static_set(n)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|t| format!("{}:{}:{}", t.x, t.y, t.z))
        .collect();
    names.extend(["morph", "pipp", "dsr"].map(String::from));
    Ok(names)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("matrix") => cmd_matrix(&args[1..]),
        Some("figures") => cmd_figures(&args[1..]),
        _ => {
            eprintln!("usage: morph <list|run|matrix|figures> [options]");
            eprintln!("  morph list");
            eprintln!("  morph run --mix <1..12> | --parsec <name> | --apps a,b,c,...");
            eprintln!("            [--policy <x:y:z|morph|morph-qos|pipp|dsr>]");
            eprintln!("            [--epochs N] [--cycles N] [--seed N] [--cores N]");
            eprintln!("            [--faults <spec>] [--validate-only] [--sampling]");
            eprintln!("  morph matrix --mix <1..12> | --parsec <name> | --apps a,b,c,...");
            eprintln!("            [--epochs N] [--cycles N] [--seed N] [--cores N]");
            eprintln!("            [--policies p1,p2,...] [--jobs N] [--cell-timeout SECS]");
            eprintln!("            [--retries N] [--run-dir DIR | --resume DIR]");
            eprintln!("            [--chaos <spec>] [--chaos-verify]");
            eprintln!("  morph figures [ID ...] [--epochs N] [--cycles N] [--seed N] [--jobs N]");
            eprintln!();
            eprintln!("  --faults spec: semicolon-separated clauses, e.g.");
            eprintln!("      seed=42;acfv@1;drop=5000@2;pin=0@3;merge@4;split@5");
            eprintln!("  --cores N: power-of-two core count (16 default; 64/256/1024");
            eprintln!("      presets scale the default epoch length inversely so the");
            eprintln!("      full matrix stays tractable; --cycles overrides)");
            eprintln!("  --validate-only: check configuration, policy and fault spec,");
            eprintln!("      then exit without simulating");
            eprintln!("  --sampling: representative-interval sampling — simulate one");
            eprintln!("      epoch per detected phase, fast-forward the rest (epochs");
            eprintln!("      marked * in the output ran in full detail)");
            eprintln!("  --jobs N: worker threads for matrix/figures (default: host");
            eprintln!("      parallelism); results are bit-identical for any N");
            eprintln!("  --policies p1,p2,...: matrix cells (default: the static topologies");
            eprintln!("      of --cores, morph, pipp, dsr); rows compare to the first cell,");
            eprintln!("      and two or more statics add a row for the ideal offline scheme");
            eprintln!("      (each epoch on its best static topology)");
            eprintln!("  --cell-timeout SECS: deadline per cell attempt");
            eprintln!("  --retries N: retry a failed cell up to N times with");
            eprintln!("      deterministic backoff before marking it degraded (default 2)");
            eprintln!("  --run-dir DIR: journal completed cells to DIR as they finish;");
            eprintln!("      --resume DIR reloads the journal DIR must already hold and");
            eprintln!("      skips its bit-identical cached cells");
            eprintln!("  --chaos spec: injected execution faults, e.g.");
            eprintln!("      panic=0@0;stall=2:30.0@0;kill=3");
            eprintln!("  --chaos-verify: run the chaos matrix (resuming across injected");
            eprintln!("      kills), then check results are bit-identical to a clean run");
            eprintln!();
            eprintln!("  figures IDs (none: all, in this order; fig05 and table04 use");
            eprintln!("      fixed configurations): {}", figure_ids());
            eprintln!();
            eprintln!("  matrix exit codes: 0 all cells completed, 1 degraded cells,");
            eprintln!("      130 interrupted (SIGINT or injected kill; resume to finish)");
            2
        }
    };
    std::process::exit(code);
}

fn cmd_list() -> i32 {
    outln!("multiprogrammed mixes (Table 5):");
    for m in mixes::all_mixes() {
        let names: Vec<&str> = m.benchmarks.iter().map(|b| b.name).collect();
        outln!("  {}  {:?}  {}", m.name(), m.composition, names.join(","));
    }
    outln!("\nSPEC CPU 2006 benchmarks (Table 4):");
    let names: Vec<&str> = spec::SPEC_PROFILES.iter().map(|p| p.name).collect();
    outln!("  {}", names.join(", "));
    outln!("\nPARSEC benchmarks (Table 4):");
    let names: Vec<&str> = parsec::PARSEC_PROFILES.iter().map(|p| p.name).collect();
    outln!("  {}", names.join(", "));
    outln!("\npolicies: <x:y:z> (e.g. 16:1:1, 4:4:1), morph, morph-qos, pipp, dsr");
    0
}

struct Opts {
    workload: Option<Workload>,
    policy: String,
    epochs: usize,
    cycles: Option<u64>,
    seed: u64,
    cores: usize,
    faults: Option<String>,
    validate_only: bool,
    sampling: bool,
    jobs: Option<usize>,
    policies: Option<Vec<String>>,
    cell_timeout: Option<f64>,
    retries: u32,
    run_dir: Option<String>,
    /// The journal at `run_dir` must exist (`--resume`, not `--run-dir`).
    resume: bool,
    chaos: Option<String>,
    chaos_verify: bool,
}

/// The options `run` reads.
const RUN_OPTIONS: &[&str] = &[
    "--mix",
    "--parsec",
    "--apps",
    "--policy",
    "--epochs",
    "--cycles",
    "--seed",
    "--cores",
    "--faults",
    "--validate-only",
    "--sampling",
];

/// The options `matrix` reads.
const MATRIX_OPTIONS: &[&str] = &[
    "--mix",
    "--parsec",
    "--apps",
    "--epochs",
    "--cycles",
    "--seed",
    "--cores",
    "--jobs",
    "--policies",
    "--cell-timeout",
    "--retries",
    "--run-dir",
    "--resume",
    "--chaos",
    "--chaos-verify",
];

/// The options `figures` reads.
const FIGURES_OPTIONS: &[&str] = &["--epochs", "--cycles", "--seed", "--jobs"];

/// Parses `command`'s arguments: the options it `takes`, and the
/// positional arguments in order. Any other option is an error naming
/// `command`, so no option is silently ignored.
fn parse_opts(
    command: &str,
    takes: &[&str],
    args: &[String],
) -> Result<(Opts, Vec<String>), String> {
    let mut o = Opts {
        workload: None,
        policy: "morph".into(),
        epochs: 6,
        cycles: None,
        seed: 0xC0FFEE,
        cores: 16,
        faults: None,
        validate_only: false,
        sampling: false,
        jobs: None,
        policies: None,
        cell_timeout: None,
        retries: 2,
        run_dir: None,
        resume: false,
        chaos: None,
        chaos_verify: false,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            positional.push(a.clone());
            continue;
        }
        if !takes.contains(&a.as_str()) {
            return Err(format!(
                "{command} takes only {}, not {a}",
                takes.join(", ")
            ));
        }
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--mix" => {
                let id: usize = val("--mix")?.parse().map_err(|e| format!("--mix: {e}"))?;
                o.workload = Some(Workload::mix(id)?);
            }
            "--parsec" => o.workload = Some(Workload::parsec(&val("--parsec")?)?),
            "--apps" => {
                let list = val("--apps")?;
                let names: Vec<&str> = list.split(',').collect();
                o.workload = Some(Workload::named_apps(&names)?);
            }
            "--policy" => o.policy = val("--policy")?,
            "--epochs" => o.epochs = val("--epochs")?.parse().map_err(|e| format!("{e}"))?,
            "--cycles" => o.cycles = Some(val("--cycles")?.parse().map_err(|e| format!("{e}"))?),
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--cores" => o.cores = val("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--faults" => o.faults = Some(val("--faults")?),
            "--validate-only" => o.validate_only = true,
            "--sampling" => o.sampling = true,
            "--jobs" => {
                let n: usize = val("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                o.jobs = Some(n);
            }
            "--policies" => {
                let list = val("--policies")?;
                let names: Vec<String> = list.split(',').map(str::to_string).collect();
                if names.iter().any(String::is_empty) {
                    return Err("--policies: empty policy name in list".into());
                }
                o.policies = Some(names);
            }
            "--cell-timeout" => {
                let secs: f64 = val("--cell-timeout")?
                    .parse()
                    .map_err(|e| format!("--cell-timeout: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--cell-timeout must be a positive number of seconds".into());
                }
                o.cell_timeout = Some(secs);
            }
            "--retries" => {
                o.retries = val("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--run-dir" | "--resume" => {
                o.run_dir = Some(val(a)?);
                o.resume = a == "--resume";
            }
            "--chaos" => o.chaos = Some(val("--chaos")?),
            "--chaos-verify" => o.chaos_verify = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok((o, positional))
}

/// [`parse_opts`] for the subcommands that simulate one workload and
/// take no positional argument.
fn parse_workload_opts(
    command: &str,
    takes: &[&str],
    args: &[String],
) -> Result<(Opts, Workload), String> {
    let (o, positional) = parse_opts(command, takes, args)?;
    if let Some(arg) = positional.first() {
        return Err(format!("{command} takes no argument {arg}"));
    }
    let w = o
        .workload
        .clone()
        .ok_or("one of --mix / --parsec / --apps is required")?;
    Ok((o, w))
}

fn config(o: &Opts) -> SystemConfig {
    // The preset scales the default epoch length inversely with the core
    // count (1.5 M cycles at 16 cores, the historical CLI default); an
    // explicit --cycles always wins.
    let mut cfg = SystemConfig::preset(o.cores)
        .with_seed(o.seed)
        .with_epochs(o.epochs);
    if let Some(cycles) = o.cycles {
        cfg.epoch_cycles = cycles;
    }
    cfg
}

fn policy(name: &str, cfg: &SystemConfig) -> Result<Policy, String> {
    Ok(match name {
        "morph" => Policy::morph(cfg),
        "morph-qos" => Policy::morph_qos(cfg),
        "pipp" => Policy::Pipp,
        "dsr" => Policy::Dsr,
        topo => Policy::Static(
            SymmetricTopology::parse(topo, cfg.n_cores()).map_err(|e| e.to_string())?,
        ),
    })
}

fn parse_faults(o: &Opts, cfg: &SystemConfig) -> Result<Option<FaultPlan>, MorphError> {
    match &o.faults {
        None => Ok(None),
        Some(spec) => {
            let plan = FaultPlan::parse(spec)?;
            plan.validate(cfg.n_cores())?;
            Ok(Some(plan))
        }
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let (o, w) = match parse_workload_opts("run", RUN_OPTIONS, args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let cfg = config(&o);
    let p = match policy(&o.policy, &cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let plan = match parse_faults(&o, &cfg) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    // Constructing the simulator exercises config validation,
    // topology/policy fit, and the fault spec; `--validate-only` stops
    // there.
    let sim = SystemSim::new(cfg, &w, &p).and_then(|s| match plan {
        Some(plan) => s.with_faults(Box::new(plan)),
        None => Ok(s),
    });
    let mut sim = match sim {
        Ok(sim) => sim,
        Err(e) => {
            let what = if o.validate_only {
                "invalid configuration"
            } else {
                "run failed"
            };
            eprintln!("{what}: {e}");
            return 1;
        }
    };
    if o.validate_only {
        outln!(
            "configuration OK: {} cores, {} epochs x {} cycles, policy {}",
            cfg.n_cores(),
            cfg.n_epochs,
            cfg.epoch_cycles,
            p.name()
        );
        return 0;
    }
    if o.sampling {
        return run_sampling(&mut sim, &w, &p);
    }
    let r = match sim.run() {
        Ok(epochs) => RunResult {
            policy_name: p.name(),
            workload_name: w.name(),
            epochs,
        },
        Err(e) => {
            eprintln!("run failed: {e}");
            return 1;
        }
    };
    outln!("{} under {}:", r.workload_name, r.policy_name);
    for e in &r.epochs {
        outln!(
            "  epoch {:>2}: throughput {:.3}  events {}  L2 {}  L3 {}",
            e.epoch,
            e.throughput(),
            e.reconfig_events,
            e.l2_grouping,
            e.l3_grouping
        );
    }
    outln!(
        "mean throughput {:.3}; {} reconfigurations, {:.0}% asymmetric",
        r.mean_throughput(),
        r.total_reconfigs(),
        r.asymmetric_fraction() * 100.0
    );
    0
}

fn run_sampling(sim: &mut SystemSim, w: &Workload, p: &Policy) -> i32 {
    let r = match run_sampled(sim, &SamplingConfig::default()) {
        Ok(r) => r,
        // The sampler refuses fault injection (skipped epochs would bypass
        // the injector): surface the library's typed conflict as a usage
        // error, not a runtime failure.
        Err(e @ MorphError::FeatureConflict { .. }) => {
            eprintln!("error: {e}");
            return 2;
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            return 1;
        }
    };
    outln!("{} under {} (sampled):", w.name(), p.name());
    for (e, &detailed) in r.epochs.iter().zip(&r.simulated) {
        outln!(
            "  epoch {:>2}{} throughput {:.3}  L2 {}  L3 {}",
            e.epoch,
            if detailed { "*" } else { " " },
            e.throughput(),
            e.l2_grouping,
            e.l3_grouping
        );
    }
    outln!(
        "{} phases; {}/{} epochs simulated in detail; mean throughput {:.3}",
        r.phases,
        r.simulated_epochs(),
        r.epochs.len(),
        r.mean_throughput()
    );
    if let Some(x) = r.extrapolated {
        outln!(
            "extrapolated miss rates: L1 {:.3}  L2 {:.3}  L3 {:.3}",
            x[0].miss_rate(),
            x[1].miss_rate(),
            x[2].miss_rate()
        );
    }
    0
}

/// One matrix cell per policy name, all on the same workload and seed.
fn build_cells(
    names: &[String],
    w: &Workload,
    cfg: &SystemConfig,
) -> Result<Vec<MatrixCell>, String> {
    names
        .iter()
        .map(|n| Ok(MatrixCell::new(w.clone(), policy(n, cfg)?, cfg.seed)))
        .collect()
}

fn cmd_matrix(args: &[String]) -> i32 {
    let (o, w) = match parse_workload_opts("matrix", MATRIX_OPTIONS, args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let cfg = config(&o);
    let names = match o.policies.clone() {
        Some(names) => names,
        None => match matrix_policies(cfg.n_cores()) {
            Ok(names) => names,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        },
    };
    let cells = match build_cells(&names, &w, &cfg) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let chaos = match &o.chaos {
        None => None,
        Some(spec) => match ChaosPlan::parse(spec).and_then(|p| {
            p.validate(cells.len())?;
            Ok(p)
        }) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        },
    };
    let options = SuperviseOptions {
        jobs: o.jobs.unwrap_or_else(default_jobs),
        cell_timeout_seconds: o.cell_timeout,
        retries: o.retries,
    };
    // The journal opens before any cell runs, so `--resume` on a
    // directory without one fails here and creates nothing.
    let journal = o.run_dir.as_deref().map(|dir| {
        let open = if o.resume {
            RunJournal::resume
        } else {
            RunJournal::open
        };
        open(Path::new(dir), &cfg, &cells)
    });
    let journal = match journal.transpose() {
        Ok(journal) => journal,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if o.chaos_verify {
        return chaos_verify(&cfg, &cells, &names, chaos, &options, o.run_dir.as_deref());
    }
    let mut sup = Supervisor::new(options).with_shutdown(ShutdownFlag::with_sigint());
    if let (Some(journal), Some(dir)) = (journal, &o.run_dir) {
        if journal.cached_cells() > 0 {
            outln!(
                "resuming from {dir}: {} of {} cells cached",
                journal.cached_cells(),
                cells.len()
            );
        }
        sup = sup.with_journal(journal);
    }
    if let Some(plan) = &chaos {
        sup = sup.with_chaos(plan);
    }
    let m = match sup.run(&cfg, &cells) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("matrix failed: {e}");
            return 2;
        }
    };
    print_supervised(&cells, &names, &m);
    if m.was_interrupted() {
        if o.run_dir.is_some() {
            eprintln!("interrupted: re-run with --resume to finish the remaining cells");
        } else {
            eprintln!("interrupted: partial results were not journalled (no --run-dir)");
        }
        130
    } else if m.is_complete() {
        0
    } else {
        1
    }
}

/// The figure IDs, space-separated, in run order.
fn figure_ids() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    ids.join(" ")
}

/// `morph figures [ID ...]`: prints the named figures (all of them when
/// none is named) at the run length, seed and worker count of the
/// shared options, which default to `run`'s. The figures share one run
/// table, so a cell two figures need is simulated once.
fn cmd_figures(args: &[String]) -> i32 {
    let (o, ids) = match parse_opts("figures", FIGURES_OPTIONS, args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut figures = Vec::new();
    for id in &ids {
        match FIGURES.iter().find(|(name, _)| name == id) {
            Some(figure) => figures.push(figure),
            None => {
                eprintln!(
                    "error: unknown figure {id}; expected one of {}",
                    figure_ids()
                );
                return 2;
            }
        }
    }
    if figures.is_empty() {
        figures = FIGURES.iter().collect();
    }
    let cfg = config(&o);
    let mut runs = Runs::new(o.jobs.unwrap_or_else(default_jobs));
    for (id, figure) in figures {
        match figure(&cfg, &mut runs) {
            Ok(report) => out!("{report}"),
            Err(e) => {
                eprintln!("figure {id} failed: {e}");
                return 1;
            }
        }
    }
    0
}

/// Prints one row per cell — its throughput also relative to the first
/// cell's, when that cell has a result — then, when two or more static
/// cells have results, the ideal offline scheme composed from them, and
/// last the status summary and [`MatrixTiming`].
fn print_supervised(cells: &[MatrixCell], names: &[String], m: &SupervisedMatrix) {
    let base = m.results.first().and_then(Option::as_ref);
    for (i, (report, result)) in m.reports.iter().zip(&m.results).enumerate() {
        let throughput = match (result, base) {
            (Some(r), Some(b)) => format!(
                "throughput {:.3}  ({:.3}x baseline)",
                r.mean_throughput(),
                r.mean_throughput() / b.mean_throughput()
            ),
            (Some(r), None) => format!("throughput {:.3}", r.mean_throughput()),
            (None, _) => match report.failures.first() {
                Some(f) => format!("no result ({f})"),
                None => "no result".to_string(),
            },
        };
        outln!(
            "  {:<12} {:<11} {}  [{:.2}s, {} retries]",
            names.get(i).map_or("?", String::as_str),
            report.status.label(),
            throughput,
            report.seconds,
            report.retries
        );
    }
    let statics: Vec<&RunResult> = cells
        .iter()
        .zip(&m.results)
        .filter(|(cell, _)| matches!(cell.policy, Policy::Static(_)))
        .filter_map(|(_, result)| result.as_ref())
        .collect();
    if statics.len() >= 2 {
        let ideal = ideal_offline_throughput(&statics);
        let ratio = base.map_or(String::new(), |b| {
            format!("  ({:.3}x baseline)", ideal / b.mean_throughput())
        });
        outln!(
            "  {:<24} throughput {ideal:.3}{ratio}  [best of {} statics per epoch]",
            "ideal offline",
            statics.len()
        );
    }
    let t = &m.timing;
    outln!(
        "{} in {:.2}s with {} jobs ({:.2} cells/s, {:.2}x vs serial)",
        m.summary(),
        t.wall_seconds,
        m.jobs,
        t.cells_per_sec(),
        t.parallel_speedup()
    );
}

/// `--chaos-verify`: run the matrix under the chaos schedule — resuming
/// across injected kills via a journal — and check the final results are
/// bit-identical to an unfaulted serial run of the same cells.
fn chaos_verify(
    cfg: &SystemConfig,
    cells: &[MatrixCell],
    names: &[String],
    chaos: Option<ChaosPlan>,
    options: &SuperviseOptions,
    run_dir: Option<&str>,
) -> i32 {
    let chaos = match chaos {
        Some(plan) => plan,
        None => {
            eprintln!("error: --chaos-verify needs a --chaos spec to verify against");
            return 2;
        }
    };
    let dir = match run_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            // Injected kills need a journal to resume from; give the
            // verification run a scratch one keyed by pid.
            std::env::temp_dir().join(format!("morph-chaos-verify-{}", std::process::id()))
        }
    };
    outln!(
        "chaos-verify: golden serial run of {} cells...",
        cells.len()
    );
    let golden = match run_cells(cfg, cells, 1) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("golden run failed: {e}");
            return 1;
        }
    };
    let mut rounds = 0usize;
    let faulted = loop {
        rounds += 1;
        let journal = match RunJournal::open(&dir, cfg, cells) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let sup = Supervisor::new(options.clone())
            .with_journal(journal)
            .with_chaos(&chaos);
        let m = match sup.run(cfg, cells) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("matrix failed: {e}");
                return 2;
            }
        };
        print_supervised(cells, names, &m);
        if m.was_interrupted() {
            outln!("chaos round {rounds} interrupted; resuming from the journal...");
            continue;
        }
        break m;
    };
    if run_dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if !faulted.is_complete() {
        eprintln!("chaos-verify FAILED: matrix degraded after {rounds} round(s)");
        return 1;
    }
    let mismatches: Vec<usize> = golden
        .results
        .iter()
        .zip(&faulted.results)
        .enumerate()
        .filter(|(_, (g, f))| f.as_ref() != Some(g))
        .map(|(i, _)| i)
        .collect();
    if mismatches.is_empty() {
        outln!(
            "chaos-verify OK: {} cells bit-identical to the golden run after {rounds} round(s)",
            cells.len()
        );
        0
    } else {
        eprintln!("chaos-verify FAILED: cells {mismatches:?} differ from the golden run");
        1
    }
}
