//! The paper's evaluation, regenerated: one generator per table, figure
//! or section, each returning the report `morph figures <ID>` prints — a
//! banner, the rows the paper reports (normalized the same way) and the
//! paper's own values for comparison.
//!
//! Every generator but two takes its run length and seed from the
//! caller's [`SystemConfig`] (the `morph` CLI builds it exactly as for
//! `run` and `matrix`) and asks one shared [`Runs`] table for its
//! (workload, policy) cells. The table simulates each distinct
//! (configuration, cell) pair once, on the table's worker count, and
//! hands every later figure that asks for it the same result: Figs. 13,
//! 14 and 15 share one 72-cell grid, and Fig. 14's alone IPCs are
//! one-core cells of the same table. Each cell is a pure function of the
//! configuration and the cell, so a report depends neither on the worker
//! count nor on which figures ran before it. `fig05` and `table04` are
//! characterization studies with fixed configurations and probed runs of
//! their own.

use morph_interconnect::{ArbiterHierarchyModel, Floorplan, SynthesisParams};
use morph_metrics::{fair_speedup, mean, pearson, std_dev, weighted_speedup, Table};
use morph_system::prelude::*;
use morph_system::probes::{AcfvSweepProbe, FootprintProbe};
use morph_trace::{mixes, parsec, spec};
use morphcache::{GroupingMode, HashKind};

/// A figure generator: the run configuration and the shared run table
/// in, the report out.
pub type Figure = fn(&SystemConfig, &mut Runs) -> Result<String, MorphError>;

/// Every figure, by ID, in the order `morph figures` runs them.
pub const FIGURES: [(&str, Figure); 13] = [
    ("fig02", fig02),
    ("fig05", fig05),
    ("table02", table02),
    ("table04", table04),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("sec24", sec24),
    ("sec53", sec53),
    ("sec54", sec54),
    ("sec55", sec55),
];

/// The runs the figures share: every (configuration, cell) pair
/// simulated so far, with its result. Entries are keyed by the whole
/// configuration and cell, never by display name (every solo run is
/// named `"1 apps"`).
pub struct Runs {
    jobs: usize,
    entries: Vec<(SystemConfig, MatrixCell, RunResult)>,
}

impl Runs {
    /// An empty table whose cells run on `jobs` worker threads.
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs,
            entries: Vec::new(),
        }
    }

    /// The number of distinct (configuration, cell) pairs simulated.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been simulated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every policy on every workload under `cfg`, workload-major, each
    /// cell on the configuration's seed. Cells the table lacks run first,
    /// each once, as one [`run_cells`] matrix; if one fails, its error
    /// is returned and the table keeps only what it held before.
    fn grid(
        &mut self,
        cfg: &SystemConfig,
        workloads: &[Workload],
        policies: &[Policy],
    ) -> Result<Vec<RunResult>, MorphError> {
        // Each cell's index in the table once the cells it lacks are
        // appended, in order of first request.
        let mut new: Vec<MatrixCell> = Vec::new();
        let mut slots = Vec::new();
        for w in workloads {
            for p in policies {
                let cell = MatrixCell::new(w.clone(), p.clone(), cfg.seed);
                let held = self.entries.iter().map(|(c, m, _)| (c, m));
                let mut table = held.chain(new.iter().map(|m| (cfg, m)));
                match table.position(|(c, m)| c == cfg && *m == cell) {
                    Some(i) => slots.push(i),
                    None => {
                        slots.push(self.entries.len() + new.len());
                        new.push(cell);
                    }
                }
            }
        }
        if !new.is_empty() {
            let results = run_cells(cfg, &new, self.jobs)?.results;
            let runs = new.into_iter().zip(results).map(|(m, r)| (*cfg, m, r));
            self.entries.extend(runs);
        }
        Ok(slots
            .into_iter()
            .map(|i| self.entries[i].2.clone())
            .collect())
    }
}

/// A table row: its label and its values.
type Row = (String, Vec<f64>);

/// The header every report starts with.
fn banner(what: &str, paper_ref: &str) -> String {
    let rule = "#".repeat(64);
    format!("\n{rule}\n# {what}\n# Reproduces: {paper_ref}\n{rule}\n")
}

/// The five static topologies of §5, baseline `(16:1:1)` first.
fn statics(cfg: &SystemConfig) -> Result<Vec<Policy>, MorphError> {
    Ok(SymmetricTopology::static_set(cfg.n_cores())?
        .into_iter()
        .map(Policy::Static)
        .collect())
}

/// The display names of `policies`.
fn names(policies: &[Policy]) -> Vec<String> {
    policies.iter().map(Policy::name).collect()
}

/// The Table 5 mixes with the given ids.
fn mixes_by_id(ids: &[usize]) -> Result<Vec<Workload>, MorphError> {
    ids.iter()
        .map(|&id| Workload::mix(id).map_err(MorphError::Workload))
        .collect()
}

/// The twelve Table 5 mixes.
fn all_mixes() -> Vec<Workload> {
    mixes::all_mixes().into_iter().map(Workload::Mix).collect()
}

/// The twelve 16-thread PARSEC applications.
fn parsec_apps() -> Vec<Workload> {
    parsec::PARSEC_PROFILES
        .map(Workload::Multithreaded)
        .to_vec()
}

/// Throughput of `row[1..]`, each normalized to `row[0]`.
fn normalized(row: &[RunResult]) -> Vec<f64> {
    let base = row[0].mean_throughput();
    row[1..]
        .iter()
        .map(|r| r.mean_throughput() / base)
        .collect()
}

/// Each workload's throughput under every policy but the first,
/// normalized to the first, from one [`Runs::grid`].
fn normalized_grid(
    cfg: &SystemConfig,
    runs: &mut Runs,
    workloads: &[Workload],
    policies: &[Policy],
) -> Result<Vec<Row>, MorphError> {
    let results = runs.grid(cfg, workloads, policies)?;
    let rows = workloads.iter().zip(results.chunks(policies.len()));
    Ok(rows.map(|(w, row)| (w.name(), normalized(row))).collect())
}

/// A table of `rows`, three decimals, and an AVG row of column means.
fn averaged(title: &str, columns: &[impl AsRef<str>], rows: &[Row]) -> Table {
    let columns: Vec<&str> = columns.iter().map(AsRef::as_ref).collect();
    let mut t = Table::new(title, &columns);
    for (label, row) in rows {
        t.row_f64(label, row, 3);
    }
    let avg: Vec<f64> = (0..columns.len())
        .map(|i| mean(&rows.iter().map(|(_, row)| row[i]).collect::<Vec<_>>()))
        .collect();
    t.row_f64("AVG", &avg, 3);
    t
}

/// Figure 2, the motivation study: (a) MIX 01's throughput over time
/// under four static topologies, normalized per epoch to the all-shared
/// `(16:1:1)`; (b) dedup and freqmine under the same topologies.
fn fig02(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let topologies = statics(cfg)?;
    let n = topologies.len();
    let mut workloads = mixes_by_id(&[1])?;
    for app in ["dedup", "freqmine"] {
        workloads.push(Workload::parsec(app).map_err(MorphError::Workload)?);
    }
    let results = runs.grid(cfg, &workloads, &topologies)?;

    let base = results[0].throughput_series();
    let epochs: Vec<String> = (0..cfg.n_epochs).map(|e| format!("ep{e}")).collect();
    let epochs: Vec<&str> = epochs.iter().map(String::as_str).collect();
    let mut a = Table::new("normalized throughput vs time (base = (16:1:1))", &epochs);
    for r in &results[1..n] {
        let series = r.throughput_series();
        let series: Vec<f64> = series.iter().zip(&base).map(|(x, b)| x / b).collect();
        a.row_f64(&r.policy_name, &series, 3);
    }
    let (dedup, freqmine) = (
        normalized(&results[n..2 * n]),
        normalized(&results[2 * n..]),
    );
    let mut b = Table::new(
        "normalized throughput (base = (16:1:1))",
        &["dedup", "freqmine"],
    );
    for (i, name) in names(&topologies[1..]).into_iter().enumerate() {
        b.row_f64(name, &[dedup[i], freqmine[i]], 3);
    }
    Ok(banner(
        "Figure 2(a): MIX 01 throughput over time by topology",
        "Fig. 2(a)",
    ) + &a.render()
        + "paper: best topology varies over time; spreads of roughly 0.7x-1.35x\n"
        + &banner("Figure 2(b): dedup and freqmine by topology", "Fig. 2(b)")
        + &b.render()
        + "paper: dedup peaks at (4:4:1); freqmine peaks at (1:16:1)\n")
}

/// Figure 5: correlation between |ACFV| and the oracle footprint of one
/// L2 slice running hmmer, as the vector length sweeps 2..512 bits, for
/// the XOR and modulo hash functions.
fn fig05(_: &SystemConfig, _: &mut Runs) -> Result<String, MorphError> {
    // Single core, private slices (the paper collects this on one slice).
    // The hierarchy is the 1/8-scale variant so that hmmer's per-epoch L2
    // footprint is O(100) lines: a hashed bit vector can only track
    // footprints up to a small multiple of its length before it
    // saturates, and the paper's correlations (0.94 at 64 bits) are only
    // attainable in that regime.
    let cfg = SystemConfig {
        n_epochs: 24,
        epoch_cycles: 400_000,
        warmup_epochs: 1,
        ..SystemConfig::quick_test(1)
    };
    let wl = Workload::named_apps(&["hmmer"]).map_err(MorphError::Workload)?;
    let mut sim = SystemSim::new(cfg, &wl, &Policy::baseline(1))?;
    let bits = [2usize, 8, 32, 128, 512];
    let mut probe = AcfvSweepProbe::new(0, &bits, &[HashKind::Xor, HashKind::Modulo]);
    for _ in 0..cfg.warmup_epochs + cfg.n_epochs {
        sim.run_epoch_probed(&mut probe)?;
        probe.end_epoch();
    }
    // Drop the warm-up sample.
    let oracle = &probe.oracle_samples[1..];
    let (mut xor, mut modulo) = (Vec::new(), Vec::new());
    for (i, (_, hash)) in probe.labels().iter().enumerate() {
        let r = pearson(&probe.samples[i][1..], oracle);
        match hash {
            HashKind::Xor => xor.push(r),
            HashKind::Modulo => modulo.push(r),
            HashKind::Mix => {}
        }
    }
    let cols: Vec<String> = bits.iter().map(|b| format!("{b}b")).collect();
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::new("Pearson correlation with oracle ACF", &cols);
    t.row_f64("XOR", &xor, 3).row_f64("modulo", &modulo, 3);
    Ok(banner(
        "Figure 5: ACFV-length vs oracle correlation (hmmer)",
        "Fig. 5",
    ) + &t.render()
        + "paper: correlation rises with length; 0.94 at 64 bits, 0.96 at 128 (XOR >= modulo)\n")
}

/// Table 2: segmented-bus arbiter area and delay, recomputed from the
/// Table 1 constants and the Fig. 12 floorplan.
fn table02(_: &SystemConfig, _: &mut Runs) -> Result<String, MorphError> {
    let p = SynthesisParams::paper();
    let fp = Floorplan::paper();
    let l2 = ArbiterHierarchyModel::new(&fp.l2_slice_positions(0), &p);
    let l3 = ArbiterHierarchyModel::new(&fp.l3_slice_positions(), &p);
    let cols = ["L2 bus (3-level)", "L3 bus (4-level)"];
    let mut t = Table::new("arbiter model (model value / paper value)", &cols);
    // (label, model value, paper values for the L2 and L3 buses, decimals)
    type Value = fn(&ArbiterHierarchyModel) -> f64;
    let rows: [(&str, Value, [&str; 2], usize); 6] = [
        ("arbiters", |m| m.n_arbiters as f64, ["7 per side", "15"], 0),
        ("area um^2", |m| m.total_area_um2, ["160.5", "343.9"], 1),
        ("req wire ns", |m| m.request_wire_ns, ["0.31", "0.40"], 2),
        ("req logic ns", |m| m.request_logic_ns, ["0.38", "0.49"], 2),
        ("gnt logic ns", |m| m.grant_logic_ns, ["0.32", "0.32"], 2),
        ("gnt wire ns", |m| m.grant_wire_ns, ["0.31", "0.40"], 2),
    ];
    for (label, value, paper, prec) in rows {
        let cells = [&l2, &l3].into_iter().zip(paper);
        t.row(
            label,
            cells
                .map(|(m, p)| format!("{:.prec$} / {p}", value(m)))
                .collect(),
        );
    }
    let overhead = |pipelined| ArbiterHierarchyModel::bus_overhead_core_cycles(5.0, 1.0, pipelined);
    Ok(banner(
        "Table 2: segmented bus arbiter area and delay",
        "Tables 1-2, Fig. 12",
    ) + &t.render()
        + &format!(
            "max arbiter frequency: {:.2} GHz (paper: 1.12 GHz; bus run at 1 GHz)\n\
             bus overhead at 5 GHz core / 1 GHz bus: {} cycles unpipelined, {} pipelined \
             (paper: 15 / 10)\n",
            l3.max_frequency_ghz(),
            overhead(false),
            overhead(true)
        ))
}

/// One epoch's per-core (L2, L3) active-footprint fractions.
type Footprints = (Vec<f64>, Vec<f64>);

/// The footprint fractions, capped at 1, of every measured epoch of `wl`
/// under `policy` (oracle footprint probe).
fn footprints(
    cfg: SystemConfig,
    wl: &Workload,
    policy: &Policy,
) -> Result<Vec<Footprints>, MorphError> {
    let mut sim = SystemSim::new(cfg, wl, policy)?;
    let mut probe = FootprintProbe::new(cfg.n_cores());
    let cap = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x.min(1.0)).collect() };
    let mut epochs = Vec::new();
    for e in 0..cfg.warmup_epochs + cfg.n_epochs {
        sim.run_epoch_probed(&mut probe)?;
        let (l2, l3) = probe.take_epoch(cfg.l2_slice_lines(), cfg.l3_slice_lines());
        if e >= cfg.warmup_epochs {
            epochs.push((cap(l2), cap(l3)));
        }
    }
    Ok(epochs)
}

/// A Table 4 row: each measured statistic next to the paper's value.
fn paired(measured: [f64; 4], paper: [f64; 4]) -> Vec<String> {
    let pairs = measured.into_iter().zip(paper);
    pairs
        .flat_map(|(m, p)| [format!("{m:.2}"), format!("{p:.2}")])
        .collect()
}

/// Table 4: per-benchmark ACF characterization, measured on the
/// synthetic streams with the oracle footprint probe (hit-based active
/// footprints, private slices) next to the published targets.
fn table04(_: &SystemConfig, _: &mut Runs) -> Result<String, MorphError> {
    let cols = |l2, l3| {
        [
            "L2 ACF", "(paper)", l2, "(paper)", "L3 ACF", "(paper)", l3, "(paper)",
        ]
    };
    let mut spec_table = Table::new("single-core private slices", &cols("L2 st", "L3 st"));
    let cfg = SystemConfig {
        n_epochs: 8,
        epoch_cycles: 500_000,
        warmup_epochs: 1,
        ..SystemConfig::paper(1)
    };
    for p in spec::SPEC_PROFILES {
        let epochs = footprints(cfg, &Workload::Apps(vec![p]), &Policy::baseline(1))?;
        let (l2, l3): (Vec<f64>, Vec<f64>) = epochs.iter().map(|(l2, l3)| (l2[0], l3[0])).unzip();
        let measured = [mean(&l2), std_dev(&l2), mean(&l3), std_dev(&l3)];
        spec_table.row(
            p.name,
            paired(measured, [p.l2_acf, p.l2_sigma_t, p.l3_acf, p.l3_sigma_t]),
        );
    }

    let mut parsec_table = Table::new("16 threads, private slices", &cols("L2 ss", "L3 ss"));
    let cfg = SystemConfig {
        n_epochs: 4,
        epoch_cycles: 500_000,
        warmup_epochs: 1,
        ..SystemConfig::paper(16)
    };
    let private = Policy::Static(SymmetricTopology::new(1, 1, 16, 16)?);
    for p in parsec::PARSEC_PROFILES {
        let epochs = footprints(cfg, &Workload::Multithreaded(p), &private)?;
        // A statistic across the threads, per epoch, averaged over epochs.
        let over_epochs = |stat: fn(&[f64]) -> f64| {
            let (l2, l3): (Vec<f64>, Vec<f64>) =
                epochs.iter().map(|(l2, l3)| (stat(l2), stat(l3))).unzip();
            (mean(&l2), mean(&l3))
        };
        let ((l2_acf, l3_acf), (l2_ss, l3_ss)) = (over_epochs(mean), over_epochs(std_dev));
        let paper = [p.l2_acf, p.l2_sigma_s, p.l3_acf, p.l3_sigma_s];
        parsec_table.row(p.name, paired([l2_acf, l2_ss, l3_acf, l3_ss], paper));
    }
    Ok(banner(
        "Table 4: SPEC CPU 2006 characterization (measured vs paper)",
        "Table 4",
    ) + &spec_table.render()
        + &banner(
            "Table 4: PARSEC characterization (measured vs paper)",
            "Table 4",
        )
        + &parsec_table.render())
}

/// Figure 13: multiprogrammed throughput of MorphCache and the static
/// topologies, normalized to the all-shared `(16:1:1)`, on the twelve
/// Table 5 mixes.
fn fig13(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let policies = [statics(cfg)?, vec![Policy::morph(cfg)]].concat();
    let mixes = all_mixes();
    let rows = normalized_grid(cfg, runs, &mixes, &policies)?;
    let t = averaged(
        "throughput normalized to (16:1:1)",
        &names(&policies[1..]),
        &rows,
    );
    Ok(
        banner("Figure 13: multiprogrammed throughput by policy", "Fig. 13")
            + &t.render()
            + "paper averages vs (16:1:1): (1:1:16) 1.005e0*, (4:4:1) ~1.08, (8:2:1) ~1.09, \
           (1:16:1) ~1.02, MorphCache 1.299\n"
            + "(*paper reports MorphCache +29.9% over baseline, +29.3% over (1:1:16), +19.9% over \
           (4:4:1), +18.8% over (8:2:1), +27.9% over (1:16:1))\n",
    )
}

/// Figure 14: weighted (WS) and fair (FS) speedup of MorphCache against
/// the best static topology per metric, with each application's solo
/// run on one private hierarchy as its "alone" IPC.
fn fig14(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let policies = [statics(cfg)?, vec![Policy::morph(cfg)]].concat();
    let n_static = policies.len() - 1;
    let mixes = all_mixes();
    let results = runs.grid(cfg, &mixes, &policies)?;
    // Each application alone: a one-core cell with the same slice geometry.
    let n = cfg.n_cores();
    let mut solo_cfg = *cfg;
    solo_cfg.hierarchy.n_cores = 1;
    let solos: Vec<Workload> = mixes
        .iter()
        .flat_map(|mix| (0..n).map(|c| Workload::Apps(vec![mix.profile_of(c)])))
        .collect();
    let alone: Vec<f64> = runs
        .grid(&solo_cfg, &solos, &[Policy::baseline(1)])?
        .iter()
        .map(|r| r.mean_ipcs().first().copied().unwrap_or(0.0))
        .collect();
    let best_static = |v: &[f64]| v[..n_static].iter().copied().fold(f64::MIN, f64::max);
    let mut rows = Vec::new();
    let per_mix = results.chunks(policies.len()).zip(alone.chunks(n));
    for (mix, (row, alone)) in mixes.iter().zip(per_mix) {
        let ws: Vec<f64> = row
            .iter()
            .map(|r| weighted_speedup(&r.mean_ipcs(), alone))
            .collect();
        let fs: Vec<f64> = row
            .iter()
            .map(|r| fair_speedup(&r.mean_ipcs(), alone))
            .collect();
        let speedups = vec![
            ws[n_static],
            best_static(&ws),
            fs[n_static],
            best_static(&fs),
        ];
        rows.push((mix.name(), speedups));
    }
    let cols = ["WS morph", "WS best-static", "FS morph", "FS best-static"];
    let t = averaged(
        "speedups (alone IPC = solo run on one private hierarchy)",
        &cols,
        &rows,
    );
    Ok(banner("Figure 14: weighted and fair speedup", "Fig. 14")
        + &t.render()
        + "paper: MorphCache beats the best static by 12.3% on WS (best static (2:2:4)) and \
           10.8% on FS (best static (4:4:1))\n")
}

/// Figure 15: MorphCache against the ideal offline scheme, which runs
/// each epoch on that epoch's best static topology, switching for free:
/// the per-epoch best of the five static runs, averaged over the epochs.
fn fig15(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let policies = [statics(cfg)?, vec![Policy::morph(cfg)]].concat();
    let n_static = policies.len() - 1;
    let mixes = all_mixes();
    let results = runs.grid(cfg, &mixes, &policies)?;
    let mut rows = Vec::new();
    for (mix, row) in mixes.iter().zip(results.chunks(policies.len())) {
        let (static_runs, morph) = row.split_at(n_static);
        let base = static_runs[0].mean_throughput();
        let best = static_runs.iter().map(RunResult::mean_throughput);
        let best = best.fold(f64::MIN, f64::max) / base;
        let ideal = ideal_offline_throughput(&static_runs.iter().collect::<Vec<_>>()) / base;
        let morph = morph[0].mean_throughput() / base;
        rows.push((mix.name(), vec![morph, best, ideal, morph / ideal]));
    }
    let cols = ["MorphCache", "best static", "Ideal offline", "morph/ideal"];
    let title = "throughput normalized to (16:1:1); ideal = each epoch's best static";
    let t = averaged(title, &cols, &rows);
    Ok(banner(
        "Figure 15: MorphCache vs ideal offline scheme",
        "Fig. 15, §5.1",
    ) + &t.render()
        + "paper: MorphCache achieves ~97% of the ideal offline scheme\n")
}

/// Figure 16: multithreaded (PARSEC) performance of MorphCache and the
/// static topologies, normalized to the all-shared baseline.
fn fig16(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let policies = [statics(cfg)?, vec![Policy::morph(cfg)]].concat();
    let apps = parsec_apps();
    let rows = normalized_grid(cfg, runs, &apps, &policies)?;
    let t = averaged(
        "performance normalized to (16:1:1)",
        &names(&policies[1..]),
        &rows,
    );
    Ok(
        banner("Figure 16: multithreaded performance by policy", "Fig. 16")
            + &t.render()
            + "paper: MorphCache +25.6% over (16:1:1), +30.4% over (1:1:16), +12.3% over (4:4:1), \
           +7.5% over (8:2:1), +8.5% over (1:16:1);\n"
            + "facesim/ferret/freqmine/x264 (high spatial sigma) gain most\n",
    )
}

/// Figure 17: MorphCache against PIPP \[28\] and DSR \[18\], both
/// extended to the L2+L3 hierarchy, on the twelve mixes.
fn fig17(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let baseline = Policy::baseline(cfg.n_cores());
    let policies = [baseline, Policy::Pipp, Policy::Dsr, Policy::morph(cfg)];
    let mixes = all_mixes();
    let rows = normalized_grid(cfg, runs, &mixes, &policies)?;
    let t = averaged(
        "throughput normalized to (16:1:1)",
        &names(&policies[1..]),
        &rows,
    );
    Ok(
        banner("Figure 17: MorphCache vs PIPP and DSR", "Fig. 17, §6")
            + &t.render()
            + "paper: MorphCache beats PIPP by 6.6% and DSR by 5.7% on average;\n"
            + "PIPP/DSR tie or win only on the low-variation mixes MIX 04 and MIX 08\n",
    )
}

/// The §2.4 row: min, max and mean reconfiguration counts over `results`
/// and the mean share of asymmetric outcomes among runs that reconfigured.
fn reconfig_table(title: &str, results: &[RunResult]) -> Table {
    let counts: Vec<f64> = results.iter().map(|r| r.total_reconfigs() as f64).collect();
    let reconfigured = results.iter().filter(|r| r.total_reconfigs() > 0);
    let asym: Vec<f64> = reconfigured.map(RunResult::asymmetric_fraction).collect();
    let min = counts.iter().copied().fold(f64::MAX, f64::min);
    let max = counts.iter().copied().fold(f64::MIN, f64::max);
    let mut t = Table::new(title, &["min", "max", "avg", "asym %"]);
    t.row_f64(
        "reconfigs",
        &[min, max, mean(&counts), mean(&asym) * 100.0],
        1,
    );
    t
}

/// §2.4: the number of reconfigurations (merges + splits) and the share
/// that left an asymmetric configuration, for the multiprogrammed mixes
/// and the multithreaded applications.
fn sec24(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let mut workloads = all_mixes();
    let n_mixes = workloads.len();
    workloads.extend(parsec_apps());
    let results = runs.grid(cfg, &workloads, &[Policy::morph(cfg)])?;
    let (multiprogrammed, multithreaded) = results.split_at(n_mixes);
    Ok(banner("§2.4: reconfiguration counts and asymmetry", "§2.4")
        + &reconfig_table("multiprogrammed mixes", multiprogrammed).render()
        + "paper: 5,248-12,176 reconfigs (avg 9,654) over full-length runs; ~39% asymmetric\n"
        + &format!(
            "(counts scale with epoch count; this harness runs {} measured epochs)\n",
            cfg.n_epochs
        )
        + &reconfig_table("multithreaded applications", multithreaded).render()
        + "paper: 263-1,043 reconfigs (avg 856); ~54% asymmetric\n")
}

/// §5.3: QoS via MSAT throttling. The merge-aggressive default can hurt
/// individual applications; throttling the MSAT on observed miss
/// increases bounds each application's slowdown relative to its private
/// fair share.
fn sec53(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let n = cfg.n_cores();
    let private = Policy::Static(SymmetricTopology::new(1, 1, n, n)?);
    let policies = [private, Policy::morph(cfg), Policy::morph_qos(cfg)];
    let mixes = mixes_by_id(&[1, 2, 3, 4, 5, 6])?;
    let results = runs.grid(cfg, &mixes, &policies)?;
    let mut rows = Vec::new();
    for (mix, row) in mixes.iter().zip(results.chunks(policies.len())) {
        let fair = row[0].mean_ipcs();
        let worst = |r: &RunResult| {
            let ipcs = r.mean_ipcs().into_iter().zip(&fair);
            ipcs.map(|(i, &f)| if i > 0.0 { f / i } else { f64::INFINITY })
                .fold(f64::MIN, f64::max)
        };
        let (morph, qos) = (&row[1], &row[2]);
        let values = vec![
            worst(morph),
            worst(qos),
            morph.mean_throughput(),
            qos.mean_throughput(),
        ];
        rows.push((mix.name(), values));
    }
    let cols = ["morph worst", "morph+QoS worst", "tp morph", "tp QoS"];
    let t = averaged(
        "per-app worst slowdown vs private fair share (lower is better)",
        &cols,
        &rows,
    );
    Ok(banner("§5.3: QoS MSAT throttling", "§5.3")
        + &t.render()
        + "paper: QoS-aware MorphCache keeps every application at or above its fair-share \
           performance at 8 bytes/slice overhead\n")
}

/// §5.4: the sensitivity of MorphCache's gain over the `(n:1:1)`
/// baseline to the L2 and L3 slice sizes, doubled associativity, and an
/// 8-core CMP, on MIX 02, 05 and 08.
fn sec54(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let mixes = mixes_by_id(&[2, 5, 8])?;
    // The 8-core variant runs the first 8 applications of each mix.
    let first_eight = |m: &Workload| Workload::Apps((0..8).map(|c| m.profile_of(c)).collect());
    let halves: Vec<Workload> = mixes.iter().map(first_eight).collect();
    let mut eight = *cfg;
    eight.hierarchy.n_cores = 8;
    let h = cfg.hierarchy;
    let with = |hierarchy| SystemConfig { hierarchy, ..*cfg };
    let variants = [
        ("default (256KB L2 / 1MB L3, 16 cores)", *cfg, &mixes),
        (
            "512KB L2 slices",
            with(h.with_l2_capacity(512 * 1024)?),
            &mixes,
        ),
        (
            "2MB L3 slices",
            with(h.with_l3_capacity(2 * 1024 * 1024)?),
            &mixes,
        ),
        (
            "2x associativity",
            with(h.with_doubled_associativity()?),
            &mixes,
        ),
        ("8 cores", eight, &halves),
    ];
    let mut t = Table::new("MorphCache gain over (n:1:1) baseline, %", &["gain %"]);
    for (label, variant, workloads) in variants {
        let policies = [Policy::baseline(variant.n_cores()), Policy::morph(&variant)];
        let rows = normalized_grid(&variant, runs, workloads, &policies)?;
        let gains: Vec<f64> = rows.iter().map(|(_, r)| r[0] - 1.0).collect();
        t.row_f64(label, &[mean(&gains) * 100.0], 2);
    }
    Ok(banner("§5.4: sensitivity of the MorphCache gain", "§5.4")
        + &t.render()
        + "paper: +2.1% with 512KB L2, +1.8% with bigger L3, ~0 from associativity, \
           -0.7% at 8 cores\n")
}

/// §5.5: the relaxed grouping modes — arbitrary (non-power-of-two)
/// neighboring group sizes and non-neighbor sharing, which pays the
/// physical-superset latency penalty.
fn sec55(cfg: &SystemConfig, runs: &mut Runs) -> Result<String, MorphError> {
    let policies = [
        Policy::morph(cfg),
        Policy::morph_with_grouping(cfg, GroupingMode::ArbitraryContiguous),
        Policy::morph_with_grouping(cfg, GroupingMode::NonNeighbor),
    ];
    let mixes = mixes_by_id(&[1, 2, 3, 5])?;
    let rows = normalized_grid(cfg, runs, &mixes, &policies)?;
    let cols = ["arbitrary contiguous", "non-neighbor"];
    let title = "throughput normalized to default (buddy power-of-two) MorphCache";
    Ok(banner("§5.5: relaxed grouping modes", "§5.5")
        + &averaged(title, &cols, &rows).render()
        + "paper: arbitrary neighboring sizes +3.6%; non-neighbor sharing -7.1% (distant-slice \
           latency dominates)\n")
}
