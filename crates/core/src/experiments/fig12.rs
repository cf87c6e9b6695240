//! Figure 12 — ReLU activation layers over 44 DeepBench shapes.
//!
//! (a) Core↔cache-hierarchy data traffic, (b) off-chip DRAM traffic and
//! (c) runtime, for `avx512-vec`, `avx512-comp` and `zcomp`. The paper's
//! headline numbers: traffic reductions of 42%/46% (core) and 48%/54%
//! (DRAM) for avx512-comp/zcomp, a 77% average ZCOMP speedup over the
//! baseline with superlinear spots up to 12x at the cache-fit crossover,
//! and only two small-input outliers where ZCOMP loses ≤4%.

use serde::{Deserialize, Serialize};
use zcomp_dnn::deepbench::{all_configs, DeepBenchConfig};
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu, run_relu_with_path, ExecPath, ReluOpts, ReluScheme};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;
use zcomp_sim::stats::PrefetchStats;

use crate::report::{fmt_bytes, mean, pct, Table};
use crate::supervise::{CellFailure, CellOutcome};
use crate::sweep::{config_fingerprint, run_cells, SweepError, SweepOpts, SweepOutcome};

/// The three schemes in plotting order.
pub const SCHEMES: [ReluScheme; 3] = [
    ReluScheme::Avx512Vec,
    ReluScheme::Avx512Comp,
    ReluScheme::Zcomp,
];

/// Measurements of one (config, scheme) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Cell {
    /// Scheme measured.
    pub scheme: ReluScheme,
    /// Cache-hierarchy traffic in bytes — demand plus inter-level line
    /// fills (Fig. 12(a)).
    pub onchip_bytes: u64,
    /// DRAM traffic in bytes (Fig. 12(b)).
    pub dram_bytes: u64,
    /// Runtime in cycles (Fig. 12(c)).
    pub cycles: f64,
    /// Output compression ratio.
    pub compression_ratio: f64,
}

/// All cells of one DeepBench configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig12Row {
    /// The configuration.
    pub config: DeepBenchConfig,
    /// Elements actually simulated (after any scale-down).
    pub simulated_elements: usize,
    /// One cell per scheme.
    pub cells: Vec<Fig12Cell>,
}

impl Fig12Row {
    fn cell(&self, scheme: ReluScheme) -> &Fig12Cell {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme)
            .expect("every scheme is measured")
    }

    /// Speedup of `scheme` over the avx512-vec baseline.
    pub fn speedup(&self, scheme: ReluScheme) -> f64 {
        self.cell(ReluScheme::Avx512Vec).cycles / self.cell(scheme).cycles
    }

    /// Traffic reduction (cache hierarchy) of `scheme` vs baseline.
    pub fn core_reduction(&self, scheme: ReluScheme) -> f64 {
        1.0 - self.cell(scheme).onchip_bytes as f64
            / self.cell(ReluScheme::Avx512Vec).onchip_bytes as f64
    }

    /// Traffic reduction (DRAM) of `scheme` vs baseline.
    pub fn dram_reduction(&self, scheme: ReluScheme) -> f64 {
        let base = self.cell(ReluScheme::Avx512Vec).dram_bytes;
        if base == 0 {
            0.0
        } else {
            1.0 - self.cell(scheme).dram_bytes as f64 / base as f64
        }
    }
}

/// Complete Figure 12 result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig12Result {
    /// Per-configuration rows, suite-grouped and size-sorted.
    pub rows: Vec<Fig12Row>,
    /// L2 prefetcher effectiveness aggregated over the zcomp runs
    /// (§3.3 reports 98–99% accuracy, 94–97% coverage).
    pub zcomp_prefetch: PrefetchStats,
    /// Cells the supervised sweep quarantined after exhausting their
    /// attempt budget, in index order. Their row slots hold zeroed
    /// placeholder cells so the report shape — and byte layout — is
    /// independent of *which* cells failed. Always empty for the plain
    /// serial runners, which propagate panics instead.
    pub quarantined: Vec<CellFailure>,
    /// Per-cell metrics (counters, gauges, latency histograms) collected
    /// while the trace feature is compiled in. Absent from trace-free
    /// builds so their JSON reports stay byte-identical.
    #[cfg(feature = "trace")]
    pub metrics: zcomp_trace::metrics::MetricsSummary,
}

/// Aggregate summary in the shape of the paper's §5.2 text.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig12Summary {
    /// Mean core-traffic reduction of avx512-comp (paper: 42%).
    pub avx_core_reduction: f64,
    /// Mean core-traffic reduction of zcomp (paper: 46%).
    pub zcomp_core_reduction: f64,
    /// Mean DRAM reduction of avx512-comp (paper: 48%).
    pub avx_dram_reduction: f64,
    /// Mean DRAM reduction of zcomp (paper: 54%).
    pub zcomp_dram_reduction: f64,
    /// Mean zcomp speedup over avx512-vec (paper: +77%).
    pub zcomp_speedup: f64,
    /// Mean zcomp speedup over avx512-comp (paper: +56%).
    pub zcomp_vs_avx_speedup: f64,
    /// Configurations where zcomp is slower than the baseline
    /// (paper: 2 outliers, ≤4%).
    pub zcomp_outliers: usize,
    /// Largest zcomp speedup (paper: up to 12x superlinear).
    pub max_zcomp_speedup: f64,
}

impl Fig12Result {
    /// Computes the aggregate summary over all rows.
    pub fn summary(&self) -> Fig12Summary {
        Self::summary_of(&self.rows)
    }

    /// Computes the summary of one benchmark group (the per-suite
    /// averages of Fig. 12's x-axis groups).
    pub fn suite_summary(&self, suite: zcomp_dnn::deepbench::Suite) -> Fig12Summary {
        let rows: Vec<Fig12Row> = self
            .rows
            .iter()
            .filter(|r| r.config.suite == suite)
            .cloned()
            .collect();
        Self::summary_of(&rows)
    }

    fn summary_of(rows: &[Fig12Row]) -> Fig12Summary {
        let col = |f: &dyn Fn(&Fig12Row) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
        let zcomp_speedups = col(&|r| r.speedup(ReluScheme::Zcomp));
        Fig12Summary {
            avx_core_reduction: mean(&col(&|r| r.core_reduction(ReluScheme::Avx512Comp))),
            zcomp_core_reduction: mean(&col(&|r| r.core_reduction(ReluScheme::Zcomp))),
            avx_dram_reduction: mean(&col(&|r| r.dram_reduction(ReluScheme::Avx512Comp))),
            zcomp_dram_reduction: mean(&col(&|r| r.dram_reduction(ReluScheme::Zcomp))),
            zcomp_speedup: mean(&zcomp_speedups),
            zcomp_vs_avx_speedup: mean(&col(&|r| {
                r.cell(ReluScheme::Avx512Comp).cycles / r.cell(ReluScheme::Zcomp).cycles
            })),
            zcomp_outliers: zcomp_speedups.iter().filter(|&&s| s < 1.0).count(),
            max_zcomp_speedup: zcomp_speedups.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Renders one of the three panels.
    pub fn table(&self, panel: Panel) -> Table {
        let title = match panel {
            Panel::CoreTraffic => "Figure 12(a): cache-hierarchy data traffic",
            Panel::DramTraffic => "Figure 12(b): off-chip DRAM data traffic",
            Panel::Runtime => "Figure 12(c): runtime (cycles; speedup vs avx512-vec)",
        };
        let mut t = Table::new(
            title,
            &[
                "suite",
                "config",
                "size",
                "avx512-vec",
                "avx512-comp",
                "zcomp",
                "zcomp_gain",
            ],
        );
        for r in &self.rows {
            let cell_text = |s: ReluScheme| match panel {
                Panel::CoreTraffic => fmt_bytes(r.cell(s).onchip_bytes),
                Panel::DramTraffic => fmt_bytes(r.cell(s).dram_bytes),
                Panel::Runtime => format!("{:.0}", r.cell(s).cycles),
            };
            let gain = match panel {
                Panel::CoreTraffic => pct(r.core_reduction(ReluScheme::Zcomp)),
                Panel::DramTraffic => pct(r.dram_reduction(ReluScheme::Zcomp)),
                Panel::Runtime => format!("{:.2}x", r.speedup(ReluScheme::Zcomp)),
            };
            t.row([
                r.config.suite.to_string(),
                r.config.name.to_string(),
                fmt_bytes(r.config.bytes() as u64),
                cell_text(ReluScheme::Avx512Vec),
                cell_text(ReluScheme::Avx512Comp),
                cell_text(ReluScheme::Zcomp),
                gain,
            ]);
        }
        t
    }
}

/// The three panels of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Panel {
    /// Fig. 12(a).
    CoreTraffic,
    /// Fig. 12(b).
    DramTraffic,
    /// Fig. 12(c).
    Runtime,
}

/// Runs the Figure 12 experiment.
///
/// * `scale_divisor` — divide tensor sizes for quick runs (1 = full).
/// * `sparsity` — input sparsity (the paper's snapshots average 53%).
pub fn run(scale_divisor: usize, sparsity: f64) -> Fig12Result {
    run_configs(&all_configs(), scale_divisor, sparsity)
}

/// [`run`] with an explicit kernel execution path — the `bench_sim`
/// harness times the sweep under both paths and asserts bit-identity.
pub fn run_with_path(scale_divisor: usize, sparsity: f64, path: ExecPath) -> Fig12Result {
    run_configs_with_path(&all_configs(), scale_divisor, sparsity, path)
}

/// Runs a subset of configurations (used by the ablations and tests).
pub fn run_configs(
    configs: &[DeepBenchConfig],
    scale_divisor: usize,
    sparsity: f64,
) -> Fig12Result {
    run_configs_with_path(configs, scale_divisor, sparsity, ExecPath::Batched)
}

/// [`run_configs`] with an explicit kernel execution path.
pub fn run_configs_with_path(
    configs: &[DeepBenchConfig],
    scale_divisor: usize,
    sparsity: f64,
    path: ExecPath,
) -> Fig12Result {
    let _span = zcomp_trace::tracer::span("experiment", "fig12");
    #[cfg(feature = "trace")]
    let mut registry = zcomp_trace::metrics::MetricsRegistry::new();
    let mut rows = Vec::with_capacity(configs.len());
    let mut zcomp_prefetch = PrefetchStats::default();
    for (i, config) in configs.iter().enumerate() {
        let elements = (config.elements / scale_divisor.max(1)).max(256);
        let nnz = nnz_synthetic(elements, sparsity, 6.0, 0xF16_5EED ^ ((i as u64) << 8));
        let mut cells = Vec::with_capacity(SCHEMES.len());
        for scheme in SCHEMES {
            let _cell_span = zcomp_trace::tracer::span_owned("experiment", || {
                format!("fig12/{}/{scheme:?}", config.name)
            });
            let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
            let result = run_relu_with_path(&mut machine, scheme, &nnz, &ReluOpts::default(), path);
            if scheme == ReluScheme::Zcomp {
                zcomp_prefetch.merge(&machine.summary().l2_prefetch);
            }
            // Traffic and cycles over the measured (steady-state) window
            // only — the warm-up iteration's compulsory misses are the
            // caches' problem, as in DeepBench itself.
            #[cfg(feature = "trace")]
            {
                registry.incr("fig12.cells", 1);
                registry.observe("fig12.cycles", result.total_cycles());
                registry.observe("fig12.dram_bytes", result.traffic.dram_bytes as f64);
                registry.gauge("fig12.compression_ratio", result.compression_ratio());
            }
            cells.push(Fig12Cell {
                scheme,
                onchip_bytes: result.traffic.onchip_bytes(),
                dram_bytes: result.traffic.dram_bytes,
                cycles: result.total_cycles(),
                compression_ratio: result.compression_ratio(),
            });
        }
        rows.push(Fig12Row {
            config: config.clone(),
            simulated_elements: elements,
            cells,
        });
    }
    Fig12Result {
        rows,
        zcomp_prefetch,
        quarantined: Vec::new(),
        #[cfg(feature = "trace")]
        metrics: registry.summary(),
    }
}

/// What one supervised fig12 cell produces — the measured cell plus the
/// prefetch counters the result aggregates. Serialized whole into the
/// fabric journal, so a restored cell is indistinguishable from an
/// executed one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fig12CellRecord {
    cell: Fig12Cell,
    prefetch: PrefetchStats,
}

/// The journal key of one (config, scheme) cell. Everything that
/// determines the cell's result is folded in, so a journal hit is safe
/// to restore.
fn cell_key(
    config: &DeepBenchConfig,
    index: usize,
    scheme: ReluScheme,
    scale_divisor: usize,
    sparsity: f64,
) -> String {
    let elements = (config.elements / scale_divisor.max(1)).max(256);
    let seed = 0xF16_5EED ^ ((index as u64) << 8);
    format!(
        "cfg={};scheme={scheme};elements={elements};sparsity={sparsity};seed={seed:#x};opts=default",
        config.name
    )
}

/// Simulates one (config, scheme) cell on a fresh Table-1 machine.
fn sweep_cell(
    config: &DeepBenchConfig,
    index: usize,
    scheme: ReluScheme,
    scale_divisor: usize,
    sparsity: f64,
) -> Fig12CellRecord {
    let elements = (config.elements / scale_divisor.max(1)).max(256);
    let seed = 0xF16_5EED ^ ((index as u64) << 8);
    let nnz = nnz_synthetic(elements, sparsity, 6.0, seed);
    let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
    let result = run_relu(&mut machine, scheme, &nnz, &ReluOpts::default());
    Fig12CellRecord {
        cell: Fig12Cell {
            scheme,
            onchip_bytes: result.traffic.onchip_bytes(),
            dram_bytes: result.traffic.dram_bytes,
            cycles: result.total_cycles(),
            compression_ratio: result.compression_ratio(),
        },
        prefetch: machine.summary().l2_prefetch,
    }
}

/// Runs the Figure 12 sweep sharded across threads with *supervised*
/// cells; equivalent to [`run_configs`] cell for cell.
///
/// Every cell runs under the supervision policy in `opts` (panic
/// isolation, optional watchdog deadline, deterministic retry); cells
/// that exhaust their budget land in `quarantined` with a zeroed
/// placeholder in their row slot instead of aborting the sweep. With
/// `opts.fabric` set, completed cells are journalled under the fabric
/// directory, so re-running against the same directory skips them — the
/// resumed result is byte-identical to an uninterrupted one. The merge
/// is deterministic: results are assembled in config/scheme order
/// regardless of which worker finished first.
pub fn run_sweep(
    configs: &[DeepBenchConfig],
    scale_divisor: usize,
    sparsity: f64,
    opts: &SweepOpts,
) -> Result<SweepOutcome<Fig12Result>, SweepError> {
    let _span = zcomp_trace::tracer::span("experiment", "fig12-sweep");
    let fingerprint = config_fingerprint(&SimConfig::table1());
    let items = configs.len() * SCHEMES.len();
    let key_of = |idx: usize| {
        cell_key(
            &configs[idx / SCHEMES.len()],
            idx / SCHEMES.len(),
            SCHEMES[idx % SCHEMES.len()],
            scale_divisor,
            sparsity,
        )
    };
    let make_job = |idx: usize| -> Box<dyn FnOnce() -> Fig12CellRecord + Send + 'static> {
        // The job must be self-contained ('static): a watchdogged attempt
        // may outlive this stack frame.
        let config = configs[idx / SCHEMES.len()].clone();
        let config_index = idx / SCHEMES.len();
        let scheme = SCHEMES[idx % SCHEMES.len()];
        Box::new(move || sweep_cell(&config, config_index, scheme, scale_divisor, sparsity))
    };
    let run = run_cells("fig12", items, fingerprint, opts, key_of, make_job)?;

    #[cfg(feature = "trace")]
    let mut registry = zcomp_trace::metrics::MetricsRegistry::new();
    let mut rows = Vec::with_capacity(configs.len());
    let mut zcomp_prefetch = PrefetchStats::default();
    for (ci, config) in configs.iter().enumerate() {
        let mut row_cells = Vec::with_capacity(SCHEMES.len());
        for (si, scheme) in SCHEMES.iter().enumerate() {
            let cell = match &run.outcomes[ci * SCHEMES.len() + si] {
                CellOutcome::Completed { value, .. } => {
                    if *scheme == ReluScheme::Zcomp {
                        zcomp_prefetch.merge(&value.prefetch);
                    }
                    #[cfg(feature = "trace")]
                    {
                        registry.incr("fig12.cells", 1);
                        registry.observe("fig12.cycles", value.cell.cycles);
                        registry.observe("fig12.dram_bytes", value.cell.dram_bytes as f64);
                        registry.gauge("fig12.compression_ratio", value.cell.compression_ratio);
                    }
                    value.cell.clone()
                }
                // Quarantined slot: an explicit zeroed placeholder keeps
                // the row shape (and byte layout) stable; the failure
                // itself is reported in `quarantined`.
                CellOutcome::Quarantined(_) => Fig12Cell {
                    scheme: *scheme,
                    onchip_bytes: 0,
                    dram_bytes: 0,
                    cycles: 0.0,
                    compression_ratio: 0.0,
                },
            };
            row_cells.push(cell);
        }
        rows.push(Fig12Row {
            config: config.clone(),
            simulated_elements: (config.elements / scale_divisor.max(1)).max(256),
            cells: row_cells,
        });
    }
    #[cfg(feature = "trace")]
    {
        registry.incr("fig12.retries", run.report.retries);
        registry.incr("fig12.resume_skips", run.report.resume_skips as u64);
        registry.incr("fig12.quarantined", run.report.quarantined.len() as u64);
        if let Some(fabric) = &run.report.fabric {
            registry.incr("fabric.claims", fabric.claims);
            registry.incr("fabric.reclaims", fabric.reclaims);
            registry.incr("fabric.fenced_rejections", fabric.fenced_rejections);
            registry.incr("fabric.drains", fabric.drains);
        }
    }
    let result = Fig12Result {
        rows,
        zcomp_prefetch,
        quarantined: run.report.quarantined.clone(),
        #[cfg(feature = "trace")]
        metrics: registry.summary(),
    };
    Ok(SweepOutcome {
        result,
        supervision: run.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricOpts;
    use zcomp_dnn::deepbench::{suite_configs, Suite};

    fn quick() -> Fig12Result {
        // Heavy scale-down: structure checks only.
        run_configs(&suite_configs(Suite::ConvTrain)[..4], 4096, 0.53)
    }

    #[test]
    fn every_row_has_all_schemes() {
        let r = quick();
        for row in &r.rows {
            assert_eq!(row.cells.len(), 3);
        }
    }

    #[test]
    fn compression_reduces_core_traffic() {
        let r = quick();
        for row in &r.rows {
            // At the heavy test scale-down, line-granular fills blunt the
            // reduction for the smallest shapes; full-size runs land near
            // the paper's 46%.
            assert!(
                row.core_reduction(ReluScheme::Zcomp) > 0.1,
                "{}: {}",
                row.config.name,
                row.core_reduction(ReluScheme::Zcomp)
            );
        }
    }

    #[test]
    fn summary_aggregates() {
        let r = quick();
        let s = r.summary();
        assert!(s.zcomp_core_reduction > 0.0);
        assert!(s.max_zcomp_speedup >= s.zcomp_speedup * 0.5);
    }

    #[test]
    fn tables_render_all_panels() {
        let r = quick();
        for panel in [Panel::CoreTraffic, Panel::DramTraffic, Panel::Runtime] {
            let text = r.table(panel).render();
            assert!(text.contains("zcomp"));
        }
    }

    #[test]
    fn sweep_matches_serial_run() {
        let configs = &suite_configs(Suite::ConvTrain)[..2];
        let reference = run_configs(configs, 4096, 0.53);
        let sweep = run_sweep(configs, 4096, 0.53, &SweepOpts::default().with_threads(4))
            .expect("parallel sweep");
        assert_eq!(
            reference.rows, sweep.result.rows,
            "parallel sweep must match run_configs"
        );
        assert_eq!(reference.zcomp_prefetch, sweep.result.zcomp_prefetch);
        assert!(sweep.result.quarantined.is_empty());
        assert_eq!(sweep.supervision.executed, configs.len() * SCHEMES.len());
        assert_eq!(sweep.supervision.retries, 0);
    }

    #[test]
    fn resumed_sweep_reproduces_the_interrupted_result() {
        let configs = &suite_configs(Suite::ConvTrain)[..2];
        let full = run_sweep(configs, 4096, 0.53, &SweepOpts::serial()).expect("reference sweep");

        // "Interrupted" run: a 1-worker fabric whose journal holds some
        // completed cells (simulated by running a prefix of the sweep).
        let dir = std::env::temp_dir().join(format!("zfab-fig12-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOpts::serial().with_fabric(FabricOpts::new(&dir).with_worker("w1"));
        run_sweep(&configs[..1], 4096, 0.53, &opts).expect("partial sweep");

        // Resume over the full config set: the first config's cells are
        // restored from the journal, the rest execute.
        let resumed = run_sweep(configs, 4096, 0.53, &opts).expect("resumed sweep");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.supervision.resume_skips, SCHEMES.len());
        assert_eq!(resumed.supervision.executed, SCHEMES.len());
        assert_eq!(
            resumed.result.rows, full.result.rows,
            "resume must be exact"
        );
        assert_eq!(resumed.result.zcomp_prefetch, full.result.zcomp_prefetch);
        // The scientific JSON must be byte-identical. (Trace builds embed
        // run-shape metrics — cells executed vs resumed — so the byte
        // check is for the default, trace-free report.)
        #[cfg(not(feature = "trace"))]
        assert_eq!(
            serde_json::to_string(&resumed.result).unwrap(),
            serde_json::to_string(&full.result).unwrap(),
            "resumed JSON must be byte-identical to an uninterrupted run"
        );
    }
}
