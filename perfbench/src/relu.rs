//! `relu_deepbench`: the Fig. 12 sweep, 44 DeepBench shapes × the three
//! ReLU schemes, each cell on a fresh Table-1 machine.

use zcomp::experiments::fig12::{Fig12Cell, Fig12Result, Fig12Row, SCHEMES};
use zcomp_dnn::deepbench::{all_configs, DeepBenchConfig};
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu_with_path, ExecPath, ReluOpts, ReluRunResult, ReluScheme};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::{Machine, RunSummary};
use zcomp_sim::stats::{CacheStats, PrefetchStats};

use crate::harness::{
    guarded, mix, paper_rel_err, Digest, Pass, Size, UnitTimer, Verification, Workload,
};
use crate::trace::{Tracer, CELL};

/// Input sparsity of the masks: the paper's snapshots average 53%.
const SPARSITY: f64 = 0.53;
/// Mean zero-run length of the synthetic masks (as in Fig. 12).
const MEAN_RUN: f64 = 6.0;
/// Shapes re-run on the reference execution path after timing.
const REFERENCE_SHAPES: usize = 3;

/// The Fig. 12 sweep at one scale divisor.
pub struct Relu {
    seed: u64,
    configs: Vec<DeepBenchConfig>,
    scale: usize,
}

/// Per-shape NNZ masks, built from the seed.
pub struct Inputs {
    masks: Vec<Vec<u8>>,
}

/// One simulated cell.
struct Cell {
    result: ReluRunResult,
    summary: RunSummary,
}

impl Relu {
    /// The workload at `size`. The full size divides every shape by 32,
    /// which keeps most shapes cache-resident on the Table-1 machine while
    /// a few still stream from DRAM.
    pub fn new(seed: u64, size: Size) -> Relu {
        let (configs, scale) = match size {
            Size::Full => (all_configs(), 32),
            Size::Tiny => (all_configs().into_iter().take(2).collect(), 4096),
        };
        Relu {
            seed,
            configs,
            scale,
        }
    }

    fn elements(&self, config: &DeepBenchConfig) -> usize {
        (config.elements / self.scale).max(256)
    }

    fn run_cell(scheme: ReluScheme, nnz: &[u8], path: ExecPath, tracer: &Tracer) -> Cell {
        let mut machine = tracer.time("sim.machine_new", || {
            Machine::new(SimConfig::table1(), UopTable::skylake_x())
        });
        let result = tracer.time(kernel_span(scheme), || {
            run_relu_with_path(&mut machine, scheme, nnz, &ReluOpts::default(), path)
        });
        Cell {
            result,
            summary: machine.summary(),
        }
    }
}

/// Every simulated statistic of a cell, as stable text.
fn cell_json(c: &Cell) -> String {
    serde_json::to_string(&(&c.result, &c.summary)).expect("kernel results serialize")
}

fn kernel_span(scheme: ReluScheme) -> &'static str {
    match scheme {
        ReluScheme::Avx512Vec => "kernels.relu_vec",
        ReluScheme::Avx512Comp => "kernels.relu_comp",
        ReluScheme::Zcomp => "kernels.relu_zcomp",
    }
}

fn hit_rate(c: &CacheStats) -> f64 {
    c.hits as f64 / c.accesses().max(1) as f64
}

fn fig12_cell(scheme: ReluScheme, r: &ReluRunResult) -> Fig12Cell {
    Fig12Cell {
        scheme,
        onchip_bytes: r.traffic.onchip_bytes(),
        dram_bytes: r.traffic.dram_bytes,
        cycles: r.total_cycles(),
        compression_ratio: r.compression_ratio(),
    }
}

impl Workload for Relu {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "relu_deepbench"
    }

    fn size(&self) -> String {
        format!(
            "{} shapes x {} schemes = {} cells, scale 1/{}, sparsity {SPARSITY}, ExecPath::Batched",
            self.configs.len(),
            SCHEMES.len(),
            self.configs.len() * SCHEMES.len(),
            self.scale
        )
    }

    fn setup(&self, tracer: &Tracer) -> Inputs {
        let masks = self
            .configs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                tracer.time("dnn.nnz_gen", || {
                    nnz_synthetic(
                        self.elements(c),
                        SPARSITY,
                        MEAN_RUN,
                        mix(self.seed, i as u64),
                    )
                })
            })
            .collect();
        Inputs { masks }
    }

    fn setup_layers(&self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let totals = tracer.layer_totals();
        vec![(
            "dnn.nnz_gen_s",
            totals.get("dnn.nnz_gen").copied().unwrap_or(0.0),
        )]
    }

    fn pass(&self, inputs: &mut Inputs, tracer: &Tracer, timer: &mut UnitTimer) -> Pass {
        let mut pass = Pass::default();
        let mut rows = Vec::with_capacity(self.configs.len());
        let mut zcomp_prefetch = PrefetchStats::default();
        let (mut l1, mut l2, mut l3) = <(CacheStats, CacheStats, CacheStats)>::default();
        let mut prefetch = PrefetchStats::default();
        let (mut cycles, mut dram, mut onchip) = (0.0, 0u64, 0u64);
        let mut zcomp_ratios = Vec::new();
        for (config, nnz) in self.configs.iter().zip(&inputs.masks) {
            let mut cells = Vec::with_capacity(SCHEMES.len());
            for scheme in SCHEMES {
                let index = pass.cell_digests.len();
                let outcome = timer.time(|| {
                    guarded(
                        || format!("{}/{scheme}", config.name),
                        || {
                            let _cell = tracer.span(CELL);
                            Self::run_cell(scheme, nnz, ExecPath::Batched, tracer)
                        },
                    )
                });
                let cell = match outcome {
                    Ok(cell) => cell,
                    Err(failure) => {
                        pass.failures.cell(index, failure);
                        pass.cell_digests.push(u64::MAX);
                        continue;
                    }
                };
                let s = &cell.summary;
                pass.sim_instructions += s.instructions;
                cycles += s.wall_cycles;
                dram += s.traffic.dram_bytes;
                onchip += s.traffic.onchip_bytes();
                l1.merge(&s.l1);
                l2.merge(&s.l2);
                l3.merge(&s.l3);
                prefetch.merge(&s.l2_prefetch);
                if scheme == ReluScheme::Zcomp {
                    zcomp_prefetch.merge(&s.l2_prefetch);
                    zcomp_ratios.push(cell.result.compression_ratio());
                }
                let mut digest = Digest::default();
                digest.bytes(cell_json(&cell).as_bytes());
                pass.cell_digests.push(digest.finish());
                let fig = fig12_cell(scheme, &cell.result);
                cells.push(fig);
            }
            if cells.len() == SCHEMES.len() {
                rows.push(Fig12Row {
                    config: config.clone(),
                    simulated_elements: self.elements(config),
                    cells,
                });
            }
        }
        if rows.len() == self.configs.len() {
            let s = Fig12Result {
                rows,
                zcomp_prefetch,
                quarantined: Vec::new(),
            }
            .summary();
            // Paper values, Fig. 12 and §5.2.
            pass.paper_rel_err = Some(paper_rel_err(&[
                (s.avx_core_reduction, 0.42),
                (s.zcomp_core_reduction, 0.46),
                (s.avx_dram_reduction, 0.48),
                (s.zcomp_dram_reduction, 0.54),
                (s.zcomp_speedup, 1.77),
                (s.zcomp_vs_avx_speedup, 1.56),
            ]));
        }
        if tracer.enabled() {
            let t = tracer.layer_totals();
            let time = |name: &str| t.get(name).copied().unwrap_or(0.0);
            let host_s = time("sim.machine_new")
                + time("kernels.relu_vec")
                + time("kernels.relu_comp")
                + time("kernels.relu_zcomp");
            pass.layers = vec![
                ("sim.machine_new_s", time("sim.machine_new")),
                ("sim.instructions", pass.sim_instructions as f64),
                ("sim.cycles", cycles),
                ("sim.dram_bytes", dram as f64),
                ("sim.onchip_bytes", onchip as f64),
                ("sim.l1_hit_rate", hit_rate(&l1)),
                ("sim.l2_hit_rate", hit_rate(&l2)),
                ("sim.l3_hit_rate", hit_rate(&l3)),
                ("sim.l2_pf_accuracy", prefetch.accuracy()),
                ("sim.l2_pf_coverage", prefetch.coverage()),
                (
                    "sim.host_ns_per_instr",
                    host_s * 1e9 / pass.sim_instructions.max(1) as f64,
                ),
                ("kernels.relu_vec_s", time("kernels.relu_vec")),
                ("kernels.relu_comp_s", time("kernels.relu_comp")),
                ("kernels.relu_zcomp_s", time("kernels.relu_zcomp")),
                (
                    "kernels.compression_ratio",
                    zcomp_ratios.iter().sum::<f64>() / zcomp_ratios.len().max(1) as f64,
                ),
            ];
        }
        pass
    }

    /// Re-runs the smallest shapes on `ExecPath::Reference` and requires
    /// results identical, byte for byte, to `ExecPath::Batched`.
    fn verify(&self, inputs: &Inputs, _reference: &Pass) -> Verification {
        let mut order: Vec<usize> = (0..self.configs.len()).collect();
        order.sort_by_key(|&i| self.elements(&self.configs[i]));
        let off = Tracer::new(false);
        let mut check = Verification::default();
        for &i in order.iter().take(REFERENCE_SHAPES) {
            for scheme in SCHEMES {
                let index = check.attempted as usize;
                check.attempted += 1;
                let name = &self.configs[i].name;
                let outcome = guarded(
                    || format!("{name}/{scheme} reference path"),
                    || {
                        let fast =
                            Self::run_cell(scheme, &inputs.masks[i], ExecPath::Batched, &off);
                        let slow =
                            Self::run_cell(scheme, &inputs.masks[i], ExecPath::Reference, &off);
                        cell_json(&fast) == cell_json(&slow)
                    },
                );
                match outcome {
                    Ok(true) => {}
                    Ok(false) => check.failures.cell(
                        index,
                        format!(
                            "{name}/{scheme}: ExecPath::Reference differs from ExecPath::Batched"
                        ),
                    ),
                    Err(failure) => check.failures.cell(index, failure),
                }
            }
        }
        check
    }
}
