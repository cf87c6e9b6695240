//! The three ReLU activation-layer implementations of §4.4 and §5.2.
//!
//! * `avx512-vec` — the uncompressed baseline: vectorized ReLU via
//!   `vmaxps`, full-width stores.
//! * `avx512-comp` — compression with pre-existing AVX512 instructions
//!   (Figs. 10/11): explicit mask compare, popcount, `vcompressstoreu`,
//!   index arithmetic and a separate mask (header) array.
//! * `zcomp` — the proposed instruction (Figs. 8/9): a single `zcomps`
//!   with the `_LTEZ` condition fuses the ReLU comparison and the
//!   compression; `zcompl` retrieves the data.
//!
//! Each implementation drives the simulated [`Machine`] with the exact
//! per-iteration instruction sequence of the corresponding code listing,
//! using the partitioned parallelization of Fig. 7(b) (or the serialized
//! variant of Fig. 7(a) for the ablation). A run has two phases mirroring
//! cross-layer communication: the ReLU *store* pass that writes the
//! feature map, and an optional *consumer* pass where the next layer reads
//! it back.

use serde::{Deserialize, Serialize};
use zcomp_isa::instr::Instr;
use zcomp_isa::program::{BatchLane, Cursors, InstrProgram, ProgramOp, Reg};
use zcomp_isa::stream::HeaderMode;
use zcomp_sim::engine::{Machine, PhaseMode, PhaseReport};

use crate::nnz::LANES;
use crate::partition::{partition, Parallelization};

/// Base virtual address of the input tensor X.
pub const X_BASE: u64 = 0x1000_0000;
/// Base virtual address of the output tensor Y.
pub const Y_BASE: u64 = 0x5000_0000;
/// Base virtual address of the avx512-comp / separate-header mask array.
pub const HEADER_BASE: u64 = 0x9000_0000;

/// The evaluated ReLU implementations (legend of Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReluScheme {
    /// Uncompressed AVX512 baseline.
    Avx512Vec,
    /// AVX512 `vcompress`/`vexpand` compression (Figs. 10/11).
    Avx512Comp,
    /// The proposed ZCOMP instructions (Figs. 8/9).
    Zcomp,
}

impl std::fmt::Display for ReluScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReluScheme::Avx512Vec => "avx512-vec",
            ReluScheme::Avx512Comp => "avx512-comp",
            ReluScheme::Zcomp => "zcomp",
        })
    }
}

/// Options of a ReLU kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReluOpts {
    /// Worker threads (the paper uses all 16 cores).
    pub threads: usize,
    /// ZCOMP header placement (§3.1 vs §3.2).
    pub header_mode: HeaderMode,
    /// Fig. 7(a) vs Fig. 7(b) parallelization.
    pub parallelization: Parallelization,
    /// Loop-unroll factor via sub-block slicing (§4.3); 1 = no unrolling.
    pub unroll: usize,
    /// Whether the consumer (expand/read-back) pass runs.
    pub consumer_pass: bool,
    /// Parallel-region launch overhead per thread per phase, cycles.
    pub launch_overhead: f64,
    /// Extra per-thread setup for compression schemes (threadprivate
    /// compressed-pointer distribution), cycles.
    pub compression_setup: f64,
    /// Warm-up iterations executed before measurement (DeepBench-style
    /// steady state: the caches hold whatever fits after the first pass).
    pub warmup_iterations: usize,
    /// Measured iterations; timing and traffic are reported over these.
    pub iterations: usize,
}

impl Default for ReluOpts {
    fn default() -> Self {
        ReluOpts {
            threads: 16,
            header_mode: HeaderMode::Interleaved,
            parallelization: Parallelization::Partitioned,
            unroll: 1,
            consumer_pass: true,
            launch_overhead: 2000.0,
            compression_setup: 100.0,
            warmup_iterations: 1,
            iterations: 1,
        }
    }
}

/// Which execution path drives the simulated machine.
///
/// Both paths issue the identical memory-access sequence and produce
/// bit-identical results; [`ExecPath::Batched`] amortizes per-op
/// dispatch through [`Machine::exec_batch`] and is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecPath {
    /// Pre-decoded instruction programs executed via
    /// [`Machine::exec_batch`] (the fast path).
    Batched,
    /// One [`Machine::exec`] call per instruction (the reference path).
    Reference,
}

/// Result of one ReLU kernel run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReluRunResult {
    /// Timing of the ReLU store pass (last measured iteration).
    pub store_phase: PhaseReport,
    /// Timing of the consumer pass, if run (last measured iteration).
    pub load_phase: Option<PhaseReport>,
    /// Wall cycles summed over all measured iterations.
    pub measured_cycles: f64,
    /// Traffic accumulated over the measured iterations only.
    pub traffic: zcomp_sim::stats::TrafficStats,
    /// Bytes the scheme wrote for the output feature map per iteration
    /// (including any headers).
    pub output_bytes: u64,
    /// Bytes the uncompressed output occupies.
    pub uncompressed_bytes: u64,
}

impl ReluRunResult {
    /// Total measured wall cycles (all measured iterations, both phases).
    pub fn total_cycles(&self) -> f64 {
        self.measured_cycles
    }

    /// Output compression ratio (1.0 for the uncompressed baseline).
    pub fn compression_ratio(&self) -> f64 {
        if self.output_bytes == 0 {
            1.0
        } else {
            self.uncompressed_bytes as f64 / self.output_bytes as f64
        }
    }
}

/// Runs one ReLU layer under `scheme` over a feature map described by its
/// per-vector NNZ sequence.
///
/// # Panics
///
/// Panics if `opts.threads` exceeds the machine's core count or is zero.
pub fn run_relu(
    machine: &mut Machine,
    scheme: ReluScheme,
    nnz: &[u8],
    opts: &ReluOpts,
) -> ReluRunResult {
    run_relu_with_path(machine, scheme, nnz, opts, ExecPath::Batched)
}

/// [`run_relu`] with an explicit execution path — the differential tests
/// and the `bench_sim` harness drive both paths and compare.
///
/// # Panics
///
/// Panics if `opts.threads` exceeds the machine's core count or is zero.
pub fn run_relu_with_path(
    machine: &mut Machine,
    scheme: ReluScheme,
    nnz: &[u8],
    opts: &ReluOpts,
    path: ExecPath,
) -> ReluRunResult {
    let _span = zcomp_trace::tracer::span("kernels", "run_relu");
    assert!(
        opts.threads > 0 && opts.threads <= machine.threads(),
        "thread count must be in 1..=cores"
    );
    let elements = nnz.len() * LANES;
    let chunks = partition(elements, opts.threads, LANES);
    let uncompressed_bytes = (elements * 4) as u64;
    let mode = match opts.parallelization {
        Parallelization::Partitioned => PhaseMode::Parallel,
        Parallelization::Serialized => PhaseMode::Serialized,
    };
    let max_vecs = chunks.iter().map(|c| c.len() / LANES).max().unwrap_or(0);

    // Batched path: decode each pass's loop body once, reuse the program
    // across warm-up and measured iterations (only the cursors reset).
    let store_prog = store_program(scheme, opts);
    let load_prog = load_program(scheme, opts);
    let make_lanes = || -> Vec<BatchLane> {
        chunks
            .iter()
            .map(|c| BatchLane {
                thread: c.thread,
                first_vec: c.start / LANES,
                vectors: c.len() / LANES,
                cursors: Cursors {
                    x: X_BASE + c.start as u64 * 4,
                    // Partitioned: each thread's output slice starts at
                    // the same relative offset as its input slice.
                    y: Y_BASE + c.start as u64 * 4,
                    h: HEADER_BASE + (c.start / LANES) as u64 * 2,
                },
            })
            .collect()
    };
    // Store-pass bytes in closed form (u64 sums in vector order — the
    // same integer additions the reference path performs step-by-step).
    let store_bytes = pass_output_bytes(scheme, nnz);

    // One iteration = the ReLU store pass plus (optionally) the consumer
    // pass. DeepBench-style steady state: run warm-up iterations first,
    // then measure.
    let run_iteration = |machine: &mut Machine| -> (PhaseReport, Option<PhaseReport>, u64) {
        // ---- store pass: X is read, ReLU applied, Y written ----
        let output_bytes = match path {
            ExecPath::Batched => {
                let mut lanes = make_lanes();
                machine.exec_batch(&store_prog, &mut lanes, nnz);
                store_bytes
            }
            ExecPath::Reference => {
                let mut writers: Vec<ThreadCursor> = chunks
                    .iter()
                    .map(|c| ThreadCursor::new(c.thread, c.start, c.len() / LANES))
                    .collect();
                let mut bytes = 0u64;
                for step in 0..max_vecs {
                    for w in &mut writers {
                        if step >= w.vectors {
                            continue;
                        }
                        let n = u32::from(nnz[w.first_vec + step]);
                        bytes += w.emit_store(machine, scheme, opts, n, step);
                    }
                }
                bytes
            }
        };
        for c in &chunks {
            if !c.is_empty() {
                machine.charge_compute(c.thread, opts.launch_overhead + setup_cost(scheme, opts));
            }
        }
        let store_phase = machine.end_phase(mode);

        // ---- consumer pass: the next layer reads Y back ----
        let load_phase = if opts.consumer_pass {
            match path {
                ExecPath::Batched => {
                    let mut lanes = make_lanes();
                    machine.exec_batch(&load_prog, &mut lanes, nnz);
                }
                ExecPath::Reference => {
                    let mut readers: Vec<ThreadCursor> = chunks
                        .iter()
                        .map(|c| ThreadCursor::new(c.thread, c.start, c.len() / LANES))
                        .collect();
                    for step in 0..max_vecs {
                        for r in &mut readers {
                            if step >= r.vectors {
                                continue;
                            }
                            let n = u32::from(nnz[r.first_vec + step]);
                            r.emit_load(machine, scheme, opts, n, step);
                        }
                    }
                }
            }
            for c in &chunks {
                if !c.is_empty() {
                    machine
                        .charge_compute(c.thread, opts.launch_overhead + setup_cost(scheme, opts));
                }
            }
            Some(machine.end_phase(mode))
        } else {
            None
        };
        (store_phase, load_phase, output_bytes)
    };

    for _ in 0..opts.warmup_iterations {
        run_iteration(machine);
    }
    let traffic_before = *machine.mem().traffic();
    let cycles_before = machine.total_cycles();
    let mut last = None;
    for _ in 0..opts.iterations.max(1) {
        last = Some(run_iteration(machine));
    }
    // Deltas of the machine's own accumulators, not a re-summation of the
    // phase reports: the recorded figures depend on this exact f64
    // expression, so both execution paths match bit-for-bit.
    let measured_cycles = machine.total_cycles() - cycles_before;
    let (store_phase, load_phase, mut output_bytes) =
        last.expect("at least one measured iteration");
    let mut traffic = *machine.mem().traffic();
    traffic.core_read_bytes -= traffic_before.core_read_bytes;
    traffic.core_write_bytes -= traffic_before.core_write_bytes;
    traffic.l2_fill_bytes -= traffic_before.l2_fill_bytes;
    traffic.l3_fill_bytes -= traffic_before.l3_fill_bytes;
    traffic.dram_bytes -= traffic_before.dram_bytes;

    if scheme == ReluScheme::Avx512Vec {
        output_bytes = uncompressed_bytes;
    }
    ReluRunResult {
        store_phase,
        load_phase,
        measured_cycles,
        traffic,
        output_bytes,
        uncompressed_bytes,
    }
}

fn setup_cost(scheme: ReluScheme, opts: &ReluOpts) -> f64 {
    match scheme {
        ReluScheme::Avx512Vec => 0.0,
        ReluScheme::Avx512Comp | ReluScheme::Zcomp => opts.compression_setup,
    }
}

/// Decodes the store-pass loop body (Figs. 8/10) into a program — the
/// exact instruction order [`ThreadCursor::emit_store`] emits.
fn store_program(scheme: ReluScheme, opts: &ReluOpts) -> InstrProgram {
    let mut ops = vec![ProgramOp::VLoad(Reg::X)];
    match scheme {
        ReluScheme::Avx512Vec => ops.extend([ProgramOp::VMaxPs, ProgramOp::VStore(Reg::Y)]),
        ReluScheme::Avx512Comp => ops.extend([
            ProgramOp::VCmpPsMask,
            ProgramOp::KmovPopcnt,
            ProgramOp::VCompressStore,
            ProgramOp::ScalarAdd,
            ProgramOp::StoreMask,
        ]),
        ReluScheme::Zcomp => ops.push(ProgramOp::ZcompS(opts.header_mode)),
    }
    InstrProgram::new(ops, opts.unroll)
}

/// Decodes the consumer-pass loop body (Figs. 9/11) — the exact order of
/// [`ThreadCursor::emit_load`].
fn load_program(scheme: ReluScheme, opts: &ReluOpts) -> InstrProgram {
    let mut ops = match scheme {
        ReluScheme::Avx512Vec => vec![ProgramOp::VLoad(Reg::Y)],
        ReluScheme::Avx512Comp => vec![
            ProgramOp::LoadMask,
            ProgramOp::KmovPopcnt,
            ProgramOp::VExpandLoad,
            ProgramOp::ScalarAdd,
        ],
        ReluScheme::Zcomp => vec![ProgramOp::ZcompL(opts.header_mode)],
    };
    // Figs. 9/11: the consumer performs one vector op on the expanded
    // data in every scheme.
    ops.push(ProgramOp::VMaxPs);
    InstrProgram::new(ops, opts.unroll)
}

/// Store-pass output bytes in closed form — per vector, the same value
/// [`ThreadCursor::emit_store`] returns.
fn pass_output_bytes(scheme: ReluScheme, nnz: &[u8]) -> u64 {
    match scheme {
        ReluScheme::Avx512Vec => nnz.len() as u64 * 64,
        ReluScheme::Avx512Comp | ReluScheme::Zcomp => {
            nnz.iter().map(|&n| u64::from(n) * 4 + 2).sum()
        }
    }
}

/// Per-thread address cursors for one pass.
struct ThreadCursor {
    thread: usize,
    /// First vector index of the chunk in the global NNZ sequence.
    first_vec: usize,
    vectors: usize,
    /// X address of the next vector.
    x_addr: u64,
    /// Compressed/uncompressed Y pointer (the auto-incremented `reg2`).
    y_ptr: u64,
    /// Header pointer (`reg3` / the avx512-comp mask array).
    header_ptr: u64,
}

impl ThreadCursor {
    fn new(thread: usize, start_elem: usize, vectors: usize) -> Self {
        let first_vec = start_elem / LANES;
        ThreadCursor {
            thread,
            first_vec,
            vectors,
            x_addr: X_BASE + start_elem as u64 * 4,
            // Partitioned: each thread's output slice starts at the same
            // relative offset as its input slice (Fig. 8's Y_ptr).
            y_ptr: Y_BASE + start_elem as u64 * 4,
            header_ptr: HEADER_BASE + first_vec as u64 * 2,
        }
    }

    /// Emits one store-pass iteration; returns bytes written to Y (plus
    /// headers).
    fn emit_store(
        &mut self,
        machine: &mut Machine,
        scheme: ReluScheme,
        opts: &ReluOpts,
        nnz: u32,
        step: usize,
    ) -> u64 {
        let t = self.thread;
        machine.exec(t, &Instr::VLoad { addr: self.x_addr });
        self.x_addr += 64;
        let written = match scheme {
            ReluScheme::Avx512Vec => {
                machine.exec(t, &Instr::VMaxPs);
                machine.exec(t, &Instr::VStore { addr: self.y_ptr });
                self.y_ptr += 64;
                64
            }
            ReluScheme::Avx512Comp => {
                machine.exec(t, &Instr::VCmpPsMask);
                machine.exec(t, &Instr::KmovPopcnt);
                machine.exec(
                    t,
                    &Instr::VCompressStore {
                        addr: self.y_ptr,
                        bytes: nnz * 4,
                    },
                );
                machine.exec(t, &Instr::ScalarAdd);
                machine.exec(
                    t,
                    &Instr::StoreMask {
                        addr: self.header_ptr,
                    },
                );
                self.y_ptr += u64::from(nnz) * 4;
                self.header_ptr += 2;
                u64::from(nnz) * 4 + 2
            }
            ReluScheme::Zcomp => {
                let (bytes, header_addr) = match opts.header_mode {
                    HeaderMode::Interleaved => (2 + nnz * 4, None),
                    HeaderMode::Separate => (nnz * 4, Some(self.header_ptr)),
                };
                machine.exec(
                    t,
                    &Instr::ZcompS {
                        variant: opts.header_mode,
                        addr: self.y_ptr,
                        bytes,
                        header_addr,
                        header_bytes: 2,
                    },
                );
                self.y_ptr += u64::from(bytes);
                if opts.header_mode == HeaderMode::Separate {
                    self.header_ptr += 2;
                }
                u64::from(nnz) * 4 + 2
            }
        };
        if step.is_multiple_of(opts.unroll.max(1)) {
            machine.exec(t, &Instr::LoopOverhead);
        }
        written
    }

    /// Emits one consumer-pass iteration reading the vector back.
    fn emit_load(
        &mut self,
        machine: &mut Machine,
        scheme: ReluScheme,
        opts: &ReluOpts,
        nnz: u32,
        step: usize,
    ) {
        let t = self.thread;
        match scheme {
            ReluScheme::Avx512Vec => {
                machine.exec(t, &Instr::VLoad { addr: self.y_ptr });
                self.y_ptr += 64;
            }
            // (consumer op appended below for every scheme)
            ReluScheme::Avx512Comp => {
                machine.exec(
                    t,
                    &Instr::LoadMask {
                        addr: self.header_ptr,
                    },
                );
                machine.exec(t, &Instr::KmovPopcnt);
                machine.exec(
                    t,
                    &Instr::VExpandLoad {
                        addr: self.y_ptr,
                        bytes: nnz * 4,
                    },
                );
                machine.exec(t, &Instr::ScalarAdd);
                self.y_ptr += u64::from(nnz) * 4;
                self.header_ptr += 2;
            }
            ReluScheme::Zcomp => {
                let (bytes, header_addr) = match opts.header_mode {
                    HeaderMode::Interleaved => (2 + nnz * 4, None),
                    HeaderMode::Separate => (nnz * 4, Some(self.header_ptr)),
                };
                machine.exec(
                    t,
                    &Instr::ZcompL {
                        variant: opts.header_mode,
                        addr: self.y_ptr,
                        bytes,
                        header_addr,
                        header_bytes: 2,
                    },
                );
                self.y_ptr += u64::from(bytes);
                if opts.header_mode == HeaderMode::Separate {
                    self.header_ptr += 2;
                }
            }
        }
        // Figs. 9/11: "use the retrieved input tvec" — the consumer
        // performs one vector op on the expanded data in every scheme.
        machine.exec(t, &Instr::VMaxPs);
        if step.is_multiple_of(opts.unroll.max(1)) {
            machine.exec(t, &Instr::LoopOverhead);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnz::{nnz_synthetic, payload_bytes};
    use zcomp_isa::uops::UopTable;
    use zcomp_sim::config::SimConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::table1(), UopTable::skylake_x())
    }

    fn opts(threads: usize) -> ReluOpts {
        ReluOpts {
            threads,
            ..ReluOpts::default()
        }
    }

    #[test]
    fn zcomp_writes_fewer_bytes_than_baseline() {
        let nnz = nnz_synthetic(64 * 1024, 0.53, 6.0, 1);
        let mut m = machine();
        let z = run_relu(&mut m, ReluScheme::Zcomp, &nnz, &opts(16));
        assert!(z.output_bytes < z.uncompressed_bytes);
        assert!(z.compression_ratio() > 1.5);
    }

    #[test]
    fn baseline_writes_full_tensor() {
        let nnz = nnz_synthetic(16 * 1024, 0.53, 6.0, 2);
        let mut m = machine();
        let b = run_relu(&mut m, ReluScheme::Avx512Vec, &nnz, &opts(16));
        assert_eq!(b.output_bytes, b.uncompressed_bytes);
        assert_eq!(b.compression_ratio(), 1.0);
    }

    #[test]
    fn compressed_schemes_reduce_core_traffic() {
        let nnz = nnz_synthetic(256 * 1024, 0.53, 6.0, 3);
        let traffic = |scheme| {
            let mut m = machine();
            run_relu(&mut m, scheme, &nnz, &opts(16));
            m.summary().traffic.core_bytes()
        };
        let base = traffic(ReluScheme::Avx512Vec);
        let avx = traffic(ReluScheme::Avx512Comp);
        let z = traffic(ReluScheme::Zcomp);
        assert!(avx < base, "avx512-comp {avx} vs base {base}");
        assert!(z < base, "zcomp {z} vs base {base}");
        assert!(z <= avx, "zcomp {z} must not exceed avx512-comp {avx}");
    }

    #[test]
    fn avx512_comp_is_slower_on_cache_resident_data() {
        // Fig. 12(c): for small/medium feature maps avx512-comp degrades
        // performance because of the extra instructions.
        let nnz = nnz_synthetic(128 * 1024, 0.53, 6.0, 4);
        let time = |scheme| {
            let mut m = machine();
            // Warm the caches with one run, measure the second.
            run_relu(&mut m, scheme, &nnz, &opts(16));
            run_relu(&mut m, scheme, &nnz, &opts(16)).total_cycles()
        };
        let base = time(ReluScheme::Avx512Vec);
        let avx = time(ReluScheme::Avx512Comp);
        assert!(
            avx > base * 1.2,
            "avx512-comp {avx} should degrade vs baseline {base}"
        );
    }

    #[test]
    fn zcomp_wins_on_dram_resident_data() {
        // 64 MB tensor: far beyond the 24 MB L3, DRAM-bandwidth-bound.
        let nnz = nnz_synthetic(16 << 20, 0.53, 6.0, 5);
        let time = |scheme| {
            let mut m = machine();
            run_relu(&mut m, scheme, &nnz, &opts(16)).total_cycles()
        };
        let base = time(ReluScheme::Avx512Vec);
        let z = time(ReluScheme::Zcomp);
        assert!(z < base, "zcomp {z} must beat baseline {base}");
    }

    #[test]
    fn serialized_parallelization_is_slower() {
        let nnz = nnz_synthetic(64 * 1024, 0.53, 6.0, 6);
        let time = |par| {
            let mut m = machine();
            let o = ReluOpts {
                parallelization: par,
                consumer_pass: false,
                ..opts(8)
            };
            // Warm run then measured run, cache-resident.
            run_relu(&mut m, ReluScheme::Zcomp, &nnz, &o);
            run_relu(&mut m, ReluScheme::Zcomp, &nnz, &o).total_cycles()
        };
        let par = time(Parallelization::Partitioned);
        let ser = time(Parallelization::Serialized);
        assert!(ser > par * 2.0, "serialized {ser} vs partitioned {par}");
    }

    #[test]
    fn separate_header_matches_interleaved_payload() {
        let nnz = nnz_synthetic(32 * 1024, 0.5, 6.0, 7);
        let run = |mode| {
            let mut m = machine();
            let o = ReluOpts {
                header_mode: mode,
                ..opts(16)
            };
            run_relu(&mut m, ReluScheme::Zcomp, &nnz, &o).output_bytes
        };
        assert_eq!(
            run(HeaderMode::Interleaved),
            run(HeaderMode::Separate),
            "both modes store the same payload + header bytes"
        );
    }

    #[test]
    fn output_byte_accounting_matches_nnz() {
        let nnz = vec![16u8, 0, 8, 4];
        let mut m = machine();
        let z = run_relu(&mut m, ReluScheme::Zcomp, &nnz, &opts(1));
        assert_eq!(z.output_bytes, payload_bytes(&nnz) + 2 * 4);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn too_many_threads_panics() {
        let nnz = vec![8u8; 16];
        let mut m = machine();
        run_relu(&mut m, ReluScheme::Zcomp, &nnz, &opts(64));
    }
}
