//! Trace-driven, cycle-approximate multicore simulator for the ZCOMP
//! reproduction.
//!
//! This crate is the substrate the paper ran on (an extended Sniper fork),
//! rebuilt from scratch: the Table-1 machine — 16 AVX512 cores at 2.4 GHz,
//! private 32 KB L1-D (LRU) and 1 MB L2 (SRRIP), a 24 MB shared L3 (SRRIP)
//! reached over a 2-cycle-hop 2D mesh, stream/stride prefetching at L2 and
//! IP/region-based prefetching at L1, and 4-channel DDR4-2133 at 68 GB/s.
//!
//! The simulator is organised bottom-up:
//!
//! * [`config`] — machine description ([`config::SimConfig::table1`]).
//! * [`bitset`] — packed `u64` bitset backing the per-line flag state.
//! * [`cache`] — set-associative arrays with LRU/SRRIP replacement.
//! * [`prefetch`] — the stream/stride prefetcher model.
//! * [`noc`] — the 2D-mesh latency model.
//! * [`dram`] — DDR4 bandwidth/queueing model.
//! * [`hierarchy`] — the composed memory system, trace-driven at cache-line
//!   granularity with full fill/writeback/prefetch traffic accounting.
//! * [`core`] — two core timing models: a bulk-throughput roofline model
//!   and a Sniper-style interval model.
//! * [`engine`] — [`engine::Machine`], the façade the workload kernels
//!   drive instruction by instruction.
//!
//! # Example
//!
//! ```
//! use zcomp_sim::config::SimConfig;
//! use zcomp_sim::engine::{Machine, PhaseMode};
//! use zcomp_isa::instr::Instr;
//! use zcomp_isa::uops::UopTable;
//!
//! let mut machine = Machine::new(SimConfig::test_tiny(), UopTable::skylake_x());
//! for i in 0..1024u64 {
//!     machine.exec(0, &Instr::VLoad { addr: i * 64 });
//! }
//! let phase = machine.end_phase(PhaseMode::Parallel);
//! assert!(phase.wall_cycles > 0.0);
//! let summary = machine.summary();
//! assert_eq!(summary.traffic.core_read_bytes, 1024 * 64);
//! ```

pub mod bitset;
pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod engine;
pub mod faults;
pub mod hierarchy;
pub mod noc;
pub mod prefetch;
pub mod stats;

pub use bitset::BitSet;
pub use config::SimConfig;
pub use engine::{Machine, PhaseMode, PhaseReport, RunSummary};
pub use faults::{FaultConfig, FaultEvent, FaultProbe, FaultSite};
pub use hierarchy::{AccessResult, MemorySystem, ServedBy};
pub use stats::{CacheStats, CycleBreakdown, FaultStats, PrefetchStats, TrafficStats};
