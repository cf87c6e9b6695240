//! Top-level library of the ZCOMP reproduction.
//!
//! This crate ties the substrates together and exposes one experiment
//! runner per figure of *"ZCOMP: Reducing DNN Cross-Layer Memory Footprint
//! Using Vector Extensions"* (MICRO-52, 2019):
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 1 (machine) | [`zcomp_sim::config::SimConfig::table1`] |
//! | Fig. 1 (VGG-16 sparsity & footprints) | [`experiments::fig01`] |
//! | Fig. 2 (cycle breakdown) | [`experiments::fig02`] |
//! | Fig. 3 (data-structure footprints) | [`experiments::fig03`] |
//! | Fig. 12 (DeepBench ReLU study) | [`experiments::fig12`] |
//! | Fig. 13/14 (full networks) | [`experiments::fullnet`] |
//! | Fig. 15 (vs cache compression) | [`experiments::fig15`] |
//! | §3.3/§4.1/§4.3 ablations | [`experiments::ablations`] |
//!
//! The underlying pieces are re-exported: the ZCOMP ISA model
//! ([`zcomp_isa`]), the multicore simulator ([`zcomp_sim`]), the DNN
//! workload substrate ([`zcomp_dnn`]), the cache-compression baselines
//! ([`zcomp_cachecomp`]) and the workload kernels ([`zcomp_kernels`]).
//!
//! # Example
//!
//! ```
//! // Reproduce a scaled-down Figure 15 and check the paper's ordering.
//! let fig15 = zcomp::experiments::fig15::run(2, 32 * 1024);
//! let (zcomp, limitcc, twotag) = fig15.geomeans();
//! assert!(zcomp > limitcc && limitcc > twotag);
//! ```

pub mod experiments;
pub mod fabric;
pub mod fleet;
pub mod report;
pub mod serve;
pub mod supervise;
pub mod sweep;

pub use zcomp_cachecomp;
pub use zcomp_dnn;
pub use zcomp_isa;
pub use zcomp_kernels;
pub use zcomp_sim;
