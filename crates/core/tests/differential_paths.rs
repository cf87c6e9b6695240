//! Differential property tests: batched fast path vs reference path.
//!
//! The batched executor and the fused synthetic-NNZ generator are pure
//! optimizations — every observable output must be bit-identical to the
//! straightforward reference implementations. These properties drive
//! randomized tensors, sparsities, thread counts, schemes, header
//! placements and unroll factors through both paths and compare the
//! complete serialized results (which include `CacheStats` and
//! `TrafficStats` for every cache level).

use proptest::prelude::*;

use zcomp_isa::stream::HeaderMode;
use zcomp_isa::uops::UopTable;
use zcomp_kernels::nnz::nnz_synthetic;
use zcomp_kernels::relu::{run_relu_with_path, ExecPath, ReluOpts, ReluScheme};
use zcomp_sim::config::SimConfig;
use zcomp_sim::engine::Machine;

const SCHEMES: [ReluScheme; 3] = [
    ReluScheme::Avx512Vec,
    ReluScheme::Avx512Comp,
    ReluScheme::Zcomp,
];

/// Runs one configuration through a path and returns the full serialized
/// observable state: kernel result plus machine summary (cycle counts,
/// per-level `CacheStats`, `TrafficStats`, uop totals).
fn run_path(scheme: ReluScheme, nnz: &[u8], opts: &ReluOpts, path: ExecPath) -> String {
    let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
    let result = run_relu_with_path(&mut machine, scheme, nnz, opts, path);
    serde_json::to_string(&(&result, &machine.summary())).expect("serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched and reference execution agree on every statistic for random
    /// tensor sizes, sparsities, schemes, thread counts, header modes and
    /// unroll factors.
    #[test]
    fn batched_path_matches_reference(
        vectors in 1usize..3000,
        sparsity in 0.0f64..1.0,
        mean_run in 1.0f64..12.0,
        seed in 0u64..1 << 48,
        scheme_idx in 0usize..SCHEMES.len(),
        threads in 1usize..17,
        separate in 0u8..2,
        unroll in 1usize..5,
    ) {
        let nnz = nnz_synthetic(vectors * 16, sparsity, mean_run, seed);
        let opts = ReluOpts {
            threads,
            header_mode: if separate != 0 { HeaderMode::Separate } else { HeaderMode::Interleaved },
            unroll,
            ..ReluOpts::default()
        };
        let scheme = SCHEMES[scheme_idx];
        let fast = run_path(scheme, &nnz, &opts, ExecPath::Batched);
        let reference = run_path(scheme, &nnz, &opts, ExecPath::Reference);
        prop_assert_eq!(fast, reference, "scheme {} diverged", scheme);
    }
}
