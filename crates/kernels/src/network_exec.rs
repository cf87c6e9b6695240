//! End-to-end network execution on the simulator (Figs. 2, 13, 14).
//!
//! One training step is modelled as the paper's frameworks run it:
//! per-layer parallel regions over 16 cores. For every layer the executor
//! streams the input feature map (compressed if a scheme is active and
//! the producer was compressible), streams the weights, charges the dense
//! math analytically, and streams the output feature map (compressed per
//! the layer's sparsity). Training adds the backward pass: gradient maps
//! flow in reverse, and each layer re-reads its stored forward feature
//! map — the long-term reuse of §2.3 that makes training the big winner
//! for ZCOMP.

use serde::{Deserialize, Serialize};
use zcomp_dnn::network::Network;
use zcomp_dnn::sparsity::SparsityProfile;
use zcomp_sim::engine::{Machine, PhaseMode, RunSummary};
use zcomp_sim::faults::FaultConfig;
use zcomp_sim::stats::FaultStats;

use crate::layer_exec::{
    separate_header_bytes, stream_feature_map, stream_feature_map_checked, stream_weights,
    AddressSpace, DegradeSummary, Region, Scheme,
};

/// Options for a network run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkExecOpts {
    /// Cross-layer compression scheme.
    pub scheme: Scheme,
    /// Training (forward + backward) or inference (forward only).
    pub training: bool,
    /// Worker threads.
    pub threads: usize,
    /// Sustained dense-math throughput per core in FLOPs/cycle
    /// (AVX512 peak is 64; MKL kernels sustain a large fraction of it).
    pub flops_per_cycle_per_core: f64,
    /// Gradient backward passes cost roughly twice the forward FLOPs.
    pub backward_flop_factor: f64,
}

impl Default for NetworkExecOpts {
    fn default() -> Self {
        NetworkExecOpts {
            scheme: Scheme::None,
            training: true,
            threads: 16,
            flops_per_cycle_per_core: 40.0,
            backward_flop_factor: 2.0,
        }
    }
}

/// Result of one network step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkRunResult {
    /// Machine summary over the whole step.
    pub summary: RunSummary,
    /// Per-layer wall cycles, forward order (backward phases appended).
    pub phase_cycles: Vec<f64>,
}

/// Result of one network step under fault injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultedNetworkRunResult {
    /// The step's timing/traffic result (degradation overhead included).
    pub run: NetworkRunResult,
    /// Retry/fallback counters of the degradation policy.
    pub degrade: DegradeSummary,
    /// Per-site injection and detection counters.
    pub fault_stats: FaultStats,
}

/// Runs one step (forward, plus backward when training) of `net` on the
/// machine.
///
/// # Panics
///
/// Panics if the profile length does not match the layer count, or the
/// thread count exceeds the machine's cores.
pub fn run_network(
    machine: &mut Machine,
    net: &Network,
    profile: &SparsityProfile,
    opts: &NetworkExecOpts,
) -> NetworkRunResult {
    run_network_inner(machine, net, profile, opts, None)
}

/// [`run_network`] with fault injection armed and the retry-then-fallback
/// degradation policy applied to every compressed feature-map read.
///
/// Probes for every site with a non-zero rate in `faults` are attached to
/// the machine before the step; detections, retries and fallbacks accrue
/// to the returned [`DegradeSummary`] and the machine's per-site counters.
/// With every rate zero this is byte-identical to [`run_network`].
///
/// # Panics
///
/// Panics if the profile length does not match the layer count, or the
/// thread count exceeds the machine's cores.
pub fn run_network_faulted(
    machine: &mut Machine,
    net: &Network,
    profile: &SparsityProfile,
    opts: &NetworkExecOpts,
    faults: &FaultConfig,
) -> FaultedNetworkRunResult {
    machine.attach_faults(faults);
    machine.drain_fault_events();
    let mut degrade = DegradeSummary::default();
    let run = run_network_inner(machine, net, profile, opts, Some(&mut degrade));
    // Events that never intersected a checked compressed read struck
    // uncompressed data (baseline-equivalent exposure) — drop them.
    machine.drain_fault_events();
    FaultedNetworkRunResult {
        run,
        degrade,
        fault_stats: machine.fault_stats(),
    }
}

/// Reads a feature map, routing through the integrity-checked path when a
/// degradation summary is being collected.
#[allow(clippy::too_many_arguments)]
fn read_feature_map(
    machine: &mut Machine,
    threads: usize,
    data_region: Region,
    header_region: Option<Region>,
    alloc_bytes: u64,
    sparsity: f64,
    scheme: Scheme,
    degrade: &mut Option<&mut DegradeSummary>,
) {
    match degrade {
        Some(d) => stream_feature_map_checked(
            machine,
            threads,
            data_region,
            header_region,
            alloc_bytes,
            sparsity,
            scheme,
            d,
        ),
        None => stream_feature_map(
            machine,
            threads,
            data_region,
            header_region,
            alloc_bytes,
            sparsity,
            scheme,
            false,
        ),
    }
}

fn run_network_inner(
    machine: &mut Machine,
    net: &Network,
    profile: &SparsityProfile,
    opts: &NetworkExecOpts,
    mut degrade: Option<&mut DegradeSummary>,
) -> NetworkRunResult {
    let _span = zcomp_trace::tracer::span("kernels", "run_network");
    assert_eq!(
        profile.per_layer.len(),
        net.layers.len(),
        "profile must cover every layer"
    );
    assert!(
        opts.threads > 0 && opts.threads <= machine.threads(),
        "thread count must be in 1..=cores"
    );

    let mut space = AddressSpace::new();
    let input_region = space.alloc(net.input.bytes() as u64);
    let weight_regions: Vec<Region> = net
        .layers
        .iter()
        .map(|l| space.alloc(l.weight_bytes() as u64))
        .collect();

    // Feature-map buffers: training accumulates one buffer per layer for
    // the backward pass; inference ping-pongs between two buffers sized
    // for the largest output (maps are discarded once consumed, §5.3).
    let fm_regions: Vec<Region> = if opts.training {
        net.layers
            .iter()
            .map(|l| space.alloc(l.output.bytes() as u64))
            .collect()
    } else {
        let max = net.max_layer_output_bytes() as u64;
        let ping = space.alloc(max);
        let pong = space.alloc(max);
        net.layers
            .iter()
            .enumerate()
            .map(|(i, l)| Region {
                base: if i % 2 == 0 { ping.base } else { pong.base },
                alloc_bytes: l.output.bytes() as u64,
            })
            .collect()
    };
    // Separate mask arrays for avx512-comp (Fig. 10's `headers[]`): one
    // per feature-map buffer, plus a ping-pong pair for gradients.
    let needs_headers = opts.scheme == Scheme::Avx512Comp;
    let fm_headers: Vec<Option<Region>> = net
        .layers
        .iter()
        .map(|l| needs_headers.then(|| space.alloc(separate_header_bytes(l.output.bytes() as u64))))
        .collect();
    // Gradient maps (training): ping-pong pair sized for the largest
    // output — each gradient is consumed by the next (previous) layer.
    let grad_regions: Option<(Region, Region)> = opts.training.then(|| {
        let max = net.max_layer_output_bytes() as u64;
        (space.alloc(max), space.alloc(max))
    });
    let grad_headers: Option<(Region, Region)> = (opts.training && needs_headers).then(|| {
        let max = separate_header_bytes(net.max_layer_output_bytes() as u64);
        (space.alloc(max), space.alloc(max))
    });

    let flops_budget = opts.flops_per_cycle_per_core;
    let mut phase_cycles = Vec::with_capacity(net.layers.len() * 2);

    // ---- forward pass ----
    for (i, layer) in net.layers.iter().enumerate() {
        let _layer_span =
            zcomp_trace::tracer::span_owned("kernels", move || format!("fwd-layer-{i}"));
        // Input: the previous layer's stored output, or the raw images.
        let (in_region, in_headers, in_alloc, in_sparsity, in_scheme) = if i == 0 {
            (
                input_region,
                None,
                net.input.bytes() as u64,
                0.0,
                Scheme::None,
            )
        } else {
            (
                fm_regions[i - 1],
                fm_headers[i - 1],
                net.layers[i - 1].output.bytes() as u64,
                profile.per_layer[i - 1],
                opts.scheme,
            )
        };
        read_feature_map(
            machine,
            opts.threads,
            in_region,
            in_headers,
            in_alloc,
            in_sparsity,
            in_scheme,
            &mut degrade,
        );
        stream_weights(machine, opts.threads, weight_regions[i]);
        let compute = layer.flops() as f64 / (opts.threads as f64 * flops_budget);
        for t in 0..opts.threads {
            machine.charge_compute(t, compute);
        }
        stream_feature_map(
            machine,
            opts.threads,
            fm_regions[i],
            fm_headers[i],
            layer.output.bytes() as u64,
            profile.per_layer[i],
            opts.scheme,
            true,
        );
        phase_cycles.push(machine.end_phase(PhaseMode::Parallel).wall_cycles);
    }

    // ---- backward pass (training) ----
    if let Some((grad_a, grad_b)) = grad_regions {
        for (i, layer) in net.layers.iter().enumerate().rev() {
            let _layer_span =
                zcomp_trace::tracer::span_owned("kernels", move || format!("bwd-layer-{i}"));
            let out_alloc = layer.output.bytes() as u64;
            let out_sparsity = profile.per_layer[i];
            let (gh_a, gh_b) = match grad_headers {
                Some((a, b)) => (Some(a), Some(b)),
                None => (None, None),
            };
            // Incoming gradient of this layer's output: shares the
            // forward activation's zero pattern (ReLU backward).
            let gin = if i % 2 == 0 { grad_a } else { grad_b };
            let gin_h = if i % 2 == 0 { gh_a } else { gh_b };
            read_feature_map(
                machine,
                opts.threads,
                gin,
                gin_h,
                out_alloc,
                out_sparsity,
                opts.scheme,
                &mut degrade,
            );
            // Long-term reuse: the stored forward feature map is re-read
            // to compute weight gradients.
            read_feature_map(
                machine,
                opts.threads,
                fm_regions[i],
                fm_headers[i],
                out_alloc,
                out_sparsity,
                opts.scheme,
                &mut degrade,
            );
            stream_weights(machine, opts.threads, weight_regions[i]);
            let compute = layer.flops() as f64 * opts.backward_flop_factor
                / (opts.threads as f64 * flops_budget);
            for t in 0..opts.threads {
                machine.charge_compute(t, compute);
            }
            // Outgoing gradient toward the previous layer.
            let in_alloc = layer.input.bytes() as u64;
            let in_sparsity = if i == 0 {
                0.0
            } else {
                profile.per_layer[i - 1]
            };
            let gout = if i % 2 == 0 { grad_b } else { grad_a };
            let gout_h = if i % 2 == 0 { gh_b } else { gh_a };
            stream_feature_map(
                machine,
                opts.threads,
                gout,
                gout_h,
                in_alloc,
                in_sparsity,
                opts.scheme,
                true,
            );
            phase_cycles.push(machine.end_phase(PhaseMode::Parallel).wall_cycles);
        }
    }

    NetworkRunResult {
        summary: machine.summary(),
        phase_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcomp_dnn::models::ModelId;
    use zcomp_dnn::sparsity::SparsityModel;
    use zcomp_isa::uops::UopTable;
    use zcomp_sim::config::SimConfig;

    fn run(id: ModelId, batch: usize, scheme: Scheme, training: bool) -> NetworkRunResult {
        let net = id.build(batch);
        let profile = SparsityModel::default().profile(&net, 50);
        let mut machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        run_network(
            &mut machine,
            &net,
            &profile,
            &NetworkExecOpts {
                scheme,
                training,
                ..NetworkExecOpts::default()
            },
        )
    }

    #[test]
    fn zcomp_reduces_training_traffic() {
        // ResNet-32 is feature-map-dominated (tiny weights), so the
        // cross-layer compression effect is visible even at small batch.
        let base = run(ModelId::Resnet32, 8, Scheme::None, true);
        let z = run(ModelId::Resnet32, 8, Scheme::Zcomp, true);
        let bt = base.summary.traffic.onchip_bytes();
        let zt = z.summary.traffic.onchip_bytes();
        assert!((zt as f64) < bt as f64 * 0.9, "zcomp {zt} vs baseline {bt}");
    }

    #[test]
    fn zcomp_speeds_up_training() {
        let base = run(ModelId::Alexnet, 4, Scheme::None, true);
        let z = run(ModelId::Alexnet, 4, Scheme::Zcomp, true);
        assert!(
            z.summary.wall_cycles < base.summary.wall_cycles,
            "zcomp {} vs baseline {}",
            z.summary.wall_cycles,
            base.summary.wall_cycles
        );
    }

    #[test]
    fn training_runs_forward_and_backward_phases() {
        let r = run(ModelId::Resnet32, 2, Scheme::None, true);
        let net = ModelId::Resnet32.build(2);
        assert_eq!(r.phase_cycles.len(), net.layers.len() * 2);
    }

    #[test]
    fn inference_runs_forward_only() {
        let r = run(ModelId::Resnet32, 2, Scheme::None, false);
        let net = ModelId::Resnet32.build(2);
        assert_eq!(r.phase_cycles.len(), net.layers.len());
    }

    #[test]
    fn memory_stalls_are_significant_fraction() {
        // Fig. 2: 24-41% of cycles are memory stalls for DNN training.
        let r = run(ModelId::Alexnet, 4, Scheme::None, true);
        let frac = r.summary.breakdown.memory_fraction();
        assert!(
            (0.10..0.70).contains(&frac),
            "memory fraction {frac} out of plausible band"
        );
    }

    #[test]
    fn inference_savings_are_smaller_than_training() {
        let tb = run(ModelId::Alexnet, 4, Scheme::None, true);
        let tz = run(ModelId::Alexnet, 4, Scheme::Zcomp, true);
        let ib = run(ModelId::Alexnet, 4, Scheme::None, false);
        let iz = run(ModelId::Alexnet, 4, Scheme::Zcomp, false);
        let train_red =
            1.0 - tz.summary.traffic.onchip_bytes() as f64 / tb.summary.traffic.core_bytes() as f64;
        let infer_red =
            1.0 - iz.summary.traffic.onchip_bytes() as f64 / ib.summary.traffic.core_bytes() as f64;
        assert!(
            train_red > infer_red,
            "training reduction {train_red} vs inference {infer_red}"
        );
    }

    #[test]
    fn zero_rate_faulted_run_matches_clean_run() {
        let net = ModelId::Resnet32.build(2);
        let profile = SparsityModel::default().profile(&net, 50);
        let opts = NetworkExecOpts {
            scheme: Scheme::Zcomp,
            ..NetworkExecOpts::default()
        };
        let mut clean_machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        let clean = run_network(&mut clean_machine, &net, &profile, &opts);
        let mut faulted_machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        let f = run_network_faulted(
            &mut faulted_machine,
            &net,
            &profile,
            &opts,
            &zcomp_sim::faults::FaultConfig::off(1),
        );
        assert_eq!(f.run, clean, "rate 0 must not perturb the run");
        assert!(f.degrade.checked_reads > 0);
        assert_eq!(f.degrade.corrupted_reads, 0);
        assert_eq!(f.degrade.extra_bytes(), 0);
        assert_eq!(f.fault_stats.total_injected(), 0);
    }

    #[test]
    fn injected_faults_degrade_gracefully_with_overhead() {
        let net = ModelId::Resnet32.build(2);
        let profile = SparsityModel::default().profile(&net, 50);
        let opts = NetworkExecOpts {
            scheme: Scheme::Zcomp,
            ..NetworkExecOpts::default()
        };
        let mut clean_machine = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        let clean = run_network(&mut clean_machine, &net, &profile, &opts);
        let mut m = Machine::new(SimConfig::table1(), UopTable::skylake_x());
        let f = run_network_faulted(
            &mut m,
            &net,
            &profile,
            &opts,
            &zcomp_sim::faults::FaultConfig::uniform(1e-3, 42),
        );
        assert!(f.fault_stats.total_injected() > 0);
        assert!(f.degrade.corrupted_reads > 0, "degrade {:?}", f.degrade);
        assert!(f.degrade.retries > 0);
        assert!(
            f.degrade.fallbacks > 0,
            "persistent sites must force fallbacks"
        );
        assert!(f.degrade.extra_bytes() > 0);
        assert!(f.fault_stats.total_detected() > 0);
        assert!(
            f.run.summary.wall_cycles > clean.summary.wall_cycles,
            "degradation overhead must show up in wall cycles: {} vs {}",
            f.run.summary.wall_cycles,
            clean.summary.wall_cycles
        );
    }

    #[test]
    fn faulted_run_replays_deterministically() {
        let net = ModelId::Resnet32.build(1);
        let profile = SparsityModel::default().profile(&net, 50);
        let opts = NetworkExecOpts {
            scheme: Scheme::Zcomp,
            ..NetworkExecOpts::default()
        };
        let run = || {
            let mut m = Machine::new(SimConfig::table1(), UopTable::skylake_x());
            run_network_faulted(
                &mut m,
                &net,
                &profile,
                &opts,
                &zcomp_sim::faults::FaultConfig::uniform(5e-4, 7),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "profile must cover")]
    fn mismatched_profile_panics() {
        let net = ModelId::Resnet32.build(1);
        let other = ModelId::Alexnet.build(1);
        let profile = SparsityModel::default().profile(&other, 0);
        let mut machine = Machine::new(SimConfig::test_tiny(), UopTable::skylake_x());
        run_network(
            &mut machine,
            &net,
            &profile,
            &NetworkExecOpts {
                threads: 2,
                ..NetworkExecOpts::default()
            },
        );
    }
}
