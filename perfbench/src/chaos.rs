//! `serve_chaos`: the chaos serving grid. Every cell prices whole-network
//! service profiles through `run_network` and then runs the
//! discrete-event serving loop.
//!
//! The untraced pass calls the experiment's own entry point. The traced
//! pass replays the same cells from the public serving calls so it can
//! time pricing apart from the event loop, and its result must equal the
//! untraced one byte for byte.

use zcomp::experiments::serve_chaos::{
    self, AutoscaleComparison, ChaosCellResult, ChaosGridSpec, ChaosMode, ChaosParams, ChaosResult,
    MODES,
};
use zcomp::serve::admission::AdmissionConfig;
use zcomp::serve::autoscale::AutoscaleConfig;
use zcomp::serve::chaos::{ChaosConfig, DegradePolicy};
use zcomp::serve::determinism::require_byte_identical;
use zcomp::serve::engine::{simulate, RatePoint};
use zcomp::serve::knee::{derive_slo, find_knee, KneeOpts, ServeCurve};
use zcomp::serve::service::ServiceModel;
use zcomp::serve::ServeConfig;
use zcomp_dnn::models::ModelId;
use zcomp_kernels::layer_exec::Scheme;

use crate::harness::{
    guarded, mix, Digest, Failures, Inject, Pass, Size, UnitTimer, Verification, Workload,
};
use crate::trace::{Tracer, CELL};

/// Seed pairs (`ChaosParams::seed`, `chaos_seed`) each pass runs the
/// grid under. The seeds set the tenants' sparsity and the fault
/// schedule, and with them how many profiles get priced: one seed's grid
/// took a quarter longer than another's at the same host speed. Each
/// pass runs two, so runs with different `--seed`s differ less in work.
const SEED_PAIRS: u64 = 2;

/// The chaos grid on a seeded ResNet-32 node.
pub struct Chaos {
    seed: u64,
    size: Size,
    inject: Inject,
}

/// One grid and the serving config of every cell (SLO still unset).
pub struct Grid {
    spec: ChaosGridSpec,
    base: ServeConfig,
    cells: Vec<(CellKind, ServeConfig)>,
}

/// The grid under each seed pair.
pub struct Inputs {
    grids: Vec<Grid>,
}

#[derive(Debug, Clone, Copy)]
enum CellKind {
    Point { fault_rate: f64, mode: ChaosMode },
    Knee { autoscaled: bool },
}

impl Chaos {
    /// The workload at `size`.
    pub fn new(seed: u64, size: Size, inject: Inject) -> Chaos {
        Chaos { seed, size, inject }
    }

    /// The CI smoke grid (two fault rates × three modes, plus the fixed
    /// and autoscaled knee cells) served by ResNet-32 instead of
    /// GoogLeNet, under seed pair `k`: GoogLeNet's profiles take ~50 s
    /// to price per grid.
    fn grid(&self, k: u64) -> ChaosGridSpec {
        let smoke = ChaosGridSpec::smoke_grid();
        let params = ChaosParams {
            model: ModelId::Resnet32,
            seed: mix(self.seed, 0x5e12e + k),
            chaos_seed: mix(self.seed, 0xc4a05 + k),
            ..smoke.params
        };
        match self.size {
            Size::Full => ChaosGridSpec { params, ..smoke },
            Size::Tiny => ChaosGridSpec {
                fault_rates: vec![0.1],
                params: ChaosParams {
                    max_batch: 4,
                    arrivals_per_tenant: 120,
                    bisect_iters: 1,
                    ..params
                },
            },
        }
    }
}

/// A cell's serving config before its SLO is derived; mirrors the
/// experiment's own cell set-up.
fn cell_config(p: &ChaosParams, scheme: Scheme) -> ServeConfig {
    let mut cfg = ServeConfig::new(p.model, scheme, p.max_batch);
    cfg.tenants.truncate(p.tenants.max(1));
    cfg.arrivals_per_tenant = p.arrivals_per_tenant;
    cfg.drift_epochs = p.drift_epochs;
    cfg.seed = p.seed;
    cfg.admission = AdmissionConfig::protective();
    cfg
}

fn chaos_config(p: &ChaosParams, fault_rate: f64, policy: DegradePolicy) -> ChaosConfig {
    ChaosConfig {
        seed: p.chaos_seed,
        mttf_s: p.mttf_s,
        mttr_s: p.mttr_s,
        codec_fault_rate: fault_rate,
        transient_fraction: p.transient_fraction,
        retry_cost_frac: p.retry_cost_frac,
        policy,
    }
}

/// The knee cells of a result, after its grid cells.
fn knee_curves(r: &ChaosResult) -> [(&'static str, &Option<ServeCurve>); 2] {
    [
        ("fixed knee", &r.autoscale.fixed),
        ("autoscaled knee", &r.autoscale.autoscaled),
    ]
}

/// Every rate point in a result with the index of its cell: grid cells,
/// then knee probes.
fn rate_points(r: &ChaosResult) -> Vec<(usize, String, &RatePoint)> {
    let mut points: Vec<(usize, String, &RatePoint)> = r
        .cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let label = format!("{}@{}", c.mode.label(), c.fault_rate);
            c.point.as_ref().map(|p| (i, label, p))
        })
        .collect();
    for (k, (label, curve)) in knee_curves(r).into_iter().enumerate() {
        if let Some(curve) = curve {
            points.extend(curve.points.iter().map(|p| {
                (
                    r.cells.len() + k,
                    format!("{label}@{}qps", p.offered_qps),
                    p,
                )
            }));
        }
    }
    points
}

/// The output checks every chaos result must pass, recorded against
/// the failing cell: request conservation at every rate point, no hard
/// failures in degraded mode, and a result from every cell.
fn check_result(r: &ChaosResult, failures: &mut Failures) {
    for (cell, label, p) in rate_points(r) {
        let accounted = p.completed + p.dropped + p.rejected + p.shed + p.failed + p.stranded;
        if accounted != p.arrivals {
            failures.cell(cell, format!(
                "{label}: completed+dropped+rejected+shed+failed+stranded = {accounted} != arrivals {}",
                p.arrivals
            ));
        }
    }
    for (cell, c) in r.cells.iter().enumerate() {
        let label = format!("{}@{}", c.mode.label(), c.fault_rate);
        match &c.point {
            None => failures.cell(cell, format!("{label}: produced no result")),
            Some(p) if c.mode == ChaosMode::Degraded && p.failed > 0 => failures.cell(
                cell,
                format!("{label}: degraded mode hard-failed {} requests", p.failed),
            ),
            Some(_) => {}
        }
    }
    for (k, (label, curve)) in knee_curves(r).into_iter().enumerate() {
        if curve.is_none() {
            failures.cell(r.cells.len() + k, format!("{label}: produced no result"));
        }
    }
}

/// The digest of each cell's result, in cell order.
fn cell_digests(r: &ChaosResult) -> Vec<u64> {
    let digest = |json: String| {
        let mut d = Digest::default();
        d.bytes(json.as_bytes());
        d.finish()
    };
    let serialize = "chaos results serialize";
    let mut digests: Vec<u64> = r
        .cells
        .iter()
        .map(|c| digest(serde_json::to_string(c).expect(serialize)))
        .collect();
    for (_, curve) in knee_curves(r) {
        digests.push(digest(serde_json::to_string(curve).expect(serialize)));
    }
    digests
}

/// Prices every uncompressed fallback profile a degraded cell can ask
/// for, so the simulate that follows finds them memoized. This may price
/// a few profiles the cell never reaches; that extra work shows in
/// `trace.overhead_frac`.
fn prefetch_fallbacks(cfg: &ServeConfig, service: &mut ServiceModel) {
    for tenant in 0..cfg.tenants.len() {
        for epoch in 0..cfg.drift_epochs {
            let mut batch = 1;
            while batch <= cfg.max_batch {
                service.fallback_batch_cost(tenant, epoch, batch, 1);
                batch *= 2;
            }
        }
    }
}

/// Whether a cell can brown batches out to the uncompressed fallback.
fn degrades(cfg: &ServeConfig) -> bool {
    cfg.scheme != Scheme::None
        && cfg
            .chaos
            .is_some_and(|c| c.policy == DegradePolicy::Degrade && c.codec_fault_rate > 0.0)
}

/// Replays one cell from public serving calls. Each simulation runs
/// twice on the same service model: the second finds every profile
/// memoized, so it times the event loop alone, and it must reproduce the
/// first byte for byte.
fn replay_cell(
    p: &ChaosParams,
    base_cfg: &ServeConfig,
    kind: CellKind,
    cell_cfg: &ServeConfig,
    tracer: &Tracer,
    failures: &mut Vec<String>,
) -> (Option<RatePoint>, Option<ServeCurve>) {
    // Each cell derives the shared SLO and offered rate from the
    // uncompressed node, pricing its full-batch profile again.
    let (slo_ns, max_wait_ns, offered_qps, base_service) = tracer.time("serve.pricing", || {
        let mut base = ServiceModel::for_network(base_cfg);
        let (slo_ns, max_wait_ns) = derive_slo(&mut base, p.max_batch, p.slo_factor);
        let solo_s = base.solo_ns(0, 0, p.max_batch) as f64 / 1e9;
        let capacity = (base_cfg.instances * p.max_batch) as f64 / solo_s;
        (slo_ns, max_wait_ns, capacity * p.offered_fraction, base)
    });
    let mut cfg = cell_cfg.clone();
    cfg.slo_ns = slo_ns;
    cfg.max_wait_ns = max_wait_ns;
    let mut service = match kind {
        CellKind::Point { mode, .. } if mode.scheme() == Scheme::None => base_service,
        _ => tracer.time("serve.pricing", || ServiceModel::for_network(&cfg)),
    };
    if degrades(&cfg) {
        tracer.time("serve.fallback_pricing", || {
            prefetch_fallbacks(&cfg, &mut service)
        });
    }
    let label = format!("{kind:?}");
    match kind {
        CellKind::Point { .. } => {
            let cold = tracer.time("serve.cold_simulate", || {
                simulate(&cfg, &mut service, offered_qps)
            });
            let warm = tracer.time("serve.simulate", || {
                simulate(&cfg, &mut service, offered_qps)
            });
            if let Err(e) = require_byte_identical(&cold, &warm) {
                failures.push(format!(
                    "{label}: warm re-simulation differs from the cold run: {e}"
                ));
            }
            (Some(cold), None)
        }
        CellKind::Knee { .. } => {
            let opts = KneeOpts {
                bisect_iters: p.bisect_iters,
                ..KneeOpts::default()
            };
            let cold = tracer.time("serve.cold_knee", || find_knee(&cfg, &mut service, &opts));
            let warm = tracer.time("serve.knee", || find_knee(&cfg, &mut service, &opts));
            if let Err(e) = require_byte_identical(&cold, &warm) {
                failures.push(format!(
                    "{label}: warm knee search differs from the cold run: {e}"
                ));
            }
            (None, Some(cold))
        }
    }
}

impl Chaos {
    /// The traced replay of a whole grid, assembled into the
    /// experiment's result type.
    fn replay(&self, grid: &Grid, tracer: &Tracer, failures: &mut Failures) -> ChaosResult {
        let p = &grid.spec.params;
        let mut cells = Vec::new();
        let mut autoscale = AutoscaleComparison {
            fixed: None,
            autoscaled: None,
        };
        for (index, &(kind, ref cfg)) in grid.cells.iter().enumerate() {
            let mut messages = Vec::new();
            let outcome = guarded(
                || format!("{kind:?}"),
                || {
                    let _cell = tracer.span(CELL);
                    replay_cell(p, &grid.base, kind, cfg, tracer, &mut messages)
                },
            );
            let (point, curve) = outcome.unwrap_or_else(|failure| {
                messages.push(failure);
                (None, None)
            });
            for why in messages {
                failures.cell(index, why);
            }
            match kind {
                CellKind::Point { fault_rate, mode } => cells.push(ChaosCellResult {
                    fault_rate,
                    mode,
                    point,
                }),
                CellKind::Knee { autoscaled: true } => autoscale.autoscaled = curve,
                CellKind::Knee { autoscaled: false } => autoscale.fixed = curve,
            }
        }
        ChaosResult {
            cells,
            autoscale,
            quarantined: Vec::new(),
        }
    }
}

impl Workload for Chaos {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "serve_chaos"
    }

    fn size(&self) -> String {
        let g = self.grid(0);
        let p = &g.params;
        format!(
            "{} seed pairs x {} cells: fault rates {:?} x {} modes + fixed/autoscaled knee; {} mb{}, {} tenants x {} arrivals, {} drift epoch(s), {} bisection steps",
            SEED_PAIRS,
            g.cell_count(),
            g.fault_rates,
            MODES.len(),
            p.model,
            p.max_batch,
            p.tenants,
            p.arrivals_per_tenant,
            p.drift_epochs,
            p.bisect_iters
        )
    }

    /// The inputs are configs only: the grid under each of this run's
    /// seed pairs, and each cell's validated serving config.
    fn setup(&self, _tracer: &Tracer) -> Inputs {
        let grids = (0..SEED_PAIRS)
            .map(|k| {
                let spec = self.grid(k);
                let p = &spec.params;
                let base = cell_config(p, Scheme::None);
                base.validate();
                let mut cells = Vec::with_capacity(spec.cell_count());
                for &fault_rate in &spec.fault_rates {
                    for mode in MODES {
                        let mut cfg = cell_config(p, mode.scheme());
                        cfg.chaos = Some(chaos_config(p, fault_rate, mode.policy()));
                        cfg.validate();
                        cells.push((CellKind::Point { fault_rate, mode }, cfg));
                    }
                }
                for autoscaled in [false, true] {
                    let mut cfg = cell_config(p, Scheme::Zcomp);
                    cfg.chaos = Some(chaos_config(p, p.knee_fault_rate, DegradePolicy::Degrade));
                    if autoscaled {
                        cfg.autoscale = Some(AutoscaleConfig {
                            min_instances: cfg.instances,
                            max_instances: cfg.instances * 2,
                            ..AutoscaleConfig::default()
                        });
                    }
                    cfg.validate();
                    cells.push((CellKind::Knee { autoscaled }, cfg));
                }
                Grid { spec, base, cells }
            })
            .collect();
        Inputs { grids }
    }

    fn setup_layers(&self, _tracer: &Tracer) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn pass(&self, inputs: &mut Inputs, tracer: &Tracer, timer: &mut UnitTimer) -> Pass {
        let mut pass = Pass::default();
        let mut results = Vec::with_capacity(inputs.grids.len());
        for (g, grid) in inputs.grids.iter().enumerate() {
            let cells = grid.spec.cell_count();
            let first_cell = pass.cell_digests.len();
            let mut failures = Failures::default();
            // A grid runs as one call, so it is timed as one unit.
            let result = timer.time(|| {
                if tracer.enabled() {
                    Ok(self.replay(grid, tracer, &mut failures))
                } else {
                    guarded(
                        || format!("serve_chaos grid {g}"),
                        || serve_chaos::run(&grid.spec),
                    )
                }
            });
            match result {
                Ok(mut result) => {
                    if self.inject == Inject::TamperRatePoint && !tracer.enabled() && g == 0 {
                        if let Some(p) = result.cells.iter_mut().find_map(|c| c.point.as_mut()) {
                            p.completed += 1;
                        }
                    }
                    check_result(&result, &mut failures);
                    pass.cell_digests.extend(cell_digests(&result));
                    results.push(result);
                }
                Err(failure) => {
                    failures.cells(0..cells, failure);
                    pass.cell_digests.extend(vec![u64::MAX; cells]);
                }
            }
            pass.failures.absorb(failures, first_cell);
        }
        if tracer.enabled() {
            let t = tracer.layer_totals();
            let time = |name: &str| t.get(name).copied().unwrap_or(0.0);
            pass.layers = vec![
                (
                    "serve.pricing_s",
                    time("serve.pricing") + time("serve.cold_simulate") - time("serve.simulate")
                        + time("serve.cold_knee")
                        - time("serve.knee"),
                ),
                ("serve.fallback_pricing_s", time("serve.fallback_pricing")),
                ("serve.simulate_s", time("serve.simulate")),
                ("serve.knee_s", time("serve.knee")),
                (
                    "serve.knee_probes",
                    results
                        .iter()
                        .flat_map(|r| knee_curves(r).map(|(_, curve)| curve))
                        .filter_map(|c| c.as_ref())
                        .map(|c| c.points.len() as f64)
                        .sum(),
                ),
                (
                    "serve.requests",
                    results
                        .iter()
                        .flat_map(rate_points)
                        .map(|(_, _, p)| p.arrivals as f64)
                        .sum(),
                ),
            ];
        }
        pass
    }

    /// Untraced runs replay every grid once more after timing, so every
    /// run checks warm re-simulation and the replay against the
    /// experiment.
    fn verify(&self, inputs: &Inputs, reference: &Pass) -> Verification {
        let mut check = Verification::default();
        for (g, grid) in inputs.grids.iter().enumerate() {
            let first_cell = check.attempted as usize;
            check.attempted += grid.spec.cell_count() as u64;
            let mut failures = Failures::default();
            let result = self.replay(grid, &Tracer::new(false), &mut failures);
            check_result(&result, &mut failures);
            let run = &reference.cell_digests[first_cell..];
            for (cell, (replayed, run)) in cell_digests(&result).into_iter().zip(run).enumerate() {
                if replayed != *run {
                    failures.cell(
                        cell,
                        format!("grid {g}, cell {cell}: replay from public serving calls differs from serve_chaos::run"),
                    );
                }
            }
            check.failures.absorb(failures, first_cell);
        }
        check
    }
}
