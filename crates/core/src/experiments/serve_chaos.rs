//! Chaos serving experiment: goodput and per-class p99 under instance
//! crashes and codec faults, compressed vs uncompressed vs degraded.
//!
//! The robustness question PR-1 answered at layer level — *a codec fault
//! need not fail the computation, it can brown out to uncompressed* — is
//! restated here at serving level. For each codec fault rate in the grid,
//! three identically-loaded serving nodes run the same seeded crash
//! schedule and the same arrival traces at the same offered rate (a fixed
//! fraction of the uncompressed capacity estimate):
//!
//! * **uncompressed** — `Scheme::None`; codec faults cannot strike, the
//!   crash process still does. The resilience baseline.
//! * **hard-fail** — `Scheme::Zcomp` with [`DegradePolicy::HardFail`]:
//!   the naive integration where any detected stream corruption fails
//!   every request in the batch.
//! * **degraded** — `Scheme::Zcomp` with [`DegradePolicy::Degrade`]: the
//!   PR-1 retry-then-uncompressed policy. Transient faults clear on a
//!   retry read; persistent faults brown the batch out to the
//!   uncompressed service profile. No request hard-fails.
//!
//! The headline claim: degraded-mode goodput tracks the uncompressed
//! baseline as the fault rate rises, while hard-fail goodput collapses —
//! compression's serving win (the PR-8 knee gap) does not have to be paid
//! back in fragility.
//!
//! A second, smaller comparison runs the knee search itself under chaos
//! (crashes + mid-grid fault rate, degrade policy) with a fixed fleet vs
//! a reactive autoscaler, reporting both capacity estimates.

use serde::{Deserialize, Serialize};
use zcomp_dnn::models::ModelId;
use zcomp_kernels::layer_exec::Scheme;
use zcomp_sim::config::SimConfig;

use crate::report::Table;
use crate::serve::admission::AdmissionConfig;
use crate::serve::autoscale::AutoscaleConfig;
use crate::serve::chaos::{ChaosConfig, DegradePolicy};
use crate::serve::engine::{simulate, RatePoint};
use crate::serve::knee::{derive_slo, find_knee, KneeOpts, ServeCurve};
use crate::serve::service::{ProfileTable, ServiceModel};
use crate::serve::slo::SloClass;
use crate::serve::ServeConfig;
use crate::supervise::{CellFailure, CellOutcome};
use crate::sweep::{config_fingerprint, run_cells, SweepError, SweepOpts, SweepOutcome};

/// The three serving modes compared at every fault rate, in column order.
pub const MODES: [ChaosMode; 3] = [
    ChaosMode::Uncompressed,
    ChaosMode::HardFail,
    ChaosMode::Degraded,
];

/// One column of the chaos grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChaosMode {
    /// `Scheme::None`: immune to codec faults, exposed to crashes.
    Uncompressed,
    /// `Scheme::Zcomp`, any stream fault fails the batch.
    HardFail,
    /// `Scheme::Zcomp`, PR-1 retry-then-uncompressed brownout.
    Degraded,
}

impl ChaosMode {
    /// Feature-map scheme this mode serves with.
    pub fn scheme(self) -> Scheme {
        match self {
            ChaosMode::Uncompressed => Scheme::None,
            ChaosMode::HardFail | ChaosMode::Degraded => Scheme::Zcomp,
        }
    }

    /// Degradation policy this mode applies to detected codec faults.
    pub fn policy(self) -> DegradePolicy {
        match self {
            // Irrelevant for the uncompressed node (no compressed stream
            // to fault); Degrade keeps the config honest.
            ChaosMode::Uncompressed | ChaosMode::Degraded => DegradePolicy::Degrade,
            ChaosMode::HardFail => DegradePolicy::HardFail,
        }
    }

    /// Short stable label for keys and tables.
    pub fn label(self) -> &'static str {
        match self {
            ChaosMode::Uncompressed => "uncompressed",
            ChaosMode::HardFail => "hard_fail",
            ChaosMode::Degraded => "degraded",
        }
    }
}

/// Grid-wide chaos-serving knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosParams {
    /// Network served (one network — the grid axis is the fault rate).
    pub model: ModelId,
    /// Admission batch cap.
    pub max_batch: usize,
    /// Tenants sharing the node (truncates the default mix).
    pub tenants: usize,
    /// Arrivals per tenant.
    pub arrivals_per_tenant: usize,
    /// Sparsity drift epochs.
    pub drift_epochs: usize,
    /// SLO as a multiple of the uncompressed solo full-batch latency.
    pub slo_factor: f64,
    /// Offered rate as a fraction of the uncompressed capacity estimate
    /// (identical across modes so the curves compare like for like).
    pub offered_fraction: f64,
    /// Mean time to instance failure, seconds.
    pub mttf_s: f64,
    /// Mean time to instance recovery, seconds.
    pub mttr_s: f64,
    /// Fraction of codec faults that are transient.
    pub transient_fraction: f64,
    /// Retry-read cost as a fraction of the compressed service time.
    pub retry_cost_frac: f64,
    /// Codec fault rate used by the fixed-vs-autoscaled knee comparison.
    pub knee_fault_rate: f64,
    /// Knee bisection iterations for the autoscale comparison.
    pub bisect_iters: usize,
    /// Master arrival/drift seed.
    pub seed: u64,
    /// Independent chaos seed (crash schedules and fault probes).
    pub chaos_seed: u64,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            model: ModelId::Googlenet,
            max_batch: 8,
            tenants: 3,
            arrivals_per_tenant: 600,
            drift_epochs: 2,
            slo_factor: 3.0,
            offered_fraction: 0.6,
            mttf_s: 0.25,
            mttr_s: 0.05,
            transient_fraction: 0.25,
            retry_cost_frac: 0.25,
            knee_fault_rate: 0.05,
            bisect_iters: 4,
            seed: 0x5eed_5e12e,
            chaos_seed: 0xc4a0_5eed,
        }
    }
}

/// The chaos grid: codec fault rates × three modes, plus the
/// fixed-vs-autoscaled knee comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosGridSpec {
    /// Per-batch codec fault probabilities swept.
    pub fault_rates: Vec<f64>,
    /// Shared knobs.
    pub params: ChaosParams,
}

impl ChaosGridSpec {
    /// Default grid: five fault rates from healthy to heavily faulted.
    pub fn default_grid() -> Self {
        ChaosGridSpec {
            fault_rates: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            params: ChaosParams::default(),
        }
    }

    /// CI smoke grid: two fault rates, two tenants, short traces. Still
    /// real crash schedules and fault probes on the real simulator.
    pub fn smoke_grid() -> Self {
        ChaosGridSpec {
            fault_rates: vec![0.0, 0.1],
            params: ChaosParams {
                tenants: 2,
                arrivals_per_tenant: 250,
                drift_epochs: 1,
                bisect_iters: 3,
                ..ChaosParams::default()
            },
        }
    }

    /// Divides trace lengths by `scale` (floored) for quick local runs.
    pub fn scaled(mut self, scale: usize) -> Self {
        self.params.arrivals_per_tenant = (self.params.arrivals_per_tenant / scale.max(1)).max(120);
        self
    }

    /// Total supervised cells: one rate point per (fault rate, mode),
    /// plus the two knee-comparison cells.
    pub fn cell_count(&self) -> usize {
        self.fault_rates.len() * MODES.len() + 2
    }
}

/// One supervised cell's payload: a rate point for grid cells, a knee
/// curve for the two autoscale-comparison cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Grid-cell payload.
    pub point: Option<RatePoint>,
    /// Knee-cell payload.
    pub curve: Option<ServeCurve>,
}

/// One (fault rate, mode) observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCellResult {
    /// Codec fault rate of this cell.
    pub fault_rate: f64,
    /// Serving mode.
    pub mode: ChaosMode,
    /// The simulated rate point (`None` if the cell was quarantined).
    pub point: Option<RatePoint>,
}

/// Fixed-fleet vs autoscaled knee search under chaos.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleComparison {
    /// Knee with the fleet pinned at the configured instance count.
    pub fixed: Option<ServeCurve>,
    /// Knee with the reactive autoscaler enabled.
    pub autoscaled: Option<ServeCurve>,
}

/// Complete chaos-serving result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosResult {
    /// Grid observations, grouped by fault rate then [`MODES`] order.
    pub cells: Vec<ChaosCellResult>,
    /// The knee comparison.
    pub autoscale: AutoscaleComparison,
    /// Cells the supervised sweep quarantined (their payload slots hold
    /// `None`). Always empty for the serial runner.
    pub quarantined: Vec<CellFailure>,
    /// Run metrics, embedded only when the trace feature is compiled in
    /// so trace-free reports stay byte-identical.
    #[cfg(feature = "trace")]
    pub metrics: zcomp_trace::metrics::MetricsSummary,
}

impl ChaosResult {
    /// The rate point of one (fault rate, mode) cell, if it completed.
    pub fn point(&self, fault_rate: f64, mode: ChaosMode) -> Option<&RatePoint> {
        self.cells
            .iter()
            .find(|c| c.fault_rate == fault_rate && c.mode == mode)
            .and_then(|c| c.point.as_ref())
    }

    /// Invariant: degraded mode never hard-fails a request — every codec
    /// fault resolves to a retry or an uncompressed brownout.
    pub fn degraded_never_hard_fails(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.mode == ChaosMode::Degraded)
            .filter_map(|c| c.point.as_ref())
            .all(|p| p.failed == 0)
    }

    /// Invariant: at every fault rate, degraded goodput is at least
    /// hard-fail goodput (hard-fail loses whole batches to faults that
    /// degrade merely slows down).
    pub fn degraded_goodput_dominates(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.mode == ChaosMode::Degraded)
            .all(|c| {
                match (
                    c.point.as_ref(),
                    self.point(c.fault_rate, ChaosMode::HardFail),
                ) {
                    (Some(degraded), Some(hard)) => degraded.goodput_qps >= hard.goodput_qps,
                    _ => true, // quarantined cells cannot fail the invariant
                }
            })
    }

    /// The headline table: goodput and per-class p99 per (fault rate,
    /// mode).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Goodput and per-class p99 under chaos (crashes + codec faults)",
            &[
                "fault rate",
                "mode",
                "goodput (qps)",
                "completed",
                "failed",
                "fallbacks",
                "p99 inter (ms)",
                "p99 batch (ms)",
                "crashes",
            ],
        );
        for cell in &self.cells {
            let Some(p) = &cell.point else {
                t.row([
                    format!("{:.3}", cell.fault_rate),
                    cell.mode.label().to_string(),
                    "quarantined".to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            };
            let class_p99 = |class: SloClass| {
                p.classes
                    .iter()
                    .find(|c| c.class == class)
                    .map_or(0.0, |c| c.p99_us / 1_000.0)
            };
            t.row([
                format!("{:.3}", cell.fault_rate),
                cell.mode.label().to_string(),
                format!("{:.1}", p.goodput_qps),
                p.completed.to_string(),
                p.failed.to_string(),
                p.codec_fallbacks.to_string(),
                format!("{:.2}", class_p99(SloClass::Interactive)),
                format!("{:.2}", class_p99(SloClass::Batch)),
                p.crashes.to_string(),
            ]);
        }
        t
    }

    /// The fixed-vs-autoscaled knee table.
    pub fn autoscale_table(&self) -> Table {
        let mut t = Table::new(
            "Knee under chaos: fixed fleet vs reactive autoscaler",
            &["fleet", "knee (qps)", "outcome", "points probed"],
        );
        for (label, curve) in [
            ("fixed", &self.autoscale.fixed),
            ("autoscaled", &self.autoscale.autoscaled),
        ] {
            match curve {
                Some(c) => t.row([
                    label.to_string(),
                    format!("{:.1}", c.knee_qps),
                    c.outcome.label().to_string(),
                    c.points.len().to_string(),
                ]),
                None => t.row([
                    label.to_string(),
                    "quarantined".to_string(),
                    String::new(),
                    String::new(),
                ]),
            };
        }
        t
    }
}

/// Chaos process for one cell at `fault_rate`.
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

/// Builds one cell's serving config (SLO fields still zero).
fn cell_config(p: &ChaosParams, scheme: Scheme) -> ServeConfig {
    let mut cfg = ServeConfig::new(p.model, scheme, p.max_batch);
    cfg.tenants.truncate(p.tenants.max(1));
    cfg.arrivals_per_tenant = p.arrivals_per_tenant;
    cfg.drift_epochs = p.drift_epochs;
    cfg.seed = p.seed;
    cfg.admission = AdmissionConfig::protective();
    cfg
}

/// The profile table one call shares across all of its cells: every
/// cell config differs from the uncompressed one only in knobs pricing
/// does not read.
fn profile_table(p: &ChaosParams) -> ProfileTable {
    ProfileTable::new(&cell_config(p, Scheme::None))
}

/// Derives the shared SLO and capacity anchor from the *uncompressed*
/// node, exactly as the PR-8 serve experiment does, so every mode holds
/// to the identical bound and offered rate. The anchor's profiles come
/// from `table`, so only the first cell prices them.
fn slo_and_offered(p: &ChaosParams, table: &ProfileTable) -> (u64, u64, f64) {
    let base_cfg = cell_config(p, Scheme::None);
    let mut base_service = ServiceModel::with_table(&base_cfg, table);
    let (slo_ns, max_wait_ns) = derive_slo(&mut base_service, p.max_batch, p.slo_factor);
    let solo_s = base_service.solo_ns(0, 0, p.max_batch) as f64 / 1e9;
    let capacity = (base_cfg.instances * p.max_batch) as f64 / solo_s;
    (slo_ns, max_wait_ns, capacity * p.offered_fraction)
}

/// Runs one (fault rate, mode) grid cell.
fn run_point_cell(
    p: &ChaosParams,
    fault_rate: f64,
    mode: ChaosMode,
    table: &ProfileTable,
) -> ChaosCell {
    let (slo_ns, max_wait_ns, offered_qps) = slo_and_offered(p, table);
    let mut cfg = cell_config(p, mode.scheme());
    cfg.slo_ns = slo_ns;
    cfg.max_wait_ns = max_wait_ns;
    cfg.chaos = Some(chaos_config(p, fault_rate, mode.policy()));
    let mut service = ServiceModel::with_table(&cfg, table);
    ChaosCell {
        point: Some(simulate(&cfg, &mut service, offered_qps)),
        curve: None,
    }
}

/// Runs one knee-comparison cell (fixed fleet or autoscaled), chaos on,
/// degrade policy, at the mid-grid fault rate.
fn run_knee_cell(p: &ChaosParams, autoscaled: bool, table: &ProfileTable) -> ChaosCell {
    let (slo_ns, max_wait_ns, _) = slo_and_offered(p, table);
    let mut cfg = cell_config(p, Scheme::Zcomp);
    cfg.slo_ns = slo_ns;
    cfg.max_wait_ns = max_wait_ns;
    cfg.chaos = Some(chaos_config(p, p.knee_fault_rate, DegradePolicy::Degrade));
    if autoscaled {
        // Floor at the baseline fleet (an autoscaler that shrinks to one
        // instance under a crash process cannot hold any p99 bound — the
        // single enabled instance's repairs dominate the tail) and give
        // it burst headroom to twice the fixed size.
        cfg.autoscale = Some(AutoscaleConfig {
            min_instances: cfg.instances,
            max_instances: cfg.instances * 2,
            ..AutoscaleConfig::default()
        });
    }
    let mut service = ServiceModel::with_table(&cfg, table);
    let opts = KneeOpts {
        bisect_iters: p.bisect_iters,
        ..KneeOpts::default()
    };
    ChaosCell {
        point: None,
        curve: Some(find_knee(&cfg, &mut service, &opts)),
    }
}

/// Flat cell index → work description.
enum CellSpec {
    Point { fault_rate: f64, mode: ChaosMode },
    Knee { autoscaled: bool },
}

fn cell_of(grid: &ChaosGridSpec, idx: usize) -> CellSpec {
    let grid_cells = grid.fault_rates.len() * MODES.len();
    if idx < grid_cells {
        CellSpec::Point {
            fault_rate: grid.fault_rates[idx / MODES.len()],
            mode: MODES[idx % MODES.len()],
        }
    } else {
        CellSpec::Knee {
            autoscaled: idx - grid_cells == 1,
        }
    }
}

fn cell_key(grid: &ChaosGridSpec, idx: usize) -> String {
    let p = &grid.params;
    let common = format!(
        "model={};mb={};tenants={};arr={};epochs={};slofac={};off={};mttf={};mttr={};tf={};rcf={};seed={:#x};chaos={:#x}",
        p.model,
        p.max_batch,
        p.tenants,
        p.arrivals_per_tenant,
        p.drift_epochs,
        p.slo_factor,
        p.offered_fraction,
        p.mttf_s,
        p.mttr_s,
        p.transient_fraction,
        p.retry_cost_frac,
        p.seed,
        p.chaos_seed
    );
    match cell_of(grid, idx) {
        CellSpec::Point { fault_rate, mode } => {
            format!("chaos;{common};rate={fault_rate};mode={}", mode.label())
        }
        CellSpec::Knee { autoscaled } => format!(
            "chaos-knee;{common};rate={};bisect={};autoscaled={autoscaled}",
            p.knee_fault_rate, p.bisect_iters
        ),
    }
}

fn run_cell(grid: &ChaosGridSpec, idx: usize, table: &ProfileTable) -> ChaosCell {
    match cell_of(grid, idx) {
        CellSpec::Point { fault_rate, mode } => {
            run_point_cell(&grid.params, fault_rate, mode, table)
        }
        CellSpec::Knee { autoscaled } => run_knee_cell(&grid.params, autoscaled, table),
    }
}

fn assemble(
    grid: &ChaosGridSpec,
    outcomes: Vec<CellOutcome<ChaosCell>>,
    quarantined: Vec<CellFailure>,
    #[cfg(feature = "trace")] registry: &mut zcomp_trace::metrics::MetricsRegistry,
) -> ChaosResult {
    let mut cells = Vec::with_capacity(grid.fault_rates.len() * MODES.len());
    let mut autoscale = AutoscaleComparison {
        fixed: None,
        autoscaled: None,
    };
    for (idx, outcome) in outcomes.into_iter().enumerate() {
        let payload = match outcome {
            CellOutcome::Completed { value, .. } => {
                #[cfg(feature = "trace")]
                {
                    registry.incr("serve_chaos.cells", 1);
                    if let Some(p) = &value.point {
                        registry.observe("serve_chaos.goodput_qps", p.goodput_qps);
                    }
                }
                Some(value)
            }
            CellOutcome::Quarantined(_) => None,
        };
        match cell_of(grid, idx) {
            CellSpec::Point { fault_rate, mode } => cells.push(ChaosCellResult {
                fault_rate,
                mode,
                point: payload.and_then(|c| c.point),
            }),
            CellSpec::Knee { autoscaled } => {
                let curve = payload.and_then(|c| c.curve);
                if autoscaled {
                    autoscale.autoscaled = curve;
                } else {
                    autoscale.fixed = curve;
                }
            }
        }
    }
    ChaosResult {
        cells,
        autoscale,
        quarantined,
        #[cfg(feature = "trace")]
        metrics: registry.summary(),
    }
}

/// Runs the grid serially in-process (no supervision, no cache beyond
/// this call's own profile table).
pub fn run(grid: &ChaosGridSpec) -> ChaosResult {
    run_with_table(grid, &profile_table(&grid.params))
}

/// [`run`] on a caller-provided table.
fn run_with_table(grid: &ChaosGridSpec, table: &ProfileTable) -> ChaosResult {
    let _span = zcomp_trace::tracer::span("experiment", "serve_chaos");
    let outcomes = (0..grid.cell_count())
        .map(|idx| CellOutcome::Completed {
            value: run_cell(grid, idx, table),
            attempts: 1,
        })
        .collect();
    #[cfg(feature = "trace")]
    let mut registry = zcomp_trace::metrics::MetricsRegistry::new();
    #[cfg(feature = "trace")]
    table.record(&mut registry);
    assemble(
        grid,
        outcomes,
        Vec::new(),
        #[cfg(feature = "trace")]
        &mut registry,
    )
}

/// Runs the grid as a supervised sweep via [`run_cells`]: panic
/// quarantine, retries, `--resume` and the multi-process fabric all
/// apply. Equivalent to [`run`] cell for cell when nothing is
/// quarantined.
pub fn run_sweep(
    grid: &ChaosGridSpec,
    opts: &SweepOpts,
) -> Result<SweepOutcome<ChaosResult>, SweepError> {
    let _span = zcomp_trace::tracer::span("experiment", "serve_chaos-sweep");
    let fingerprint = config_fingerprint(&SimConfig::table1());
    let key_of = |idx: usize| cell_key(grid, idx);
    let grid_for_jobs = grid.clone();
    let table = profile_table(&grid.params);
    let table_for_jobs = table.clone();
    let make_job = move |idx: usize| -> Box<dyn FnOnce() -> ChaosCell + Send + 'static> {
        let grid = grid_for_jobs.clone();
        let table = table_for_jobs.clone();
        Box::new(move || run_cell(&grid, idx, &table))
    };
    let run = run_cells(
        "serve_chaos",
        grid.cell_count(),
        fingerprint,
        opts,
        key_of,
        make_job,
    )?;

    #[cfg(feature = "trace")]
    let mut registry = zcomp_trace::metrics::MetricsRegistry::new();
    #[cfg(feature = "trace")]
    {
        registry.incr("serve_chaos.retries", run.report.retries);
        registry.incr("serve_chaos.resume_skips", run.report.resume_skips as u64);
        registry.incr(
            "serve_chaos.quarantined",
            run.report.quarantined.len() as u64,
        );
        table.record(&mut registry);
    }
    let result = assemble(
        grid,
        run.outcomes,
        run.report.quarantined.clone(),
        #[cfg(feature = "trace")]
        &mut registry,
    );
    Ok(SweepOutcome {
        result,
        supervision: run.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A cheap real-simulator grid: ResNet-32 service sims run in
    /// milliseconds, and two fault rates exercise both the clean and the
    /// heavily-faulted paths.
    fn tiny_grid() -> ChaosGridSpec {
        ChaosGridSpec {
            fault_rates: vec![0.0, 0.2],
            params: ChaosParams {
                model: ModelId::Resnet32,
                max_batch: 4,
                tenants: 2,
                arrivals_per_tenant: 150,
                drift_epochs: 1,
                bisect_iters: 2,
                ..ChaosParams::default()
            },
        }
    }

    fn quick() -> &'static ChaosResult {
        static RESULT: OnceLock<ChaosResult> = OnceLock::new();
        RESULT.get_or_init(|| run(&tiny_grid()))
    }

    #[test]
    fn grid_covers_every_mode_and_rate() {
        let r = quick();
        assert_eq!(r.cells.len(), 6);
        for cell in &r.cells {
            let p = cell.point.as_ref().expect("serial run completes cells");
            assert!(p.completed > 0, "{:?} at {}", cell.mode, cell.fault_rate);
            assert!(p.crashes > 0, "the crash process must actually run");
        }
        // Codec faults strike only compressed modes at nonzero rates.
        let un = r.point(0.2, ChaosMode::Uncompressed).unwrap();
        assert_eq!(un.codec_faults, 0);
        let deg = r.point(0.2, ChaosMode::Degraded).unwrap();
        assert!(deg.codec_faults > 0);
    }

    #[test]
    fn degrade_invariants_hold() {
        let r = quick();
        assert!(r.degraded_never_hard_fails());
        assert!(r.degraded_goodput_dominates());
        let hard = r.point(0.2, ChaosMode::HardFail).unwrap();
        assert!(hard.failed > 0, "hard-fail must actually fail requests");
    }

    #[test]
    fn knee_comparison_produces_both_curves() {
        let r = quick();
        let fixed = r.autoscale.fixed.as_ref().expect("fixed knee");
        let scaled = r.autoscale.autoscaled.as_ref().expect("autoscaled knee");
        assert!(fixed.knee_qps > 0.0);
        assert!(scaled.knee_qps > 0.0);
        // The autoscaled node reacted: some rate point scaled up.
        assert!(scaled
            .points
            .iter()
            .any(|p| p.scale_ups > 0 || p.peak_instances > 0));
    }

    #[test]
    fn serial_run_is_deterministic() {
        let a = quick();
        let b = run(&tiny_grid());
        crate::serve::determinism::require_byte_identical(a, &b)
            .expect("chaos grid must replay byte-identically");
    }

    #[test]
    fn sweep_matches_serial_run() {
        let reference = quick();
        let sweep =
            run_sweep(&tiny_grid(), &SweepOpts::default().with_threads(2)).expect("sweep succeeds");
        assert!(sweep.result.quarantined.is_empty());
        crate::serve::determinism::require_byte_identical(reference, &sweep.result)
            .expect("sweep must match the serial run");
    }

    /// `run_network` calls made on this thread so far.
    fn pricings() -> u64 {
        crate::serve::service::RUN_NETWORK_CALLS.with(std::cell::Cell::get)
    }

    #[test]
    fn one_run_prices_each_profile_once() {
        let grid = tiny_grid();
        let table = profile_table(&grid.params);
        let before = pricings();
        let result = run_with_table(&grid, &table);
        // Two schemes (zcomp, plus none for the anchor, the uncompressed
        // cells and the fallbacks) x 2 tenants x 1 epoch x padded 1/2/4.
        assert_eq!(table.len(), 2 * 2 * 3);
        assert_eq!(table.priced(), table.len() as u64);
        assert_eq!(pricings() - before, table.priced());
        assert!(table.lookups() > table.priced());
        crate::serve::determinism::require_byte_identical(quick(), &result)
            .expect("a shared table must not change the result");

        // Nothing survives the call: a second run prices everything again.
        let before = pricings();
        run(&grid);
        assert_eq!(pricings() - before, table.priced());
    }

    #[test]
    fn tables_render() {
        let r = quick();
        assert!(r.table().render().contains("degraded"));
        assert!(r.autoscale_table().render().contains("autoscaled"));
    }
}
