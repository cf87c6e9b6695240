//! Workload-independent measurement: repeated set-up, timed passes,
//! traced passes, output checks, and the medians reported from them.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::calibrate::{Calibration, NOMINAL_SAMPLE_S};
use crate::trace::Tracer;

/// Set-up is timed in batches of repetitions, for at least
/// [`SETUP_MIN_BATCHES`] batches and [`SETUP_MIN_S`] seconds, each batch
/// read against the host-speed reference like a unit of a pass, and the
/// median calibrated time per repetition is reported. A batch grows until
/// it takes [`SETUP_BATCH_S`], so a set-up of microseconds is sampled over
/// a whole second rather than over the few milliseconds in which the
/// host happened to be fast or slow.
const SETUP_MIN_BATCHES: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_BATCH_S: f64 = 1e-3;

/// Problem size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The stated benchmark size.
    Full,
    /// A seconds-long size for the benchmark's own tests.
    Tiny,
}

/// A deliberate fault the benchmark's tests inject to show that the
/// output checks catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// No fault.
    None,
    /// Flip one bit of the first compressed snapshot before expansion.
    CorruptStream,
    /// Add one to the first rate point's `completed` count.
    TamperRatePoint,
}

/// Times the units of one pass. When calibrating, a sample of the
/// host-speed reference runs right after each unit, and a unit is read
/// against the mean of the sample after it and the latest sample before
/// it: the one after the unit before, in this pass or the previous one,
/// or the one [`measure`] takes before set-up.
pub struct UnitTimer<'a> {
    calibration: Option<&'a mut Calibration>,
    units_s: Vec<f64>,
    calibrated_s: Vec<f64>,
    samples_total_s: f64,
}

impl<'a> UnitTimer<'a> {
    fn new(calibration: Option<&'a mut Calibration>) -> UnitTimer<'a> {
        UnitTimer {
            calibration,
            units_s: Vec::new(),
            calibrated_s: Vec::new(),
            samples_total_s: 0.0,
        }
    }

    /// Runs and times one unit.
    pub fn time<R>(&mut self, unit: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = unit();
        let unit_s = started.elapsed().as_secs_f64();
        self.units_s.push(unit_s);
        if let Some(c) = self.calibration.as_mut() {
            let before = c
                .last_sample()
                .expect("a sample is taken before the first unit");
            let sampling = Instant::now();
            let after = c.sample();
            self.samples_total_s += sampling.elapsed().as_secs_f64();
            self.calibrated_s
                .push(unit_s * 2.0 * NOMINAL_SAMPLE_S / (before + after));
        }
        out
    }

    /// The units' times (calibrated when calibrating) and the host
    /// seconds the samples took.
    fn finish(self) -> (Vec<f64>, f64) {
        match self.calibration {
            Some(_) => (self.calibrated_s, self.samples_total_s),
            None => (self.units_s, 0.0),
        }
    }
}

/// The cells that panicked or failed a check, and why. A cell can fail
/// more than one check; it counts once.
#[derive(Debug, Default)]
pub struct Failures {
    cells: BTreeSet<usize>,
    messages: Vec<String>,
}

impl Failures {
    /// Records that `cell` (an index in the pass or check) failed.
    pub fn cell(&mut self, cell: usize, why: String) {
        self.cells.insert(cell);
        self.messages.push(why);
    }

    /// Records one failure shared by several cells.
    pub fn cells(&mut self, cells: impl IntoIterator<Item = usize>, why: String) {
        self.cells.extend(cells);
        self.messages.push(why);
    }

    /// Adds `other`'s failures, its cell indices shifted by `offset`.
    pub fn absorb(&mut self, other: Failures, offset: usize) {
        self.cells
            .extend(other.cells.into_iter().map(|c| c + offset));
        self.messages.extend(other.messages);
    }

    /// Number of distinct failed cells.
    pub fn count(&self) -> u64 {
        self.cells.len() as u64
    }

    /// Whether no cell failed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// FNV-1a digest of every simulated statistic of each attempted cell,
    /// in cell order; `u64::MAX` for a cell that panicked. Passes are
    /// compared cell by cell.
    pub cell_digests: Vec<u64>,
    /// Cells that panicked or failed a check.
    pub failures: Failures,
    /// Simulated dynamic instructions executed by the pass, when the
    /// benchmark can observe them.
    pub sim_instructions: u64,
    /// Mean `|measured/paper - 1|` over the paper's stated values, when
    /// the workload reproduces a paper figure.
    pub paper_rel_err: Option<f64>,
    /// Per-layer metrics, filled on traced passes.
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Cells attempted in the pass.
    pub fn cells(&self) -> u64 {
        self.cell_digests.len() as u64
    }

    /// Digest of the whole pass: its cell digests, folded.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &c in &self.cell_digests {
            d.u64(c);
        }
        d.finish()
    }
}

/// Checks made once per run, after timing.
#[derive(Debug, Default)]
pub struct Verification {
    /// Cells the checks ran.
    pub attempted: u64,
    /// Check cells that failed.
    pub failures: Failures,
}

/// A seeded workload the harness can set up, run and check.
pub trait Workload {
    /// Inputs built from the seed before timing starts.
    type Inputs;

    /// Stable workload name.
    fn name(&self) -> &'static str;

    /// One-line description of the problem size.
    fn size(&self) -> String;

    /// Builds the inputs; layer calls made here are traced as set-up.
    fn setup(&self, tracer: &Tracer) -> Self::Inputs;

    /// Per-layer metrics of a traced set-up.
    fn setup_layers(&self, tracer: &Tracer) -> Vec<(&'static str, f64)>;

    /// Runs every cell once, timing each unit with `timer`: one cell, or
    /// the whole grid where cells cannot be timed one by one from outside
    /// the program. With tracing on, records spans and fills
    /// [`Pass::layers`].
    fn pass(&self, inputs: &mut Self::Inputs, tracer: &Tracer, timer: &mut UnitTimer) -> Pass;

    /// Checks that need more than one pass's outputs, such as re-running
    /// cells on a reference path. `reference` is the first timed pass.
    fn verify(&self, inputs: &Self::Inputs, reference: &Pass) -> Verification;
}

/// Everything measured in one run of one workload.
#[derive(Debug)]
pub struct Measurement {
    /// Workload name.
    pub workload: &'static str,
    /// Problem size.
    pub size: String,
    /// Digest of the first pass's simulated outputs.
    pub digest: u64,
    /// Cells attempted: every cell of every pass, plus verification cells.
    pub attempted: u64,
    /// Failed cells, counted like `attempted`.
    pub failed: u64,
    /// Failure descriptions; a failed cell can have several.
    pub failures: Vec<String>,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// Median set-up time per repetition, calibrated seconds.
    pub setup_s: f64,
    /// Untraced passes timed.
    pub passes: usize,
    /// Traced passes timed.
    pub traced_passes: usize,
    /// Cells per pass.
    pub cells_per_pass: u64,
    /// Calibrated seconds of one pass: each unit's median over the
    /// untraced passes, summed.
    pub pass_s: f64,
    /// Median host seconds of one untraced pass.
    pub host_pass_s: f64,
    /// Simulated instructions per pass.
    pub sim_instructions: u64,
    /// Paper error, when the workload has one.
    pub paper_rel_err: Option<f64>,
    /// Peak resident memory of this process, MiB.
    pub peak_rss_mib: f64,
    /// Per-layer metrics, when traced.
    pub layers: Vec<(&'static str, f64)>,
}

impl Measurement {
    /// Completed cells per calibrated second.
    pub fn cells_per_s(&self) -> f64 {
        self.cells_per_pass as f64 / self.pass_s
    }

    /// Completed cells per host second.
    pub fn host_cells_per_s(&self) -> f64 {
        self.cells_per_pass as f64 / self.host_pass_s
    }

    /// Simulated instructions (millions) per calibrated second.
    pub fn sim_minstr_per_s(&self) -> Option<f64> {
        (self.sim_instructions > 0).then(|| self.sim_instructions as f64 / 1e6 / self.pass_s)
    }

    /// Failed cells over attempted cells.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// splitmix64: derives independent, well-mixed seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of values.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Adds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Adds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Adds a float by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Mean `|measured/paper - 1|` over `(measured, paper)` pairs.
pub fn paper_rel_err(pairs: &[(f64, f64)]) -> f64 {
    pairs.iter().map(|(m, p)| (m / p - 1.0).abs()).sum::<f64>() / pairs.len() as f64
}

/// Runs `cell`, turning a panic into a failure description.
pub fn guarded<R>(label: impl FnOnce() -> String, cell: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(cell)).map_err(|payload| {
        let why = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("{}: panicked: {why}", label())
    })
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One timed pass.
struct Timed {
    pass: Pass,
    /// Host seconds of the pass, calibration samples excluded.
    wall_s: f64,
    /// Host seconds covered by layer spans (traced passes).
    coverage_s: f64,
    /// Seconds of each unit, calibrated on untraced passes.
    units_s: Vec<f64>,
}

/// Per-name medians over samples that each list the same names in the
/// same order.
fn median_layers(samples: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    samples[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            (
                name,
                median(&samples.iter().map(|s| s[i].1).collect::<Vec<_>>()),
            )
        })
        .collect()
}

fn median_of(timed: &[Timed], f: impl Fn(&Timed) -> f64) -> f64 {
    median(&timed.iter().map(f).collect::<Vec<_>>())
}

/// Sets up `w` repeatedly, then times passes for `seconds` (alternating
/// untraced and traced passes when `traced`), then checks the outputs.
pub fn measure<W: Workload>(w: &W, seconds: f64, traced: bool) -> Measurement {
    let mut calibration = Calibration::new();
    calibration.sample();
    let mut setup_timer = UnitTimer::new(Some(&mut calibration));
    let mut setup_batches = Vec::new();
    let mut setup_layers = Vec::new();
    let mut batch = 1;
    let started = Instant::now();
    let mut inputs = None;
    while setup_batches.len() < SETUP_MIN_BATCHES || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        // Drop the previous inputs first so repetitions do not stack up
        // in memory (a batch holds more than one only when they are small).
        drop(inputs.take());
        let tracer = Tracer::new(traced);
        let mut built = Vec::with_capacity(batch);
        setup_timer.time(|| {
            for _ in 0..batch {
                built.push(w.setup(&tracer));
            }
        });
        let took = *setup_timer.units_s.last().expect("a batch was timed");
        setup_batches.push(batch);
        setup_layers.push(
            w.setup_layers(&tracer)
                .into_iter()
                .map(|(name, v)| (name, v / batch as f64))
                .collect(),
        );
        inputs = built.pop();
        if took < SETUP_BATCH_S {
            batch *= 2;
        }
    }
    let mut inputs = inputs.expect("set-up ran at least once");
    let (setup_batch_s, _) = setup_timer.finish();
    let setup_times: Vec<f64> = setup_batch_s
        .iter()
        .zip(&setup_batches)
        .map(|(s, &batch)| s / batch as f64)
        .collect();
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced_passes: Vec<Timed> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    loop {
        let want_traced = traced && untraced.len() > traced_passes.len();
        let tracer = Tracer::new(want_traced);
        let mut timer = UnitTimer::new((!want_traced).then_some(&mut calibration));
        let t = Instant::now();
        let pass = w.pass(&mut inputs, &tracer, &mut timer);
        let took = t.elapsed();
        let (units_s, calibration_s) = timer.finish();
        let timed = Timed {
            wall_s: took.as_secs_f64() - calibration_s,
            coverage_s: tracer.layer_coverage_s(),
            units_s,
            pass,
        };
        if want_traced {
            traced_passes.push(timed);
        } else {
            untraced.push(timed);
        }
        let done = !untraced.is_empty() && (!traced || !traced_passes.is_empty());
        // Start another pass only if it is expected to end within budget.
        if done && started.elapsed() + took > budget {
            break;
        }
    }

    let reference = &untraced[0].pass;
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (i, timed) in untraced.iter().chain(&traced_passes).enumerate() {
        let pass = &timed.pass;
        attempted += pass.cells();
        let mut failed_cells = pass.failures.cells.clone();
        failures.extend(pass.failures.messages.iter().cloned());
        let cells = pass.cell_digests.iter().zip(&reference.cell_digests);
        for (cell, (digest, first)) in cells.enumerate() {
            if digest != first {
                failed_cells.insert(cell);
                failures.push(format!(
                    "pass {i}, cell {cell}: simulated outputs digest {digest:#018x} differs from the first pass's {first:#018x}"
                ));
            }
        }
        failed += failed_cells.len() as u64;
    }
    let check = w.verify(&inputs, reference);
    attempted += check.attempted;
    failed += check.failures.count();
    failures.extend(check.failures.messages);

    let pass_s: f64 = (0..untraced[0].units_s.len())
        .map(|u| median_of(&untraced, |t| t.units_s[u]))
        .sum();
    let host_pass_s = median_of(&untraced, |t| t.wall_s);

    let mut layers = Vec::new();
    if traced {
        layers = median_layers(&setup_layers);
        let pass_layers: Vec<_> = traced_passes
            .iter()
            .map(|t| t.pass.layers.clone())
            .collect();
        layers.extend(median_layers(&pass_layers));
        let traced_wall = median_of(&traced_passes, |t| t.wall_s);
        let coverage = median_of(&traced_passes, |t| t.coverage_s);
        layers.push(("experiments.self_s", (traced_wall - coverage).max(0.0)));
        layers.push(("trace.coverage_frac", coverage / traced_wall));
        layers.push(("trace.overhead_frac", traced_wall / host_pass_s - 1.0));
    }

    Measurement {
        workload: w.name(),
        size: w.size(),
        digest: reference.digest(),
        attempted,
        failed,
        failures,
        setup_reps: setup_batches.iter().sum(),
        setup_s: median(&setup_times),
        passes: untraced.len(),
        traced_passes: traced_passes.len(),
        cells_per_pass: reference.cells(),
        pass_s,
        host_pass_s,
        sim_instructions: reference.sim_instructions,
        paper_rel_err: reference.paper_rel_err,
        peak_rss_mib: peak_rss_mib(),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mixed_seeds_differ_by_salt_and_seed() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn paper_error_is_zero_at_the_paper_values() {
        assert_eq!(paper_rel_err(&[(1.8, 1.8), (0.42, 0.42)]), 0.0);
        assert!((paper_rel_err(&[(2.0, 1.0)]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_cell_that_fails_several_checks_counts_once() {
        let mut f = Failures::default();
        f.cell(2, "conservation".into());
        f.cell(2, "hard failures in degraded mode".into());
        f.cells(0..3, "the grid panicked".into());
        assert_eq!(f.count(), 3);
        assert_eq!(f.messages.len(), 3);
        let mut all = Failures::default();
        all.cell(0, "first grid".into());
        all.absorb(f, 8);
        assert_eq!(all.cells, BTreeSet::from([0, 8, 9, 10]));
        assert_eq!(all.messages.len(), 4);
    }

    #[test]
    fn guarded_reports_panics() {
        assert_eq!(guarded(|| "c".into(), || 5), Ok(5));
        let err = guarded(|| "cell 3".into(), || panic!("boom")).unwrap_err();
        assert!(err.contains("cell 3") && err.contains("boom"), "{err}");
    }

    #[test]
    fn calibrated_units_read_against_the_samples_around_them() {
        let mut c = Calibration::new();
        let first = c.sample();
        let mut timer = UnitTimer::new(Some(&mut c));
        timer.time(|| std::thread::sleep(Duration::from_millis(2)));
        let raw = timer.units_s[0];
        let (units, samples_s) = timer.finish();
        // The first unit is read against the sample taken before it and
        // the one taken right after it.
        let after = c.last_sample().unwrap();
        assert!(samples_s > 0.0);
        assert_eq!(units.len(), 1);
        let expected = raw * 2.0 * NOMINAL_SAMPLE_S / (first + after);
        assert!((units[0] - expected).abs() < 1e-15);
        // The next pass's first unit reuses the last sample as its
        // "before" sample.
        let last = after;
        let mut timer = UnitTimer::new(Some(&mut c));
        timer.time(|| ());
        let raw = timer.units_s[0];
        let (units, _) = timer.finish();
        let after = c.last_sample().unwrap();
        let expected = raw * 2.0 * NOMINAL_SAMPLE_S / (last + after);
        assert!((units[0] - expected).abs() < 1e-15);
    }

    #[test]
    fn uncalibrated_units_are_host_times() {
        let mut timer = UnitTimer::new(None);
        timer.time(|| std::thread::sleep(Duration::from_millis(1)));
        let raw = timer.units_s.clone();
        let (units, in_pass) = timer.finish();
        assert_eq!(units, raw);
        assert_eq!(in_pass, 0.0);
    }
}
