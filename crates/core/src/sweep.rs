//! Sharded, *supervised* sweep execution: spreads independent experiment
//! cells across OS threads with a deterministic merge and wraps every
//! cell in the [`supervise`](crate::supervise) runtime — panic
//! isolation, watchdog deadlines, deterministic retry and quarantine. A
//! sweep given a [`FabricOpts`] runs on the multi-process
//! [`fabric`](crate::fabric) instead, whose crash-safe journals are the
//! one resume path: a 1-worker fabric is how a single process resumes.
//!
//! Every cell of the Fig. 12 and full-network sweeps builds its own
//! [`Machine`](zcomp_sim::Machine) from a fixed seed, so cells are
//! embarrassingly parallel; the only subtlety is keeping results
//! *deterministic* regardless of scheduling. [`run_sharded`] hands out
//! work-stealing indices through an atomic counter, tags each result with
//! its index, and sorts on merge — the output vector is byte-for-byte the
//! one a serial loop would produce. [`run_cells`] layers supervision on
//! top without disturbing that property: quarantined indices carry an
//! explicit [`CellFailure`] marker, journal-restored cells decode to the
//! exact value the original execution produced, and the merged report of
//! a resumed sweep is byte-identical to an uninterrupted one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use zcomp_sim::config::SimConfig;

use crate::fabric::{FabricOpts, FabricReport};
use crate::supervise::{CellFailure, CellOutcome, SuperviseOpts};

/// The machine-configuration fingerprint that keys fabric journals and
/// leases: CRC32 of the configuration's JSON, so a journal written under
/// one machine never restores cells of another.
pub fn config_fingerprint(cfg: &SimConfig) -> u32 {
    serde_json::to_string(cfg)
        .map(|s| zcomp_trace::crc::crc32(s.as_bytes()))
        .unwrap_or(0)
}

/// A sweep-level failure detected *before* any cell runs (as opposed to
/// per-cell failures, which are quarantined, not raised).
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// A fabric journal exists but cannot be read.
    Journal {
        /// The journal file path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The fabric directory (leases, per-worker journals) cannot be
    /// created or written.
    Fabric {
        /// The offending fabric directory.
        dir: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A graceful drain (SIGTERM/SIGINT) stopped this fabric worker
    /// before every cell was journalled. Completed cells are safely
    /// committed; re-running the same fabric resumes from them.
    FabricDrained {
        /// Cells journalled across the whole fabric at drain time.
        completed: usize,
        /// Total cells in the sweep.
        total: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Journal { path, source } => {
                write!(
                    f,
                    "sweep journal {} is unreadable: {source}",
                    path.display()
                )
            }
            SweepError::Fabric { dir, source } => {
                write!(
                    f,
                    "fabric directory {} is unusable: {source}",
                    dir.display()
                )
            }
            SweepError::FabricDrained { completed, total } => {
                write!(
                    f,
                    "fabric worker drained after {completed}/{total} cells; \
                     re-run with the same fabric dir to resume"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Journal { source, .. } => Some(source),
            SweepError::Fabric { source, .. } => Some(source),
            SweepError::FabricDrained { .. } => None,
        }
    }
}

/// Options of a sharded, supervised sweep.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Worker threads; `0` or `1` runs serially on the calling thread.
    pub threads: usize,
    /// Per-cell supervision policy (attempts, deadline, backoff).
    pub supervise: SuperviseOpts,
    /// Multi-process fabric participation: when set, [`run_cells`] joins
    /// the lease-based work queue under
    /// [`FabricOpts::dir`](crate::fabric::FabricOpts) as one cooperating
    /// worker instead of executing every cell itself.
    pub fabric: Option<FabricOpts>,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            supervise: SuperviseOpts::default(),
            fabric: None,
        }
    }
}

impl SweepOpts {
    /// Serial execution — behaviourally identical to the plain
    /// experiment runners.
    pub fn serial() -> Self {
        SweepOpts {
            threads: 1,
            ..SweepOpts::default()
        }
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-cell supervision policy.
    pub fn with_supervise(mut self, supervise: SuperviseOpts) -> Self {
        self.supervise = supervise;
        self
    }

    /// Joins the multi-process fabric rooted at `fabric.dir`.
    pub fn with_fabric(mut self, fabric: FabricOpts) -> Self {
        self.fabric = Some(fabric);
        self
    }
}

/// What the supervisor observed across one sweep: counts plus the
/// structured failure report of every quarantined cell. Serialized next
/// to (never inside) the experiment result, so the scientific JSON stays
/// byte-identical whether or not cells were retried or resumed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SupervisionReport {
    /// Total cells in the sweep.
    pub cells: usize,
    /// Cells actually executed this run (not restored from the journal).
    pub executed: usize,
    /// Cells restored from the fabric journals without executing.
    pub resume_skips: usize,
    /// Retry attempts consumed beyond each cell's first try.
    pub retries: u64,
    /// Cells that exhausted their attempt budget, in index order.
    pub quarantined: Vec<CellFailure>,
    /// What this process observed as a fabric worker (`None` outside
    /// fabric runs).
    pub fabric: Option<FabricReport>,
}

impl SupervisionReport {
    /// One-line human summary (for binaries' stderr).
    pub fn summary(&self) -> String {
        let mut text = format!(
            "{} cells: {} executed, {} resumed, {} retries, {} quarantined",
            self.cells,
            self.executed,
            self.resume_skips,
            self.retries,
            self.quarantined.len()
        );
        if let Some(fabric) = &self.fabric {
            text.push_str("; ");
            text.push_str(&fabric.summary());
        }
        text
    }
}

/// An experiment result bundled with its [`SupervisionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<R> {
    /// The experiment's scientific result.
    pub result: R,
    /// What the supervisor observed producing it.
    pub supervision: SupervisionReport,
}

/// The raw product of [`run_cells`]: per-index outcomes in index order,
/// plus the aggregated supervision report.
#[derive(Debug)]
pub struct CellsRun<T> {
    /// One outcome per cell index.
    pub outcomes: Vec<CellOutcome<T>>,
    /// The aggregated supervision report.
    pub report: SupervisionReport,
}

/// Runs `items` supervised cells, sharded over `opts.threads`; with
/// [`SweepOpts::fabric`] set, hands the sweep to the journalled,
/// resumable multi-process fabric instead.
///
/// `key_of(i)` names cell `i`; with `fingerprint` it keys the cell's
/// fabric lease and journal record. `make_job(i)` builds a fresh
/// self-contained closure per attempt; see
/// [`supervise::run_cell`](crate::supervise::run_cell) for why it must be
/// `'static`.
///
/// Determinism: outcomes come back in index order; journal-restored
/// fabric cells decode the exact JSON payload the original execution
/// committed, so a resumed sweep merges to the identical result an
/// uninterrupted run produces.
pub fn run_cells<T, K, J>(
    experiment: &str,
    items: usize,
    fingerprint: u32,
    opts: &SweepOpts,
    key_of: K,
    make_job: J,
) -> Result<CellsRun<T>, SweepError>
where
    T: Serialize + Deserialize + Send + 'static,
    K: Fn(usize) -> String + Sync,
    J: Fn(usize) -> Box<dyn FnOnce() -> T + Send + 'static> + Sync,
{
    if opts.fabric.is_some() {
        return crate::fabric::run_fabric(experiment, items, fingerprint, opts, key_of, make_job);
    }
    let outcomes = run_sharded(items, opts.threads, |index| {
        crate::supervise::run_cell(&opts.supervise, index, &key_of(index), || make_job(index))
    });
    let mut report = SupervisionReport {
        cells: items,
        executed: items,
        ..SupervisionReport::default()
    };
    for outcome in &outcomes {
        report.retries += outcome.retries();
        if let CellOutcome::Quarantined(failure) = outcome {
            report.quarantined.push(failure.clone());
        }
    }
    Ok(CellsRun { outcomes, report })
}

/// Runs `worker` for every index in `0..items` across up to `threads`
/// scoped OS threads and returns the results in index order.
///
/// Scheduling is work-stealing (an atomic next-index counter), so uneven
/// cell costs balance automatically; the index-sorted merge keeps the
/// output identical to a serial run. A panicking worker propagates the
/// panic to the caller once the scope joins (supervised sweeps never let
/// it get that far — cells panic inside `catch_unwind`).
pub fn run_sharded<T, F>(items: usize, threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || items <= 1 {
        return (0..items).map(worker).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                let result = worker(i);
                match slots.lock() {
                    Ok(mut v) => v.push((i, result)),
                    // Another worker panicked while holding the lock; the
                    // scope is about to propagate that panic anyway.
                    Err(poisoned) => poisoned.into_inner().push((i, result)),
                }
            });
        }
    });
    let mut v = match slots.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 7, 32] {
            let out = run_sharded(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_work_still_merges_deterministically() {
        // Later indices finish first; order must still hold.
        let out = run_sharded(20, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros((20 - i) as u64 * 50));
            i
        });
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_fine() {
        let out: Vec<usize> = run_sharded(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = run_sharded(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_opts_are_parallel_and_single_process() {
        let o = SweepOpts::default();
        assert!(o.threads >= 1);
        assert!(o.fabric.is_none());
        assert_eq!(o.supervise, SuperviseOpts::default());
    }

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let a = config_fingerprint(&SimConfig::table1());
        let b = config_fingerprint(&SimConfig::test_tiny());
        assert_ne!(a, b);
        assert_eq!(a, config_fingerprint(&SimConfig::table1()));
    }

    /// A 1-worker fabric under a fresh temp dir — the single-process
    /// resume path.
    fn one_worker(name: &str) -> (PathBuf, SweepOpts) {
        let dir = std::env::temp_dir().join(format!("zsweep-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOpts::serial()
            .with_supervise(SuperviseOpts::single())
            .with_fabric(FabricOpts::new(&dir).with_worker("w1"));
        (dir, opts)
    }

    #[test]
    fn run_cells_quarantines_and_journals_then_resumes() {
        let (dir, opts) = one_worker("cells");
        let key_of = |i: usize| format!("cell-{i}");
        let job = |i: usize| -> Box<dyn FnOnce() -> u64 + Send + 'static> {
            Box::new(move || {
                if i == 2 {
                    panic!("injected");
                }
                (i as u64) * 10
            })
        };
        let run = run_cells("unit", 4, 7, &opts, key_of, job).unwrap();
        assert_eq!(run.report.cells, 4);
        assert_eq!(run.report.executed, 4);
        assert_eq!(run.report.resume_skips, 0);
        assert_eq!(run.report.quarantined.len(), 1);
        assert_eq!(run.report.quarantined[0].index, 2);
        assert_eq!(run.outcomes[1].value(), Some(&10));
        assert!(run.outcomes[2].value().is_none());
        assert!(dir.join("unit").join("journal.w1.jsonl").exists());

        // Resume: every cell restores from the journal without executing
        // (attempts == 0). Fabric quarantine is terminal, so the
        // quarantined cell is restored as quarantined, not re-run.
        let job = |_: usize| -> Box<dyn FnOnce() -> u64 + Send + 'static> {
            Box::new(|| panic!("a resumed sweep must not execute journalled cells"))
        };
        let resumed = run_cells("unit", 4, 7, &opts, key_of, job).unwrap();
        assert_eq!(resumed.report.resume_skips, 4);
        assert_eq!(resumed.report.executed, 0);
        assert_eq!(resumed.report.quarantined, run.report.quarantined);
        let values: Vec<Option<u64>> = resumed
            .outcomes
            .iter()
            .map(|o| o.value().copied())
            .collect();
        assert_eq!(values, vec![Some(0), Some(10), None, Some(30)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_change_invalidates_journal_entries() {
        let (dir, opts) = one_worker("fp");
        let key_of = |i: usize| format!("c{i}");
        let job =
            |i: usize| -> Box<dyn FnOnce() -> u64 + Send + 'static> { Box::new(move || i as u64) };
        run_cells("fp", 2, 1, &opts, key_of, job).unwrap();
        let run = run_cells("fp", 2, 2, &opts, key_of, job).unwrap();
        assert_eq!(
            run.report.resume_skips, 0,
            "a different machine fingerprint must not resume stale cells"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
