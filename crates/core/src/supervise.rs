//! Supervised cell execution: panic isolation, deadline watchdogs,
//! deterministic retry/backoff, quarantine, and a crash-safe completion
//! journal.
//!
//! The paper's results are multi-hour sweeps over hundreds of independent
//! cells (44 DeepBench shapes × 3 schemes, 5 networks × 2 modes × 3
//! schemes). Before this module, one panicking cell aborted the whole
//! sweep and discarded every completed cell; one hung cell stalled it
//! forever. The supervisor gives each cell the discipline a production
//! batch runtime has:
//!
//! * **Isolation** — every attempt runs under
//!   [`std::panic::catch_unwind`]; a panic becomes a typed
//!   [`FailureReason::Panicked`], never a sweep abort.
//! * **Watchdog** — with a deadline configured, the attempt runs on a
//!   dedicated watchdog-monitored thread; exceeding the deadline yields
//!   [`FailureReason::DeadlineExceeded`] and the runaway thread is
//!   abandoned (it cannot be killed, but it no longer blocks the sweep).
//! * **Retry** — failed attempts are retried up to
//!   [`SuperviseOpts::max_attempts`] with capped exponential backoff and
//!   *seeded, deterministic* jitter, so two runs of the same failing
//!   sweep wait the same amounts of time.
//! * **Quarantine** — a cell that exhausts its attempts is recorded as a
//!   structured [`CellFailure`] instead of poisoning the run; the merged
//!   sweep output marks the quarantined index explicitly so partial
//!   results stay byte-deterministic.
//! * **Journal** — [`Journal`] is an append-only, CRC-guarded completion
//!   log persisted with the tmp+atomic-rename idiom. The
//!   [`fabric`](crate::fabric) keeps one per worker under its directory;
//!   a resumed sweep skips every verified-complete cell and reproduces
//!   the identical final report.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use zcomp_isa::integrity::crc32;
use zcomp_trace::{log_info, log_warn};

/// Retry, deadline and backoff policy of a supervised sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperviseOpts {
    /// Attempts per cell before quarantine (at least 1).
    pub max_attempts: u32,
    /// Per-cell wall-clock deadline enforced by a watchdog thread; `None`
    /// runs attempts inline with panic isolation only.
    pub deadline: Option<Duration>,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff (before jitter).
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SuperviseOpts {
    fn default() -> Self {
        SuperviseOpts {
            max_attempts: 2,
            deadline: None,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
            seed: 0x5AFE_5EED,
        }
    }
}

impl SuperviseOpts {
    /// One attempt, no watchdog: panic isolation and quarantine only.
    pub fn single() -> Self {
        SuperviseOpts {
            max_attempts: 1,
            ..SuperviseOpts::default()
        }
    }

    /// Sets the attempt budget (clamped to at least 1).
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Arms the per-cell watchdog deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the backoff base and cap.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The delay before retry number `retry` (1-based) of cell `index`:
    /// capped exponential backoff plus up to +50% seeded jitter. Pure in
    /// `(seed, index, retry)`, so a re-run of the same failing sweep
    /// backs off identically.
    pub fn backoff_delay(&self, index: usize, retry: u32) -> Duration {
        let doublings = retry.saturating_sub(1).min(20);
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_cap);
        let r = splitmix64(
            self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(retry),
        );
        // 24 bits of jitter mapped onto [0, 0.5).
        let jitter = (r >> 40) as f64 / (1u64 << 24) as f64 * 0.5;
        exp + exp.mul_f64(jitter)
    }
}

/// Finalizer of splitmix64 — a tiny, seedable, statistically fine mixer
/// for backoff jitter (not cryptographic).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Why one cell attempt (or the cell as a whole) failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureReason {
    /// The cell panicked; the payload message is preserved.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The watchdog deadline elapsed before the cell finished.
    DeadlineExceeded {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// The watchdog thread itself could not be spawned.
    SpawnFailed {
        /// The OS error, stringified.
        message: String,
    },
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::Panicked { message } => write!(f, "panicked: {message}"),
            FailureReason::DeadlineExceeded { limit_ms } => {
                write!(f, "deadline exceeded ({limit_ms} ms)")
            }
            FailureReason::SpawnFailed { message } => {
                write!(f, "watchdog thread spawn failed: {message}")
            }
        }
    }
}

/// Structured report of a quarantined cell: which cell, how many attempts
/// it was given, and why the last one failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Flat cell index within the sweep.
    pub index: usize,
    /// The cell's descriptor string (the same key the fabric lease and
    /// journal use).
    pub cell: String,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// Why the final attempt failed.
    pub reason: FailureReason,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} [{}] quarantined after {} attempt(s): {}",
            self.index, self.cell, self.attempts, self.reason
        )
    }
}

/// How one supervised cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<T> {
    /// The cell produced a value. `attempts` is the number of attempts
    /// consumed (1 = first try); 0 means the value was restored from a
    /// resume journal without executing.
    Completed {
        /// The cell's result.
        value: T,
        /// Attempts consumed; 0 for journal-restored cells.
        attempts: u32,
    },
    /// The cell exhausted its attempt budget.
    Quarantined(CellFailure),
}

impl<T> CellOutcome<T> {
    /// The completed value, if any.
    pub fn value(&self) -> Option<&T> {
        match self {
            CellOutcome::Completed { value, .. } => Some(value),
            CellOutcome::Quarantined(_) => None,
        }
    }

    /// Retries this outcome consumed (attempts beyond the first).
    pub fn retries(&self) -> u64 {
        match self {
            CellOutcome::Completed { attempts, .. } => u64::from(attempts.saturating_sub(1)),
            CellOutcome::Quarantined(f) => u64::from(f.attempts.saturating_sub(1)),
        }
    }
}

/// Stringifies a panic payload (the `&str`/`String` cases cover every
/// `panic!`/`assert!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job attempt with panic isolation and, when `deadline` is set,
/// a watchdog thread.
///
/// The watchdog path runs the job on a dedicated thread and waits on a
/// channel with a timeout. A timed-out thread is *abandoned*, not killed
/// (Rust has no safe thread cancellation): it keeps running detached
/// until it finishes or the process exits, but the sweep moves on. Cells
/// are pure functions of their inputs writing only tmp-then-renamed
/// files, so an abandoned straggler cannot corrupt shared state.
fn run_attempt<T: Send + 'static>(
    job: Box<dyn FnOnce() -> T + Send + 'static>,
    deadline: Option<Duration>,
) -> Result<T, FailureReason> {
    let Some(limit) = deadline else {
        return catch_unwind(AssertUnwindSafe(job)).map_err(|p| FailureReason::Panicked {
            message: panic_message(p.as_ref()),
        });
    };
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("zcomp-sweep-cell".to_string())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(job)).map_err(|p| panic_message(p.as_ref()));
            let _ = tx.send(result);
        });
    if let Err(e) = spawned {
        return Err(FailureReason::SpawnFailed {
            message: e.to_string(),
        });
    }
    match rx.recv_timeout(limit) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(message)) => Err(FailureReason::Panicked { message }),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(FailureReason::DeadlineExceeded {
            limit_ms: limit.as_millis() as u64,
        }),
        // The sender was dropped without sending — only possible if the
        // runtime tore the thread down; report it as a panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(FailureReason::Panicked {
            message: "cell thread exited without a result".to_string(),
        }),
    }
}

/// Runs one cell under the full supervision policy: isolate, watch,
/// retry with deterministic backoff, quarantine.
///
/// `make_job` is called once per attempt and must hand back a fresh
/// self-contained (`'static`) closure — the watchdog path cannot borrow
/// from the caller's stack because an abandoned attempt may outlive it.
pub fn run_cell<T, F>(opts: &SuperviseOpts, index: usize, cell: &str, make_job: F) -> CellOutcome<T>
where
    T: Send + 'static,
    F: Fn() -> Box<dyn FnOnce() -> T + Send + 'static>,
{
    let budget = opts.max_attempts.max(1);
    let mut last: Option<FailureReason> = None;
    for attempt in 1..=budget {
        if let Some(reason) = &last {
            let delay = opts.backoff_delay(index, attempt - 1);
            zcomp_trace::tracer::instant("sweep", "supervise.retry");
            zcomp_trace::tracer::counter("supervise.retries", 1.0);
            if zcomp_trace::events::armed() {
                zcomp_trace::events::emit(zcomp_trace::events::FleetEvent::CellRetried {
                    index: index as u64,
                    cell: cell.to_string(),
                    attempt: attempt - 1,
                    reason: reason.to_string(),
                });
            }
            log_warn!(
                "cell {index} [{cell}] failed ({reason}); retry {}/{} in {:.1} ms",
                attempt - 1,
                budget - 1,
                delay.as_secs_f64() * 1e3
            );
            std::thread::sleep(delay);
        }
        match run_attempt(make_job(), opts.deadline) {
            Ok(value) => {
                return CellOutcome::Completed {
                    value,
                    attempts: attempt,
                }
            }
            Err(reason) => last = Some(reason),
        }
    }
    let failure = CellFailure {
        index,
        cell: cell.to_string(),
        attempts: budget,
        reason: last.unwrap_or(FailureReason::Panicked {
            message: "no attempt ran".to_string(),
        }),
    };
    zcomp_trace::tracer::instant("sweep", "supervise.quarantine");
    zcomp_trace::tracer::counter("supervise.quarantined", 1.0);
    if zcomp_trace::events::armed() {
        zcomp_trace::events::emit(zcomp_trace::events::FleetEvent::CellQuarantined {
            index: index as u64,
            cell: cell.to_string(),
            attempts: failure.attempts,
            reason: failure.reason.to_string(),
        });
    }
    log_warn!("{failure}");
    CellOutcome::Quarantined(failure)
}

// ---------------------------------------------------------------------------
// Completion journal
// ---------------------------------------------------------------------------

/// One journal line: a completed cell keyed by its descriptor and the
/// machine-config fingerprint, carrying the serialized cell result, the
/// committing worker's identity and fencing token (both zero-valued for
/// unfenced commits), and a CRC32 over all of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Cell descriptor (the sweep cell key).
    pub cell: String,
    /// Machine-config fingerprint the result was produced under.
    pub fingerprint: u32,
    /// The cell result as a JSON document.
    pub payload: String,
    /// Id of the worker that committed the record (`""` outside fabric
    /// runs).
    pub worker: String,
    /// Fencing token the committing worker held for this cell (`0`
    /// outside fabric runs). The fabric merge keeps the highest token per
    /// cell, so a zombie's stale duplicate never wins.
    pub token: u64,
    /// CRC32 over
    /// `cell ‖ 0 ‖ fingerprint_le ‖ 0 ‖ worker ‖ 0 ‖ token_le ‖ 0 ‖ payload`.
    pub crc: u32,
}

impl JournalRecord {
    fn compute_crc(cell: &str, fingerprint: u32, worker: &str, token: u64, payload: &str) -> u32 {
        let mut bytes = Vec::with_capacity(cell.len() + worker.len() + payload.len() + 16);
        bytes.extend_from_slice(cell.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(worker.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&token.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(payload.as_bytes());
        crc32(&bytes)
    }

    /// Builds a plain (unfenced) record with its CRC filled in.
    pub fn new(cell: String, fingerprint: u32, payload: String) -> JournalRecord {
        JournalRecord::new_fenced(cell, fingerprint, payload, String::new(), 0)
    }

    /// Builds a fenced record — a fabric worker's commit stamped with its
    /// identity and fencing token — with its CRC filled in.
    pub fn new_fenced(
        cell: String,
        fingerprint: u32,
        payload: String,
        worker: String,
        token: u64,
    ) -> JournalRecord {
        let crc = JournalRecord::compute_crc(&cell, fingerprint, &worker, token, &payload);
        JournalRecord {
            cell,
            fingerprint,
            payload,
            worker,
            token,
            crc,
        }
    }

    /// Whether the stored CRC matches the record contents.
    pub fn verify(&self) -> bool {
        JournalRecord::compute_crc(
            &self.cell,
            self.fingerprint,
            &self.worker,
            self.token,
            &self.payload,
        ) == self.crc
    }
}

/// The verified value held for one journalled cell: the payload plus the
/// provenance (worker, fencing token) it was committed under.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The cell result as a JSON document.
    pub payload: String,
    /// Committing worker id (`""` outside fabric runs).
    pub worker: String,
    /// Fencing token of the commit (`0` outside fabric runs).
    pub token: u64,
}

/// Crash-safe sweep-completion journal: one JSONL file of
/// [`JournalRecord`]s, persisted whole with tmp+atomic-rename on every
/// commit so a SIGKILL at any instant leaves either the previous or the
/// new journal — never a torn one. Records that fail their CRC or do not
/// parse (e.g. after manual tampering or filesystem rot) are dropped on
/// load, so resume only ever skips *verified-complete* cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    records: BTreeMap<(String, u32), JournalEntry>,
}

impl Journal {
    /// Loads (or starts) the journal at `path`. A missing file is an
    /// empty journal; unreadable or CRC-failing lines are discarded with
    /// a warning and healed away on the next commit.
    pub fn load(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let mut records = BTreeMap::new();
        // Lossy decode: a flipped byte that breaks UTF-8 must cost one
        // record, not the whole resume (the CRC rejects the mangled line).
        let text = match fs::read(&path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut dropped = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalRecord>(line) {
                Ok(rec) if rec.verify() => {
                    records.insert(
                        (rec.cell, rec.fingerprint),
                        JournalEntry {
                            payload: rec.payload,
                            worker: rec.worker,
                            token: rec.token,
                        },
                    );
                }
                _ => dropped += 1,
            }
        }
        if dropped > 0 {
            log_warn!(
                "journal {}: dropped {dropped} corrupt record(s); only verified cells resume",
                path.display()
            );
        } else if !records.is_empty() {
            log_info!(
                "journal {}: {} verified completed cell(s)",
                path.display(),
                records.len()
            );
        }
        Ok(Journal { path, records })
    }

    /// Starts a fresh journal at `path`, ignoring any records already on
    /// disk (a non-resume sweep must not inherit a previous run's
    /// completions — the first commit overwrites the old file whole).
    pub fn fresh(path: impl Into<PathBuf>) -> Journal {
        Journal {
            path: path.into(),
            records: BTreeMap::new(),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Verified-complete records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The payload journalled for `(cell, fingerprint)`, if any.
    pub fn lookup(&self, cell: &str, fingerprint: u32) -> Option<&str> {
        self.entry(cell, fingerprint).map(|e| e.payload.as_str())
    }

    /// The full entry (payload plus worker/token provenance) journalled
    /// for `(cell, fingerprint)`, if any.
    pub fn entry(&self, cell: &str, fingerprint: u32) -> Option<&JournalEntry> {
        self.records.get(&(cell.to_string(), fingerprint))
    }

    /// Iterates every verified record as `(cell, fingerprint, entry)`, in
    /// key order. Fleet status tools use this to count done/quarantined
    /// cells without knowing the sweep grid.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32, &JournalEntry)> {
        self.records
            .iter()
            .map(|((cell, fp), entry)| (cell.as_str(), *fp, entry))
    }

    /// Records a completed cell and persists the journal atomically
    /// (write everything to `<path>.tmp`, rename over `<path>`).
    pub fn commit(&mut self, cell: String, fingerprint: u32, payload: String) -> io::Result<()> {
        self.commit_fenced(cell, fingerprint, payload, String::new(), 0)
    }

    /// Records a completed cell with fabric provenance (worker id and
    /// fencing token) and persists the journal atomically.
    pub fn commit_fenced(
        &mut self,
        cell: String,
        fingerprint: u32,
        payload: String,
        worker: String,
        token: u64,
    ) -> io::Result<()> {
        self.records.insert(
            (cell, fingerprint),
            JournalEntry {
                payload,
                worker,
                token,
            },
        );
        self.persist()
    }

    fn persist(&self) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut text = String::new();
        for ((cell, fingerprint), entry) in &self.records {
            let rec = JournalRecord::new_fenced(
                cell.clone(),
                *fingerprint,
                entry.payload.clone(),
                entry.worker.clone(),
                entry.token,
            );
            text.push_str(&serde_json::to_string(&rec).map_err(io::Error::other)?);
            text.push('\n');
        }
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn boxed<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Box<dyn FnOnce() -> T + Send + 'static> {
        Box::new(f)
    }

    #[test]
    fn clean_cell_completes_first_try() {
        let out = run_cell(&SuperviseOpts::default(), 0, "ok", || boxed(|| 42));
        assert_eq!(
            out,
            CellOutcome::Completed {
                value: 42,
                attempts: 1
            }
        );
        assert_eq!(out.retries(), 0);
    }

    #[test]
    fn panicking_cell_is_quarantined_with_its_message() {
        let opts = SuperviseOpts::default()
            .with_attempts(3)
            .with_backoff(Duration::from_micros(10), Duration::from_micros(50));
        let out: CellOutcome<u32> =
            run_cell(&opts, 7, "boom", || boxed(|| panic!("cell exploded")));
        match out {
            CellOutcome::Quarantined(f) => {
                assert_eq!(f.index, 7);
                assert_eq!(f.cell, "boom");
                assert_eq!(f.attempts, 3);
                assert_eq!(
                    f.reason,
                    FailureReason::Panicked {
                        message: "cell exploded".to_string()
                    }
                );
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn transient_failure_recovers_on_retry() {
        static TRIES: AtomicU32 = AtomicU32::new(0);
        TRIES.store(0, Ordering::SeqCst);
        let opts = SuperviseOpts::default()
            .with_attempts(3)
            .with_backoff(Duration::from_micros(10), Duration::from_micros(50));
        let out = run_cell(&opts, 1, "flaky", || {
            boxed(|| {
                if TRIES.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                99
            })
        });
        assert_eq!(
            out,
            CellOutcome::Completed {
                value: 99,
                attempts: 2
            }
        );
        assert_eq!(out.retries(), 1);
    }

    #[test]
    fn hung_cell_trips_the_watchdog() {
        let opts = SuperviseOpts::default()
            .with_attempts(2)
            .with_deadline(Duration::from_millis(30))
            .with_backoff(Duration::from_micros(10), Duration::from_micros(50));
        let out: CellOutcome<u32> = run_cell(&opts, 3, "hang", || {
            boxed(|| {
                std::thread::sleep(Duration::from_secs(600));
                0
            })
        });
        match out {
            CellOutcome::Quarantined(f) => {
                assert_eq!(f.reason, FailureReason::DeadlineExceeded { limit_ms: 30 });
                assert_eq!(f.attempts, 2);
            }
            other => panic!("expected deadline quarantine, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_passes_fast_cells_through() {
        let opts = SuperviseOpts::default().with_deadline(Duration::from_secs(30));
        let out = run_cell(&opts, 0, "fast", || boxed(|| "done"));
        assert_eq!(
            out,
            CellOutcome::Completed {
                value: "done",
                attempts: 1
            }
        );
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let opts = SuperviseOpts::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(80))
            .with_seed(42);
        let a1 = opts.backoff_delay(5, 1);
        assert_eq!(a1, opts.backoff_delay(5, 1), "same inputs, same delay");
        assert_ne!(a1, opts.backoff_delay(6, 1), "different cells jitter apart");
        // Base 10ms: retry 1 in [10,15)ms, retry 4+ capped at [80,120)ms.
        assert!(a1 >= Duration::from_millis(10) && a1 < Duration::from_millis(15));
        let a4 = opts.backoff_delay(5, 4);
        assert!(a4 >= Duration::from_millis(80) && a4 < Duration::from_millis(120));
        assert!(
            opts.backoff_delay(5, 20) < Duration::from_millis(120),
            "cap holds"
        );
    }

    #[test]
    fn journal_round_trips_and_survives_reload() {
        let path = std::env::temp_dir().join(format!("zj-basic-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        let mut j = Journal::load(&path).unwrap();
        assert!(j.is_empty());
        j.commit("cell-a".into(), 7, "{\"x\":1}".into()).unwrap();
        j.commit("cell-b".into(), 7, "{\"x\":2}".into()).unwrap();
        drop(j);
        let j = Journal::load(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.lookup("cell-a", 7), Some("{\"x\":1}"));
        assert_eq!(j.lookup("cell-b", 7), Some("{\"x\":2}"));
        assert_eq!(j.lookup("cell-a", 8), None, "fingerprint keys the record");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_journal_lines_are_dropped_not_fatal() {
        let path = std::env::temp_dir().join(format!("zj-corrupt-{}.jsonl", std::process::id()));
        let mut j = Journal::load(&path).unwrap();
        j.commit("good".into(), 1, "{}".into()).unwrap();
        // Append a line with a bad CRC and a truncated line.
        let mut text = fs::read_to_string(&path).unwrap();
        let forged = JournalRecord {
            cell: "forged".into(),
            fingerprint: 1,
            payload: "{}".into(),
            worker: String::new(),
            token: 0,
            crc: 0xDEAD_BEEF,
        };
        text.push_str(&serde_json::to_string(&forged).unwrap());
        text.push('\n');
        text.push_str("{\"cell\":\"torn");
        fs::write(&path, text).unwrap();

        let j = Journal::load(&path).unwrap();
        assert_eq!(j.len(), 1, "only the verified record survives");
        assert!(j.lookup("good", 1).is_some());
        assert!(j.lookup("forged", 1).is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fenced_commits_round_trip_worker_and_token() {
        let path = std::env::temp_dir().join(format!("zj-fenced-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        let mut j = Journal::load(&path).unwrap();
        j.commit_fenced("cell".into(), 3, "{\"x\":1}".into(), "w-a".into(), 2)
            .unwrap();
        let j = Journal::load(&path).unwrap();
        let entry = j.entry("cell", 3).expect("fenced entry resumes");
        assert_eq!(entry.payload, "{\"x\":1}");
        assert_eq!(entry.worker, "w-a");
        assert_eq!(entry.token, 2);
        // Plain commits carry the zero provenance.
        let mut j = Journal::load(&path).unwrap();
        j.commit("plain".into(), 3, "{}".into()).unwrap();
        let j = Journal::load(&path).unwrap();
        let plain = j.entry("plain", 3).unwrap();
        assert_eq!((plain.worker.as_str(), plain.token), ("", 0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tampered_token_fails_verification() {
        let rec = JournalRecord::new_fenced("c".into(), 1, "{}".into(), "w".into(), 5);
        assert!(rec.verify());
        let mut bad = rec.clone();
        bad.token = 6;
        assert!(!bad.verify(), "a forged fencing token must not verify");
        let mut bad = rec;
        bad.worker = "z".into();
        assert!(!bad.verify(), "a forged worker id must not verify");
    }

    #[test]
    fn commit_is_atomic_no_tmp_left_behind() {
        let dir = std::env::temp_dir().join(format!("zj-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("journal.jsonl");
        let mut j = Journal::load(&path).unwrap();
        j.commit("c".into(), 9, "{}".into()).unwrap();
        assert!(path.exists());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_reasons_render_and_serialize() {
        let f = CellFailure {
            index: 3,
            cell: "cfg=x".into(),
            attempts: 2,
            reason: FailureReason::DeadlineExceeded { limit_ms: 1500 },
        };
        let text = f.to_string();
        assert!(text.contains("cfg=x") && text.contains("1500"));
        let json = serde_json::to_string(&f).unwrap();
        let back: CellFailure = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
