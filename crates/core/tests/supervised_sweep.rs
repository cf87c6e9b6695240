//! End-to-end exercises of the supervised sweep runtime: the acceptance
//! scenario from the supervised-runtime work.
//!
//! A sweep containing a panicking cell and a hung cell must complete,
//! with exactly those cells quarantined and everything else produced
//! normally; a flaky cell must heal on retry.

use std::time::Duration;

use zcomp::supervise::{CellOutcome, FailureReason, SuperviseOpts};
use zcomp::sweep::{run_cells, SweepOpts};

/// The acceptance sweep: ten cells where one always panics and one always
/// hangs. The sweep completes, the sick cells are quarantined with their
/// specific failure reasons, and every healthy cell's value is present in
/// index order.
#[test]
fn sweep_with_panicking_and_hung_cells_completes_with_them_quarantined() {
    const PANICKER: usize = 3;
    const SLEEPER: usize = 7;
    let opts = SweepOpts::default().with_threads(4).with_supervise(
        SuperviseOpts::default()
            .with_attempts(2)
            .with_deadline(Duration::from_millis(200))
            .with_backoff(Duration::from_millis(1), Duration::from_millis(2)),
    );

    let run = run_cells(
        "acceptance",
        10,
        0xBEEF,
        &opts,
        |i| format!("cell-{i}"),
        |i| {
            Box::new(move || match i {
                PANICKER => panic!("injected panic in cell {i}"),
                SLEEPER => {
                    std::thread::sleep(Duration::from_secs(600));
                    0u64
                }
                _ => (i as u64) * 11,
            })
        },
    )
    .expect("sweep must complete despite sick cells");

    assert_eq!(run.report.cells, 10);
    assert_eq!(run.report.executed, 10);
    assert_eq!(run.report.quarantined.len(), 2);
    // One retry each: both sick cells consumed their full attempt budget.
    assert_eq!(run.report.retries, 2);

    for (i, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            CellOutcome::Completed { value, .. } => {
                assert_ne!(i, PANICKER);
                assert_ne!(i, SLEEPER);
                assert_eq!(*value, (i as u64) * 11);
            }
            CellOutcome::Quarantined(failure) => {
                assert_eq!(failure.index, i);
                assert_eq!(failure.attempts, 2);
                match (i, &failure.reason) {
                    (PANICKER, FailureReason::Panicked { message }) => {
                        assert!(message.contains("injected panic in cell 3"))
                    }
                    (SLEEPER, FailureReason::DeadlineExceeded { limit_ms }) => {
                        assert_eq!(*limit_ms, 200)
                    }
                    other => panic!("unexpected quarantine: {other:?}"),
                }
            }
        }
    }
}

/// A flaky cell that fails on its first attempt and succeeds on retry is
/// NOT quarantined, and the retry is visible in the report.
#[test]
fn flaky_cell_recovers_on_retry_without_quarantine() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static TRIES: AtomicU32 = AtomicU32::new(0);

    let opts = SweepOpts::serial().with_supervise(
        SuperviseOpts::default()
            .with_attempts(3)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(2)),
    );
    let run = run_cells(
        "flaky",
        3,
        0,
        &opts,
        |i| format!("cell-{i}"),
        |i| {
            Box::new(move || {
                if i == 1 && TRIES.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient failure");
                }
                i as u64
            })
        },
    )
    .expect("sweep");
    assert!(run.report.quarantined.is_empty());
    assert_eq!(run.report.retries, 1);
    assert_eq!(
        run.outcomes
            .iter()
            .map(|o| *o.value().unwrap())
            .collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
}
