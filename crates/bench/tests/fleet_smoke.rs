//! Smoke tests for the fleet observability tools.
//!
//! The feature-less tests build a synthetic fabric directory out of the
//! always-compiled building blocks (event streams, journals) and drive
//! the real `fabric_top` / `fleet_report` binaries over it — including a
//! stream whose tail is torn mid-write, the on-disk signature of a
//! SIGKILLed worker. The `events`-gated test runs the real thing: three
//! `fig12_relu_deepbench` fabric workers, one SIGKILLed mid-sweep, and
//! checks the dashboard JSON and the merged Perfetto timeline stay
//! consistent with the journalled truth.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use zcomp::fabric::FabricCellPayload;
use zcomp::fleet::FleetStatus;
use zcomp::supervise::Journal;
use zcomp_trace::chrome;
use zcomp_trace::events::{EventStream, FleetEvent, STREAM_VERSION};
use zcomp_trace::metrics::MetricsDelta;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zcomp-fleet-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start_event(worker: &str, cells: u64) -> FleetEvent {
    FleetEvent::WorkerStart {
        worker: worker.to_string(),
        experiment: "exp".to_string(),
        cells,
        fingerprint: 9,
        lease_ttl_ms: 500,
        epoch_us: 5_000_000,
        version: STREAM_VERSION,
    }
}

fn claim(index: u64) -> FleetEvent {
    FleetEvent::CellClaimed {
        index,
        cell: format!("cell-{index}"),
        token: 1,
        reclaimed: false,
    }
}

fn commit(index: u64) -> FleetEvent {
    FleetEvent::CellCommitted {
        index,
        cell: format!("cell-{index}"),
        token: 1,
        attempts: 1,
        elapsed_us: 2000,
    }
}

/// A synthetic two-worker fabric dir: w1 finished cleanly, w2's stream
/// is torn mid-line (SIGKILL signature); both cells are journalled.
fn synthetic_fabric(root: &Path) {
    let events = root.join("exp").join("events");
    let mut w1 = EventStream::create(&events.join("w1.jsonl")).expect("w1 stream");
    for ev in [
        start_event("w1", 2),
        claim(0),
        FleetEvent::Heartbeat {
            metrics: MetricsDelta::default(),
        },
        commit(0),
        FleetEvent::WorkerDone {
            completed: 1,
            claims: 1,
            reclaims: 0,
            fenced: 0,
            drains: 0,
            duplicates: 0,
        },
    ] {
        w1.emit(ev).expect("emit w1");
    }
    let mut w2 = EventStream::create(&events.join("w2.jsonl")).expect("w2 stream");
    for ev in [start_event("w2", 2), claim(1), commit(1)] {
        w2.emit(ev).expect("emit w2");
    }
    drop(w2);
    // Tear the tail: a half-written line with no newline, as left by a
    // worker killed mid-write. Readers must stop at the last valid event.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(events.join("w2.jsonl"))
        .expect("reopen w2");
    file.write_all(b"deadbeef {\"seq\":3,\"ts_us\":99,\"event\":")
        .expect("append torn line");

    let mut journal = Journal::load(root.join("exp").join("journal.w1.jsonl")).expect("journal");
    for (cell, worker) in [("cell-0", "w1"), ("cell-1", "w2")] {
        journal
            .commit_fenced(
                cell.to_string(),
                9,
                serde_json::to_string(&FabricCellPayload::Completed {
                    attempts: 1,
                    value: "1".to_string(),
                })
                .expect("payload"),
                worker.to_string(),
                1,
            )
            .expect("commit");
    }
}

#[test]
fn fabric_top_once_json_parses_and_reflects_a_torn_stream() {
    let dir = tmp_dir("top");
    synthetic_fabric(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_fabric_top"))
        .arg(&dir)
        .args(["--once", "--json"])
        .output()
        .expect("run fabric_top");
    assert!(out.status.success(), "fabric_top failed: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let status: FleetStatus =
        serde_json::from_str(&stdout).expect("fabric_top --json must emit valid status JSON");

    assert_eq!(status.experiments.len(), 1);
    let exp = &status.experiments[0];
    assert_eq!(exp.experiment, "exp");
    assert!(exp.grid_known);
    assert_eq!((exp.cells, exp.done, exp.quarantined), (2, 2, 0));
    assert_eq!(exp.workers.len(), 2);
    let (w1, w2) = (&exp.workers[0], &exp.workers[1]);
    assert!(w1.done && !w1.truncated);
    assert_eq!((w1.claims, w1.completed), (1, 1));
    assert!(
        w2.truncated && !w2.done,
        "torn tail must flag the stream truncated"
    );
    assert_eq!(
        (w2.claims, w2.completed),
        (1, 1),
        "events before the torn line still count"
    );

    // The human view renders without crashing and names both workers.
    let human = Command::new(env!("CARGO_BIN_EXE_fabric_top"))
        .arg(&dir)
        .arg("--once")
        .output()
        .expect("run fabric_top human view");
    assert!(human.status.success());
    let text = String::from_utf8_lossy(&human.stdout).to_string();
    assert!(text.contains("w1") && text.contains("w2"), "{text}");
    assert!(text.contains("killed?"), "torn worker flagged: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_report_writes_valid_merged_trace_and_markdown() {
    let dir = tmp_dir("report");
    synthetic_fabric(&dir);
    let out_dir = dir.join("results");

    let out = Command::new(env!("CARGO_BIN_EXE_fleet_report"))
        .arg(&dir)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run fleet_report");
    assert!(out.status.success(), "fleet_report failed: {}", out.status);

    let trace = std::fs::read_to_string(out_dir.join("fleet_trace_exp.json")).expect("trace file");
    let check = chrome::validate(&trace).expect("merged trace validates");
    assert_eq!(check.pids, 2, "one Perfetto process per worker");
    assert_eq!(check.metadata, 2, "process_name metadata per worker");
    assert_eq!(check.async_spans, 2, "one lease span per claimed cell");

    let md = std::fs::read_to_string(out_dir.join("fleet_report.md")).expect("markdown");
    assert!(md.contains("# Fleet report"));
    assert!(md.contains("| w1 |") && md.contains("| w2 |"), "{md}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fabric_top_exits_nonzero_on_missing_dir_and_bad_usage() {
    let missing = std::env::temp_dir().join("zcomp-fleet-smoke-definitely-missing");
    let out = Command::new(env!("CARGO_BIN_EXE_fabric_top"))
        .arg(&missing)
        .args(["--once", "--json"])
        .stderr(Stdio::null())
        .output()
        .expect("run fabric_top");
    assert_eq!(out.status.code(), Some(1));

    let usage = Command::new(env!("CARGO_BIN_EXE_fleet_report"))
        .args(["--bogus-flag"])
        .stderr(Stdio::null())
        .output()
        .expect("run fleet_report");
    assert_eq!(usage.status.code(), Some(2));
}

/// The real thing: three fabric workers on a fig12 sweep with the event
/// sink armed, one SIGKILLed mid-run. The survivors finish the sweep;
/// the dashboard JSON must agree with the journalled truth and the
/// merged timeline must carry all three workers, the killed one's
/// stream read up to its last CRC-valid event.
#[cfg(feature = "events")]
#[test]
fn killed_worker_fleet_stays_consistent_end_to_end() {
    use std::time::Duration;
    let dir = tmp_dir("e2e");
    let worker_cmd = |fabric: &Path, worker: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig12_relu_deepbench"));
        cmd.args(["--scale", "512", "--quiet", "--resume"])
            .args(["--lease-ttl-ms", "500"])
            .arg("--fabric-dir")
            .arg(fabric)
            .args(["--worker-id", worker]);
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        cmd
    };

    // Stagger the kill until a round lands while the victim is alive
    // (same approach as the fabric smoke test).
    let mut fabric = dir.join("fabric-0");
    for attempt in 0..5u64 {
        fabric = dir.join(format!("fabric-{attempt}"));
        let mut w1 = worker_cmd(&fabric, "w1").spawn().expect("spawn w1");
        let mut victim = worker_cmd(&fabric, "w2").spawn().expect("spawn w2");
        let mut w3 = worker_cmd(&fabric, "w3").spawn().expect("spawn w3");

        std::thread::sleep(Duration::from_millis(40 + 60 * attempt));
        let victim_was_running = matches!(victim.try_wait(), Ok(None));
        let _ = victim.kill();
        let _ = victim.wait();
        let s1 = w1.wait().expect("wait w1");
        let s3 = w3.wait().expect("wait w3");
        assert!(s1.success() && s3.success(), "survivors failed: {s1} {s3}");
        if victim_was_running {
            break;
        }
        assert!(attempt < 4, "no kill landed while the victim was alive");
    }

    // Every worker left an event stream; the killed one's parses up to
    // its last CRC-valid record (torn tail or not, never garbage).
    let events_dir = fabric.join("fig12").join("events");
    let mut streams: Vec<PathBuf> = std::fs::read_dir(&events_dir)
        .expect("events dir exists when the sink is armed")
        .flatten()
        .map(|e| e.path())
        .collect();
    streams.sort();
    assert_eq!(streams.len(), 3, "one stream per worker: {streams:?}");
    for path in &streams {
        let stream = zcomp_trace::events::read_stream(path).expect("stream parses");
        assert!(!stream.records.is_empty(), "{path:?} has valid events");
    }

    // Dashboard JSON agrees with the journalled truth.
    let out = Command::new(env!("CARGO_BIN_EXE_fabric_top"))
        .arg(&fabric)
        .args(["--once", "--json"])
        .output()
        .expect("run fabric_top");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let status: FleetStatus = serde_json::from_str(&stdout).expect("status JSON");
    let exp = &status.experiments[0];
    assert_eq!(exp.experiment, "fig12");
    assert!(exp.grid_known);
    assert_eq!(exp.done, exp.cells, "sweep completed despite the kill");
    assert_eq!(exp.quarantined, 0);
    assert_eq!(exp.in_flight, 0, "no leases left running");
    assert_eq!(exp.workers.len(), 3);
    assert!(exp.workers.iter().all(|w| w.started));
    let killed = exp.workers.iter().find(|w| w.worker == "w2").expect("w2");
    assert!(!killed.done, "SIGKILL leaves no WorkerDone");
    let claims: u64 = exp.workers.iter().map(|w| w.claims).sum();
    assert!(claims >= exp.cells, "every cell was claimed at least once");
    // The survivors' committed counts cover the whole grid minus at most
    // what the victim journalled before its stream stopped.
    let completed: u64 = exp.workers.iter().map(|w| w.completed).sum();
    assert!(completed >= exp.cells.saturating_sub(killed.claims));

    // One merged timeline with all three workers, and it validates.
    let out_dir = dir.join("results");
    let report = Command::new(env!("CARGO_BIN_EXE_fleet_report"))
        .arg(&fabric)
        .args(["--experiment", "fig12", "--quiet"])
        .arg("--out-dir")
        .arg(&out_dir)
        .status()
        .expect("run fleet_report");
    assert!(report.success(), "fleet_report failed: {report}");
    let trace =
        std::fs::read_to_string(out_dir.join("fleet_trace_fig12.json")).expect("merged trace");
    let check = chrome::validate(&trace).expect("merged trace validates");
    assert_eq!(check.pids, 3, "spans from all three workers");
    assert!(check.async_spans as u64 >= exp.cells, "{check:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
