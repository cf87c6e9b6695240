//! Kill-mid-sweep integration test for crash-safe checkpoint–resume.
//!
//! Drives the real `fig12_relu_deepbench` binary: one uninterrupted
//! single-process run produces the reference JSON report; a second run,
//! a 1-worker fabric, is SIGKILLed mid-sweep and then continued with
//! `--resume` on the same fabric directory. The resumed run must exit
//! cleanly and its report must be byte-for-byte identical to the
//! uninterrupted one — the fabric journal restores completed cells
//! exactly, and the JSON carries only the scientific result, never "how
//! we got there".

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SCALE: &str = "512";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zcomp-resume-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A fig12 run writing `json`; with `fabric`, a 1-worker fabric there.
/// The short lease TTL lets a resumed worker reclaim the cells its
/// killed predecessor held leased.
fn fig12_cmd(fabric: Option<&Path>, json: &Path, resume: bool) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig12_relu_deepbench"));
    cmd.args(["--scale", SCALE, "--quiet"])
        .arg("--json")
        .arg(json);
    if let Some(fabric) = fabric {
        cmd.arg("--fabric-dir")
            .arg(fabric)
            .args(["--worker-id", "w1", "--lease-ttl-ms", "500"]);
    }
    if resume {
        cmd.arg("--resume");
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Kills `child` after `delay`; returns whether it was still running.
fn kill_after(mut child: Child, delay: Duration) -> bool {
    std::thread::sleep(delay);
    let still_running = matches!(child.try_wait(), Ok(None));
    let _ = child.kill(); // SIGKILL — no cleanup handlers run
    let _ = child.wait();
    still_running
}

#[test]
fn resumed_run_reproduces_the_uninterrupted_report_byte_for_byte() {
    let dir = tmp_dir("main");
    let reference_json = dir.join("uninterrupted.json");
    let resumed_json = dir.join("resumed.json");

    // Reference: one uninterrupted run.
    let status = fig12_cmd(None, &reference_json, false)
        .status()
        .expect("spawn fig12_relu_deepbench");
    assert!(status.success(), "uninterrupted run failed: {status}");
    let reference = std::fs::read(&reference_json).expect("reference json");
    assert!(!reference.is_empty());

    // Interrupted: SIGKILL mid-sweep, at a few staggered points so at
    // least one kill lands while cells are still in flight. Every
    // (kill, resume) round must converge to the reference bytes.
    let fabric = dir.join("fabric");
    let mut interrupted_midway = false;
    for attempt in 0..4u64 {
        let _ = std::fs::remove_file(&resumed_json);
        // Without `--resume` the run resets the fabric directory first.
        let child = fig12_cmd(Some(&fabric), &resumed_json, false)
            .spawn()
            .expect("spawn fig12_relu_deepbench");
        interrupted_midway |= kill_after(child, Duration::from_millis(30 + 60 * attempt));

        let status = fig12_cmd(Some(&fabric), &resumed_json, true)
            .status()
            .expect("spawn resume");
        assert!(status.success(), "resume run failed: {status}");
        let resumed = std::fs::read(&resumed_json).expect("resumed json");
        assert_eq!(
            resumed, reference,
            "resumed report must be byte-identical to the uninterrupted one"
        );
        if interrupted_midway {
            break;
        }
    }
    assert!(
        interrupted_midway,
        "no kill landed mid-sweep; increase the sweep size or shrink the delays"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming with nothing journalled (the kill landed before any cell
/// committed, or the fabric dir is fresh) is just a full run.
#[test]
fn resume_with_empty_journal_is_a_full_run() {
    let dir = tmp_dir("fresh");
    let json = dir.join("out.json");
    let status = fig12_cmd(Some(&dir.join("fabric")), &json, true)
        .status()
        .expect("spawn fig12_relu_deepbench --resume");
    assert!(status.success(), "fresh --resume run failed: {status}");
    assert!(json.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
