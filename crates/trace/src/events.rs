//! CRC-guarded fleet event streams for multi-process sweeps.
//!
//! Every fabric worker appends one [`FleetEvent`] per lease-lifecycle
//! transition (claim, commit, retry, quarantine, fence, release, drain)
//! plus a periodic [`FleetEvent::Heartbeat`] carrying a
//! [`MetricsDelta`] time-series snapshot, to a per-worker file under
//! `<fabric-dir>/<experiment>/events/`. Readers (`fabric_top`,
//! `fleet_report`) tail these files read-only to reconstruct live fleet
//! status and a merged cross-worker timeline.
//!
//! # Wire format and crash truncation
//!
//! Each line is `:<crc32 hex, 8 chars>:<space>:<record JSON>`, where the
//! CRC covers exactly the JSON bytes as written. Records carry a
//! contiguous sequence number and a monotonic-clock timestamp in
//! microseconds relative to the stream's wall-clock `epoch_us` anchor
//! (recorded in [`FleetEvent::WorkerStart`], always the first record).
//! Writers flush after every line, so a SIGKILL leaves at most one torn
//! final line; [`read_stream`] stops at the first line that fails the CRC,
//! fails to parse, or breaks the sequence, and reports the stream as
//! truncated. Everything before that point is trustworthy.
//!
//! # Feature gating
//!
//! The types, writer and reader are always compiled (status tools must
//! read streams regardless of how they were built). The *global sink* the
//! fabric emits through follows the tracer's pattern: behind the `events`
//! cargo feature it is a process-wide stream slot; with the feature off,
//! [`stream_open`] refuses to arm, [`armed`] is a constant `false` and
//! [`emit`] is an empty inline function, so instrumented call sites
//! compile to nothing and sweep reports stay byte-identical.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::crc::crc32;
use crate::metrics::MetricsDelta;

/// Schema version stamped into every [`FleetEvent::WorkerStart`].
pub const STREAM_VERSION: u32 = 1;

/// One structured event in a worker's stream.
///
/// Cell-level variants identify the cell by both its dense sweep `index`
/// (stable across workers — it is the lease key) and its human-readable
/// `cell` label. `token` is the fencing token of the lease generation the
/// event happened under, so reclaim chains can be reconstructed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// First record of every stream: identifies the worker and anchors
    /// the stream's monotonic timestamps to wall-clock `epoch_us`
    /// (microseconds since the Unix epoch).
    WorkerStart {
        /// Worker id (also the stream's file stem, sanitized).
        worker: String,
        /// Experiment name (the fabric subdirectory).
        experiment: String,
        /// Total cells in the sweep grid.
        cells: u64,
        /// Sweep fingerprint, for pairing with journal records.
        fingerprint: u32,
        /// Lease TTL in milliseconds — readers derive liveness
        /// thresholds from it.
        lease_ttl_ms: u64,
        /// Wall-clock anchor for this stream's `ts_us` values.
        epoch_us: u64,
        /// Stream schema version ([`STREAM_VERSION`]).
        version: u32,
    },
    /// The worker won the lease for a cell.
    CellClaimed {
        /// Dense sweep index (lease key).
        index: u64,
        /// Cell label.
        cell: String,
        /// Fencing token of the claimed lease.
        token: u64,
        /// True when the claim reclaimed an expired lease from a dead
        /// worker.
        reclaimed: bool,
    },
    /// A cell attempt failed and will be retried.
    CellRetried {
        /// Dense sweep index.
        index: u64,
        /// Cell label.
        cell: String,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Failure description.
        reason: String,
    },
    /// The cell's result (success or quarantine) was committed to the
    /// worker's journal and the lease marked done.
    CellCommitted {
        /// Dense sweep index.
        index: u64,
        /// Cell label.
        cell: String,
        /// Fencing token the commit was validated against.
        token: u64,
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
        /// Wall time spent executing the cell, microseconds.
        elapsed_us: u64,
    },
    /// The cell exhausted its retry budget and was quarantined.
    CellQuarantined {
        /// Dense sweep index.
        index: u64,
        /// Cell label.
        cell: String,
        /// Attempts consumed.
        attempts: u32,
        /// Final failure description.
        reason: String,
    },
    /// The worker finished a cell but had lost the lease to a newer
    /// generation; the result was discarded.
    CellFenced {
        /// Dense sweep index.
        index: u64,
        /// Cell label.
        cell: String,
        /// The stale token the worker still held.
        token: u64,
    },
    /// The worker released a claimed lease without completing it
    /// (drain or commit failure).
    LeaseReleased {
        /// Dense sweep index.
        index: u64,
        /// Cell label.
        cell: String,
        /// Token of the released lease.
        token: u64,
    },
    /// Periodic liveness beat carrying the metrics change since the
    /// previous beat. Emitted even when the delta is empty — the beat
    /// itself is the liveness signal.
    Heartbeat {
        /// Exactly-replayable registry change since the previous beat.
        metrics: MetricsDelta,
    },
    /// The worker observed a drain request and is shutting down.
    Drain,
    /// Final record of a clean shutdown, snapshotting the worker's
    /// `FabricReport` counters so they survive even if the merged report
    /// is never printed.
    WorkerDone {
        /// Cells this worker completed.
        completed: u64,
        /// Leases claimed.
        claims: u64,
        /// Expired leases reclaimed.
        reclaims: u64,
        /// Results discarded due to fencing.
        fenced: u64,
        /// 1 when the worker drained early.
        drains: u64,
        /// Duplicate journal entries observed at merge.
        duplicates: u64,
    },
}

/// One decoded stream record: sequence number, monotonic timestamp
/// relative to the stream's epoch anchor, and the event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Contiguous 0-based sequence number.
    pub seq: u64,
    /// Microseconds since the stream was opened (monotonic clock).
    pub ts_us: u64,
    /// The event payload.
    pub event: FleetEvent,
}

/// Encodes a record as one stream line (without the trailing newline):
/// 8 hex CRC digits, a space, then the record JSON the CRC covers.
pub fn encode_line(record: &EventRecord) -> String {
    let body = serde_json::to_string(record).expect("event record serializes");
    format!("{:08x} {body}", crc32(body.as_bytes()))
}

/// Decodes one stream line; `None` when the line is torn, corrupt or not
/// a record.
pub fn decode_line(line: &str) -> Option<EventRecord> {
    let (crc_hex, body) = line.split_once(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc_hex.len() != 8 || crc != crc32(body.as_bytes()) {
        return None;
    }
    serde_json::from_str(body).ok()
}

/// Append-only writer for one worker's event stream.
///
/// Flushes after every record so a killed worker loses at most the line
/// being written. Timestamps come from a monotonic clock started at
/// creation; [`epoch_us`](EventStream::epoch_us) anchors them to wall
/// time for cross-worker alignment.
#[derive(Debug)]
pub struct EventStream {
    file: fs::File,
    seq: u64,
    start: Instant,
    epoch_us: u64,
}

impl EventStream {
    /// Creates (or truncates) the stream file, creating parent
    /// directories as needed. One stream describes one worker
    /// *invocation* — a worker restarted with `--resume` starts a fresh
    /// stream.
    pub fn create(path: &Path) -> io::Result<EventStream> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::File::create(path)?;
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Ok(EventStream {
            file,
            seq: 0,
            start: Instant::now(),
            epoch_us,
        })
    }

    /// Wall-clock anchor (µs since the Unix epoch) for this stream's
    /// monotonic timestamps.
    pub fn epoch_us(&self) -> u64 {
        self.epoch_us
    }

    /// Appends one event and flushes.
    pub fn emit(&mut self, event: FleetEvent) -> io::Result<()> {
        let record = EventRecord {
            seq: self.seq,
            ts_us: self.start.elapsed().as_micros() as u64,
            event,
        };
        let line = encode_line(&record);
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.seq += 1;
        Ok(())
    }
}

/// Result of reading a stream file.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRead {
    /// Records up to (excluding) the first invalid line.
    pub records: Vec<EventRecord>,
    /// True when trailing content was dropped — a torn final line after a
    /// SIGKILL, or corruption mid-file.
    pub truncated: bool,
}

/// Reads a stream file, stopping cleanly at the first CRC-invalid,
/// unparseable or out-of-sequence line. Never fails on content — only on
/// I/O.
pub fn read_stream(path: &Path) -> io::Result<StreamRead> {
    let text = fs::read_to_string(path)?;
    let mut records = Vec::new();
    let mut truncated = false;
    for line in text.split('\n') {
        match decode_line(line) {
            Some(rec) if rec.seq == records.len() as u64 => records.push(rec),
            _ => {
                // The final empty segment after a trailing newline is the
                // normal end of a healthy stream, not truncation.
                truncated = !line.is_empty();
                break;
            }
        }
    }
    Ok(StreamRead { records, truncated })
}

#[cfg(feature = "events")]
mod sink {
    use std::path::Path;
    use std::sync::Mutex;

    use super::{EventStream, FleetEvent};

    static STREAM: Mutex<Option<EventStream>> = Mutex::new(None);

    fn slot() -> std::sync::MutexGuard<'static, Option<EventStream>> {
        STREAM.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms the process-wide sink with a fresh stream at `path` and
    /// returns its wall-clock epoch anchor.
    pub fn stream_open(path: &Path) -> std::io::Result<u64> {
        let stream = EventStream::create(path)?;
        let epoch = stream.epoch_us();
        *slot() = Some(stream);
        Ok(epoch)
    }

    /// True when a stream is armed — call sites guard event construction
    /// behind this so an unarmed process pays nothing but a lock probe.
    pub fn armed() -> bool {
        slot().is_some()
    }

    /// Emits through the armed stream; silently keeps running (with a
    /// warning) if the write fails — observability must never kill a
    /// sweep.
    pub fn emit(event: FleetEvent) {
        if let Some(stream) = slot().as_mut() {
            if let Err(e) = stream.emit(event) {
                crate::log_warn!("fleet event dropped: {e}");
            }
        }
    }

    /// Disarms and closes the stream (flushed on every emit, so nothing
    /// is lost).
    pub fn stream_close() {
        slot().take();
    }
}

#[cfg(not(feature = "events"))]
mod sink {
    use std::path::Path;

    use super::FleetEvent;

    /// Events feature is off: refuses to arm so callers can report that
    /// the binary was built without event support.
    #[inline]
    pub fn stream_open(_path: &Path) -> std::io::Result<u64> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "built without the `events` feature",
        ))
    }

    /// Always false with the feature off; guarded call sites fold away.
    #[inline]
    pub fn armed() -> bool {
        false
    }

    /// No-op with the feature off.
    #[inline]
    pub fn emit(_event: FleetEvent) {}

    /// No-op with the feature off.
    #[inline]
    pub fn stream_close() {}
}

pub use sink::{armed, emit, stream_close, stream_open};

#[cfg(test)]
mod tests {
    use std::io::Write as _;

    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_events() -> Vec<FleetEvent> {
        let mut reg = MetricsRegistry::new();
        reg.incr("fabric.claims", 2);
        reg.observe("fabric.cell_latency_us", 1500.0);
        vec![
            FleetEvent::WorkerStart {
                worker: "w1".to_string(),
                experiment: "fig12".to_string(),
                cells: 4,
                fingerprint: 0xDEAD_BEEF,
                lease_ttl_ms: 2000,
                epoch_us: 1_700_000_000_000_000,
                version: STREAM_VERSION,
            },
            FleetEvent::CellClaimed {
                index: 0,
                cell: "alexnet/s64".to_string(),
                token: 1,
                reclaimed: false,
            },
            FleetEvent::CellRetried {
                index: 0,
                cell: "alexnet/s64".to_string(),
                attempt: 1,
                reason: "panic: boom".to_string(),
            },
            FleetEvent::Heartbeat {
                metrics: reg.delta_since(&MetricsRegistry::new()),
            },
            FleetEvent::CellCommitted {
                index: 0,
                cell: "alexnet/s64".to_string(),
                token: 1,
                attempts: 2,
                elapsed_us: 1500,
            },
            FleetEvent::Drain,
            FleetEvent::WorkerDone {
                completed: 1,
                claims: 1,
                reclaims: 0,
                fenced: 0,
                drains: 1,
                duplicates: 0,
            },
        ]
    }

    #[test]
    fn stream_round_trips_all_variants() {
        let dir = std::env::temp_dir().join("zcomp_events_rt");
        let path = dir.join("w1.jsonl");
        let events = sample_events();
        {
            let mut stream = EventStream::create(&path).expect("create");
            assert!(stream.epoch_us() > 0);
            for ev in &events {
                stream.emit(ev.clone()).expect("emit");
            }
        }
        let read = read_stream(&path).expect("read");
        assert!(!read.truncated);
        assert_eq!(read.records.len(), events.len());
        for (i, rec) in read.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.event, events[i]);
        }
        // Monotonic timestamps.
        for pair in read.records.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_truncates_cleanly() {
        let dir = std::env::temp_dir().join("zcomp_events_torn");
        let path = dir.join("w1.jsonl");
        {
            let mut stream = EventStream::create(&path).expect("create");
            for ev in sample_events() {
                stream.emit(ev).expect("emit");
            }
        }
        // Simulate a SIGKILL mid-write: half a line at the end.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        file.write_all(b"deadbeef {\"seq\":7,\"ts_us")
            .expect("tear");
        drop(file);
        let read = read_stream(&path).expect("read");
        assert!(read.truncated);
        assert_eq!(read.records.len(), sample_events().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_the_reader() {
        let rec = EventRecord {
            seq: 0,
            ts_us: 5,
            event: FleetEvent::Drain,
        };
        let good = encode_line(&rec);
        assert_eq!(decode_line(&good).as_ref(), Some(&rec));
        // Flip one CRC digit.
        let mut bad = good.clone();
        let first = if good.starts_with('0') { "1" } else { "0" };
        bad.replace_range(0..1, first);
        assert!(decode_line(&bad).is_none());
        // Flip one body byte.
        let mut torn = good;
        torn.pop();
        assert!(decode_line(&torn).is_none());
    }

    #[test]
    fn sequence_gap_truncates() {
        let dir = std::env::temp_dir().join("zcomp_events_gap");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("w1.jsonl");
        let mk = |seq| EventRecord {
            seq,
            ts_us: seq,
            event: FleetEvent::Drain,
        };
        let text = format!("{}\n{}\n", encode_line(&mk(0)), encode_line(&mk(2)));
        std::fs::write(&path, text).expect("write");
        let read = read_stream(&path).expect("read");
        assert_eq!(read.records.len(), 1);
        assert!(read.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "events")]
    #[test]
    fn global_sink_arms_emits_and_disarms() {
        let dir = std::env::temp_dir().join("zcomp_events_sink");
        let path = dir.join("sink.jsonl");
        assert!(!armed());
        emit(FleetEvent::Drain); // ignored while disarmed
        stream_open(&path).expect("open");
        assert!(armed());
        emit(FleetEvent::Drain);
        stream_close();
        assert!(!armed());
        let read = read_stream(&path).expect("read");
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.records[0].event, FleetEvent::Drain);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
