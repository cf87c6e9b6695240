//! Observability substrate for the ZCOMP reproduction.
//!
//! Three independent facilities, layered from always-on to opt-in:
//!
//! * [`log`] — a leveled stderr logger controlled by the `ZCOMP_LOG`
//!   environment variable (or [`log::set_level`]), always compiled in.
//! * [`metrics`] — a [`metrics::MetricsRegistry`] of monotonic counters,
//!   gauges and log-scaled histograms with p50/p95/p99 summaries, always
//!   compiled in; experiments embed [`metrics::MetricsSummary`] snapshots
//!   in their JSON reports when their `trace` feature is on.
//! * [`tracer`] — span/instant/counter event recording behind the `trace`
//!   cargo feature. With the feature off every entry point is an empty
//!   `#[inline]` function and [`tracer::SpanGuard`] is zero-sized, so the
//!   disabled path compiles to a no-op. With the feature on, recording is
//!   additionally gated at runtime by a session flag
//!   ([`tracer::session_start`]), so merely linking the tracer changes
//!   nothing until a tool such as `trace_run` opens a session.
//!
//! * [`events`] — CRC-guarded JSONL fleet event streams for
//!   multi-process sweeps: per-worker lease-lifecycle events plus
//!   periodic [`metrics::MetricsDelta`] time-series snapshots. Types,
//!   writer and reader are always compiled (status tools must read any
//!   stream); the process-wide sink the fabric emits through is gated
//!   behind the `events` cargo feature, same pattern as the tracer.
//! * [`crc`] — the workspace's one CRC32, guarding event streams here
//!   and, through its dependents, codec stream checksums and sweep
//!   journals.
//!
//! Recorded events export to two formats: Chrome `trace_event` JSON
//! ([`chrome::export`], loadable in Perfetto / `chrome://tracing`) and a
//! compact CSV time series of counter samples ([`csv::counter_csv`]).
//! [`chrome::export_merged`] merges N per-worker timelines into one
//! multi-process trace. [`chrome::validate`] re-parses an exported trace
//! and checks the invariants Perfetto relies on (balanced begin/end pairs
//! per thread, matched async span begin/end pairs, monotonic timestamps),
//! so CI can fail on a malformed trace.

pub mod chrome;
pub mod crc;
pub mod csv;
pub mod events;
pub mod log;
pub mod metrics;
pub mod serve;
pub mod tracer;
