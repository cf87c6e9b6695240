//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every paper figure has a `fig*` binary in `src/bin/`; they accept:
//!
//! * `--quick` — scale workloads down for a fast sanity run;
//! * `--scale <N>` — explicit scale divisor (1 = the paper's full sizes);
//! * `--json <path>` — also write the typed result as JSON;
//! * `--quiet` — silence the leveled stderr logger (overrides `ZCOMP_LOG`).
//!
//! Each binary prints the Table-1 machine configuration first, then the
//! figure's rows.
//!
//! Argument parsing is fallible by design: malformed command lines come
//! back as a typed [`CliError`] with the offending flag named, and the
//! `from_env` helpers turn that into a clean `error: …` + exit code 2 —
//! never a panic with a backtrace pointing at the parser.

use zcomp::fabric::FabricOpts;
use zcomp::report::Table;
use zcomp::supervise::SuperviseOpts;
use zcomp::sweep::{SupervisionReport, SweepError, SweepOpts};
use zcomp_sim::config::SimConfig;

/// A malformed command line: which argument, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Exits with code 2 (the conventional usage-error code) after printing
/// the parse failure to stderr.
fn usage_exit(e: &CliError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

fn value_of(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .ok_or_else(|| CliError::new(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError::new(format!("{flag} needs an integer, got `{text}`")))
}

/// The shared supervised-run and fabric flags, parsed once here instead
/// of copy-pasted per binary:
///
/// * `--resume` — keep the fabric directory's journals and skip the
///   cells they record as complete (needs `--fabric-dir`);
/// * `--attempts <N>` — attempts per cell before quarantine;
/// * `--deadline-ms <N>` — per-cell watchdog deadline (0 = none);
/// * `--fabric-dir <path>` — join the multi-process lease fabric there;
/// * `--worker-id <id>` — stable fabric worker id (default `w<pid>`);
/// * `--lease-ttl-ms <N>` — fabric lease time-to-live;
/// * `--workers <N>` — spawn N-1 sibling worker processes of this binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFlags {
    /// Keep the fabric directory and skip the cells its journals record
    /// as complete.
    pub resume: bool,
    /// Attempts per cell before quarantine.
    pub attempts: u32,
    /// Per-cell watchdog deadline in milliseconds (0 = none).
    pub deadline_ms: Option<u64>,
    /// Fabric directory; `Some` means the sweep joins the lease fabric.
    pub fabric_dir: Option<String>,
    /// Explicit fabric worker id (default: `w<pid>`).
    pub worker_id: Option<String>,
    /// Fabric lease time-to-live in milliseconds.
    pub lease_ttl_ms: u64,
    /// Worker processes for the fabric sweep (1 = just this process).
    pub workers: usize,
}

impl Default for RunFlags {
    fn default() -> RunFlags {
        RunFlags {
            resume: false,
            attempts: SuperviseOpts::default().max_attempts,
            deadline_ms: None,
            fabric_dir: None,
            worker_id: None,
            lease_ttl_ms: 30_000,
            workers: 1,
        }
    }
}

impl RunFlags {
    /// The flags [`RunFlags::accept`] consumes, for usage messages.
    pub const USAGE: &'static str =
        "--resume/--attempts/--deadline-ms/--fabric-dir/--worker-id/--lease-ttl-ms/--workers";

    /// Tries to consume `arg` (pulling values from `it` as needed);
    /// `Ok(false)` means the argument is not a shared run flag and the
    /// caller should parse it itself.
    pub fn accept(
        &mut self,
        arg: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, CliError> {
        match arg {
            "--resume" => self.resume = true,
            "--attempts" => {
                self.attempts = parse_num("--attempts", &value_of(it, "--attempts")?)?;
                if self.attempts < 1 {
                    return Err(CliError::new("--attempts must be >= 1"));
                }
            }
            "--deadline-ms" => {
                self.deadline_ms =
                    Some(parse_num("--deadline-ms", &value_of(it, "--deadline-ms")?)?);
            }
            "--fabric-dir" => self.fabric_dir = Some(value_of(it, "--fabric-dir")?),
            "--worker-id" => self.worker_id = Some(value_of(it, "--worker-id")?),
            "--lease-ttl-ms" => {
                self.lease_ttl_ms = parse_num("--lease-ttl-ms", &value_of(it, "--lease-ttl-ms")?)?;
                if self.lease_ttl_ms < 1 {
                    return Err(CliError::new("--lease-ttl-ms must be >= 1"));
                }
            }
            "--workers" => {
                self.workers = parse_num("--workers", &value_of(it, "--workers")?)?;
                if self.workers < 1 {
                    return Err(CliError::new("--workers must be >= 1"));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Cross-flag checks, called once the whole command line is parsed.
    /// Resume state lives only in the fabric journals, so `--resume`
    /// (like `--workers`) is an error without `--fabric-dir`; a single
    /// process resumes as a 1-worker fabric.
    pub fn validate(&self) -> Result<(), CliError> {
        if self.fabric_dir.is_none() {
            if self.workers > 1 {
                return Err(CliError::new("--workers needs --fabric-dir"));
            }
            if self.resume {
                return Err(CliError::new("--resume needs --fabric-dir"));
            }
        }
        Ok(())
    }

    /// The supervision policy these flags describe.
    pub fn supervise_opts(&self) -> SuperviseOpts {
        let mut supervise = SuperviseOpts::default().with_attempts(self.attempts);
        if let Some(ms) = self.deadline_ms {
            if ms > 0 {
                supervise = supervise.with_deadline(std::time::Duration::from_millis(ms));
            }
        }
        supervise
    }

    /// The fabric membership these flags describe (`None` without
    /// `--fabric-dir`).
    pub fn fabric_opts(&self) -> Option<FabricOpts> {
        let dir = self.fabric_dir.as_ref()?;
        let mut fabric = FabricOpts::new(dir)
            .with_lease_ttl(std::time::Duration::from_millis(self.lease_ttl_ms));
        if let Some(worker) = &self.worker_id {
            fabric = fabric.with_worker(worker.clone());
        }
        Some(fabric)
    }

    /// Applies the supervision policy and fabric membership to a set of
    /// sweep options.
    pub fn apply(&self, opts: SweepOpts) -> SweepOpts {
        let mut opts = opts.with_supervise(self.supervise_opts());
        if let Some(fabric) = self.fabric_opts() {
            opts = opts.with_fabric(fabric);
        }
        opts
    }
}

/// Parsed command-line options common to all figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigArgs {
    /// Workload scale divisor (1 = full size).
    pub scale: usize,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Silence the stderr logger for the run.
    pub quiet: bool,
}

impl Default for FigArgs {
    fn default() -> FigArgs {
        FigArgs {
            scale: 1,
            json: None,
            quiet: false,
        }
    }
}

impl FigArgs {
    /// Tries to consume `arg`; `Ok(false)` means it is not a figure flag.
    fn accept(
        &mut self,
        arg: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, CliError> {
        match arg {
            "--quick" => self.scale = 64,
            "--scale" => {
                self.scale = parse_num("--scale", &value_of(it, "--scale")?)?;
                if self.scale < 1 {
                    return Err(CliError::new("--scale must be >= 1"));
                }
            }
            "--json" => self.json = Some(value_of(it, "--json")?),
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parses `std::env::args`-style arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<FigArgs, CliError> {
        let mut out = FigArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !out.accept(&arg, &mut it)? {
                return Err(CliError::new(format!(
                    "unknown argument: {arg} (expected --quick/--scale/--json/--quiet)"
                )));
            }
        }
        Ok(out)
    }

    /// Parses the process arguments (skipping argv[0]) and applies the
    /// logging choice (`--quiet` overrides `ZCOMP_LOG`); a malformed
    /// command line prints the error and exits with code 2.
    pub fn from_env() -> FigArgs {
        let args = FigArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
        if args.quiet {
            zcomp_trace::log::set_level(zcomp_trace::log::Level::Off);
        }
        args
    }

    /// Writes a serializable result to the `--json` path, if given.
    ///
    /// Failures are logged, not fatal: by the time this runs the figure has
    /// already been printed, and losing the JSON copy should not turn a
    /// completed run into a non-zero exit.
    pub fn save_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            save_json(path, value);
        }
    }
}

/// Writes a serializable value to `path` as pretty JSON; failures are
/// logged, not fatal (see [`FigArgs::save_json`]).
pub fn save_json<T: serde::Serialize>(path: &str, value: &T) {
    let text = match serde_json::to_string_pretty(value) {
        Ok(t) => t,
        Err(e) => {
            zcomp_trace::log_warn!("cannot serialize results ({e}); {path} not written");
            return;
        }
    };
    match std::fs::write(path, text) {
        Ok(()) => zcomp_trace::log_info!("wrote {path}"),
        Err(e) => zcomp_trace::log_warn!("cannot write {path}: {e}"),
    }
}

/// [`FigArgs`] plus the shared [`RunFlags`], for figure binaries whose
/// cells run under the supervised sweep runtime (the fig12/fig13/fig14
/// sweeps and the fault campaign).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisedFigArgs {
    /// The common figure options.
    pub fig: FigArgs,
    /// The shared supervised-run / fabric flags.
    pub run: RunFlags,
}

impl SupervisedFigArgs {
    /// Parses `std::env::args`-style arguments (without argv[0]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<SupervisedFigArgs, CliError> {
        let mut out = SupervisedFigArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if out.fig.accept(&arg, &mut it)? || out.run.accept(&arg, &mut it)? {
                continue;
            }
            return Err(CliError::new(format!(
                "unknown argument: {arg} (expected --quick/--scale/--json/--quiet, {})",
                RunFlags::USAGE
            )));
        }
        out.run.validate()?;
        Ok(out)
    }

    /// Parses the process arguments and applies the logging choice; a
    /// malformed command line prints the error and exits with code 2.
    pub fn from_env() -> SupervisedFigArgs {
        let args =
            SupervisedFigArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
        if args.fig.quiet {
            zcomp_trace::log::set_level(zcomp_trace::log::Level::Off);
        }
        args
    }

    /// The sweep options these arguments describe: cells sharded over
    /// every available core, the supervision policy, and the fabric
    /// membership when `--fabric-dir` is given.
    pub fn sweep_opts(&self) -> SweepOpts {
        self.run.apply(SweepOpts::default())
    }
}

/// Runs `items` cells serially under the supervised runtime — panic
/// isolation and quarantine, no journal — so one sick cell
/// cannot take down a whole figure. Prints quarantine details to stderr
/// and returns the per-cell outcomes plus the process exit code the
/// supervision contract demands (0 clean, 3 when cells were quarantined).
pub fn run_supervised<T, K, J>(
    experiment: &str,
    items: usize,
    key_of: K,
    make_job: J,
) -> (Vec<zcomp::supervise::CellOutcome<T>>, i32)
where
    T: serde::Serialize + serde::Deserialize + Send + 'static,
    K: Fn(usize) -> String + Sync,
    J: Fn(usize) -> Box<dyn FnOnce() -> T + Send + 'static> + Sync,
{
    let run =
        match zcomp::sweep::run_cells(experiment, items, 0, &SweepOpts::serial(), key_of, make_job)
        {
            Ok(run) => run,
            Err(e) => {
                // Unreachable without a fabric, but the contract stands.
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
    let code = if run.report.quarantined.is_empty() {
        0
    } else {
        eprintln!("supervision: {}", run.report.summary());
        for failure in &run.report.quarantined {
            eprintln!("quarantined: {failure}");
        }
        3
    };
    (run.outcomes, code)
}

/// Prints the supervision summary (which includes the fabric summary
/// when the sweep ran on a lease fabric) to stdout and any quarantine
/// details to stderr, then returns the exit code the supervision
/// contract demands: 0 for a clean run, 3 when cells were quarantined.
pub fn report_supervision(report: &SupervisionReport) -> i32 {
    println!("supervision: {}", report.summary());
    for failure in &report.quarantined {
        eprintln!("quarantined: {failure}");
    }
    if report.quarantined.is_empty() {
        0
    } else {
        3
    }
}

/// Prints a sweep error and exits: code 4 for a graceful fabric drain
/// (progress so far is journalled; re-running with the same fabric
/// directory resumes), 1 for everything else.
pub fn sweep_error_exit(e: &SweepError) -> ! {
    eprintln!("error: {e}");
    match e {
        SweepError::FabricDrained { .. } => std::process::exit(4),
        _ => std::process::exit(1),
    }
}

/// Prepares the fabric for this process and spawns the `--workers N`
/// siblings: for a fresh (non-`--resume`) run the fabric directory is
/// cleared first so stale leases and journals cannot leak in, then
/// `N - 1` copies of this binary are re-invoked with the same arguments
/// minus the caller-only flags (`--workers`, `--json`, `--bench`,
/// `--worker-id`) plus a derived `--worker-id`, `--resume` (the
/// directory is already reset) and `--quiet`. Returns the children for
/// [`reap_fabric_workers`]; empty without `--fabric-dir`.
pub fn spawn_fabric_workers(run: &RunFlags) -> Vec<std::process::Child> {
    let Some(dir) = &run.fabric_dir else {
        return Vec::new();
    };
    if !run.resume {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!("error: cannot reset fabric dir {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
    if run.workers <= 1 {
        return Vec::new();
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this binary to spawn fabric workers: {e}");
            std::process::exit(1);
        }
    };
    let base = run
        .worker_id
        .clone()
        .unwrap_or_else(|| format!("w{}", std::process::id()));
    let args = sibling_args();
    let mut children = Vec::with_capacity(run.workers - 1);
    for n in 1..run.workers {
        match std::process::Command::new(&exe)
            .args(&args)
            .arg("--worker-id")
            .arg(format!("{base}-s{n}"))
            .stdout(std::process::Stdio::null())
            .spawn()
        {
            Ok(child) => children.push(child),
            // A missing sibling is not fatal: the fabric completes with
            // however many workers actually started.
            Err(e) => eprintln!("cannot spawn fabric worker {n}: {e}"),
        }
    }
    children
}

/// The calling binary's arguments with the caller-only flags stripped
/// and the sibling-only ones appended.
fn sibling_args() -> Vec<String> {
    let mut args = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" | "--json" | "--bench" | "--worker-id" => {
                let _ = it.next();
            }
            "--resume" | "--quiet" => {}
            _ => args.push(arg),
        }
    }
    args.push("--resume".to_string());
    args.push("--quiet".to_string());
    args
}

/// Waits for the sibling fabric workers. A dead or failing sibling is
/// reported but never fatal: the fabric reclaims its cells, and the
/// calling worker's merged result is already complete.
pub fn reap_fabric_workers(children: Vec<std::process::Child>) {
    for mut child in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("fabric worker exited with {status}"),
            Err(e) => eprintln!("cannot wait for fabric worker: {e}"),
        }
    }
}

/// Prints the Table-1 machine configuration.
pub fn print_machine() {
    println!("== Table 1: Architecture Configuration ==");
    for (k, v) in SimConfig::table1().table1_rows() {
        println!("{k:<12} {v}");
    }
    println!();
}

/// Prints a rendered table followed by a blank line.
pub fn print_table(t: &Table) {
    println!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let a = FigArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a.scale, 1);
        assert_eq!(a.json, None);
        assert!(!a.quiet);
    }

    #[test]
    fn parse_quiet() {
        let a = FigArgs::parse(["--quiet".to_string()]).unwrap();
        assert!(a.quiet);
        assert_eq!(a.scale, 1);
    }

    #[test]
    fn parse_quick_and_json() {
        let a = FigArgs::parse(
            ["--quick", "--json", "/tmp/x.json"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.scale, 64);
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn parse_explicit_scale() {
        let a = FigArgs::parse(["--scale", "8"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.scale, 8);
    }

    #[test]
    fn unknown_flag_is_a_typed_error() {
        let e = FigArgs::parse(["--bogus".to_string()]).unwrap_err();
        assert!(e.to_string().contains("unknown argument"), "{e}");
    }

    #[test]
    fn missing_and_malformed_values_are_typed_errors() {
        let e = FigArgs::parse(["--scale".to_string()]).unwrap_err();
        assert!(e.to_string().contains("--scale needs a value"), "{e}");
        let e = FigArgs::parse(["--scale", "many"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(e.to_string().contains("integer"), "{e}");
        let e = FigArgs::parse(["--scale", "0"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(e.to_string().contains(">= 1"), "{e}");
    }

    fn supervised(args: &[&str]) -> Result<SupervisedFigArgs, CliError> {
        SupervisedFigArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn supervised_fig_args_parse_both_flag_families() {
        let a = supervised(&[
            "--quick",
            "--json",
            "R.json",
            "--resume",
            "--attempts",
            "3",
            "--deadline-ms",
            "1500",
            "--fabric-dir",
            "/tmp/fab",
            "--worker-id",
            "w-a",
            "--lease-ttl-ms",
            "2000",
            "--workers",
            "3",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(a.fig.scale, 64);
        assert_eq!(a.fig.json.as_deref(), Some("R.json"));
        assert!(a.fig.quiet && a.run.resume);
        assert_eq!(a.run.attempts, 3);
        assert_eq!(a.run.deadline_ms, Some(1500));
        assert_eq!(a.run.worker_id.as_deref(), Some("w-a"));
        assert_eq!(a.run.lease_ttl_ms, 2000);
        assert_eq!(a.run.workers, 3);

        let opts = a.sweep_opts();
        assert_eq!(opts.threads, SweepOpts::default().threads);
        assert_eq!(opts.supervise.max_attempts, 3);
        assert_eq!(
            opts.supervise.deadline,
            Some(std::time::Duration::from_millis(1500))
        );
        let fabric = opts.fabric.expect("fabric opts attached");
        assert_eq!(fabric.dir, std::path::PathBuf::from("/tmp/fab"));
        assert_eq!(fabric.worker, "w-a");
        assert_eq!(fabric.lease_ttl, std::time::Duration::from_millis(2000));

        let e = supervised(&["--bogus"]).unwrap_err();
        assert!(e.to_string().contains("unknown argument"), "{e}");
    }

    #[test]
    fn workers_flag_requires_a_fabric_dir() {
        let e = supervised(&["--workers", "3"]).unwrap_err();
        assert!(
            e.to_string().contains("--workers needs --fabric-dir"),
            "{e}"
        );
    }

    #[test]
    fn resume_flag_requires_a_fabric_dir() {
        let e = supervised(&["--quick", "--resume"]).unwrap_err();
        assert!(e.to_string().contains("--resume needs --fabric-dir"), "{e}");
        let a = supervised(&["--resume", "--fabric-dir", "/tmp/fab"]).unwrap();
        assert!(a.run.resume && a.sweep_opts().fabric.is_some());
    }

    #[test]
    fn zero_attempts_are_rejected() {
        let e = supervised(&["--attempts", "0"]).unwrap_err();
        assert!(e.to_string().contains(">= 1"), "{e}");
    }
}
