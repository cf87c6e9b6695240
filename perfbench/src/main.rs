//! One seeded benchmark for the ZCOMP simulator stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <relu_deepbench|snapshot_codec|serve_chaos|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! Prints a run manifest, the outputs digest, the end-to-end metrics and,
//! with `--trace 1`, the per-layer split; the last line of standard
//! output is one JSON object. Exits 1 when any output check fails and 2
//! on a malformed command line. See README.md for the metric map.

mod calibrate;
mod chaos;
mod codec;
mod harness;
mod relu;
mod trace;

use std::process::{Command, ExitCode};

use serde_json::Value;

use harness::{measure, Inject, Measurement, Size};
use zcomp_isa::native::{native_isa, CodecBackend};

/// Seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for re-checking a claim on unseen inputs.
const HELD_OUT_SEED: u64 = 97;

const WORKLOADS: [&str; 3] = ["relu_deepbench", "snapshot_codec", "serve_chaos"];

/// End-to-end metrics reported in the JSON line of an untraced run: the
/// ones every workload has and that are never 0. `peak_rss_mib` is
/// reported but not gated: the serving process's peak moves between
/// 7.6 and 9.6 MiB with allocator state across passes.
const END_TO_END: [(&str, &str); 2] = [("cells_per_s", "cells/s"), ("setup_s", "s")];

/// Per-layer metrics reported in the JSON line of a traced run. A layer
/// the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("dnn.nnz_gen_s", "s"),
    ("dnn.activation_gen_s", "s"),
    ("sim.machine_new_s", "s"),
    ("sim.instructions", "count"),
    ("sim.cycles", "cycles"),
    ("sim.dram_bytes", "B"),
    ("sim.onchip_bytes", "B"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.l3_hit_rate", "ratio"),
    ("sim.l2_pf_accuracy", "ratio"),
    ("sim.l2_pf_coverage", "ratio"),
    ("sim.host_ns_per_instr", "ns/instr"),
    ("kernels.relu_vec_s", "s"),
    ("kernels.relu_comp_s", "s"),
    ("kernels.relu_zcomp_s", "s"),
    ("kernels.compression_ratio", "ratio"),
    ("isa.compress_s", "s"),
    ("isa.expand_s", "s"),
    ("isa.compress_gib_s", "GiB/s"),
    ("isa.expand_gib_s", "GiB/s"),
    ("isa.ratio", "ratio"),
    ("cachecomp.limitcc_s", "s"),
    ("cachecomp.twotag_s", "s"),
    ("serve.pricing_s", "s"),
    ("serve.fallback_pricing_s", "s"),
    ("serve.simulate_s", "s"),
    ("serve.knee_s", "s"),
    ("serve.knee_probes", "count"),
    ("serve.requests", "count"),
    ("experiments.self_s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("paper_rel_err", "ratio"),
    ("failed_frac", "ratio"),
    ("host_cells_per_s", "cells/s"),
    ("passes", "count"),
    ("traced_passes", "count"),
];

/// The six end-to-end columns of the human-readable table.
const TABLE: [(&str, &str); 6] = [
    ("cells_per_s", "cells/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("failed_frac", "ratio"),
    ("paper_rel_err", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    inject: Inject,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        size: Size::Full,
        inject: Inject::None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds needs a non-negative number, got `{v}`"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got `{v}`")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size needs full or tiny, got `{v}`")),
                }
            }
            "--inject" => {
                args.inject = match value()?.as_str() {
                    "corrupt-stream" => Inject::CorruptStream,
                    "tamper-ratepoint" => Inject::TamperRatePoint,
                    v => {
                        return Err(format!(
                            "--inject needs corrupt-stream or tamper-ratepoint, got `{v}`"
                        ))
                    }
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload needs one of {} or all, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn codec_rung() -> String {
    let backend = CodecBackend::detect();
    let over = std::env::var("ZCOMP_CODEC_BACKEND")
        .map(|v| format!(", ZCOMP_CODEC_BACKEND={v}"))
        .unwrap_or_default();
    format!(
        "{} (host's best rung: {}{over})",
        backend.label(),
        native_isa().unwrap_or("none")
    )
}

fn print_manifest(args: &Args) {
    println!("== manifest ==");
    println!("commit:     {}", commit());
    println!("cpu:        {}", cpu_model());
    println!(
        "nproc:      {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("codec:      {}", codec_rung());
    println!("rustc:      {}", env!("PERFBENCH_RUSTC_VERSION"));
    println!(
        "seed:       {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})",
        args.seed
    );
    println!("seconds:    {}", args.seconds);
    println!("threads:    1 (one workload at a time, closed loop)");
}

fn run_one(args: &Args) -> Measurement {
    let (seed, size, inject) = (args.seed, args.size, args.inject);
    match args.workload.as_str() {
        "relu_deepbench" => measure(&relu::Relu::new(seed, size), args.seconds, args.traced),
        "snapshot_codec" => measure(
            &codec::Codec::new(seed, size, inject),
            args.seconds,
            args.traced,
        ),
        "serve_chaos" => measure(
            &chaos::Chaos::new(seed, size, inject),
            args.seconds,
            args.traced,
        ),
        other => unreachable!("workload `{other}` was validated"),
    }
}

/// The value of a named end-to-end or per-layer metric; `None` where the
/// workload does not have it.
fn metric(m: &Measurement, name: &str) -> Option<f64> {
    match name {
        "cells_per_s" => Some(m.cells_per_s()),
        "host_cells_per_s" => Some(m.host_cells_per_s()),
        "sim_minstr_per_s" => m.sim_minstr_per_s(),
        "setup_s" => Some(m.setup_s),
        "peak_rss_mib" => Some(m.peak_rss_mib),
        "failed_frac" => Some(m.failed_frac()),
        "paper_rel_err" => m.paper_rel_err,
        "passes" => Some(m.passes as f64),
        "traced_passes" => Some(m.traced_passes as f64),
        _ => m.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v),
    }
}

fn table_header() -> String {
    let mut head = format!("{:<16}", "workload");
    let mut units = format!("{:<16}", "(unit)");
    for (name, unit) in TABLE {
        head.push_str(&format!(" {name:>16}"));
        units.push_str(&format!(" {unit:>16}"));
    }
    format!("{head}\n{units}")
}

fn table_row(m: &Measurement) -> String {
    let mut row = format!("{:<16}", m.workload);
    for (name, _) in TABLE {
        let cell = metric(m, name).map_or("n/a".to_string(), |v| format!("{v:.6}"));
        row.push_str(&format!(" {cell:>16}"));
    }
    row
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report(args: &Args, m: &Measurement) -> ExitCode {
    print_manifest(args);
    println!("workload:   {} — {}", m.workload, m.size);
    println!(
        "samples:    set-up x{}, {} untraced pass(es), {} traced pass(es); set-up and cell times are medians in calibrated seconds",
        m.setup_reps, m.passes, m.traced_passes
    );
    println!("digest:     {} {:#018x}", m.workload, m.digest);
    println!("== end-to-end ==");
    println!("{}", table_header());
    println!("{}", table_row(m));
    if args.traced {
        println!("== per-layer (traced pass) ==");
        for (name, unit) in PER_LAYER {
            let v = metric(m, name);
            let text = v.map_or("n/a".to_string(), |v| format!("{v:.6}"));
            println!("{name:<28} {text:>20} {unit}");
        }
    }
    for f in &m.failures {
        println!("FAILED: {f}");
    }
    let metrics: Vec<(String, f64, &str)> = if args.traced {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), metric(m, n).unwrap_or(0.0), u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), metric(m, n).unwrap_or(0.0), u))
            .collect()
    };
    let failed = m.failed;
    println!("{}", json_line(failed == 0, m.attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs each workload in its own process, one after another, so each
/// reports its own peak memory; then prints the rows side by side.
fn run_all(forwarded: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let out = match Command::new(&exe)
            .args(forwarded)
            .args(["--workload", workload])
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: cannot run {workload}: {e}");
                return ExitCode::from(2);
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in &lines {
            println!("{l}");
        }
        rows.extend(
            lines
                .iter()
                .find(|l| l.starts_with(&format!("{workload} ")))
                .map(|l| l.to_string()),
        );
        match serde_json::from_str::<Value>(last) {
            Ok(v) => {
                correct &= matches!(v["correct"], Value::Bool(true));
                let count = |key: &str| match v[key] {
                    Value::Int(n) => u64::try_from(n).unwrap_or(0),
                    _ => 0,
                };
                attempted += count("attempted");
                failed += count("failed");
                if let Value::Object(fields) = &v["metrics"] {
                    for (name, m) in fields {
                        let value = match m["value"] {
                            Value::Float(x) => x,
                            Value::Int(n) => n as f64,
                            _ => f64::NAN,
                        };
                        let unit = match &m["unit"] {
                            Value::Str(u) => u.clone(),
                            _ => String::new(),
                        };
                        metrics.push((format!("{workload}.{name}"), value, unit));
                    }
                }
            }
            Err(_) => {
                correct = false;
                failed += 1;
            }
        }
        correct &= out.status.success();
    }
    println!("== end-to-end, all workloads ==");
    println!("{}", table_header());
    for r in &rows {
        println!("{r}");
    }
    let metrics: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, u.as_str()))
        .collect();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(raw.clone().into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        let mut forwarded = Vec::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                forwarded.push(a);
            }
        }
        return run_all(&forwarded);
    }
    let m = run_one(&args);
    report(&args, &m)
}
