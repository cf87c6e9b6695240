//! Open-loop serving sweep: sustainable QPS at fixed p99, compressed vs
//! uncompressed — plus the chaos grid behind `--chaos`.
//!
//! Default mode runs the `zcomp::serve` knee search over the serving grid
//! (GoogLeNet and VGG-16 by default): per network, two
//! identically-configured serving nodes — same tenants, same seeded
//! arrival traces, same p99 SLO derived from the uncompressed solo batch
//! latency — differing only in the feature-map scheme. The headline table
//! reports the knee (highest sustainable offered QPS) per scheme and the
//! compressed/uncompressed ratio.
//!
//! `--chaos` runs the resilience grid instead: per codec fault rate,
//! three identically-loaded nodes under the same seeded instance-crash
//! schedule — uncompressed, compressed-hard-fail, and
//! compressed-degraded (the PR-1 retry-then-uncompressed brownout) —
//! reporting goodput and per-class p99, plus a fixed-fleet vs autoscaled
//! knee comparison under chaos.
//!
//! Cells run under the supervised sweep runtime (`run_cells`): panic
//! quarantine, retries, and the multi-process lease fabric via
//! `--fabric-dir`/`--workers` (resumable with `--resume`) all behave as
//! in the other sweep binaries. Exit codes: 0 clean, 1 I/O error, 2 usage, 3 quarantined
//! cells, 4 fabric drained.
//!
//! `--smoke` runs the CI gate instead: the short smoke grid twice,
//! asserting the two runs serialize byte-identically and that the
//! compressed knee is at least the uncompressed one; then the chaos smoke
//! grid twice, asserting byte-identical replay under crashes + codec
//! faults, zero request-level hard failures in degraded mode, and
//! degraded goodput at least hard-fail goodput at every fault rate.
//!
//! ```text
//! serve_run [--smoke] [--chaos] [--quick|--scale N] [--threads N]
//!           [--json PATH] [--bench PATH] [--resume] [--attempts N]
//!           [--deadline-ms MS] [--fabric-dir DIR] [--worker-id ID]
//!           [--lease-ttl-ms MS] [--workers N] [--quiet]
//! ```

use std::process::exit;

use serde::Serialize;
use zcomp::experiments::serve::{run, run_sweep, ServeGridSpec, ServeResult};
use zcomp::experiments::serve_chaos::{self, ChaosGridSpec, ChaosResult};
use zcomp::serve::determinism::require_byte_identical;
use zcomp::serve::slo::SloClass;
use zcomp::sweep::SweepOpts;
use zcomp_bench::{
    print_machine, print_table, reap_fabric_workers, report_supervision, save_json,
    spawn_fabric_workers, sweep_error_exit, RunFlags,
};

struct Args {
    scale: usize,
    threads: usize,
    json: Option<String>,
    bench: Option<String>,
    smoke: bool,
    chaos: bool,
    quiet: bool,
    run: RunFlags,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: serve_run [--smoke] [--chaos] [--quick|--scale N] [--threads N] \
         [--json PATH] [--bench PATH] [--quiet], {}",
        RunFlags::USAGE
    );
    exit(2);
}

fn value_of(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{flag}: invalid number {text:?}")))
}

fn parse_args() -> Args {
    let mut out = Args {
        scale: 1,
        threads: 0,
        json: None,
        bench: None,
        smoke: false,
        chaos: false,
        quiet: false,
        run: RunFlags::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match out.run.accept(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => usage_exit(&e.to_string()),
        }
        match arg.as_str() {
            "--quick" => out.scale = 64,
            "--scale" => {
                out.scale = parse_num("--scale", &value_of(&mut it, "--scale"));
                if out.scale < 1 {
                    usage_exit("--scale must be >= 1");
                }
            }
            "--threads" => out.threads = parse_num("--threads", &value_of(&mut it, "--threads")),
            "--json" => out.json = Some(value_of(&mut it, "--json")),
            "--bench" => out.bench = Some(value_of(&mut it, "--bench")),
            "--smoke" => out.smoke = true,
            "--chaos" => out.chaos = true,
            "--quiet" => out.quiet = true,
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }
    if let Err(e) = out.run.validate() {
        usage_exit(&e.to_string());
    }
    if out.quiet {
        zcomp_trace::log::set_level(zcomp_trace::log::Level::Off);
    }
    out
}

/// The `BENCH_serve.json` record: the knee QPS pair per network.
#[derive(Serialize)]
struct BenchRecord {
    benchmark: &'static str,
    scale: usize,
    networks: Vec<BenchNetwork>,
    mean_knee_ratio: f64,
}

#[derive(Serialize)]
struct BenchNetwork {
    network: String,
    max_batch: usize,
    slo_p99_us: f64,
    uncompressed_knee_qps: f64,
    compressed_knee_qps: f64,
    knee_ratio: f64,
}

fn bench_record(result: &ServeResult, scale: usize) -> BenchRecord {
    let networks: Vec<BenchNetwork> = result
        .rows
        .iter()
        .map(|r| BenchNetwork {
            network: r.model.to_string(),
            max_batch: r.max_batch,
            slo_p99_us: r.uncompressed.slo_p99_us,
            uncompressed_knee_qps: r.uncompressed.knee_qps,
            compressed_knee_qps: r.compressed.knee_qps,
            knee_ratio: r.knee_ratio(),
        })
        .collect();
    let mean_knee_ratio = if networks.is_empty() {
        0.0
    } else {
        networks.iter().map(|n| n.knee_ratio).sum::<f64>() / networks.len() as f64
    };
    BenchRecord {
        benchmark: "serve_knee",
        scale,
        networks,
        mean_knee_ratio,
    }
}

/// The `BENCH_serve_chaos.json` record: goodput and per-class p99 per
/// (fault rate, mode), plus the chaos knee comparison.
#[derive(Serialize)]
struct ChaosBenchRecord {
    benchmark: &'static str,
    scale: usize,
    rows: Vec<ChaosBenchRow>,
    fixed_knee_qps: f64,
    autoscaled_knee_qps: f64,
}

#[derive(Serialize)]
struct ChaosBenchRow {
    fault_rate: f64,
    mode: String,
    goodput_qps: f64,
    p99_interactive_ms: f64,
    p99_batch_ms: f64,
    completed: u64,
    failed: u64,
    codec_fallbacks: u64,
    crashes: u64,
}

fn chaos_bench_record(result: &ChaosResult, scale: usize) -> ChaosBenchRecord {
    let class_p99_ms = |p: &zcomp::serve::engine::RatePoint, class: SloClass| {
        p.classes
            .iter()
            .find(|c| c.class == class)
            .map_or(0.0, |c| c.p99_us / 1_000.0)
    };
    let rows = result
        .cells
        .iter()
        .filter_map(|cell| {
            cell.point.as_ref().map(|p| ChaosBenchRow {
                fault_rate: cell.fault_rate,
                mode: cell.mode.label().to_string(),
                goodput_qps: p.goodput_qps,
                p99_interactive_ms: class_p99_ms(p, SloClass::Interactive),
                p99_batch_ms: class_p99_ms(p, SloClass::Batch),
                completed: p.completed,
                failed: p.failed,
                codec_fallbacks: p.codec_fallbacks,
                crashes: p.crashes,
            })
        })
        .collect();
    ChaosBenchRecord {
        benchmark: "serve_chaos",
        scale,
        rows,
        fixed_knee_qps: result.autoscale.fixed.as_ref().map_or(0.0, |c| c.knee_qps),
        autoscaled_knee_qps: result
            .autoscale
            .autoscaled
            .as_ref()
            .map_or(0.0, |c| c.knee_qps),
    }
}

/// One OK/FAIL line; returns 1 on failure so callers can sum.
fn check(ok: bool, ok_msg: &str, fail_msg: &str) -> u32 {
    if ok {
        println!("OK   {ok_msg}");
        0
    } else {
        println!("FAIL {fail_msg}");
        1
    }
}

/// CI smoke gate: the knee smoke grid twice (byte-identical, compressed
/// knee >= uncompressed), then the chaos smoke grid twice (byte-identical
/// under crashes + codec faults, degraded mode never hard-fails, degraded
/// goodput >= hard-fail goodput).
fn smoke() -> ! {
    let mut failures = 0;

    let grid = ServeGridSpec::smoke_grid();
    let first = run(&grid);
    let second = run(&grid);
    print_table(&first.table());
    match require_byte_identical(&first.rows, &second.rows) {
        Ok(()) => println!("OK   serve re-execution is byte-identical"),
        Err(e) => {
            println!("FAIL serve re-execution differs: {e}");
            failures += 1;
        }
    }
    for row in &first.rows {
        let (un, co) = (row.uncompressed.knee_qps, row.compressed.knee_qps);
        failures += check(
            un > 0.0 && co >= un,
            &format!(
                "{}: compressed knee {:.1} qps >= uncompressed {:.1} qps",
                row.model, co, un
            ),
            &format!(
                "{}: compressed knee {:.1} qps vs uncompressed {:.1} qps",
                row.model, co, un
            ),
        );
    }

    let chaos_grid = ChaosGridSpec::smoke_grid();
    let chaos_first = serve_chaos::run(&chaos_grid);
    let chaos_second = serve_chaos::run(&chaos_grid);
    print_table(&chaos_first.table());
    match require_byte_identical(&chaos_first, &chaos_second) {
        Ok(()) => println!("OK   chaos re-execution is byte-identical (crashes + codec faults)"),
        Err(e) => {
            println!("FAIL chaos re-execution differs: {e}");
            failures += 1;
        }
    }
    let crashes: u64 = chaos_first
        .cells
        .iter()
        .filter_map(|c| c.point.as_ref())
        .map(|p| p.crashes)
        .sum();
    failures += check(
        crashes > 0,
        &format!("chaos crash process ran ({crashes} crashes across the grid)"),
        "chaos grid saw no crashes — the chaos process did not run",
    );
    failures += check(
        chaos_first.degraded_never_hard_fails(),
        "degraded mode hard-failed zero requests",
        "degraded mode hard-failed requests — the brownout path leaked failures",
    );
    failures += check(
        chaos_first.degraded_goodput_dominates(),
        "degraded goodput >= hard-fail goodput at every fault rate",
        "hard-fail goodput beat degraded goodput at some fault rate",
    );

    if failures > 0 {
        println!("serve smoke: {failures} check(s) FAILED");
        exit(1);
    }
    println!("serve smoke: all checks passed");
    exit(0);
}

fn chaos_main(args: &Args, threads: usize) -> ! {
    let grid = ChaosGridSpec::default_grid().scaled(args.scale);
    println!(
        "chaos sweep: {} fault rates x {} modes + 2 knee cells, {} tenants, {} arrivals/tenant, {} threads",
        grid.fault_rates.len(),
        serve_chaos::MODES.len(),
        grid.params.tenants,
        grid.params.arrivals_per_tenant,
        threads
    );
    let opts = args.run.apply(SweepOpts::default().with_threads(threads));
    let siblings = spawn_fabric_workers(&args.run);
    let out = match serve_chaos::run_sweep(&grid, &opts) {
        Ok(out) => out,
        Err(e) => {
            reap_fabric_workers(siblings);
            sweep_error_exit(&e);
        }
    };
    reap_fabric_workers(siblings);

    print_table(&out.result.table());
    print_table(&out.result.autoscale_table());
    if out.result.degraded_never_hard_fails() && out.result.degraded_goodput_dominates() {
        println!(
            "degrade policy held: zero hard failures, goodput >= hard-fail at every fault rate"
        );
    } else {
        println!("warning: degrade policy did not dominate hard-fail on this grid");
    }
    if let Some(path) = &args.json {
        save_json(path, &out.result);
    }
    if let Some(path) = &args.bench {
        save_json(path, &chaos_bench_record(&out.result, args.scale));
    }
    exit(report_supervision(&out.supervision));
}

fn main() {
    let args = parse_args();
    if args.smoke {
        smoke();
    }
    print_machine();
    let threads = if args.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        args.threads
    };
    if args.chaos {
        chaos_main(&args, threads);
    }
    let grid = ServeGridSpec::default_grid().scaled(args.scale);
    println!(
        "serving sweep: {} networks x 2 schemes, {} tenants, {} arrivals/tenant, {} threads",
        grid.networks.len(),
        grid.params.tenants,
        grid.params.arrivals_per_tenant,
        threads
    );
    let opts = args.run.apply(SweepOpts::default().with_threads(threads));
    let siblings = spawn_fabric_workers(&args.run);
    let out = match run_sweep(&grid, &opts) {
        Ok(out) => out,
        Err(e) => {
            reap_fabric_workers(siblings);
            sweep_error_exit(&e);
        }
    };
    reap_fabric_workers(siblings);

    print_table(&out.result.table());
    for row in &out.result.rows {
        println!(
            "{}: {} rate points probed per scheme, p99 bound {:.2} ms, knee ratio {:.3}x",
            row.model,
            row.uncompressed.points.len(),
            row.uncompressed.slo_p99_us / 1_000.0,
            row.knee_ratio()
        );
    }
    if out.result.all_compressed_higher() {
        println!("compression sustains strictly higher QPS at the same p99 on every network");
    } else {
        println!("warning: compressed knee did not beat uncompressed on every network");
    }
    if let Some(path) = &args.json {
        save_json(path, &out.result);
    }
    if let Some(path) = &args.bench {
        save_json(path, &bench_record(&out.result, args.scale));
    }
    exit(report_supervision(&out.supervision));
}
