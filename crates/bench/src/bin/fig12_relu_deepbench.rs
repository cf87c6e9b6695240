//! Regenerates Figure 12: ReLU activation layers over the 44 DeepBench
//! shapes — core↔cache traffic (a), DRAM traffic (b) and runtime (c) for
//! avx512-vec, avx512-comp and zcomp. Also prints the §3.3 L2-prefetcher
//! effectiveness observed during the zcomp runs.

use zcomp::experiments::fig12::{self, Panel};
use zcomp::report::pct;
use zcomp_bench::{
    print_machine, print_table, reap_fabric_workers, report_supervision, spawn_fabric_workers,
    sweep_error_exit, SupervisedFigArgs,
};
use zcomp_dnn::deepbench::{all_configs, Suite};

fn main() {
    let args = SupervisedFigArgs::from_env();
    print_machine();
    // Supervised sweep over every core: identical numbers to the plain
    // serial runner, but a panicking cell is quarantined instead of
    // fatal. The shared run flags apply — `--fabric-dir`/`--workers` put
    // the sweep on the multi-process lease fabric, and `--resume` picks
    // up a killed fabric run where it stopped.
    let siblings = spawn_fabric_workers(&args.run);
    let out = fig12::run_sweep(&all_configs(), args.fig.scale, 0.53, &args.sweep_opts())
        .unwrap_or_else(|e| sweep_error_exit(&e));
    reap_fabric_workers(siblings);
    let result = out.result;
    for panel in [Panel::CoreTraffic, Panel::DramTraffic, Panel::Runtime] {
        print_table(&result.table(panel));
    }
    println!("== per-suite averages ==");
    for suite in Suite::ALL {
        let s = result.suite_summary(suite);
        println!(
            "{suite:<11} traffic cut (avx/zcomp): {} / {}   dram cut: {} / {}   zcomp speedup {:.2}x",
            pct(s.avx_core_reduction),
            pct(s.zcomp_core_reduction),
            pct(s.avx_dram_reduction),
            pct(s.zcomp_dram_reduction),
            s.zcomp_speedup
        );
    }
    println!();
    let s = result.summary();
    println!("== Figure 12 summary (paper values in parentheses) ==");
    println!(
        "core traffic reduction:  avx512-comp {} (42%)   zcomp {} (46%)",
        pct(s.avx_core_reduction),
        pct(s.zcomp_core_reduction)
    );
    println!(
        "DRAM traffic reduction:  avx512-comp {} (48%)   zcomp {} (54%)",
        pct(s.avx_dram_reduction),
        pct(s.zcomp_dram_reduction)
    );
    println!(
        "zcomp speedup vs avx512-vec:  {:.2}x (1.77x);  vs avx512-comp: {:.2}x (1.56x)",
        s.zcomp_speedup, s.zcomp_vs_avx_speedup
    );
    println!(
        "zcomp outliers slower than baseline: {} (paper: 2); max speedup {:.1}x (paper: up to 12x)",
        s.zcomp_outliers, s.max_zcomp_speedup
    );
    println!(
        "L2 prefetcher on zcomp runs: accuracy {} (98-99%), coverage {} (94-97%)",
        pct(result.zcomp_prefetch.accuracy()),
        pct(result.zcomp_prefetch.coverage())
    );
    args.fig.save_json(&result);
    let code = report_supervision(&out.supervision);
    if code != 0 {
        std::process::exit(code);
    }
}
