//! End-to-end tests of the benchmark command at its tiny size.

use std::process::{Command, Output};

use serde_json::Value;

const WORKLOADS: [&str; 3] = ["relu_deepbench", "snapshot_codec", "serve_chaos"];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zcomp-perfbench"))
        .args(["--size", "tiny", "--seconds", "0"])
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The last line of standard output, parsed.
fn result(out: &Output) -> Value {
    let text = stdout(out);
    let last = text.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let Value::Array(items) = &benchmark_json()[key] else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| match (&m["name"], &m["unit"]) {
            (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
            other => panic!("malformed metric {other:?}"),
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line, in order.
fn reported(v: &Value) -> Vec<(String, String)> {
    let Value::Object(fields) = &v["metrics"] else {
        panic!("result has no metrics object");
    };
    fields
        .iter()
        .map(|(name, m)| match &m["unit"] {
            Value::Str(u) => (name.clone(), u.clone()),
            other => panic!("{name} has unit {other:?}"),
        })
        .collect()
}

fn is_true(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn count(v: &Value) -> i128 {
    match v {
        Value::Int(n) => *n,
        other => panic!("expected a whole number, got {other:?}"),
    }
}

#[test]
fn every_workload_reports_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = run(&["--workload", workload, "--trace", trace]);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}",
                stdout(&out)
            );
            let v = result(&out);
            assert!(is_true(&v["correct"]), "{workload}: {}", stdout(&out));
            assert!(count(&v["attempted"]) >= 1);
            assert_eq!(count(&v["failed"]), 0);
            assert_eq!(&reported(&v), expected, "{workload} --trace {trace}");
            let text = stdout(&out);
            for column in [
                "cells_per_s",
                "sim_minstr_per_s",
                "setup_s",
                "peak_rss_mib",
                "failed_frac",
                "paper_rel_err",
            ] {
                assert!(text.contains(column), "{workload}: table lacks {column}");
            }
            assert!(text.contains(&format!("digest:     {workload} 0x")));
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_digest_and_another_seed_does_not() {
    let digest = |seed: &str| {
        let out = run(&["--workload", "relu_deepbench", "--seed", seed]);
        let text = stdout(&out);
        let line = text
            .lines()
            .find(|l| l.starts_with("digest:"))
            .expect("digest line");
        line.to_string()
    };
    assert_eq!(digest("5"), digest("5"));
    assert_ne!(digest("5"), digest("6"));
}

#[test]
fn a_corrupted_compressed_stream_is_caught() {
    let out = run(&["--workload", "snapshot_codec", "--inject", "corrupt-stream"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let v = result(&out);
    assert!(!is_true(&v["correct"]));
    assert!(count(&v["failed"]) > 0);
    assert!(stdout(&out).contains("expanded snapshot differs from its input"));
}

#[test]
fn a_tampered_rate_point_is_caught() {
    let out = run(&["--workload", "serve_chaos", "--inject", "tamper-ratepoint"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let v = result(&out);
    assert!(!is_true(&v["correct"]));
    assert!(count(&v["failed"]) > 0);
    assert!(stdout(&out).contains("!= arrivals"));
}

#[test]
fn a_malformed_command_line_exits_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve_chaos", "--trace", "2"],
        &["--workload", "serve_chaos", "--bogus"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
