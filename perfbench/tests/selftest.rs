//! Small-scale self-test of the benchmark: every metric BENCHMARK.json
//! names is printed with its unit, and a corrupted witness trips the gate.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use lazymc_service::Json;
use std::process::Command;

/// Runs the benchmark on tiny inputs; returns the exit status and the
/// parsed result line.
fn run(workload: &str, seed: u32, trace: u8, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--small"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json =
        Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}):\n{stdout}"));
    (out.status.success(), json)
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("read BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(items)) = spec.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_metrics(result: &Json, want: &[(String, String)]) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(got.len(), want.len(), "metric count: got {got:?}");
    for w in want {
        assert!(got.contains(w), "{w:?} missing from {got:?}");
    }
    for (k, v) in metrics {
        assert!(
            v.get("value").and_then(Json::as_f64).is_some(),
            "{k} has no numeric value"
        );
    }
}

fn check_workload(workload: &str, seed: u32) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (ok, result) = run(workload, seed, trace, &[]);
        assert!(ok, "{workload} trace {trace} failed: {result:?}");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert_metrics(&result, &declared(section));
    }
}

#[test]
fn dense_search_prints_every_metric() {
    check_workload("dense-search", 11);
}

#[test]
fn paper_corpus_prints_every_metric() {
    check_workload("paper-corpus", 12);
}

#[test]
fn daemon_mixed_prints_every_metric() {
    check_workload("daemon-mixed", 13);
}

#[test]
fn corrupted_witness_trips_the_gate() {
    for (workload, seed) in [("dense-search", 21), ("daemon-mixed", 23)] {
        let (ok, result) = run(workload, seed, 0, &["--corrupt-witness"]);
        assert!(!ok, "{workload}: a corrupted witness must fail the run");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }
}
