//! Runs the benchmark binary at tiny scale and checks its result lines:
//! every metric is printed, the outputs check out, and the counts marked
//! exact repeat bit-for-bit for one seed and move under another. Also
//! checks that the metric lists match `BENCHMARK.json`.

use perfbench::harness::{END_TO_END, EXACT, OPEN_LOOP_LAYER, PER_LAYER};
use perfbench::WORKLOADS;
use std::process::Command;

/// Runs one tiny workload and returns the last line of its output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "20", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny"])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn exact_counts(line: &str) -> Vec<f64> {
    EXACT
        .iter()
        .map(|name| value(line, name).unwrap_or_else(|| panic!("{name} missing in {line}")))
        .collect()
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let line = run(workload, 3, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{line}");
        for (name, unit) in END_TO_END {
            let v = value(&line, name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(v > 0.0, "{workload}: {name} = {v}");
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )));
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_move_with_another() {
    for workload in WORKLOADS {
        let first = run(workload, 5, true);
        let again = run(workload, 5, true);
        let other = run(workload, 6, true);
        for (name, _) in PER_LAYER {
            assert!(value(&first, name).is_some(), "{workload}: {name} missing");
        }
        for (name, _) in OPEN_LOOP_LAYER {
            let open_loop = workload == "serve_mall";
            assert_eq!(
                value(&first, name).is_some(),
                open_loop,
                "{workload}: {name}"
            );
        }
        assert_eq!(exact_counts(&first), exact_counts(&again), "{workload}");
        assert_ne!(exact_counts(&first), exact_counts(&other), "{workload}");
        assert!(
            value(&first, "pgm.rows_filled").unwrap_or(0.0) > 0.0,
            "{workload}"
        );
    }
}

/// The `name`s of one metric list of `BENCHMARK.json`, in order.
fn spec_names(spec: &str, list: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("{list} missing"));
    let body = &spec[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap_or(0)].to_string())
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let names = |list: &[(&str, &str)]| -> Vec<String> {
        list.iter().map(|(n, _)| n.to_string()).collect()
    };
    assert_eq!(spec_names(&spec, "end_to_end"), names(&END_TO_END));
    assert_eq!(spec_names(&spec, "per_layer"), names(&PER_LAYER));
}
