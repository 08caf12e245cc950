//! Self-tests of the benchmark: the tail-percentile rule, seed
//! determinism of every input, and agreement between `BENCHMARK.json` and
//! the metrics the benchmark emits.

use ped_obs::json::{self, Json};
use pedbench::inputs::{batch_corpus, kernels, script_text, suite, BATCH_PROGRAMS};
use pedbench::stats::{tail, TAIL_MIN_BEYOND};
use pedbench::workload::{self, Args, Workload};
use pedbench::{result_line, valid_metric_name, MetricDef, END_TO_END, PER_LAYER};

#[test]
fn tail_is_p99_when_the_sample_is_large_enough() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&xs, 99.0).unwrap();
    assert_eq!(t.percentile, 99.0);
    assert_eq!(t.value, 990.0);
    assert_eq!(t.samples, 1000);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    // 72 samples: nearest-rank p99 would be the maximum.
    let xs: Vec<f64> = (1..=72).rev().map(f64::from).collect();
    let t = tail(&xs, 99.0).unwrap();
    assert_eq!(t.value, 62.0);
    assert!((t.percentile - 100.0 * 62.0 / 72.0).abs() < 1e-9);
    for n in TAIL_MIN_BEYOND + 1..400 {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = tail(&xs, 99.0).unwrap();
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: only {beyond} beyond");
        // The highest such percentile: one rank higher would break the rule.
        assert!(
            beyond == TAIL_MIN_BEYOND || t.percentile >= 99.0,
            "n={n}: not the highest"
        );
    }
}

#[test]
fn tail_needs_more_than_ten_samples() {
    assert_eq!(tail(&[1.0; 10], 99.0), None);
    assert_eq!(tail(&[1.0; 11], 99.0).unwrap().value, 1.0);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    assert_eq!(batch_corpus(7), batch_corpus(7));
    assert_ne!(batch_corpus(7), batch_corpus(8));
    assert_eq!(kernels(7), kernels(7));
    assert_ne!(kernels(7), kernels(8));
    let programs = suite();
    assert_eq!(programs.len(), 9);
    assert_eq!(script_text(7, 2, &programs), script_text(7, 2, &programs));
    assert_ne!(script_text(7, 2, &programs), script_text(8, 2, &programs));
}

#[test]
fn other_seeds_keep_the_input_sizes() {
    let lines = |seed| batch_corpus(seed).iter().map(|i| i.lines()).sum::<usize>() as f64;
    let base = lines(1);
    assert!(
        (base / BATCH_PROGRAMS as f64 - 2_000.0).abs() < 200.0,
        "{base} lines"
    );
    for seed in 2..6 {
        assert!(
            (lines(seed) / base - 1.0).abs() < 0.05,
            "seed {seed}: {} vs {base} lines",
            lines(seed)
        );
    }
    // Kernels change data, never trip counts or shape.
    let shape = |seed| kernels(seed).iter().map(|k| k.lines()).collect::<Vec<_>>();
    assert_eq!(shape(1), shape(2));
}

fn declared(doc: &Json, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| -> &'static str {
                Box::leak(
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{k} in {m:?}"))
                        .into(),
                )
            };
            MetricDef {
                name: s("name"),
                unit: s("unit"),
                better: s("better"),
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap();
    assert_eq!(declared(&doc, "end_to_end"), END_TO_END);
    assert_eq!(declared(&doc, "per_layer"), PER_LAYER);
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    assert!(
        names.iter().all(|n| valid_metric_name(n)),
        "bad metric name in {names:?}"
    );
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n, "metric names must be unique");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn result_line_requires_every_declared_metric() {
    let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
    let tally = pedbench::Tally {
        attempted: 3,
        failures: vec![],
    };
    let line = result_line(&all, &tally, END_TO_END).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(
        v.get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str),
        Some("s")
    );
    assert!(
        result_line(&all[1..], &tally, END_TO_END).is_err(),
        "missing metric"
    );
    let mut extra = all.clone();
    extra.push(("undeclared", 1.0));
    assert!(
        result_line(&extra, &tally, END_TO_END).is_err(),
        "undeclared metric"
    );
    let mut nan = all.clone();
    nan[0].1 = f64::NAN;
    assert!(
        result_line(&nan, &tally, END_TO_END).is_err(),
        "non-finite metric"
    );
}

/// The session workload (the smallest programs) emits every declared
/// metric, untraced and traced, with every check passing.
#[test]
fn session_workload_emits_every_metric() {
    for trace in [false, true] {
        let args = Args {
            workload: Workload::Session,
            seed: 3,
            seconds: 0.2,
            trace,
            out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("selftest-{trace}")),
        };
        let report = workload::run(&args).expect("session workload runs");
        assert!(
            report.tally.failures.is_empty(),
            "{:?}",
            report.tally.failures
        );
        let defs = if trace { PER_LAYER } else { END_TO_END };
        result_line(&report.metrics, &report.tally, defs).expect("every metric emitted");
        std::fs::remove_dir_all(&args.out_dir).ok();
    }
}
