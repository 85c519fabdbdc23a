//! Tiny-scale smoke test: every workload, one configuration, both passes.
//!
//! Checks that each pass emits every metric its table names, finite and
//! with the table's unit, that the result line has exactly the four keys
//! a `BENCHMARK.json` harness reads, that the committed pins still match
//! what the library produces, and that the committed `BENCHMARK.json` is
//! the one the tables render.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;

use wadc_obs::json::Json;
use wadc_perfbench::pins::Pins;
use wadc_perfbench::report::Outcome;
use wadc_perfbench::{e2e, spec, traced, workload};

fn check_result_line(outcome: &Outcome) {
    let line = Json::parse(&outcome.result_line()).expect("the result line is JSON");
    let Json::Obj(fields) = &line else {
        panic!("the result line is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(
        matches!(line.get("correct"), Some(Json::Bool(true))),
        "{}",
        outcome.table()
    );
    let metrics = line.get("metrics").expect("metrics");
    for m in outcome.expected() {
        let entry = metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{} missing from {}", m.name, outcome.workload));
        let value = entry.get("value").and_then(Json::as_num).expect("a number");
        assert!(value.is_finite(), "{} = {value}", m.name);
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
    }
}

fn smoke(name: &str) {
    let full = workload::by_name(name).expect("a named workload");
    let mut w = full.clone();
    w.params.n_configs = 1;
    w.sweep_configs = 1;
    let pins = Pins::compute(&w);
    let committed = Pins::load(&full).expect("committed pins load");
    assert_eq!(
        pins.0[..],
        committed.0[..1],
        "{name}: committed pins are stale"
    );

    let untraced = e2e::run(&w, workload::DEFAULT_SEED, 0.0, &pins);
    check_result_line(&untraced);
    let traced = traced::run(&w, workload::DEFAULT_SEED, 0.0, &pins);
    check_result_line(&traced.outcome);
    assert!(!traced.spans.spans().is_empty());
}

#[test]
fn paper_study() {
    smoke("paper-study");
}

#[test]
fn wan_contention() {
    smoke("wan-contention");
}

#[test]
fn scale_32() {
    smoke("scale-32");
}

#[test]
fn lossy_recovery() {
    smoke("lossy-recovery");
}

#[test]
fn committed_benchmark_json_matches_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json is committed");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `wadc-perfbench spec > BENCHMARK.json`"
    );
}
