//! Self-tests: every workload at a tiny size answers correctly and reports
//! every metric `BENCHMARK.json` names, with its unit; the probe calls
//! compute what the request computed.

use gpv_core::{QueryEngine, ViewService, ViewStore};
use gpv_perfbench::{
    generate, join, run, update, RunConfig, Size, Workload, END_TO_END, PER_LAYER, SHARDS,
};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;

fn work_dir(name: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    let dir = base.join("perfbench-selftest").join(name);
    std::fs::create_dir_all(&dir).expect("work directory");
    dir
}

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 11,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        work_dir: work_dir(&format!("{}-{trace}", workload.name())),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(m) => &m.iter().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("{key}: not an object"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

/// `(name, unit)` of each entry of a `BENCHMARK.json` metric list.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    let Value::Array(items) = get(spec, list) else {
        panic!("{list}: not an array");
    };
    items
        .iter()
        .map(|m| (str_of(get(m, "name")).into(), str_of(get(m, "unit")).into()))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(declared(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), owned(&PER_LAYER));
    let Value::Array(ws) = get(&spec, "workloads") else {
        panic!("workloads: not an array");
    };
    let names: Vec<&str> = ws.iter().map(|w| str_of(get(w, "name"))).collect();
    let ours: Vec<&str> = Workload::MEASURED.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_is_correct_and_reports_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(w, trace));
            assert!(out.attempted > 0, "{w:?} trace={trace}: nothing attempted");
            assert_eq!(out.failed, 0, "{w:?} trace={trace}: fail_ratio must be 0");
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(got, table, "{w:?} trace={trace}: metric names and units");
            for &(name, value, _) in &out.metrics {
                assert!(value.is_finite(), "{w:?} {name} = {value}");
            }
            if !trace {
                for &(name, value, _) in &out.metrics {
                    assert!(value > 0.0, "{w:?}: end-to-end {name} must not be 0");
                }
            }
            let line = out.result_json();
            let v = serde_json::parse(&line).expect("result line parses");
            assert_eq!(get(&v, "correct"), &Value::Bool(true));
        }
    }
}

#[test]
fn plan_then_execute_equals_answer_from_views() {
    let (inputs, _) = generate(&join::scenario(Size::Tiny, 5));
    let engine = QueryEngine::materialize(inputs.views.clone(), &inputs.graph);
    for q in &inputs.queries {
        let plan = engine.plan(q);
        let (probed, _) = engine
            .execute(q, &plan, None)
            .expect("covered query executes");
        let served = engine.answer_from_views(q).expect("covered query answers");
        assert_eq!(probed, served);
    }
}

#[test]
fn apply_to_equals_the_reported_successor_graph() {
    let (inputs, _) = generate(&update::scenario(Size::Tiny, 5, 0.01));
    let store = ViewStore::materialize(inputs.views.clone(), &inputs.graph, SHARDS);
    let svc = ViewService::new(Arc::new(store));
    let mut g = inputs.graph.clone();
    for delta in inputs.deltas.iter().take(8) {
        let probed = delta.apply_to(&g);
        let report = svc.apply_delta(delta, &g).expect("delta applies");
        let mut a: Vec<_> = probed.edges().collect();
        let mut b: Vec<_> = report.graph.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        g = report.graph;
    }
}
