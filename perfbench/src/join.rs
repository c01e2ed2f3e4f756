//! `join`: one client asks `QueryEngine::answer_from_views` for a pool of
//! fully covered predicate queries, round-robin, over an Amazon emulator
//! graph. The MatchJoin executors do almost all the work; the service,
//! the store and maintenance are not used.

use crate::probe::{self, LayerSamples};
use crate::stats::{ms, ratio, Reads, Samples};
use crate::trace::Tracer;
use crate::{
    base_scenario, generate, guarded, int, scenario_record, setup_reps, timed, Measured, PlanMix,
    RunConfig, Size,
};
use gpv_core::{QueryEngine, QueryPlan};
use gpv_generator::{GraphSource, PatternShape, Scenario};
use gpv_matching::{match_pattern, MatchResult};
use gpv_pattern::Pattern;
use serde_json::Value;
use std::time::{Duration, Instant};

/// The workload's generator descriptor.
pub fn scenario(size: Size, seed: u64) -> Scenario {
    let (nodes, queries) = match size {
        Size::Full => (500_000, 32),
        Size::Tiny => (3_000, 8),
    };
    Scenario {
        graph: GraphSource::Amazon { nodes },
        queries,
        query_nodes: 4,
        query_edges: 5,
        shape: PatternShape::Dag,
        ..base_scenario(seed)
    }
}

#[derive(Default)]
struct Phase {
    reads: Reads,
    busy: Duration,
    attempted: u64,
    failed: u64,
    ls: LayerSamples,
    /// Probe execution time per pool query, µs.
    exec_us: Vec<Samples>,
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Measured {
    let sc = scenario(cfg.size, cfg.seed);
    let (inputs, gen) = generate(&sc);
    let g = &inputs.graph;

    // Set-up: materialize V(G) and build the engine, several times.
    let mut setup_s = Samples::default();
    let mut engine = None;
    for _ in 0..setup_reps(cfg.size) {
        drop(engine.take());
        let views = inputs.views.clone();
        let (e, d) = timed(|| QueryEngine::materialize(views, g));
        setup_s.push(d.as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("set-up ran at least once");

    // Oracle answers, outside every timed window.
    let mut match_ms = Vec::new();
    let oracle: Vec<MatchResult> = inputs
        .queries
        .iter()
        .map(|q| {
            let (r, d) = timed(|| match_pattern(q, g));
            match_ms.push(ms(d));
            r
        })
        .collect();
    let mut pool_mix = PlanMix::default();
    for q in &inputs.queries {
        pool_mix.add(&engine.plan(q));
    }

    let untraced = phase(&engine, &inputs.queries, &oracle, cfg.phase_seconds(), None);
    let mut tracer = Tracer::new();
    let traced = cfg.trace.then(|| {
        phase(
            &engine,
            &inputs.queries,
            &oracle,
            cfg.phase_seconds(),
            Some(&mut tracer),
        )
    });

    let ext = engine.extensions();
    let mut m = Measured {
        attempted: untraced.attempted,
        failed: untraced.failed,
        ..Measured::default()
    };
    m.end_to_end_from(
        &setup_s,
        &untraced.reads,
        untraced.busy.as_secs_f64(),
        ext.resident_bytes(),
    );

    if let Some(t) = &traced {
        m.overhead_from(&untraced.reads, &t.reads);
        m.attempted += t.attempted;
        m.failed += t.failed + t.ls.probe_mismatches;
        let l = &mut m.per_layer;
        t.ls.report(l);
        l.insert("store.views", engine.views().card() as f64);
        l.insert("store.view_pairs", ext.size() as f64);
        l.insert("store.materialize_s", setup_s.median());
        let mut matching = Samples::default();
        let mut speedup = Samples::default();
        for (e, &match_ms) in t.exec_us.iter().zip(&match_ms) {
            matching.push(match_ms);
            if !e.is_empty() {
                speedup.push(ratio(match_ms * 1e3, e.median()));
            }
        }
        l.insert("matching.match_pattern_ms", matching.median());
        l.insert("matching.speedup_views", speedup.median());
    }

    let nonempty = oracle.iter().filter(|r| !r.is_empty()).count();
    m.record.extend(scenario_record(&sc, gen));
    m.record.extend([
        ("nodes".into(), int(g.node_count())),
        ("edges".into(), int(g.edge_count())),
        ("views".into(), int(engine.views().card())),
        ("query_pool".into(), int(inputs.queries.len())),
        ("view_pairs".into(), int(ext.size())),
        ("view_bytes".into(), int(ext.resident_bytes())),
        (
            "nonempty_share".into(),
            Value::Float(ratio(nonempty as f64, oracle.len() as f64)),
        ),
        ("pool_plan_mix".into(), pool_mix.record()),
        ("reads".into(), int(untraced.reads.len())),
    ]);
    m.spans = tracer;
    m
}

fn phase(
    engine: &QueryEngine,
    queries: &[Pattern],
    oracle: &[MatchResult],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut p = Phase {
        exec_us: vec![Samples::default(); queries.len()],
        ..Phase::default()
    };
    let mut probed = vec![false; queries.len()];
    let mut i = 0;
    while p.busy.as_secs_f64() < seconds {
        let k = i % queries.len();
        i += 1;
        let q = &queries[k];
        let op = tracer.as_ref().map(|t| t.open());
        let t0 = Instant::now();
        let out = guarded(|| engine.answer_from_views(q));
        let t1 = Instant::now();
        p.busy += t1 - t0;
        p.reads.push(ms(t1 - t0), 1);
        p.attempted += 1;
        let answer = match out {
            Some(Ok(r)) if r == oracle[k] => Some(r),
            _ => {
                p.failed += 1;
                None
            }
        };
        let (Some(tr), Some(op)) = (tracer.as_deref_mut(), op) else {
            continue;
        };
        tr.record(&op, "engine.answer_from_views", t0, t1);
        let plan = probe::plan(tr, &op, engine, q, &mut p.ls);
        p.ls.mix.add(&plan);
        if let Some(r) = &answer {
            let e = probe::execute(tr, &op, engine, q, &plan, None, r, &mut p.ls);
            p.exec_us[k].push(e);
        }
        if !std::mem::replace(&mut probed[k], true) {
            probe::selection(tr, &op, engine, q, &mut p.ls);
            if let QueryPlan::ViewsOnly(vp) = &plan {
                probe::executors(tr, &op, engine, q, vp, &mut p.ls);
            }
        }
        tr.close(op);
    }
    p
}
