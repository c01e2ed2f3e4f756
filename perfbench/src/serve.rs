//! `serve`: two clients call `ViewService::serve_batch` with batches of
//! zipf-drawn queries over a YouTube emulator graph. A quarter of the
//! covering views is withheld, so some plans are hybrid or direct and read
//! the graph. The store is restored from shards, and the result cache is
//! smaller than the working set of the pool's answers, so evictions and
//! re-executions recur at a steady rate.

use crate::probe::{self, LayerSamples};
use crate::stats::{ms, ratio, us, Reads, Samples};
use crate::trace::Tracer;
use crate::{
    base_scenario, dir_bytes, generate, guarded, int, mb, scenario_record, setup_reps, timed,
    Measured, PlanMix, RunConfig, Size, SHARDS,
};
use gpv_core::{
    CompactView, QueryEngine, ServedAnswer, ServiceConfig, ServiceStats, ViewService, ViewStore,
};
use gpv_generator::{GraphSource, PatternShape, QueryMode, Scenario};
use gpv_graph::DataGraph;
use gpv_matching::{match_pattern, MatchResult};
use gpv_pattern::Pattern;
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent clients (the core count of the machine the sizes were
/// chosen on).
pub const CLIENTS: usize = 2;

/// The result-cache budget, as a share of the pool answers' working set.
pub const CACHE_SHARE: f64 = 0.25;

/// The workload's generator descriptor (its `result_cache_bytes` is set
/// once the answers' working set is known).
pub fn scenario(size: Size, seed: u64) -> Scenario {
    let (nodes, queries, rounds) = match size {
        Size::Full => (200_000, 256, 4096),
        Size::Tiny => (3_000, 24, 64),
    };
    Scenario {
        graph: GraphSource::YouTube { nodes },
        queries,
        shape: PatternShape::Any,
        zipf_s: 1.0,
        batch_len: 16,
        rounds,
        coverage: 0.75,
        mode: QueryMode::Partial,
        ..base_scenario(seed)
    }
}

/// What one timed phase of batches measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Batch latencies.
    pub reads: Reads,
    /// Time spent inside `serve_batch`: the client's clock, which leaves
    /// out building the batches and checking the answers.
    pub busy: Duration,
    /// Queries or writes attempted.
    pub attempted: u64,
    /// Failed or wrong.
    pub failed: u64,
    /// Answers compared against the oracle.
    pub checked: u64,
    /// Layer measurements.
    pub ls: LayerSamples,
}

impl Phase {
    /// Adds another client's measurements.
    pub fn merge(&mut self, o: Phase) {
        self.reads.extend(&o.reads);
        self.busy += o.busy;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.checked += o.checked;
        self.ls.merge(o.ls);
    }
}

/// Answers already checked, by query: a result-cache hit hands out the
/// same `Arc` again, which needs no second comparison.
#[derive(Default)]
pub struct Checked(HashMap<usize, Arc<MatchResult>>);

impl Checked {
    /// Whether `served` equals `oracle`, comparing in full only when the
    /// answer is not the one already checked for query `k`.
    pub fn check(&mut self, k: usize, served: &Arc<MatchResult>, oracle: &MatchResult) -> bool {
        if self.0.get(&k).is_some_and(|a| Arc::ptr_eq(a, served)) {
            return true;
        }
        let ok = **served == *oracle;
        if ok {
            self.0.insert(k, Arc::clone(served));
        }
        ok
    }

    /// Forgets every checked answer (the graph changed).
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Serves one batch and checks and classifies its answers; traced, it also
/// records the request span and probes the batch. `oracle(k)` is the
/// expected answer of pool query `k`; an answer without one stays
/// unchecked.
#[allow(clippy::too_many_arguments)]
pub fn serve_one(
    svc: &ViewService,
    g: &DataGraph,
    queries: &[Pattern],
    idx: &[usize],
    mut oracle: impl FnMut(usize) -> Option<Arc<MatchResult>>,
    checked: &mut Checked,
    trace: Option<(&mut Tracer, &QueryEngine)>,
    p: &mut Phase,
) {
    let batch: Vec<Pattern> = idx.iter().map(|&k| queries[k].clone()).collect();
    let op = trace.as_ref().map(|(t, _)| t.open());
    let t0 = Instant::now();
    let out = guarded(|| svc.serve_batch(&batch, Some(g)));
    let t1 = Instant::now();
    let d = t1 - t0;
    p.busy += d;
    p.reads.push(ms(d), batch.len() as u64);
    p.attempted += batch.len() as u64;
    let Some(out) = out else {
        p.failed += batch.len() as u64;
        return;
    };
    let mut answered: Vec<(&Pattern, &ServedAnswer)> = Vec::new();
    for ((q, &k), a) in batch.iter().zip(idx).zip(&out) {
        let ok = match a {
            Ok(a) => oracle(k).is_none_or(|o| {
                p.checked += 1;
                checked.check(k, &a.result, &o)
            }),
            Err(_) => false,
        };
        match a {
            Ok(a) if ok => answered.push((q, a)),
            _ => p.failed += 1,
        }
    }
    let answers: Vec<&ServedAnswer> = answered.iter().map(|&(_, a)| a).collect();
    let executed = probe::classify(&answers, &mut p.ls);
    if executed {
        p.ls.miss_batch_ms.push(ms(d));
    } else {
        p.ls.all_hit_batch_ms.push(ms(d));
    }
    if let (Some((tr, engine)), Some(op)) = (trace, op) {
        tr.record(&op, "service.serve_batch", t0, t1);
        let qs: Vec<&Pattern> = answered.iter().map(|&(q, _)| q).collect();
        probe::batch(tr, &op, engine, &qs, &answers, g, &mut p.ls);
        tr.close(op);
    }
}

/// Per-layer values from the service counters' change over a phase.
pub fn service_layers(a: &ServiceStats, b: &ServiceStats, out: &mut BTreeMap<&'static str, f64>) {
    let diff = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let rh = diff(a.result_cache_hits, b.result_cache_hits);
    let rm = diff(a.result_cache_misses, b.result_cache_misses);
    let ph = diff(a.plan_cache_hits, b.plan_cache_hits);
    let pm = diff(a.plan_cache_misses, b.plan_cache_misses);
    out.insert("service.result_hit_rate", ratio(rh, rh + rm));
    out.insert("service.plan_hit_rate", ratio(ph, ph + pm));
    out.insert("service.dedup_saved", diff(a.dedup_saved, b.dedup_saved));
    out.insert(
        "service.result_evictions",
        diff(a.result_cache_evictions, b.result_cache_evictions),
    );
    out.insert(
        "service.engine_rebuilds",
        diff(a.engine_rebuilds, b.engine_rebuilds),
    );
    out.insert("service.result_cache_mb", mb(b.result_cache_bytes));
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Measured {
    let mut sc = scenario(cfg.size, cfg.seed);
    let (inputs, gen) = generate(&sc);
    let g = &inputs.graph;

    // Oracle answers for the whole pool, outside every timed window.
    let mut match_ms = Samples::default();
    let oracle: Vec<Arc<MatchResult>> = inputs
        .queries
        .iter()
        .map(|q| {
            let (r, d) = timed(|| match_pattern(q, g));
            match_ms.push(ms(d));
            Arc::new(r)
        })
        .collect();
    let working_set: usize = oracle
        .iter()
        .map(|r| CompactView::freeze(r).resident_bytes())
        .sum();
    sc.result_cache_bytes = (working_set as f64 * CACHE_SHARE) as usize;
    let config = ServiceConfig {
        result_cache_bytes: sc.result_cache_bytes,
        ..ServiceConfig::default()
    };

    // Persist the store untimed; set-up restores it from the shards.
    let dir = cfg
        .work_dir
        .join(format!("serve-store-{}-{}", cfg.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ViewStore::materialize(inputs.views.clone(), g, SHARDS);
    let (saved, save) = timed(|| store.save_to_dir(&dir));
    saved.expect("the shard store saves to the work directory");
    drop(store);
    let disk_bytes = dir_bytes(&dir);

    let mut setup_s = Samples::default();
    let mut load_s = Samples::default();
    let mut svc = None;
    for _ in 0..setup_reps(cfg.size) {
        drop(svc.take());
        let t0 = Instant::now();
        let store = ViewStore::load_from_dir(&dir).expect("the saved store loads");
        let t1 = Instant::now();
        svc = Some(ViewService::with_config(Arc::new(store), config.clone()));
        setup_s.push(t0.elapsed().as_secs_f64());
        load_s.push((t1 - t0).as_secs_f64());
    }
    let svc = svc.expect("set-up ran at least once");
    let _ = std::fs::remove_dir_all(&dir);

    let snap = svc.store().snapshot();
    let ext = snap.extensions();
    let pool_engine = QueryEngine::from_snapshot(&snap);
    let mut pool_mix = PlanMix::default();
    for q in &inputs.queries {
        pool_mix.add(&pool_engine.plan(q));
    }
    drop(pool_engine);

    let next = AtomicUsize::new(0);
    let stats0 = svc.stats();
    let untraced = phase(
        &svc,
        g,
        &inputs.queries,
        &oracle,
        &inputs.rounds,
        &next,
        cfg.phase_seconds(),
        None,
    );
    let stats1 = svc.stats();
    let mut tracer = Tracer::new();
    let traced = cfg.trace.then(|| {
        let (snap, snap_d) = timed(|| svc.store().snapshot());
        let (engine, eng_d) = timed(|| QueryEngine::from_snapshot(&snap));
        let t = phase(
            &svc,
            g,
            &inputs.queries,
            &oracle,
            &inputs.rounds,
            &next,
            cfg.phase_seconds(),
            Some((&tracer, &engine)),
        );
        (t, snap_d, eng_d)
    });

    // The phase clock is each client's time inside `serve_batch`,
    // averaged over the clients: checking answers is left out.
    let (u, _, wall) = &untraced;
    let clock_s = u.busy.as_secs_f64() / CLIENTS as f64;
    let mut m = Measured {
        attempted: u.attempted,
        failed: u.failed,
        ..Measured::default()
    };
    m.end_to_end_from(&setup_s, &u.reads, clock_s, ext.resident_bytes());

    if let Some(((mut t, tracers, _), snap_d, eng_d)) = traced {
        for tr in tracers {
            tracer.merge(tr);
        }
        m.overhead_from(&u.reads, &t.reads);
        m.attempted += t.attempted;
        m.failed += t.failed + t.ls.probe_mismatches;
        t.ls.match_pattern_ms.extend(&match_ms);
        let l = &mut m.per_layer;
        t.ls.report(l);
        service_layers(&stats1, &svc.stats(), l);
        l.insert("store.views", snap.views().len() as f64);
        l.insert("store.view_pairs", ext.size() as f64);
        l.insert("shard.save_s", save.as_secs_f64());
        l.insert("shard.load_s", load_s.median());
        l.insert(
            "shard.bytes_per_pair",
            ratio(disk_bytes as f64, ext.size() as f64),
        );
        l.insert("store.snapshot_us", us(snap_d));
        l.insert("engine.from_snapshot_us", us(eng_d));
    }

    let nonempty = oracle.iter().filter(|r| !r.is_empty()).count();
    let hits = |a: &ServiceStats| a.result_cache_hits;
    let misses = |a: &ServiceStats| a.result_cache_misses;
    let (h, mi) = (
        (hits(&stats1) - hits(&stats0)) as f64,
        (misses(&stats1) - misses(&stats0)) as f64,
    );
    m.record.extend(scenario_record(&sc, gen));
    m.record.extend([
        ("nodes".into(), int(g.node_count())),
        ("edges".into(), int(g.edge_count())),
        ("views".into(), int(snap.views().len())),
        ("query_pool".into(), int(inputs.queries.len())),
        ("view_pairs".into(), int(ext.size())),
        ("view_bytes".into(), int(ext.resident_bytes())),
        (
            "nonempty_share".into(),
            Value::Float(ratio(nonempty as f64, oracle.len() as f64)),
        ),
        ("pool_plan_mix".into(), pool_mix.record()),
        ("clients".into(), int(CLIENTS)),
        ("result_cache_bytes".into(), int(sc.result_cache_bytes)),
        ("answer_working_set_bytes".into(), int(working_set)),
        ("result_hit_rate".into(), Value::Float(ratio(h, h + mi))),
        ("reads".into(), int(u.reads.len())),
        (
            "busy_share".into(),
            Value::Float(ratio(clock_s, wall.as_secs_f64())),
        ),
    ]);
    m.spans = tracer;
    m
}

/// Runs the clients until `seconds` of wall time passed; returns their
/// merged measurements, their span recorders and the phase's wall time.
#[allow(clippy::too_many_arguments)]
fn phase(
    svc: &ViewService,
    g: &DataGraph,
    queries: &[Pattern],
    oracle: &[Arc<MatchResult>],
    schedule: &[Vec<usize>],
    next: &AtomicUsize,
    seconds: f64,
    trace: Option<(&Tracer, &QueryEngine)>,
) -> (Phase, Vec<Tracer>, Duration) {
    let start = Instant::now();
    let clients: Vec<(Phase, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut tracer = trace.map(|(t, e)| (t.fork(), e));
                s.spawn(move || {
                    let mut p = Phase::default();
                    let mut checked = Checked::default();
                    while start.elapsed().as_secs_f64() < seconds {
                        let b = next.fetch_add(1, Ordering::Relaxed) % schedule.len();
                        let tr = tracer.as_mut().map(|(t, e)| (t, *e));
                        serve_one(
                            svc,
                            g,
                            queries,
                            &schedule[b],
                            |k| Some(Arc::clone(&oracle[k])),
                            &mut checked,
                            tr,
                            &mut p,
                        );
                    }
                    (p, tracer.map(|(t, _)| t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked outside a request"))
            .collect()
    });
    let wall = start.elapsed();
    let mut merged = Phase::default();
    let mut tracers = Vec::new();
    for (p, t) in clients {
        merged.merge(p);
        tracers.extend(t);
    }
    (merged, tracers, wall)
}
