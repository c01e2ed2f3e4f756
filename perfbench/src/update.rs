//! `update`: one client works in rounds over a large synthetic graph. Each
//! round serves several batches of zipf-drawn queries, then applies one
//! edge delta through `ViewService::apply_delta` and adopts the successor
//! graph it reports. Reads re-plan and re-execute the queries whose views
//! the delta changed.

use crate::serve::{self, Checked, Phase};
use crate::stats::{ms, ratio, us, Samples};
use crate::trace::Tracer;
use crate::{
    base_scenario, dir_bytes, generate, guarded, int, mb, scenario_record, setup_reps, timed,
    Measured, PlanMix, RunConfig, Size, SHARDS,
};
use gpv_core::{
    DeltaReport, EdgeDelta, QueryEngine, StoreSnapshot, ViewFootprintIndex, ViewService, ViewStore,
};
use gpv_generator::{GraphSource, PatternShape, Scenario, ScenarioInputs};
use gpv_graph::{DataGraph, NodeId};
use gpv_matching::{match_pattern, MatchResult};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per read batch.
pub const BATCH: usize = 8;

/// Parameters that differ between the full and the tiny size.
struct Shape {
    nodes: usize,
    edges: usize,
    queries: usize,
    reads_per_round: usize,
    /// Rounds per second of timed phase the delta stream is sized for:
    /// several times the measured rate, since a stream that ends before the
    /// phase does fails the run.
    rounds_per_s: f64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            nodes: 500_000,
            edges: 1_000_000,
            queries: 16,
            reads_per_round: 12,
            rounds_per_s: 50.0,
        },
        Size::Tiny => Shape {
            nodes: 3_000,
            edges: 6_000,
            queries: 8,
            reads_per_round: 4,
            rounds_per_s: 2_000.0,
        },
    }
}

/// The workload's generator descriptor, with enough rounds for `seconds`
/// of timed phases (plus the warm-up write).
pub fn scenario(size: Size, seed: u64, seconds: f64) -> Scenario {
    let s = shape(size);
    Scenario {
        graph: GraphSource::Synthetic {
            nodes: s.nodes,
            edges: s.edges,
            labels: 10,
        },
        queries: s.queries,
        shape: PatternShape::Dag,
        zipf_s: 1.0,
        batch_len: s.reads_per_round * BATCH,
        rounds: 2 + (seconds * s.rounds_per_s).ceil() as usize,
        delta_batch_len: 8,
        delete_ratio: 0.5,
        ..base_scenario(seed)
    }
}

/// The evolving graph and where the round stream stands.
struct State {
    g: DataGraph,
    round: usize,
}

/// What the writes of a phase measured.
#[derive(Default)]
struct Writes {
    ms: Samples,
    edge_ops: u64,
    /// Time spent in writes.
    busy: Duration,
    /// Time spent in reads and writes: the phase clock.
    span: Duration,
    affected: u64,
    changed: u64,
    unaffected: u64,
    apply_to_ms: Samples,
    fingerprint_ms: Samples,
    footprint_us: Samples,
    snapshot_us: Samples,
    from_snapshot_us: Samples,
    /// Oracle answers computed, and how many of them were non-empty.
    oracles: u64,
    nonempty: u64,
    /// Whether the delta stream ended before the phase's time was up.
    exhausted: bool,
}

/// The engine probes run on, rebuilt from the store after each write.
struct ProbeEngine {
    snap: Arc<StoreSnapshot>,
    engine: QueryEngine,
}

impl ProbeEngine {
    fn build(svc: &ViewService, w: &mut Writes) -> Self {
        let (snap, d) = timed(|| svc.store().snapshot());
        w.snapshot_us.push(us(d));
        let (engine, d) = timed(|| QueryEngine::from_snapshot(&snap));
        w.from_snapshot_us.push(us(d));
        ProbeEngine { snap, engine }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Measured {
    let s = shape(cfg.size);
    let sc = scenario(cfg.size, cfg.seed, cfg.seconds);
    let (inputs, gen) = generate(&sc);

    // Set-up: materialize the store and start the service, several times.
    let mut setup_s = Samples::default();
    let mut materialize_s = Samples::default();
    let mut svc = None;
    for _ in 0..setup_reps(cfg.size) {
        drop(svc.take());
        let views = inputs.views.clone();
        let t0 = Instant::now();
        let store = ViewStore::materialize(views, &inputs.graph, SHARDS);
        materialize_s.push(t0.elapsed().as_secs_f64());
        svc = Some(ViewService::new(Arc::new(store)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let svc = svc.expect("set-up ran at least once");
    let snap = svc.store().snapshot();
    let (view_bytes, view_pairs) = (snap.extensions().resident_bytes(), snap.extensions().size());
    let mut pool_mix = PlanMix::default();
    let pool_engine = QueryEngine::from_snapshot(&snap);
    for q in &inputs.queries {
        pool_mix.add(&pool_engine.plan(q));
    }
    drop((pool_engine, snap));

    // The first write promotes every cold maintainer; it is timed on its
    // own, before the phases.
    let mut st = State {
        g: inputs.graph.clone(),
        round: 0,
    };
    let mut m = Measured::default();
    let (first, first_d) = timed(|| guarded(|| svc.apply_delta(&inputs.deltas[0], &st.g)));
    m.attempted += 1;
    match first {
        Some(Ok(rep)) => st.g = rep.graph,
        _ => m.failed += 1,
    }
    st.round = 1;

    let untraced = phase(
        &svc,
        &inputs,
        &mut st,
        s.reads_per_round,
        cfg.phase_seconds(),
        None,
    );
    let stats1 = svc.stats();
    let mut tracer = Tracer::new();
    let traced = cfg.trace.then(|| {
        phase(
            &svc,
            &inputs,
            &mut st,
            s.reads_per_round,
            cfg.phase_seconds(),
            Some(&mut tracer),
        )
    });

    // A phase cut short by the end of the delta stream counts as a failed
    // operation, so a faster write cannot pass with a shorter run.
    let exhausted = untraced.1.exhausted || traced.as_ref().is_some_and(|(_, w)| w.exhausted);
    let (u, uw) = &untraced;
    m.attempted += u.attempted + u64::from(exhausted);
    m.failed += u.failed + u64::from(exhausted);
    m.end_to_end_from(&setup_s, &u.reads, uw.span.as_secs_f64(), view_bytes);

    let end_bytes = svc.store().snapshot().extensions().resident_bytes();
    if let Some((t, w)) = &traced {
        m.overhead_from(&u.reads, &t.reads);
        m.attempted += t.attempted + 1;
        m.failed += t.failed + t.ls.probe_mismatches;
        let shard = probe_shards(svc.store(), &cfg.work_dir, cfg.seed);
        m.failed += u64::from(shard.is_none());
        let l = &mut m.per_layer;
        if let Some((save_s, load_s, bytes_per_pair)) = shard {
            l.insert("shard.save_s", save_s);
            l.insert("shard.load_s", load_s);
            l.insert("shard.bytes_per_pair", bytes_per_pair);
        }
        t.ls.report(l);
        serve::service_layers(&stats1, &svc.stats(), l);
        let snap = svc.store().snapshot();
        l.insert("store.views", snap.views().len() as f64);
        l.insert("store.view_pairs", snap.extensions().size() as f64);
        l.insert("store.materialize_s", materialize_s.median());
        l.insert("store.view_mb_end", mb(end_bytes));
        l.insert("store.snapshot_us", w.snapshot_us.median());
        l.insert("engine.from_snapshot_us", w.from_snapshot_us.median());
        l.insert("delta.apply_to_ms", w.apply_to_ms.median());
        l.insert("delta.footprint_us", w.footprint_us.median());
        l.insert("storage.graph_fingerprint_ms", w.fingerprint_ms.median());
        let writes = w.ms.len().max(1) as f64;
        l.insert("maintenance.affected", w.affected as f64 / writes);
        l.insert("maintenance.changed", w.changed as f64 / writes);
        l.insert("maintenance.unaffected", w.unaffected as f64 / writes);
        l.insert(
            "maintenance.changed_per_affected",
            ratio(w.changed as f64, w.affected as f64),
        );
        l.insert("maintenance.first_write_ms", ms(first_d));
        l.insert("write_p50_ms", w.ms.median());
        l.insert("write_p90_ms", w.ms.quantile(0.9));
        l.insert(
            "edge_updates_per_s",
            ratio(w.edge_ops as f64, w.busy.as_secs_f64()),
        );
        l.insert("run.writes", w.ms.len() as f64);
    }

    let g = &inputs.graph;
    m.record.extend(scenario_record(&sc, gen));
    m.record.extend([
        ("nodes".into(), int(g.node_count())),
        ("edges".into(), int(g.edge_count())),
        ("views".into(), int(inputs.views.card())),
        ("query_pool".into(), int(inputs.queries.len())),
        ("view_pairs".into(), int(view_pairs)),
        ("view_bytes".into(), int(view_bytes)),
        ("view_bytes_end".into(), int(end_bytes)),
        (
            "nonempty_share".into(),
            Value::Float(ratio(uw.nonempty as f64, uw.oracles as f64)),
        ),
        ("pool_plan_mix".into(), pool_mix.record()),
        ("reads_per_round".into(), int(s.reads_per_round)),
        ("delta_stream_exhausted".into(), Value::Bool(exhausted)),
        ("reads".into(), int(u.reads.len())),
        ("writes".into(), int(uw.ms.len())),
        ("write_p50_ms".into(), Value::Float(uw.ms.median())),
        ("write_p90_ms".into(), Value::Float(uw.ms.quantile(0.9))),
        (
            "checked_share".into(),
            Value::Float(ratio(u.checked as f64, u.reads.queries() as f64)),
        ),
    ]);
    m.spans = tracer;
    m
}

/// Runs rounds until the reads and writes took `seconds`, or the delta
/// stream ends (which the returned [`Writes`] flags).
fn phase(
    svc: &ViewService,
    inputs: &ScenarioInputs,
    st: &mut State,
    reads_per_round: usize,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Phase, Writes) {
    let mut p = Phase::default();
    let mut w = Writes::default();
    let mut oracle: HashMap<usize, Arc<MatchResult>> = HashMap::new();
    let mut checked = Checked::default();
    let mut probe = tracer.is_some().then(|| ProbeEngine::build(svc, &mut w));
    while (p.busy + w.busy).as_secs_f64() < seconds {
        if st.round == inputs.deltas.len() {
            w.exhausted = true;
            break;
        }
        let r = st.round;
        st.round += 1;
        for (k, idx) in inputs.rounds[r]
            .chunks(BATCH)
            .take(reads_per_round)
            .enumerate()
        {
            // The first batch after a write is always checked; later ones
            // reuse the oracle answers it computed for this graph version.
            let g = &st.g;
            let (oracles, nonempty) = (&mut w.oracles, &mut w.nonempty);
            let oracle_of = |q: usize| -> Option<Arc<MatchResult>> {
                if k == 0 && !oracle.contains_key(&q) {
                    let r = match_pattern(&inputs.queries[q], g);
                    *oracles += 1;
                    *nonempty += u64::from(!r.is_empty());
                    oracle.insert(q, Arc::new(r));
                }
                oracle.get(&q).cloned()
            };
            let trace = match (tracer.as_deref_mut(), &probe) {
                (Some(t), Some(pe)) => Some((t, &pe.engine)),
                _ => None,
            };
            serve::serve_one(
                svc,
                g,
                &inputs.queries,
                idx,
                oracle_of,
                &mut checked,
                trace,
                &mut p,
            );
        }
        let delta = &inputs.deltas[r];
        let op = tracer.as_ref().map(|t| t.open());
        let t0 = Instant::now();
        let out = guarded(|| svc.apply_delta(delta, &st.g));
        let t1 = Instant::now();
        w.busy += t1 - t0;
        w.ms.push(ms(t1 - t0));
        w.edge_ops += delta.len() as u64;
        p.attempted += 1;
        let Some(Ok(rep)) = out else {
            p.failed += 1;
            continue;
        };
        w.affected += rep.affected.len() as u64;
        w.changed += rep.changed.len() as u64;
        w.unaffected += rep.unaffected as u64;
        if let (Some(tr), Some(op), Some(pe)) = (tracer.as_deref_mut(), op, &probe) {
            tr.record(&op, "service.apply_delta", t0, t1);
            if !probe_write(tr, &op, pe, delta, &st.g, &rep, &mut w) {
                p.ls.probe_mismatches += 1;
            }
            tr.close(op);
        }
        st.g = rep.graph;
        oracle.clear();
        checked.clear();
        if probe.is_some() {
            probe = Some(ProbeEngine::build(svc, &mut w));
        }
    }
    w.span = p.busy + w.busy;
    (p, w)
}

/// Times the write's layers on the pre-write graph: the successor-graph
/// build, the graph fingerprint and the footprint routing. Returns whether
/// the successor graph equals the one the store reported.
fn probe_write(
    tr: &mut Tracer,
    op: &crate::trace::OpenOp,
    pe: &ProbeEngine,
    delta: &EdgeDelta,
    g: &DataGraph,
    rep: &DeltaReport,
    w: &mut Writes,
) -> bool {
    let (next, d) = tr.time(op, "delta.apply_to", || delta.apply_to(g));
    w.apply_to_ms.push(ms(d));
    let (_, d) = tr.time(op, "storage.graph_fingerprint", || {
        gpv_core::storage::graph_fingerprint(g)
    });
    w.fingerprint_ms.push(ms(d));
    let (_, d) = tr.time(op, "delta.footprint", || {
        let idx = ViewFootprintIndex::build(pe.snap.views().iter().map(|v| (v.id, &v.def)), g);
        idx.affected(delta, g)
    });
    w.footprint_us.push(us(d));
    sorted_edges(&next) == sorted_edges(&rep.graph)
}

/// Saves the maintained store as shards and loads it back, as `gpv serve
/// --store-dir` would after the writes. Returns the save and load times and
/// the bytes on disk per view pair, or `None` when either call fails or the
/// loaded store holds other pairs.
fn probe_shards(store: &ViewStore, work_dir: &Path, seed: u64) -> Option<(f64, f64, f64)> {
    let dir = work_dir.join(format!("update-store-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (saved, save) = timed(|| store.save_to_dir(&dir));
    let (loaded, load) = timed(|| ViewStore::load_from_dir(&dir));
    let bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let pairs = store.snapshot().extensions().size();
    let same = loaded.ok()?.snapshot().extensions().size() == pairs;
    (saved.is_ok() && same).then(|| {
        (
            save.as_secs_f64(),
            load.as_secs_f64(),
            ratio(bytes as f64, pairs as f64),
        )
    })
}

fn sorted_edges(g: &DataGraph) -> Vec<(NodeId, NodeId)> {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    e
}
