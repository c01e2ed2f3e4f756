//! Probe calls: a request's layer functions, called again from outside on
//! the same inputs and timed as child spans of the request.
//!
//! Probes run on a [`QueryEngine`] built from the same store snapshot the
//! request was served from, never through the service, so they leave the
//! service's caches, and so what the next request sees, untouched.

use crate::stats::{ms, ratio, us, Samples};
use crate::trace::{OpenOp, Tracer};
use crate::PlanMix;
use gpv_core::{
    contain, match_join_with, minimal, minimum, par_match_join, CacheDisposition, JoinStrategy,
    QueryEngine, QueryPlan, ServedAnswer, ViewPlan,
};
use gpv_graph::DataGraph;
use gpv_matching::MatchResult;
use gpv_pattern::Pattern;
use std::collections::BTreeMap;

/// Measurements the probes and the request loop collect for the per-layer
/// metrics.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// `QueryEngine::plan`, µs.
    pub plan_us: Samples,
    /// `contain`, µs.
    pub contain_us: Samples,
    /// `minimal`, µs.
    pub minimal_us: Samples,
    /// `minimum`, µs.
    pub minimum_us: Samples,
    /// `QueryEngine::execute`, µs.
    pub execute_us: Samples,
    /// `JoinStats::merged_pairs` per execution.
    pub merged_pairs: Samples,
    /// `JoinStats::edge_visits` per execution.
    pub edge_visits: Samples,
    /// `JoinStats::removals` per execution.
    pub removals: Samples,
    /// Answer pairs per execution.
    pub result_pairs: Samples,
    /// Sequential ranked-bottom-up MatchJoin on the plan's λ, µs.
    pub seq_us: Samples,
    /// Two-thread parallel MatchJoin on the same λ, µs.
    pub par_us: Samples,
    /// `match_pattern`, ms.
    pub match_pattern_ms: Samples,
    /// `graph_fingerprint`, ms.
    pub fingerprint_ms: Samples,
    /// Plans of the served answers, by kind.
    pub mix: PlanMix,
    /// Batches in which no query executed, ms.
    pub all_hit_batch_ms: Samples,
    /// Batches in which some query executed, ms.
    pub miss_batch_ms: Samples,
    /// Probe answers that differed from the request's answer.
    pub probe_mismatches: u64,
}

impl LayerSamples {
    /// Adds `other`'s measurements (from another client thread).
    pub fn merge(&mut self, o: LayerSamples) {
        for (a, b) in [
            (&mut self.plan_us, &o.plan_us),
            (&mut self.contain_us, &o.contain_us),
            (&mut self.minimal_us, &o.minimal_us),
            (&mut self.minimum_us, &o.minimum_us),
            (&mut self.execute_us, &o.execute_us),
            (&mut self.merged_pairs, &o.merged_pairs),
            (&mut self.edge_visits, &o.edge_visits),
            (&mut self.removals, &o.removals),
            (&mut self.result_pairs, &o.result_pairs),
            (&mut self.seq_us, &o.seq_us),
            (&mut self.par_us, &o.par_us),
            (&mut self.match_pattern_ms, &o.match_pattern_ms),
            (&mut self.fingerprint_ms, &o.fingerprint_ms),
            (&mut self.all_hit_batch_ms, &o.all_hit_batch_ms),
            (&mut self.miss_batch_ms, &o.miss_batch_ms),
        ] {
            a.extend(b);
        }
        self.mix.views_only += o.mix.views_only;
        self.mix.hybrid += o.mix.hybrid;
        self.mix.direct += o.mix.direct;
        self.mix.parallel += o.mix.parallel;
        self.probe_mismatches += o.probe_mismatches;
    }

    /// Writes the per-layer values these samples determine.
    pub fn report(&self, out: &mut BTreeMap<&'static str, f64>) {
        let merged = self.merged_pairs.sum();
        for (k, v) in [
            ("engine.plan_p50_us", self.plan_us.median()),
            ("engine.plan_p99_us", self.plan_us.quantile(0.99)),
            ("containment.contain_us", self.contain_us.median()),
            ("minimal.minimal_us", self.minimal_us.median()),
            ("minimum.minimum_us", self.minimum_us.median()),
            ("engine.execute_p50_us", self.execute_us.median()),
            ("engine.execute_p99_us", self.execute_us.quantile(0.99)),
            ("matchjoin.merged_pairs", self.merged_pairs.mean()),
            ("matchjoin.edge_visits", self.edge_visits.mean()),
            ("matchjoin.removals", self.removals.mean()),
            ("matchjoin.result_pairs", self.result_pairs.mean()),
            (
                "matchjoin.result_per_merged",
                ratio(self.result_pairs.sum(), merged),
            ),
            ("matchjoin.seq_us", self.seq_us.median()),
            ("parallel.par_us", self.par_us.median()),
            ("matching.match_pattern_ms", self.match_pattern_ms.median()),
            ("storage.graph_fingerprint_ms", self.fingerprint_ms.median()),
            (
                "service.all_hit_batch_p50_ms",
                self.all_hit_batch_ms.median(),
            ),
            ("service.miss_batch_p50_ms", self.miss_batch_ms.median()),
        ] {
            out.insert(k, v);
        }
        for (k, v) in self.mix.shares() {
            out.insert(k, v);
        }
    }
}

/// Times `QueryEngine::plan`.
pub fn plan(
    tr: &mut Tracer,
    op: &OpenOp,
    engine: &QueryEngine,
    q: &Pattern,
    ls: &mut LayerSamples,
) -> QueryPlan {
    let (plan, d) = tr.time(op, "engine.plan", || engine.plan(q));
    ls.plan_us.push(us(d));
    plan
}

/// Times the three view-selection algorithms on the engine's catalogue.
pub fn selection(
    tr: &mut Tracer,
    op: &OpenOp,
    engine: &QueryEngine,
    q: &Pattern,
    ls: &mut LayerSamples,
) {
    let views = engine.views();
    let (_, d) = tr.time(op, "containment.contain", || contain(q, views));
    ls.contain_us.push(us(d));
    let (_, d) = tr.time(op, "minimal.minimal", || minimal(q, views));
    ls.minimal_us.push(us(d));
    let (_, d) = tr.time(op, "minimum.minimum", || minimum(q, views));
    ls.minimum_us.push(us(d));
}

/// Times `QueryEngine::execute` of `plan` and checks its answer equals the
/// request's. Returns the execution time in µs (0 on error).
#[allow(clippy::too_many_arguments)]
pub fn execute(
    tr: &mut Tracer,
    op: &OpenOp,
    engine: &QueryEngine,
    q: &Pattern,
    plan: &QueryPlan,
    g: Option<&DataGraph>,
    served: &MatchResult,
    ls: &mut LayerSamples,
) -> f64 {
    let (out, d) = tr.time(op, "engine.execute", || engine.execute(q, plan, g));
    match out {
        Ok((r, st)) => {
            ls.execute_us.push(us(d));
            if matches!(plan, QueryPlan::Direct { .. }) {
                ls.match_pattern_ms.push(ms(d));
            } else {
                ls.merged_pairs.push(st.merged_pairs as f64);
                ls.edge_visits.push(st.edge_visits as f64);
                ls.removals.push(st.removals as f64);
                ls.result_pairs.push(r.size() as f64);
            }
            if r != *served {
                ls.probe_mismatches += 1;
            }
            us(d)
        }
        Err(_) => {
            ls.probe_mismatches += 1;
            0.0
        }
    }
}

/// Times the sequential and the two-thread parallel MatchJoin on the same
/// λ, so the two executors can be compared on every plan.
pub fn executors(
    tr: &mut Tracer,
    op: &OpenOp,
    engine: &QueryEngine,
    q: &Pattern,
    vp: &ViewPlan,
    ls: &mut LayerSamples,
) {
    let ext = engine.extensions();
    let (seq, d) = tr.time(op, "matchjoin.seq", || {
        match_join_with(q, &vp.plan, ext, JoinStrategy::RankedBottomUp)
    });
    ls.seq_us.push(us(d));
    let (par, d) = tr.time(op, "parallel.par", || par_match_join(q, &vp.plan, ext, 2));
    ls.par_us.push(us(d));
    match (seq, par) {
        (Ok((a, _)), Ok((b, _))) if a == b => {}
        _ => ls.probe_mismatches += 1,
    }
}

/// Counts the plan kinds of a served batch. Returns whether any query in
/// it planned or executed (a miss batch) rather than coming from a cache.
pub fn classify(answers: &[&ServedAnswer], ls: &mut LayerSamples) -> bool {
    let mut executed = false;
    for a in answers {
        ls.mix.add(&a.plan);
        executed |= executed_here(a);
    }
    executed
}

fn executed_here(a: &ServedAnswer) -> bool {
    matches!(
        a.disposition(),
        CacheDisposition::Planned | CacheDisposition::PlanCache
    )
}

/// Probes one served batch: planning and execution for each query that
/// executed (a plan-cache hit skipped planning, but a miss on the same
/// query would pay it), and one graph fingerprint when some plan read the
/// graph (the service validates the graph then).
pub fn batch(
    tr: &mut Tracer,
    op: &OpenOp,
    engine: &QueryEngine,
    queries: &[&Pattern],
    answers: &[&ServedAnswer],
    g: &DataGraph,
    ls: &mut LayerSamples,
) {
    for (q, a) in queries.iter().zip(answers) {
        if executed_here(a) {
            plan(tr, op, engine, q, ls);
            selection(tr, op, engine, q, ls);
            execute(tr, op, engine, q, &a.plan, Some(g), &a.result, ls);
        }
    }
    if answers.iter().any(|a| a.plan.needs_graph()) {
        let (_, d) = tr.time(op, "storage.graph_fingerprint", || {
            gpv_core::storage::graph_fingerprint(g)
        });
        ls.fingerprint_ms.push(ms(d));
    }
}
