//! End-to-end and per-layer benchmark of the graph-views stack.
//!
//! Three workloads, each driven only through the stack's public functions:
//!
//! * `join` — `QueryEngine::answer_from_views` over an Amazon emulator
//!   graph, one client: the MatchJoin executors do almost all the work;
//! * `serve` — `ViewService::serve_batch` from two clients over a YouTube
//!   emulator graph, with a result cache smaller than the answers' working
//!   set and a store restored from shards;
//! * `update` — rounds of `serve_batch` reads and one `apply_delta` write
//!   over a large synthetic graph.
//!
//! An untraced run reports the [`END_TO_END`] metrics. A traced run
//! (`--trace 1`) splits its time between an untraced phase and a traced
//! phase in which every request is a span and the layer calls it used are
//! timed again from outside as child *probe* spans; it reports the
//! [`PER_LAYER`] metrics. [`Workload::MEASURED`] are the workloads
//! `BENCHMARK.json` lists. Every answer is checked against `match_pattern` on the graph
//! version it was served against. `BENCHMARK.md` documents the metrics.

#![forbid(unsafe_code)]

pub mod join;
pub mod probe;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod update;

use gpv_generator::{
    ExecKnob, GraphSource, PatternShape, QueryMode, Scenario, ScenarioInputs, WeightsKnob,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Views-only answering, executor-bound.
    Join,
    /// Concurrent batch serving through the caches.
    Serve,
    /// Reads interleaved with edge-delta writes.
    Update,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Join, Workload::Serve, Workload::Update];

    /// The workloads `BENCHMARK.json` lists. `serve` runs by hand only: on
    /// the 2-vCPU host the sizes were chosen on, its figures spread across
    /// seeds by more than the bounds allow (see `BENCHMARK.md`).
    pub const MEASURED: [Workload; 2] = [Workload::Join, Workload::Update];

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Join => "join",
            Workload::Serve => "serve",
            Workload::Update => "update",
        }
    }
}

/// Input scale: the measured size, or a tiny one for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes (see `BENCHMARK.md`).
    Full,
    /// Small inputs that run in well under a second.
    Tiny,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Whether to run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Directory for the shard store and the span file.
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// Length of each timed phase: the whole run when untraced; half of it
    /// for each of a traced run's two phases, the untraced one being the
    /// baseline of the tracing overhead.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("qps", "queries/s"),
    ("view_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer a
/// workload does not use reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("read_p99_ms", "ms"),
    ("engine.plan_p50_us", "us"),
    ("engine.plan_p99_us", "us"),
    ("containment.contain_us", "us"),
    ("minimal.minimal_us", "us"),
    ("minimum.minimum_us", "us"),
    ("engine.plan_views_only", "fraction"),
    ("engine.plan_hybrid", "fraction"),
    ("engine.plan_direct", "fraction"),
    ("store.views", "count"),
    ("engine.execute_p50_us", "us"),
    ("engine.execute_p99_us", "us"),
    ("matchjoin.merged_pairs", "count"),
    ("matchjoin.edge_visits", "count"),
    ("matchjoin.removals", "count"),
    ("matchjoin.result_pairs", "count"),
    ("matchjoin.result_per_merged", "fraction"),
    ("parallel.share", "fraction"),
    ("matchjoin.seq_us", "us"),
    ("parallel.par_us", "us"),
    ("matching.match_pattern_ms", "ms"),
    ("matching.speedup_views", "ratio"),
    ("storage.graph_fingerprint_ms", "ms"),
    ("service.all_hit_batch_p50_ms", "ms"),
    ("service.miss_batch_p50_ms", "ms"),
    ("service.result_hit_rate", "fraction"),
    ("service.plan_hit_rate", "fraction"),
    ("service.dedup_saved", "count"),
    ("service.result_evictions", "count"),
    ("service.engine_rebuilds", "count"),
    ("service.result_cache_mb", "MB"),
    ("store.materialize_s", "s"),
    ("store.view_pairs", "count"),
    ("shard.save_s", "s"),
    ("shard.load_s", "s"),
    ("shard.bytes_per_pair", "bytes/pair"),
    ("store.snapshot_us", "us"),
    ("engine.from_snapshot_us", "us"),
    ("delta.apply_to_ms", "ms"),
    ("delta.footprint_us", "us"),
    ("maintenance.affected", "count"),
    ("maintenance.changed", "count"),
    ("maintenance.unaffected", "count"),
    ("maintenance.changed_per_affected", "fraction"),
    ("maintenance.first_write_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("edge_updates_per_s", "ops/s"),
    ("store.view_mb_end", "MB"),
    ("fail_ratio", "fraction"),
    ("run.reads", "count"),
    ("run.writes", "count"),
    ("trace.untraced_read_p50_ms", "ms"),
    ("trace.traced_read_p50_ms", "ms"),
    ("trace.overhead_read_p50_ms", "ms"),
    ("trace.probe_share", "fraction"),
];

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (queries answered plus writes).
    pub attempted: u64,
    /// Operations that returned an error, panicked, or answered wrongly.
    pub failed: u64,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The workload record: seed, generator descriptor, measured sizes.
    pub record: Vec<(String, Value)>,
    /// Spans of the traced phase.
    pub spans: trace::Tracer,
}

impl Measured {
    /// Records the end-to-end values of an untraced phase that lasted
    /// `span_s` on its clock.
    fn end_to_end_from(
        &mut self,
        setup_s: &stats::Samples,
        reads: &stats::Reads,
        span_s: f64,
        view_bytes: usize,
    ) {
        self.record.push(("setup_s".into(), setup_s.record()));
        for (k, v) in [
            ("setup_s", setup_s.median()),
            ("read_p50_ms", reads.p50_ms()),
            ("qps", reads.qps(span_s)),
            ("view_mb", mb(view_bytes)),
        ] {
            self.end_to_end.insert(k, v);
        }
    }

    /// Records the p99 read latency over both phases (so that more than
    /// 1,000 reads back it), the traced phase's read count and the tracing
    /// overhead: the traced minus the untraced median read latency.
    fn overhead_from(&mut self, untraced: &stats::Reads, traced: &stats::Reads) {
        let (before, after) = (untraced.p50_ms(), traced.p50_ms());
        let mut all = untraced.clone();
        all.extend(traced);
        for (k, v) in [
            ("read_p99_ms", all.p99_ms()),
            ("run.reads", traced.len() as f64),
            ("trace.untraced_read_p50_ms", before),
            ("trace.traced_read_p50_ms", after),
            ("trace.overhead_read_p50_ms", after - before),
        ] {
            self.per_layer.insert(k, v);
        }
    }
}

/// A finished run: counts plus the metric set the mode reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The workload record line.
    pub record: Value,
    /// Spans of the traced phase (empty when untraced).
    pub spans: trace::Tracer,
}

impl Outcome {
    /// Whether every operation succeeded with a correct answer.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted.into())),
            ("failed".into(), Value::Int(self.failed.into())),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&v).expect("result serializes")
    }
}

/// Runs one workload and selects the metrics its mode reports.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut m = match cfg.workload {
        Workload::Join => join::run(cfg),
        Workload::Serve => serve::run(cfg),
        Workload::Update => update::run(cfg),
    };
    m.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    m.per_layer.insert(
        "fail_ratio",
        stats::ratio(m.failed as f64, m.attempted as f64),
    );
    m.per_layer
        .insert("trace.probe_share", trace::probe_share(m.spans.spans()));
    let (table, values): (&[(&str, &str)], _) = if cfg.trace {
        (&PER_LAYER, &m.per_layer)
    } else {
        (&END_TO_END, &m.end_to_end)
    };
    let metrics = table
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let mut record = vec![
        (
            "workload".to_string(),
            Value::Str(cfg.workload.name().into()),
        ),
        ("seed".to_string(), Value::Int(cfg.seed.into())),
        ("seconds".to_string(), Value::Float(cfg.seconds)),
        ("trace".to_string(), Value::Bool(cfg.trace)),
        ("nproc".to_string(), Value::Int(nproc().into())),
    ];
    record.append(&mut m.record);
    Outcome {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        record: Value::Object(record),
        spans: m.spans,
    }
}

/// The knobs every workload's [`Scenario`] shares; the workloads fill in
/// graph, pool and schedule. Only the input knobs describe the run: the
/// benchmark serves under the default engine and service configuration
/// (plus the `serve` cache budget), not the descriptor's config knobs.
fn base_scenario(seed: u64) -> Scenario {
    Scenario {
        seed,
        graph: GraphSource::Amazon { nodes: 0 },
        queries: 0,
        query_nodes: 4,
        query_edges: 4,
        shape: PatternShape::Any,
        max_bound: 1,
        zipf_s: 0.0,
        batch_len: 1,
        rounds: 1,
        updates_per_round: 0,
        delta_batch_len: 0,
        delete_ratio: 0.5,
        coverage: 1.0,
        max_fragment: 3,
        mode: QueryMode::Contain,
        exec: ExecKnob::Sequential,
        threads: 2,
        chunk_pairs: 65_536,
        weights: WeightsKnob::Default,
        recalibrate_every: 0,
        result_cache_bytes: 64 << 20,
        plan_cache_capacity: 4096,
        shards: SHARDS,
    }
}

/// Set-ups per run; `setup_s` is their median.
pub fn setup_reps(size: Size) -> usize {
    match size {
        Size::Full => 5,
        Size::Tiny => 2,
    }
}

/// Store shard count (the `gpv serve` default).
pub const SHARDS: usize = 8;

/// Seed of the query pools. The pool, and the views that cover it, are the
/// same in every run; the run's seed draws the graph, the request
/// schedule and the delta stream. Pool composition then does not move the
/// figures from seed to seed, which a 32-query pool otherwise does by ±20%.
pub const POOL_SEED: u64 = 0x5eed_9001;

/// The descriptor whose queries and views the runs of `sc` use.
pub fn pool_scenario(sc: &Scenario) -> Scenario {
    Scenario {
        seed: POOL_SEED,
        ..sc.clone()
    }
}

/// Builds a run's inputs: graph, schedules and deltas from `sc`, queries and
/// views from [`pool_scenario`]. The pool is drawn over a 64-node graph of
/// the same source; queries and views do not depend on the graph's size.
pub fn generate(sc: &Scenario) -> (ScenarioInputs, Duration) {
    let t = Instant::now();
    let small = match sc.graph {
        GraphSource::Synthetic { labels, .. } => GraphSource::Synthetic {
            nodes: 64,
            edges: 128,
            labels,
        },
        GraphSource::Amazon { .. } => GraphSource::Amazon { nodes: 64 },
        GraphSource::YouTube { .. } => GraphSource::YouTube { nodes: 64 },
        other => other,
    };
    let pool = Scenario {
        graph: small,
        rounds: 1,
        ..pool_scenario(sc)
    }
    .materialize();
    let mut inputs = sc.materialize();
    inputs.queries = pool.queries;
    inputs.views = pool.views;
    (inputs, t.elapsed())
}

/// Record entries describing the generated inputs: the run's descriptor
/// (graph, schedules, deltas) and the pool's (queries, views). Neither
/// descriptor alone replays the run; [`generate`] combines the two.
fn scenario_record(sc: &Scenario, gen: Duration) -> Vec<(String, Value)> {
    vec![
        ("scenario".into(), Value::Str(sc.to_json_line())),
        (
            "pool_scenario".into(),
            Value::Str(pool_scenario(sc).to_json_line()),
        ),
        (
            "replay".into(),
            Value::Str(
                "graph, schedule and deltas from `scenario`; queries and views from \
                 `pool_scenario` drawn over a 64-node graph of the same source; \
                 neither descriptor alone replays the run"
                    .into(),
            ),
        ),
        ("generate_s".into(), Value::Float(gen.as_secs_f64())),
    ]
}

/// Runs `f`, returning its result and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Runs `f`, turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Bytes of the files in `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// A size as a JSON integer.
pub fn int(x: usize) -> Value {
    Value::Int(x as i128)
}

/// Bytes to MB.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Cores available to this process.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Counts of plan kinds: (views-only, hybrid, direct).
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanMix {
    /// Views-only plans.
    pub views_only: u64,
    /// Hybrid plans.
    pub hybrid: u64,
    /// Direct plans.
    pub direct: u64,
    /// Views-only plans sent to the parallel executor.
    pub parallel: u64,
}

impl PlanMix {
    /// Counts one plan.
    pub fn add(&mut self, plan: &gpv_core::QueryPlan) {
        use gpv_core::{ExecStrategy, QueryPlan};
        match plan {
            QueryPlan::ViewsOnly(vp) => {
                self.views_only += 1;
                if matches!(vp.exec, ExecStrategy::Parallel { .. }) {
                    self.parallel += 1;
                }
            }
            QueryPlan::Hybrid { .. } => self.hybrid += 1,
            QueryPlan::Direct { .. } => self.direct += 1,
        }
    }

    fn total(&self) -> f64 {
        (self.views_only + self.hybrid + self.direct) as f64
    }

    /// Shares of each kind, and the parallel share of views-only plans.
    pub fn shares(&self) -> [(&'static str, f64); 4] {
        let t = self.total();
        [
            (
                "engine.plan_views_only",
                stats::ratio(self.views_only as f64, t),
            ),
            ("engine.plan_hybrid", stats::ratio(self.hybrid as f64, t)),
            ("engine.plan_direct", stats::ratio(self.direct as f64, t)),
            (
                "parallel.share",
                stats::ratio(self.parallel as f64, self.views_only as f64),
            ),
        ]
    }

    /// The mix as a record entry.
    pub fn record(&self) -> Value {
        Value::Object(
            self.shares()
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::Float(v)))
                .collect(),
        )
    }
}
