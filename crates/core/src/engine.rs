//! The unified query-answering engine.
//!
//! [`QueryEngine`] is the single decision point for "answer `Qs` given what
//! we have cached": it owns a view registry (definitions + materialized
//! extensions, interchangeable with [`ViewCache`]
//! for durability), produces an explicit [`QueryPlan`] IR, and executes it —
//! choosing among the paper's algorithms instead of making the caller pick:
//!
//! * **Analyze** — containment via [`contain`](crate::containment::contain)
//!   (or [`bcontain`](crate::bcontainment::bcontain) for bounded queries,
//!   [`partial_contain`](crate::partial::partial_contain) for partial
//!   coverage) — one shared view-match sweep per query;
//! * **Select** — `all` vs [`minimal`](crate::minimal::minimal) vs
//!   [`minimum`](crate::minimum::minimum) view selection, costed
//!   by the [`CostModel`] against the actual extension sizes, plus the
//!   per-edge [`EdgeSource`] decision (smallest covering extension vs
//!   surgical graph scan — cost-based hybrid sourcing);
//! * **Execute** — sequential or thread-parallel `MatchJoin` /
//!   `BMatchJoin`, hybrid join, or direct `Match` fallback, honoring the
//!   plan's per-edge sources verbatim.
//!
//! The engine is **adaptive**: every execution records a [`CostSample`]
//! (estimate, executor stats, wall time) into a bounded [`CostLog`], and
//! [`QueryEngine::apply_calibration`] least-squares-fits the cost weights
//! from those measurements, closing the estimate→measure→re-fit loop.
//!
//! The contract (Theorem 1/8), now as an engine guarantee: for every query
//! and graph, [`QueryEngine::answer`] equals
//! [`match_pattern`], touching `G`
//! only when the views genuinely cannot cover the query.

use crate::bview::{bmaterialize, BoundedViewExtensions, BoundedViewSet};
use crate::containment::{ContainmentPlan, ViewEdgeRef};
use crate::cost::{CostEstimate, CostLog, CostModel, CostSample, SharedCostLog};
use crate::matchjoin::{run_fixpoint, JoinError, JoinStats, JoinStrategy};
use crate::parallel::{auto_threads, par_fixpoint};
use crate::partial::{best_cover, merged_from_sources, PartialPlan};
use crate::plan::{EdgeSource, ExecStrategy, FallbackReason, QueryPlan, SelectionMode, ViewPlan};
use crate::selection::{select_views_for_workload, WorkloadSelection};
use crate::storage::{graph_fingerprint, BoundedViewCache, ViewCache};
use crate::store::{StoreSnapshot, ViewStore};
use crate::view::{materialize, ViewDef, ViewExtensions, ViewSet};
use gpv_graph::stats::GraphStats;
use gpv_graph::DataGraph;
use gpv_matching::result::{BoundedMatchResult, MatchResult};
use gpv_matching::simulation::match_pattern;
use gpv_pattern::{BoundedPattern, Pattern};
use std::sync::Arc;
use std::time::Instant;

/// Engine tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// The cost model the planner consults.
    pub cost: CostModel,
    /// Worker threads for the parallel executor (`0` = auto-detect).
    pub threads: usize,
    /// Pin the view-selection mode instead of costing the alternatives.
    pub force_selection: Option<SelectionMode>,
    /// Pin the execution strategy instead of letting the cost model gate
    /// parallelism.
    pub force_exec: Option<ExecStrategy>,
}

/// Errors from engine planning/execution.
#[derive(Debug)]
pub enum EngineError {
    /// `Qs ⋢ V` and the call does not permit graph access.
    NotContained,
    /// The chosen plan needs the data graph, but none was supplied.
    NeedsGraph,
    /// No bounded views are registered.
    NoBoundedViews,
    /// `Qb ⋢ V` for the bounded view registry.
    BoundedNotContained,
    /// A view registered against a different graph than the one supplied.
    GraphMismatch {
        /// Fingerprint the registry was materialized against.
        expected: u64,
        /// Fingerprint of the graph supplied now.
        actual: u64,
    },
    /// Executor failure (plan/extension mismatch).
    Join(JoinError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NotContained => {
                write!(f, "query is not contained in the registered views")
            }
            EngineError::NeedsGraph => {
                write!(f, "plan requires graph access but no graph was supplied")
            }
            EngineError::NoBoundedViews => write!(f, "no bounded views registered"),
            EngineError::BoundedNotContained => {
                write!(
                    f,
                    "bounded query is not contained in the registered bounded views"
                )
            }
            EngineError::GraphMismatch { expected, actual } => write!(
                f,
                "views were materialized for graph {expected:#x}, not {actual:#x}"
            ),
            EngineError::Join(e) => write!(f, "join failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<JoinError> for EngineError {
    fn from(e: JoinError) -> Self {
        EngineError::Join(e)
    }
}

/// A costed bounded-query plan (the bounded analogue of
/// [`ViewPlan`]; bounded queries have no hybrid fallback in the paper, so
/// the plan is always views-only or an error).
#[derive(Clone, Debug, PartialEq)]
pub struct BoundedPlan {
    /// Which selection algorithm chose the views.
    pub selection: SelectionMode,
    /// Selected view indices.
    pub views: Vec<usize>,
    /// The λ for `BMatchJoin`.
    pub plan: ContainmentPlan,
    /// Join execution strategy.
    pub exec: ExecStrategy,
    /// Estimated cost.
    pub cost: CostEstimate,
}

/// Registry + planner + executor for answering pattern queries using views.
///
/// ```
/// use gpv_core::engine::QueryEngine;
/// use gpv_core::view::{ViewDef, ViewSet};
/// use gpv_graph::GraphBuilder;
/// use gpv_pattern::PatternBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node(["A"]);
/// let c = b.add_node(["B"]);
/// b.add_edge(a, c);
/// let g = b.build();
///
/// let mut p = PatternBuilder::new();
/// let u = p.node_labeled("A");
/// let v = p.node_labeled("B");
/// p.edge(u, v);
/// let q = p.build().unwrap();
///
/// let views = ViewSet::new(vec![ViewDef::new("v", q.clone())]);
/// let engine = QueryEngine::materialize(views, &g);
/// // Theorem 1: answered from the materialized view, no access to `g`.
/// let r = engine.answer_from_views(&q).unwrap();
/// assert_eq!(r, gpv_matching::simulation::match_pattern(&q, &g));
/// ```
#[derive(Clone, Debug)]
pub struct QueryEngine {
    /// `Arc`-shared with the snapshot/store the engine was built from, so
    /// rebuilding after a store mutation never copies definitions…
    views: Arc<ViewSet>,
    /// …or materialized pairs: the executors only borrow the extensions,
    /// and each per-view extension is itself `Arc`-shared
    /// ([`ViewExtensions`]).
    ext: Arc<ViewExtensions>,
    bounded: Option<(BoundedViewSet, BoundedViewExtensions)>,
    fingerprint: u64,
    graph_stats: Option<GraphStats>,
    config: EngineConfig,
    /// Estimate-vs-actual feedback: every executed plan records a
    /// [`CostSample`] here; [`Self::apply_calibration`] re-fits the cost
    /// weights from it. Shared (`Arc`) so clones — and the serving layer
    /// across engine rebuilds — accumulate into one history.
    cost_log: SharedCostLog,
}

impl QueryEngine {
    /// Materializes `views` over `g` and builds an engine around them.
    pub fn materialize(views: ViewSet, g: &DataGraph) -> Self {
        let ext = materialize(&views, g);
        QueryEngine {
            views: Arc::new(views),
            ext: Arc::new(ext),
            bounded: None,
            fingerprint: graph_fingerprint(g),
            graph_stats: Some(gpv_graph::stats::stats(g)),
            config: EngineConfig::default(),
            cost_log: SharedCostLog::default(),
        }
    }

    /// Wraps an already-materialized (e.g. loaded) view cache.
    pub fn from_cache(cache: ViewCache) -> Self {
        QueryEngine {
            views: Arc::new(cache.views),
            ext: Arc::new(cache.extensions),
            bounded: None,
            fingerprint: cache.graph_fingerprint,
            graph_stats: cache.graph_stats,
            config: EngineConfig::default(),
            cost_log: SharedCostLog::default(),
        }
    }

    /// Builds an engine over a [`StoreSnapshot`] of a sharded
    /// [`ViewStore`] — the serving-layer path:
    /// [`ViewService`](crate::service::ViewService) takes one snapshot per
    /// store version and plans/executes against it lock-free.
    ///
    /// **Zero-copy**: the snapshot's view set and extensions are shared by
    /// `Arc`, so this is O(1) regardless of how many pairs the store
    /// materializes — a rebuild after a single-view insert costs the
    /// snapshot assembly (O(card(V)) handle clones), never a deep copy.
    pub fn from_snapshot(snap: &StoreSnapshot) -> Self {
        QueryEngine {
            views: snap.view_set(),
            ext: snap.extensions(),
            bounded: None,
            fingerprint: snap.graph_fingerprint,
            graph_stats: snap.graph_stats.clone(),
            config: EngineConfig::default(),
            cost_log: SharedCostLog::default(),
        }
    }

    /// Shards this engine's plain-view registry into a concurrent
    /// [`ViewStore`] (ids assigned in registry order).
    pub fn to_store(&self, shards: usize) -> ViewStore {
        ViewStore::from_cache(self.to_cache(), shards)
    }

    /// Extracts a durable [`ViewCache`] snapshot of the plain-view registry
    /// (the extensions stay `Arc`-shared; only handles are cloned).
    pub fn to_cache(&self) -> ViewCache {
        ViewCache {
            graph_fingerprint: self.fingerprint,
            graph_stats: self.graph_stats.clone(),
            views: (*self.views).clone(),
            extensions: (*self.ext).clone(),
        }
    }

    /// Replaces the engine configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the engine configuration in place (e.g. to re-plan the same
    /// registry under different forced modes, without re-materializing).
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// Shares an external [`CostLog`] handle — the serving layer passes the
    /// same handle into every rebuilt engine so calibration sees the whole
    /// measurement history, not just the current snapshot's.
    pub fn with_cost_log(mut self, log: SharedCostLog) -> Self {
        self.cost_log = log;
        self
    }

    /// A point-in-time copy of the recorded estimate-vs-actual samples.
    pub fn cost_log(&self) -> CostLog {
        self.cost_log.snapshot()
    }

    /// The shared cost-log handle (records survive engine rebuilds when the
    /// caller keeps it).
    pub fn cost_log_handle(&self) -> SharedCostLog {
        self.cost_log.clone()
    }

    /// The active cost model (default or calibrated).
    pub fn cost_model(&self) -> &CostModel {
        &self.config.cost
    }

    /// Least-squares re-fit of the cost weights from the recorded samples
    /// ([`CostModel::calibrate`]), without installing it. `None` when the
    /// log is too small or degenerate.
    pub fn calibrate(&self) -> Option<CostModel> {
        self.config.cost.calibrate(&self.cost_log.snapshot())
    }

    /// Calibrates and installs the fitted weights, so subsequent plans are
    /// priced in measured units. Returns whether a fit was applied.
    pub fn apply_calibration(&mut self) -> bool {
        match self.calibrate() {
            Some(cm) => {
                self.config.cost = cm;
                true
            }
            None => false,
        }
    }

    /// Mean relative estimate error of the *active* weights over the
    /// recorded samples — the calibration-drift gauge (`None` with no
    /// samples). Calibration should drive this down; it creeping back up
    /// means the workload shifted and a re-fit is due.
    pub fn estimate_error(&self) -> Option<f64> {
        self.config
            .cost
            .mean_relative_error(&self.cost_log.snapshot())
    }

    /// Workload-aware view advisor (the ROADMAP's "wire
    /// [`select_views_for_workload`] into the registry"): greedily picks at
    /// most `budget` of the *registered* views maximizing the (weighted)
    /// number of fully-answered workload queries — i.e. which materialized
    /// views earn their keep for this traffic, and which queries would
    /// still fall back to `G`.
    ///
    /// ```
    /// use gpv_core::engine::QueryEngine;
    /// use gpv_core::view::{ViewDef, ViewSet};
    /// use gpv_graph::GraphBuilder;
    /// use gpv_pattern::PatternBuilder;
    ///
    /// let mut b = GraphBuilder::new();
    /// let a = b.add_node(["A"]);
    /// let c = b.add_node(["B"]);
    /// b.add_edge(a, c);
    /// let g = b.build();
    ///
    /// let mut p = PatternBuilder::new();
    /// let u = p.node_labeled("A");
    /// let v = p.node_labeled("B");
    /// p.edge(u, v);
    /// let q = p.build().unwrap();
    ///
    /// let views = ViewSet::new(vec![ViewDef::new("v", q.clone())]);
    /// let engine = QueryEngine::materialize(views, &g);
    /// let advice = engine.advise_views(&[q], 1, None);
    /// assert_eq!(advice.views, vec![0]);
    /// assert!(advice.answered[0]);
    /// ```
    pub fn advise_views(
        &self,
        workload: &[Pattern],
        budget: usize,
        weights: Option<&[f64]>,
    ) -> WorkloadSelection {
        select_views_for_workload(workload, &self.views, budget, weights)
    }

    /// Registers bounded views (materializing their distance index) so
    /// [`Self::answer_bounded`] can serve bounded queries.
    pub fn with_bounded_views(mut self, views: BoundedViewSet, g: &DataGraph) -> Self {
        let ext = bmaterialize(&views, g);
        self.bounded = Some((views, ext));
        self
    }

    /// Wraps a loaded bounded-view cache into the engine.
    pub fn with_bounded_cache(mut self, cache: BoundedViewCache) -> Self {
        self.bounded = Some((cache.views, cache.extensions));
        self
    }

    /// The registered view definitions.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// The materialized extensions `V(G)` (shared with the snapshot/store
    /// this engine was built from; see [`ViewExtensions`] for the sharing
    /// contract).
    pub fn extensions(&self) -> &ViewExtensions {
        &self.ext
    }

    /// Fingerprint of the graph the registry was materialized against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Materializes and registers one more view; returns its index.
    /// Fails when `g` is not the graph the registry was built on.
    pub fn add_view(&mut self, def: ViewDef, g: &DataGraph) -> Result<usize, EngineError> {
        let actual = graph_fingerprint(g);
        if actual != self.fingerprint {
            return Err(EngineError::GraphMismatch {
                expected: self.fingerprint,
                actual,
            });
        }
        let single = ViewSet::new(vec![def.clone()]);
        let ext = materialize(&single, g);
        // Copy-on-write: an engine sharing its registry with a snapshot
        // detaches (cloning `Arc` handles, not pairs) before mutating.
        Arc::make_mut(&mut self.ext).push_shared(
            ext.extensions
                .into_iter()
                .next()
                .expect("one view in, one out"),
        );
        Ok(Arc::make_mut(&mut self.views).push(def))
    }

    /// Checks that `g` is the graph this registry was materialized against.
    pub fn validate_graph(&self, g: &DataGraph) -> Result<(), EngineError> {
        let actual = graph_fingerprint(g);
        if actual == self.fingerprint {
            Ok(())
        } else {
            Err(EngineError::GraphMismatch {
                expected: self.fingerprint,
                actual,
            })
        }
    }

    /// Execution-strategy decision from the total pair count the plan's
    /// merge will read: the cost model gates parallelism
    /// ([`CostModel::parallel_pays`]); [`EngineConfig::force_exec`] pins the
    /// whole strategy.
    fn exec_for(&self, pairs: u64) -> ExecStrategy {
        if let Some(exec) = self.config.force_exec {
            return exec;
        }
        let threads = if self.config.threads == 0 {
            auto_threads()
        } else {
            self.config.threads
        };
        if self.config.cost.parallel_pays(pairs, threads) {
            ExecStrategy::Parallel { threads }
        } else {
            ExecStrategy::Sequential(JoinStrategy::RankedBottomUp)
        }
    }

    /// Per-edge cost-based sourcing over a (full or partial) λ: every
    /// covered edge picks the cheaper of its pinned smallest covering
    /// extension and a surgical graph scan
    /// ([`CostModel::edge_prefers_graph`]); uncovered edges scan `G`.
    /// Returns the source vector plus the view pairs read and the number of
    /// graph-sourced edges. With the default unit-free weights every
    /// covered edge stays on its view (the paper's behaviour); calibrated
    /// weights can demote bloated extensions to scans.
    fn source_edges(
        &self,
        q: &Pattern,
        lambda: &[Vec<ViewEdgeRef>],
    ) -> (Vec<EdgeSource>, u64, usize) {
        let cm = &self.config.cost;
        let ne = q.edge_count();
        let mut sources = Vec::with_capacity(lambda.len());
        let mut pairs = 0u64;
        let mut graph_edges = 0usize;
        for entries in lambda {
            match best_cover(entries, &self.ext) {
                Some(r) => {
                    let size = self.ext.edge_set(r.view, r.edge).len() as u64;
                    let prefer_graph = self
                        .graph_stats
                        .as_ref()
                        .is_some_and(|gs| cm.edge_prefers_graph(ne, size, gs));
                    if prefer_graph {
                        sources.push(EdgeSource::Graph);
                        graph_edges += 1;
                    } else {
                        sources.push(EdgeSource::View(r));
                        pairs += size;
                    }
                }
                None => {
                    sources.push(EdgeSource::Graph);
                    graph_edges += 1;
                }
            }
        }
        (sources, pairs, graph_edges)
    }

    /// **Analyze → Select**: produces the costed plan for `q` without
    /// executing anything.
    ///
    /// Under `debug_assertions` every produced plan runs through the
    /// static verifier ([`crate::verify::verify_plan`]) before it is
    /// returned — an unsound plan (unsourced edge, out-of-range or
    /// non-covering view reference, views-only plan touching `G`) is a
    /// planner bug and aborts immediately instead of surfacing later as a
    /// wrong answer.
    pub fn plan(&self, q: &Pattern) -> QueryPlan {
        let plan = self.plan_unverified(q);
        #[cfg(debug_assertions)]
        {
            let errors =
                crate::verify::errors_only(crate::verify::verify_plan(q, &plan, &self.views));
            debug_assert!(
                errors.is_empty(),
                "planner produced an unsound plan for {q:?}: {errors:?}"
            );
        }
        plan
    }

    fn plan_unverified(&self, q: &Pattern) -> QueryPlan {
        let cm = &self.config.cost;
        let zero_stats = GraphStats {
            nodes: 0,
            edges: 0,
            avg_out_degree: 0.0,
            max_out_degree: 0,
            max_in_degree: 0,
            labels: 0,
            alpha: 0.0,
        };
        let gstats = self.graph_stats.clone().unwrap_or(zero_stats);

        if q.edge_count() == 0 {
            return QueryPlan::Direct {
                reason: FallbackReason::NoEdges,
                cost: cm.direct(q, &gstats),
            };
        }
        if self.views.card() == 0 {
            return QueryPlan::Direct {
                reason: FallbackReason::NoViews,
                cost: cm.direct(q, &gstats),
            };
        }

        // One view-match sweep serves containment, partial coverage, and
        // both selection algorithms (they share the table instead of each
        // re-simulating every view against the query).
        let table = crate::minimal::ViewMatchTable::build(q, &self.views);
        match table.full_plan(q) {
            Some(full) => {
                let chosen = self.select(q, full, &table);
                let (sources, view_pairs, graph_edges) = self.source_edges(q, &chosen.plan.lambda);
                if graph_edges == 0 {
                    let exec = self.exec_for(view_pairs);
                    return QueryPlan::ViewsOnly(ViewPlan {
                        exec,
                        sources,
                        ..chosen
                    });
                }
                // Calibrated weights priced some covered edges cheaper from
                // G: emit a cost-based hybrid. Always Hybrid (never Direct),
                // even when every edge is demoted — the total-coverage λ
                // rides along so execution can fall back to the views when
                // no graph is supplied ([`QueryPlan::graph_optional`]).
                let mut cost = cm.hybrid_plan(q, view_pairs, graph_edges, &gstats);
                cost.planning = chosen.cost.planning;
                QueryPlan::Hybrid {
                    partial: PartialPlan {
                        lambda: chosen.plan.lambda,
                        uncovered: Vec::new(),
                    },
                    sources,
                    reason: FallbackReason::CostBased,
                    cost,
                }
            }
            None => {
                let partial = table.partial_plan(q);
                let direct_cost = cm.direct(q, &gstats);
                if partial.uncovered.len() == q.edge_count() {
                    return QueryPlan::Direct {
                        reason: FallbackReason::NotContained,
                        cost: direct_cost,
                    };
                }
                let (sources, view_pairs, graph_edges) = self.source_edges(q, &partial.lambda);
                let cost = cm.hybrid_plan(q, view_pairs, graph_edges, &gstats);
                // With known graph stats, take the direct baseline when the
                // covered extensions are so bloated that the hybrid plan
                // costs more than just scanning G (unknown stats keep the
                // views-preferred default).
                if self.graph_stats.is_some() && direct_cost.total < cost.total {
                    QueryPlan::Direct {
                        reason: FallbackReason::NotContained,
                        cost: direct_cost,
                    }
                } else {
                    QueryPlan::Hybrid {
                        partial,
                        sources,
                        reason: FallbackReason::NotContained,
                        cost,
                    }
                }
            }
        }
    }

    /// Costs the `all` / `minimal` / `minimum` selections and returns the
    /// candidate with the cheapest *execution* estimate (the selection
    /// algorithms have already run by comparison time, so their planning
    /// premium is recorded in [`CostEstimate::planning`] rather than
    /// charged to the choice). Ties break toward fewer views. A pinned
    /// [`EngineConfig::force_selection`] computes only the forced candidate
    /// (falling back to the full `all` λ when the pinned algorithm cannot
    /// apply — it always can when containment holds).
    fn select(
        &self,
        q: &Pattern,
        full: ContainmentPlan,
        table: &crate::minimal::ViewMatchTable,
    ) -> ViewPlan {
        use crate::minimal::minimal_from_table;
        use crate::minimum::minimum_from_table;
        let cm = &self.config.cost;
        let placeholder = ExecStrategy::Sequential(JoinStrategy::RankedBottomUp);
        let premium = cm.selection_overhead(q, self.views.card());
        // `sources` and `exec` are placeholders here: `plan` resolves the
        // per-edge sourcing and the executor for the winning candidate only.
        let candidate = |selection: SelectionMode, sel: crate::minimal::Selection| {
            let mut cost = cm.view_plan(q, &sel.plan, &self.ext);
            cost.planning = premium;
            ViewPlan {
                selection,
                views: sel.views,
                plan: sel.plan,
                sources: Vec::new(),
                exec: placeholder,
                cost,
            }
        };
        let all_candidate = |full: ContainmentPlan| ViewPlan {
            selection: SelectionMode::All,
            views: full.used_views.clone(),
            cost: cm.view_plan(q, &full, &self.ext),
            plan: full,
            sources: Vec::new(),
            exec: placeholder,
        };

        match self.config.force_selection {
            Some(SelectionMode::All) => all_candidate(full),
            Some(SelectionMode::Minimal) => match minimal_from_table(q, table) {
                Some(sel) => candidate(SelectionMode::Minimal, sel),
                None => all_candidate(full),
            },
            Some(SelectionMode::Minimum) => match minimum_from_table(q, table) {
                Some(sel) => candidate(SelectionMode::Minimum, sel),
                None => all_candidate(full),
            },
            None => {
                let mut candidates: Vec<ViewPlan> = Vec::with_capacity(3);
                if let Some(sel) = minimal_from_table(q, table) {
                    candidates.push(candidate(SelectionMode::Minimal, sel));
                }
                if let Some(sel) = minimum_from_table(q, table) {
                    candidates.push(candidate(SelectionMode::Minimum, sel));
                }
                candidates.push(all_candidate(full));
                candidates
                    .into_iter()
                    .min_by(|a, b| {
                        a.cost
                            .total
                            .partial_cmp(&b.cost.total)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.views.len().cmp(&b.views.len()))
                    })
                    .expect("at least the `all` candidate exists")
            }
        }
    }

    /// **Execute**: runs a previously-produced plan, honoring its per-edge
    /// [`EdgeSource`]s verbatim (both executors read exactly what the
    /// planner pinned). `g` is required for hybrid/direct plans
    /// ([`QueryPlan::needs_graph`]) and must be the graph this registry was
    /// materialized against — extensions from one graph say nothing about
    /// another (use [`Self::validate_graph`] when in doubt; debug builds
    /// assert it).
    ///
    /// Every execution also records a [`CostSample`] (the plan's estimate,
    /// the executor's [`JoinStats`], and the measured wall time) into the
    /// engine's [`CostLog`] — the feedback half of the calibration loop.
    pub fn execute(
        &self,
        q: &Pattern,
        plan: &QueryPlan,
        g: Option<&DataGraph>,
    ) -> Result<(MatchResult, JoinStats), EngineError> {
        if let Some(g) = g {
            debug_assert!(
                self.validate_graph(g).is_ok(),
                "QueryEngine::execute called with a different graph than the \
                 view registry was materialized against"
            );
        }
        let t0 = Instant::now();
        // The view-source fallback below executes different sources than
        // the plan priced; logging that run would pollute the calibration
        // features (scan terms with no scan executed).
        let mut record_sample = true;
        let out = match plan {
            QueryPlan::ViewsOnly(vp) => {
                let merged = merged_from_sources(q, &vp.sources, &self.ext, None)?;
                match vp.exec {
                    ExecStrategy::Sequential(strategy) => run_fixpoint(q, merged, strategy)?,
                    ExecStrategy::Parallel { threads } => par_fixpoint(q, merged, threads)?,
                }
            }
            QueryPlan::Hybrid {
                partial, sources, ..
            } => {
                let merged = match g {
                    Some(g) => merged_from_sources(q, sources, &self.ext, Some(g))?,
                    // No graph supplied: a *fully-covered* (cost-based)
                    // hybrid falls back to its view sources — demoting an
                    // edge to a scan is a performance preference and must
                    // never cost availability ([`QueryPlan::graph_optional`]).
                    None if partial.is_total() => {
                        record_sample = false;
                        let fallback = crate::partial::sources_from_partial(partial, &self.ext)?;
                        merged_from_sources(q, &fallback, &self.ext, None)?
                    }
                    None => return Err(EngineError::NeedsGraph),
                };
                run_fixpoint(q, merged, JoinStrategy::RankedBottomUp)?
            }
            QueryPlan::Direct { .. } => {
                let g = g.ok_or(EngineError::NeedsGraph)?;
                (match_pattern(q, g), JoinStats::default())
            }
        };
        if record_sample {
            self.cost_log.record(CostSample {
                estimate: *plan.cost(),
                stats: out.1,
                edge_count: q.edge_count(),
                wall_micros: t0.elapsed().as_secs_f64() * 1e6,
            });
        }
        Ok(out)
    }

    /// Plans and executes `q`, allowing graph fallback: equals
    /// `match_pattern(q, g)` on every input (the engine-level Theorem 1
    /// contract, asserted by `tests/engine.rs`). Precondition: `g` is the
    /// graph this registry was materialized against — the contract cannot
    /// hold for a registry built on a different graph (checked by
    /// `debug_assert`; use [`Self::validate_graph`] to check at runtime).
    pub fn answer(&self, q: &Pattern, g: &DataGraph) -> Result<MatchResult, EngineError> {
        let plan = self.plan(q);
        self.execute(q, &plan, Some(g)).map(|(r, _)| r)
    }

    /// Plans and executes `q` strictly from the materialized views — no
    /// graph access anywhere (Theorem 1's headline capability). Errors with
    /// [`EngineError::NotContained`] when `Qs ⋢ V`.
    pub fn answer_from_views(&self, q: &Pattern) -> Result<MatchResult, EngineError> {
        let plan = self.plan(q);
        if plan.graph_optional() {
            // Views-only, or a fully-covered cost-based hybrid (which
            // `execute` serves from its view-source fallback when no graph
            // is supplied).
            self.execute(q, &plan, None).map(|(r, _)| r)
        } else {
            Err(EngineError::NotContained)
        }
    }

    /// Plans a bounded query against the bounded-view registry. Same shape
    /// as `Self::select`: `all` / `minimal` / `minimum` costed by pairs
    /// read (plus the selection premium), cheapest wins, pinned mode
    /// computes only the pinned candidate.
    pub fn plan_bounded(&self, qb: &BoundedPattern) -> Result<BoundedPlan, EngineError> {
        use crate::bcontainment::{bcontain_from_table, bminimal_from_table, bminimum_from_table};
        let (views, ext) = self.bounded.as_ref().ok_or(EngineError::NoBoundedViews)?;
        let cm = &self.config.cost;
        // As in `plan`: one bounded view-match sweep shared by containment
        // and both selection algorithms.
        let table = crate::bcontainment::BTable::build(qb, views);
        let full = bcontain_from_table(qb, &table).ok_or(EngineError::BoundedNotContained)?;

        let placeholder = ExecStrategy::Sequential(JoinStrategy::RankedBottomUp);
        let premium = cm.selection_overhead(qb.pattern(), views.card());
        let cost_of = |plan: &ContainmentPlan, planning: f64| -> CostEstimate {
            let pairs = cm.pairs_read_bounded(&plan.lambda, ext);
            CostEstimate {
                pairs_read: pairs,
                graph_edges_scanned: 0,
                planning,
                total: cm.join_exec_cost(qb.pattern().edge_count(), pairs),
                weights: *cm,
            }
        };
        let candidate = |selection: SelectionMode, sel: crate::minimal::Selection| BoundedPlan {
            selection,
            cost: cost_of(&sel.plan, premium),
            views: sel.views,
            plan: sel.plan,
            exec: placeholder,
        };
        let all_candidate = |full: ContainmentPlan| BoundedPlan {
            selection: SelectionMode::All,
            views: full.used_views.clone(),
            cost: cost_of(&full, 0.0),
            plan: full,
            exec: placeholder,
        };

        let mut chosen = match self.config.force_selection {
            Some(SelectionMode::All) => all_candidate(full),
            Some(SelectionMode::Minimal) => match bminimal_from_table(qb, &table) {
                Some(sel) => candidate(SelectionMode::Minimal, sel),
                None => all_candidate(full),
            },
            Some(SelectionMode::Minimum) => match bminimum_from_table(qb, &table) {
                Some(sel) => candidate(SelectionMode::Minimum, sel),
                None => all_candidate(full),
            },
            None => {
                let mut candidates: Vec<BoundedPlan> = Vec::with_capacity(3);
                if let Some(sel) = bminimal_from_table(qb, &table) {
                    candidates.push(candidate(SelectionMode::Minimal, sel));
                }
                if let Some(sel) = bminimum_from_table(qb, &table) {
                    candidates.push(candidate(SelectionMode::Minimum, sel));
                }
                candidates.push(all_candidate(full));
                candidates
                    .into_iter()
                    .min_by(|a, b| {
                        a.cost
                            .total
                            .partial_cmp(&b.cost.total)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.views.len().cmp(&b.views.len()))
                    })
                    .expect("at least the `all` candidate exists")
            }
        };
        // The pairs the bounded merge reads: each edge's smallest covering
        // extension, for the same parallelism gate as `plan`.
        let pairs: u64 = chosen
            .plan
            .lambda
            .iter()
            .map(|entries| {
                entries
                    .iter()
                    .map(|r| ext.edge_set(r.view, r.edge).len() as u64)
                    .min()
                    .unwrap_or(0)
            })
            .sum();
        chosen.exec = self.exec_for(pairs);
        Ok(chosen)
    }

    /// Plans and executes a bounded query from bounded views only
    /// (Theorem 8 path).
    pub fn answer_bounded(&self, qb: &BoundedPattern) -> Result<BoundedMatchResult, EngineError> {
        let plan = self.plan_bounded(qb)?;
        let (_, ext) = self.bounded.as_ref().expect("plan_bounded checked");
        let (strategy, threads) = match plan.exec {
            ExecStrategy::Sequential(s) => (s, 0),
            ExecStrategy::Parallel { threads } => (JoinStrategy::Parallel, threads),
        };
        let (r, _) =
            crate::bmatchjoin::bmatch_join_threaded(qb, &plan.plan, ext, strategy, threads)?;
        Ok(r)
    }

    /// Human-readable EXPLAIN of the plan for `q`.
    pub fn explain(&self, q: &Pattern) -> String {
        self.plan(q).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    fn single(x: &str, y: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        b.build().unwrap()
    }

    fn chain3() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        b.build().unwrap()
    }

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(a2, b2);
        b.build()
    }

    #[test]
    fn views_only_plan_and_answer() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        assert!(
            !plan.needs_graph(),
            "contained query must not need G: {plan}"
        );
        let via_engine = engine.answer_from_views(&q).unwrap();
        assert_eq!(via_engine, match_pattern(&q, &g));
        assert_eq!(engine.answer(&q, &g).unwrap(), via_engine);
    }

    #[test]
    fn hybrid_fallback_when_partially_covered() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        assert!(matches!(plan, QueryPlan::Hybrid { .. }), "{plan}");
        assert!(engine.answer_from_views(&q).is_err());
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn direct_fallback_when_nothing_covers() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![ViewDef::new("vxy", single("X", "Y"))]);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        assert!(matches!(plan, QueryPlan::Direct { .. }), "{plan}");
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn no_views_plans_direct() {
        let g = graph();
        let q = chain3();
        let engine = QueryEngine::materialize(ViewSet::default(), &g);
        let plan = engine.plan(&q);
        assert!(matches!(
            plan,
            QueryPlan::Direct {
                reason: FallbackReason::NoViews,
                ..
            }
        ));
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn selection_prefers_smaller_read() {
        // One bloated view covers everything; two tight views cover the
        // same edges with smaller extensions. The planner must not pick a
        // selection that reads more pairs than the cheapest one.
        let mut b = GraphBuilder::new();
        let mut last = b.add_node(["A"]);
        for _ in 0..30 {
            let m = b.add_node(["B"]);
            b.add_edge(last, m);
            let c = b.add_node(["C"]);
            b.add_edge(m, c);
            last = b.add_node(["A"]);
        }
        let g = b.build();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vall", chain3()),
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let QueryPlan::ViewsOnly(vp) = engine.plan(&q) else {
            panic!("contained");
        };
        // Whatever mode won, its pairs_read is the minimum of the three.
        let cm = CostModel::default();
        let full = crate::containment::contain(&q, engine.views()).unwrap();
        let all_pairs = cm.pairs_read(&full.lambda, engine.extensions());
        assert!(vp.cost.pairs_read <= all_pairs);
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn forced_selection_and_exec_respected() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let forced = ExecStrategy::Parallel { threads: 2 };
        let engine = QueryEngine::materialize(views, &g).with_config(EngineConfig {
            force_selection: Some(SelectionMode::Minimum),
            force_exec: Some(forced),
            ..EngineConfig::default()
        });
        let QueryPlan::ViewsOnly(vp) = engine.plan(&q) else {
            panic!("contained");
        };
        assert_eq!(vp.selection, SelectionMode::Minimum);
        assert_eq!(vp.exec, forced);
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn add_view_rejects_other_graph() {
        let g = graph();
        let mut engine = QueryEngine::materialize(ViewSet::default(), &g);
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let other = b.build();
        assert!(matches!(
            engine.add_view(ViewDef::new("v", single("X", "Y")), &other),
            Err(EngineError::GraphMismatch { .. })
        ));
        assert!(engine
            .add_view(ViewDef::new("vab", single("A", "B")), &g)
            .is_ok());
        assert_eq!(engine.views().card(), 1);
        assert_eq!(engine.extensions().extensions.len(), 1);
    }

    /// `to_store(0)` must hand back a usable (1-shard) store, not one that
    /// panics with a division by zero on its first id hash.
    #[test]
    fn to_store_zero_shards_clamps() {
        let g = graph();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let engine = QueryEngine::materialize(views, &g);
        let store = engine.to_store(0);
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.len(), 1);
        let revived = QueryEngine::from_snapshot(&store.snapshot());
        let q = single("A", "B");
        assert_eq!(
            revived.answer_from_views(&q).unwrap(),
            engine.answer_from_views(&q).unwrap()
        );
    }

    #[test]
    fn cache_roundtrip_preserves_answers() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let revived = QueryEngine::from_cache(engine.to_cache());
        assert_eq!(
            revived.answer_from_views(&q).unwrap(),
            engine.answer_from_views(&q).unwrap()
        );
    }

    #[test]
    fn bounded_planning_and_answer() {
        use crate::bview::BoundedViewDef;
        use gpv_matching::bounded::bmatch_pattern;
        let g = graph();
        let mk = |x: &str, y: &str, k: u32| {
            let mut b = PatternBuilder::new();
            let u = b.node_labeled(x);
            let v = b.node_labeled(y);
            b.edge_bounded(u, v, k);
            b.build_bounded().unwrap()
        };
        let qb = mk("A", "C", 2);
        let views = BoundedViewSet::new(vec![BoundedViewDef::new("vac", mk("A", "C", 2))]);
        let engine = QueryEngine::materialize(ViewSet::default(), &g).with_bounded_views(views, &g);
        let r = engine.answer_bounded(&qb).unwrap();
        assert_eq!(r, bmatch_pattern(&qb, &g));
    }

    #[test]
    fn explain_mentions_stages() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let text = engine.explain(&q);
        assert!(text.contains("views-only"), "{text}");
        assert!(text.contains("select"), "{text}");
    }
}
