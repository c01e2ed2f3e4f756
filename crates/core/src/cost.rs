//! Cost model for the query planner ([`crate::engine::QueryEngine`]) and
//! the measured-cost calibration loop.
//!
//! Theorem 1 prices `MatchJoin` at `O(|Qs||V(G)| + |V(G)|²)` and direct
//! evaluation at `O(|Qs|² + |Qs||G| + |G|²)` — both dominated by how many
//! match pairs the executor reads and refines. The planner therefore costs
//! every candidate plan by its *pairs read*: the sum over query edges of
//! the smallest covering extension (mirroring the witness-narrowing merge in
//! `matchjoin::merge_step`), or `|G|`-proportional terms for plans
//! that must scan the graph.
//!
//! The default weights are unit-free relative factors; only comparisons
//! between candidate plans matter. The **calibration loop** turns them into
//! measured microseconds: the engine records a [`CostSample`] — estimate,
//! executor [`JoinStats`], wall time — for every executed plan into a
//! bounded [`CostLog`], and [`CostModel::calibrate`] least-squares-fits
//! `read_pair` / `refine_pair` / `scan_edge` against those measurements, so
//! subsequent plans are priced in the units the hardware actually exhibits.

use crate::bview::BoundedViewExtensions;
use crate::containment::{ContainmentPlan, ViewEdgeRef};
use crate::matchjoin::JoinStats;
use crate::view::ViewExtensions;
use gpv_graph::stats::GraphStats;
use gpv_pattern::Pattern;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Relative cost weights. The defaults make view-only plans strongly
/// preferred over graph scans (the whole point of the paper) and charge a
/// realistic premium for planning-time view selection. After
/// [`calibrate`](CostModel::calibrate) the pair/edge weights are measured
/// microseconds per unit instead of unit-free factors.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of reading one materialized pair during the merge step.
    pub read_pair: f64,
    /// Cost of refining one merged pair in the fixpoint.
    pub refine_pair: f64,
    /// Cost of scanning one graph edge (hybrid/direct plans).
    pub scan_edge: f64,
    /// Planning cost of one view-match simulation, per view per query edge.
    pub containment_unit: f64,
    /// Fixed overhead of spawning one worker thread.
    pub thread_spawn: f64,
    /// Whether the pair/edge weights came from [`CostModel::calibrate`]
    /// (measured µs) rather than the unit-free defaults.
    pub calibrated: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_pair: 1.0,
            refine_pair: 1.0,
            scan_edge: 4.0,
            containment_unit: 0.25,
            thread_spawn: 2_000.0,
            calibrated: false,
        }
    }
}

/// A costed estimate for one candidate plan.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Materialized pairs the merge step would read.
    pub pairs_read: u64,
    /// Graph edges a hybrid/direct plan would scan (0 for view-only plans).
    pub graph_edges_scanned: u64,
    /// Planning-time work already spent producing this candidate (e.g. the
    /// `minimal`/`minimum` view-match sweeps). Informational: by the time
    /// candidates are compared this is a sunk cost, so it is *not* part of
    /// [`total`](CostEstimate::total).
    pub planning: f64,
    /// Total relative *execution* cost (lower wins).
    pub total: f64,
    /// The weights this estimate was priced under (so an EXPLAIN'd plan is
    /// self-describing even after the engine recalibrates).
    pub weights: CostModel,
}

impl Default for CostEstimate {
    fn default() -> Self {
        CostEstimate {
            pairs_read: 0,
            graph_edges_scanned: 0,
            planning: 0.0,
            total: 0.0,
            weights: CostModel::default(),
        }
    }
}

/// One executed plan's estimate-vs-actual record: what the planner
/// predicted, what the executor measured, and the wall time. The feature
/// vector for [`CostModel::calibrate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostSample {
    /// The planner's estimate for the executed plan.
    pub estimate: CostEstimate,
    /// Executor instrumentation from the actual run.
    pub stats: JoinStats,
    /// Query edge count (the `|Qs|` factor of the refine term).
    pub edge_count: usize,
    /// Measured end-to-end execution wall time, in microseconds.
    pub wall_micros: f64,
}

impl CostSample {
    /// The calibration feature vector `[pairs read, refine units, edges
    /// scanned]`: `wall ≈ read_pair·f₀ + refine_pair·f₁ + scan_edge·f₂`.
    /// The refine unit uses the *measured* working-set size
    /// ([`JoinStats::merged_pairs`]) rather than the estimate, so the fit
    /// regresses against what the executor actually touched.
    pub fn features(&self) -> [f64; 3] {
        let ne = (self.edge_count.max(1) as f64).sqrt();
        [
            self.estimate.pairs_read as f64,
            self.stats.merged_pairs as f64 * ne,
            self.estimate.graph_edges_scanned as f64,
        ]
    }
}

/// A bounded ring buffer of [`CostSample`]s (oldest evicted first).
#[derive(Clone, Debug)]
pub struct CostLog {
    samples: VecDeque<CostSample>,
    capacity: usize,
}

impl Default for CostLog {
    fn default() -> Self {
        CostLog::new(1024)
    }
}

impl CostLog {
    /// An empty log keeping at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        CostLog {
            samples: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, sample: CostSample) {
        if self.samples.len() >= self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Recorded samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &CostSample> {
        self.samples.iter()
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A thread-shared [`CostLog`] handle: the engine records into it from
/// `&self` execution paths, and the serving layer keeps one handle alive
/// across engine rebuilds so calibration sees the full history.
#[derive(Clone, Debug, Default)]
pub struct SharedCostLog(Arc<Mutex<CostLog>>);

impl SharedCostLog {
    /// A fresh shared log with the given retention bound.
    pub fn new(capacity: usize) -> Self {
        SharedCostLog(Arc::new(Mutex::new(CostLog::new(capacity))))
    }

    /// Records one sample. Non-blocking: the log sits on every executor's
    /// hot path, so under contention the sample is simply dropped —
    /// calibration is statistical and loses nothing to sampling, while the
    /// serving layer never serializes on this mutex.
    pub fn record(&self, sample: CostSample) {
        if let Ok(mut log) = self.0.try_lock() {
            log.push(sample);
        }
    }

    /// A point-in-time copy of the log.
    pub fn snapshot(&self) -> CostLog {
        self.0.lock().expect("cost log lock poisoned").clone()
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.0.lock().expect("cost log lock poisoned").len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-edge minimum over a λ: the smallest covering extension, which is
/// exactly what the witness-narrowing merge reads. `None` when some entry
/// is empty (an uncovered edge) — a λ with holes prices *nothing*, it needs
/// hybrid pricing. One definition shared by the plain, partial, and bounded
/// planners.
fn min_cover_pairs(
    lambda: &[Vec<ViewEdgeRef>],
    size_of: impl Fn(&ViewEdgeRef) -> u64,
) -> Option<u64> {
    lambda
        .iter()
        .map(|entries| entries.iter().map(&size_of).min())
        .sum()
}

/// Like [`min_cover_pairs`] but counting empty (uncovered) entries as zero
/// — the *covered-pairs* aggregation for partial λs, shared by the plain
/// and bounded pricers (hybrid pricing charges the uncovered edges
/// separately as graph scans).
fn covered_pairs(lambda: &[Vec<ViewEdgeRef>], size_of: impl Fn(&ViewEdgeRef) -> u64) -> u64 {
    lambda
        .iter()
        .map(|entries| entries.iter().map(&size_of).min().unwrap_or(0))
        .sum()
}

impl CostModel {
    /// Pairs the witness-narrowing merge reads for the *covered* edges of a
    /// λ (a full [`ContainmentPlan::lambda`] or a partial one): empty
    /// entries contribute zero here because hybrid pricing charges them as
    /// graph scans separately. Do **not** feed the result to view-only
    /// pricing — [`Self::view_plan`] rejects partial λs for that reason.
    pub fn pairs_read(&self, lambda: &[Vec<ViewEdgeRef>], ext: &ViewExtensions) -> u64 {
        covered_pairs(lambda, |r| ext.edge_set(r.view, r.edge).len() as u64)
    }

    /// Bounded analogue of [`Self::pairs_read`] over `I(V)`-carrying
    /// extensions.
    pub fn pairs_read_bounded(
        &self,
        lambda: &[Vec<ViewEdgeRef>],
        ext: &BoundedViewExtensions,
    ) -> u64 {
        covered_pairs(lambda, |r| ext.edge_set(r.view, r.edge).len() as u64)
    }

    /// Execution cost of a (B)MatchJoin reading `pairs` pairs for a query
    /// with `edge_count` edges: merge reads each pair once; the fixpoint
    /// refines the merged working set, with the `|Qs|` factor from per-edge
    /// propagation.
    pub fn join_exec_cost(&self, edge_count: usize, pairs: u64) -> f64 {
        self.read_pair * pairs as f64 + self.refine_pair * pairs as f64 * (edge_count as f64).sqrt()
    }

    /// Cost of executing a view-only `MatchJoin` under `plan`. A λ with an
    /// uncovered (empty) entry cannot be executed from views alone, so it is
    /// priced infinite — it must never beat a correctly-priced hybrid or
    /// direct plan (regression: `unwrap_or(0)` used to price uncovered
    /// edges as *free* here).
    pub fn view_plan(
        &self,
        q: &Pattern,
        plan: &ContainmentPlan,
        ext: &ViewExtensions,
    ) -> CostEstimate {
        match min_cover_pairs(&plan.lambda, |r| ext.edge_set(r.view, r.edge).len() as u64) {
            Some(pairs) => CostEstimate {
                pairs_read: pairs,
                graph_edges_scanned: 0,
                planning: 0.0,
                total: self.join_exec_cost(q.edge_count(), pairs),
                weights: *self,
            },
            None => CostEstimate {
                pairs_read: 0,
                graph_edges_scanned: 0,
                planning: 0.0,
                total: f64::INFINITY,
                weights: *self,
            },
        }
    }

    /// Cost of a hybrid plan: `covered_pairs` read from views, `uncovered_edges`
    /// query edges scanned surgically from `G` (~`|E(G)|` each in the worst
    /// case).
    pub fn hybrid_plan(
        &self,
        q: &Pattern,
        covered_pairs: u64,
        uncovered_edges: usize,
        g: &GraphStats,
    ) -> CostEstimate {
        let scanned = uncovered_edges as u64 * g.edges as u64;
        let working = covered_pairs + scanned;
        let total = self.read_pair * covered_pairs as f64
            + self.scan_edge * scanned as f64
            + self.refine_pair * working as f64 * (q.edge_count() as f64).sqrt();
        CostEstimate {
            pairs_read: covered_pairs,
            graph_edges_scanned: scanned,
            planning: 0.0,
            total,
            weights: *self,
        }
    }

    /// Cost of evaluating `Qs` directly on `G` (the `Match` baseline).
    pub fn direct(&self, q: &Pattern, g: &GraphStats) -> CostEstimate {
        let scanned = q.edge_count() as u64 * g.edges as u64;
        CostEstimate {
            pairs_read: 0,
            graph_edges_scanned: scanned,
            planning: 0.0,
            total: self.scan_edge * scanned as f64,
            weights: *self,
        }
    }

    /// Per-edge sourcing decision (the cost-based hybrid selection): should
    /// one covered query edge read its smallest covering extension
    /// (`ext_pairs` pairs) or scan `G` surgically (~`|E(G)|` edges)? Both
    /// sides include the refine term their merged set implies, so the
    /// comparison is apples-to-apples. Ties keep the view (the paper's
    /// default). With the unit-free default weights a view always wins
    /// (extensions are subsets of `E(G)` and `scan_edge > read_pair`);
    /// calibrated weights can flip the decision when scanning is measured
    /// cheaper per unit than reading bloated extensions.
    pub fn edge_prefers_graph(&self, edge_count: usize, ext_pairs: u64, g: &GraphStats) -> bool {
        let refine = self.refine_pair * (edge_count.max(1) as f64).sqrt();
        let view_cost = (self.read_pair + refine) * ext_pairs as f64;
        let graph_cost = (self.scan_edge + refine) * g.edges as f64;
        graph_cost < view_cost
    }

    /// Planning cost of running view selection (`minimal` / `minimum`):
    /// one view-match simulation per view, each ~`|Qs|²` work. Recorded in
    /// [`CostEstimate::planning`] for EXPLAIN output; it is a sunk cost by
    /// comparison time, so candidates still compete on execution cost.
    pub fn selection_overhead(&self, q: &Pattern, view_count: usize) -> f64 {
        let qsq = (q.edge_count() * q.edge_count()) as f64;
        self.containment_unit * view_count as f64 * qsq
    }

    /// Whether the parallel executor is worth its overhead for a plan
    /// reading `pairs` pairs on `threads` workers. The overhead side prices
    /// both the spawn cost *and* the merge/stitch barrier the staged
    /// pipeline pays (per-worker results are combined sequentially in fixed
    /// index order between stages — see [`crate::parallel`]), so a job has
    /// to amortize the whole coordination bill, not just thread creation.
    ///
    /// ```
    /// let cm = gpv_core::cost::CostModel::default();
    /// assert!(!cm.parallel_pays(100, 4)); // tiny job: spawn cost dominates
    /// assert!(cm.parallel_pays(1_000_000, 4)); // big merge: fan out
    /// ```
    pub fn parallel_pays(&self, pairs: u64, threads: usize) -> bool {
        if threads < 2 {
            return false;
        }
        let serial = self.read_pair * pairs as f64;
        // Spawn plus the per-stage stitch: each worker's results are merged
        // back sequentially, costing roughly half a spawn's worth of
        // coordination per worker per stage (measured, not load-bearing —
        // the gate only has to keep tiny jobs inline).
        let overhead = 1.5 * self.thread_spawn * threads as f64;
        // Parallelizing saves up to (1 - 1/t) of the per-pair build work.
        serial * (1.0 - 1.0 / threads as f64) > overhead
    }

    /// Predicted execution wall time (µs once calibrated; unit-free before)
    /// for a recorded sample's feature vector under *these* weights.
    pub fn predicted_micros(&self, sample: &CostSample) -> f64 {
        let [pairs, refine, scanned] = sample.features();
        self.read_pair * pairs + self.refine_pair * refine + self.scan_edge * scanned
    }

    /// Mean relative estimate error `|predicted − measured| / measured`
    /// of these weights over a log — the calibration-drift gauge. `None`
    /// when the log is empty.
    pub fn mean_relative_error(&self, log: &CostLog) -> Option<f64> {
        if log.is_empty() {
            return None;
        }
        let sum: f64 = log
            .iter()
            .map(|s| {
                let actual = s.wall_micros.max(1.0);
                (self.predicted_micros(s) - actual).abs() / actual
            })
            .sum();
        Some(sum / log.len() as f64)
    }

    /// Least-squares re-fit of `read_pair` / `refine_pair` / `scan_edge`
    /// from measured executions: minimizes `Σ (wall_µs − w·features)²` over
    /// the log (features per [`CostSample::features`]). Weights whose
    /// feature column never appears in the log keep their current value
    /// (there is no signal to fit them); fitted weights are clamped to a
    /// small positive floor so cost comparisons stay well-ordered.
    ///
    /// A **rank-deficient** log — e.g. one plan shape executed repeatedly,
    /// whose feature columns are collinear so *any* read-vs-refine split
    /// fits equally well — must not invent a split and present it as
    /// measured. Such logs fall back to the best global *rescale* of the
    /// current weights (one scalar fit, always well-posed): relative plan
    /// comparisons are preserved while the units become measured
    /// microseconds, which is exactly the information the log does
    /// support. `containment_unit` and `thread_spawn` are not fitted.
    /// Returns `None` when the log has too few samples or no signal.
    pub fn calibrate(&self, log: &CostLog) -> Option<CostModel> {
        let rows: Vec<([f64; 3], f64)> =
            log.iter().map(|s| (s.features(), s.wall_micros)).collect();
        // Only fit columns that actually occur in the log.
        let active: Vec<usize> = (0..3)
            .filter(|&j| rows.iter().any(|(f, _)| f[j] > 0.0))
            .collect();
        if active.is_empty() || rows.len() < active.len() {
            return None;
        }
        let k = active.len();
        // Normal equations AᵀA w = Aᵀb over the active columns.
        let mut ata = vec![vec![0.0f64; k]; k];
        let mut atb = vec![0.0f64; k];
        for (f, wall) in &rows {
            for (i, &ci) in active.iter().enumerate() {
                for (j, &cj) in active.iter().enumerate() {
                    ata[i][j] += f[ci] * f[cj];
                }
                atb[i] += f[ci] * wall;
            }
        }
        // Pivot tolerance relative to the matrix scale: a collinear system
        // must be *detected* (and routed to the rescale fallback), not
        // nudged into an arbitrary solution by regularization.
        let scale = (0..k)
            .map(|i| ata[i][i])
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let Some(solved) = solve(ata, atb, scale * 1e-9) else {
            return self.rescale_fit(&rows);
        };
        let max_w = solved.iter().cloned().fold(0.0f64, f64::max);
        if !max_w.is_finite() || max_w <= 0.0 {
            return self.rescale_fit(&rows);
        }
        // Clamp non-positive components: the fit says the term is ~free,
        // but a zero/negative weight would break plan comparisons.
        let floor = (max_w * 1e-3).max(1e-9);
        let mut fitted = [self.read_pair, self.refine_pair, self.scan_edge];
        for (&col, w) in active.iter().zip(&solved) {
            if !w.is_finite() {
                return None;
            }
            fitted[col] = w.max(floor);
        }
        Some(CostModel {
            read_pair: fitted[0],
            refine_pair: fitted[1],
            scan_edge: fitted[2],
            calibrated: true,
            ..*self
        })
    }

    /// The rank-deficient fallback: the single scalar `α` minimizing
    /// `Σ (wall − α·prediction)²` under the current weights, applied as a
    /// uniform rescale. Preserves every relative plan comparison; converts
    /// the units to measured microseconds.
    fn rescale_fit(&self, rows: &[([f64; 3], f64)]) -> Option<CostModel> {
        let mut num = 0.0;
        let mut den = 0.0;
        for (f, wall) in rows {
            let pred = self.read_pair * f[0] + self.refine_pair * f[1] + self.scan_edge * f[2];
            num += wall * pred;
            den += pred * pred;
        }
        if den <= 0.0 || !num.is_finite() {
            return None;
        }
        let alpha = (num / den).max(f64::MIN_POSITIVE);
        Some(CostModel {
            read_pair: self.read_pair * alpha,
            refine_pair: self.refine_pair * alpha,
            scan_edge: self.scan_edge * alpha,
            calibrated: true,
            ..*self
        })
    }
}

/// Gaussian elimination with partial pivoting for the (≤3×3) normal system;
/// `tol` is the absolute pivot threshold below which the system counts as
/// singular (pass a value relative to the matrix scale).
#[allow(clippy::needless_range_loop)] // elimination indexes two rows of `a` at once
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>, tol: f64) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < tol {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            for c in col..n {
                a[row][c] -= f * a[col][c];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in (col + 1)..n {
            acc -= a[col][c] * x[c];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
    use crate::view::{materialize, ViewDef, ViewSet};
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    fn chain(labels: &[&str]) -> Pattern {
        let mut b = PatternBuilder::new();
        let ids: Vec<_> = labels.iter().map(|l| b.node_labeled(l)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    fn some_stats() -> GraphStats {
        GraphStats {
            nodes: 100_000,
            edges: 400_000,
            avg_out_degree: 4.0,
            max_out_degree: 50,
            max_in_degree: 50,
            labels: 10,
            alpha: 1.1,
        }
    }

    #[test]
    fn pairs_read_matches_merge_choice() {
        // Two views cover the same edge with different extension sizes; the
        // cost model must count only the smaller one (as merge_step reads).
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node(["A"]);
        let b1 = gb.add_node(["B"]);
        let a2 = gb.add_node(["A"]);
        let b2 = gb.add_node(["B"]);
        gb.add_edge(a1, b1);
        gb.add_edge(a2, b2);
        gb.add_edge(a1, b2);
        let g = gb.build();

        let q = chain(&["A", "B"]);
        let views = ViewSet::new(vec![
            ViewDef::new("vab", chain(&["A", "B"])),
            ViewDef::new("vab2", chain(&["A", "B"])),
        ]);
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let cm = CostModel::default();
        let pairs = cm.pairs_read(&plan.lambda, &ext);
        // Both views have the same extension here; the min is one of them.
        assert_eq!(
            pairs,
            ext.edge_set(0, gpv_pattern::PatternEdgeId(0)).len() as u64
        );
    }

    #[test]
    fn view_plans_beat_direct_on_small_extensions() {
        let cm = CostModel::default();
        let q = chain(&["A", "B", "C"]);
        let direct = cm.direct(&q, &some_stats());
        // A view plan reading 10k pairs must be far cheaper.
        assert!(direct.total > cm.read_pair * 10_000.0 * 10.0);
    }

    #[test]
    fn parallel_gate() {
        let cm = CostModel::default();
        assert!(!cm.parallel_pays(100, 1), "never parallel on one thread");
        assert!(!cm.parallel_pays(100, 4), "tiny jobs stay sequential");
        assert!(cm.parallel_pays(1_000_000, 4), "large jobs parallelize");
    }

    /// Regression for the `unwrap_or(0)` bug: a partial λ (some entry
    /// empty) fed to the view-only pricer used to price uncovered edges as
    /// *free*, letting a bogus views-only estimate beat a correctly-priced
    /// hybrid (the Direct-vs-Hybrid tie-break then flipped). The view-only
    /// pricer must reject such plans outright.
    #[test]
    fn view_plan_rejects_partial_lambda() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node(["A"]);
        let b = gb.add_node(["B"]);
        let c = gb.add_node(["C"]);
        gb.add_edge(a, b);
        gb.add_edge(b, c);
        let g = gb.build();
        let q = chain(&["A", "B", "C"]);
        let views = ViewSet::new(vec![ViewDef::new("vab", chain(&["A", "B"]))]);
        let ext = materialize(&views, &g);

        // A hand-built "plan" whose second entry is uncovered.
        let partial = crate::partial::partial_contain(&q, &views);
        assert!(!partial.is_total());
        let broken = ContainmentPlan {
            lambda: partial.lambda.clone(),
            used_views: vec![0],
        };
        let cm = CostModel::default();
        let bogus = cm.view_plan(&q, &broken, &ext);
        assert!(
            bogus.total.is_infinite(),
            "partial λ must never price as a views-only plan: {bogus:?}"
        );
        // The tie-break pin: the correctly-priced hybrid and direct plans
        // both beat the rejected views-only estimate.
        let stats = gpv_graph::stats::stats(&g);
        let covered = cm.pairs_read(&partial.lambda, &ext);
        let hybrid = cm.hybrid_plan(&q, covered, partial.uncovered.len(), &stats);
        let direct = cm.direct(&q, &stats);
        assert!(hybrid.total < bogus.total);
        assert!(direct.total < bogus.total);
    }

    #[test]
    fn edge_sourcing_defaults_keep_views() {
        // Extensions are subsets of E(G) and scan_edge > read_pair, so with
        // default weights a covered edge never prefers the graph.
        let cm = CostModel::default();
        let stats = some_stats();
        for pairs in [0, 1, 1_000, stats.edges as u64] {
            assert!(!cm.edge_prefers_graph(3, pairs, &stats));
        }
        // A calibrated model where scanning is measured far cheaper than
        // reading flips the decision for bloated extensions.
        let cheap_scan = CostModel {
            read_pair: 10.0,
            scan_edge: 0.01,
            refine_pair: 0.001,
            ..CostModel::default()
        };
        assert!(cheap_scan.edge_prefers_graph(3, stats.edges as u64, &stats));
        assert!(!cheap_scan.edge_prefers_graph(3, 10, &stats));
    }

    #[test]
    fn cost_log_bounded() {
        let mut log = CostLog::new(3);
        for i in 0..5u64 {
            log.push(CostSample {
                estimate: CostEstimate {
                    pairs_read: i,
                    ..CostEstimate::default()
                },
                stats: JoinStats::default(),
                edge_count: 1,
                wall_micros: i as f64,
            });
        }
        assert_eq!(log.len(), 3);
        let kept: Vec<u64> = log.iter().map(|s| s.estimate.pairs_read).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest samples evicted first");
    }

    fn synthetic_sample(
        pairs: u64,
        merged: u64,
        scanned: u64,
        ne: usize,
        w: (f64, f64, f64),
    ) -> CostSample {
        let s = CostSample {
            estimate: CostEstimate {
                pairs_read: pairs,
                graph_edges_scanned: scanned,
                ..CostEstimate::default()
            },
            stats: JoinStats {
                merged_pairs: merged,
                ..JoinStats::default()
            },
            edge_count: ne,
            wall_micros: 0.0,
        };
        let [f0, f1, f2] = s.features();
        CostSample {
            wall_micros: w.0 * f0 + w.1 * f1 + w.2 * f2,
            ..s
        }
    }

    #[test]
    fn calibrate_recovers_known_weights() {
        let truth = (0.37, 1.9, 6.5);
        let mut log = CostLog::new(64);
        // Diverse samples spanning view-only, hybrid, and direct shapes so
        // the system is well-conditioned.
        for i in 1..12u64 {
            log.push(synthetic_sample(100 * i, 90 * i, 0, 3, truth));
            log.push(synthetic_sample(40 * i, 70 * i, 13 * i, 4, truth));
            log.push(synthetic_sample(0, 0, 50 * i, 2, truth));
        }
        let cm = CostModel::default().calibrate(&log).expect("solvable fit");
        assert!(cm.calibrated);
        assert!(
            (cm.read_pair - truth.0).abs() / truth.0 < 1e-3,
            "{}",
            cm.read_pair
        );
        assert!(
            (cm.refine_pair - truth.1).abs() / truth.1 < 1e-3,
            "{}",
            cm.refine_pair
        );
        assert!(
            (cm.scan_edge - truth.2).abs() / truth.2 < 1e-3,
            "{}",
            cm.scan_edge
        );
        // And the fitted model predicts the log (near-)perfectly while the
        // default unit-free weights do not.
        let err = cm.mean_relative_error(&log).unwrap();
        assert!(err < 1e-6, "fitted error {err}");
        let default_err = CostModel::default().mean_relative_error(&log).unwrap();
        assert!(default_err > err);
    }

    #[test]
    fn calibrate_keeps_unseen_columns() {
        let truth = (2.0, 0.5, 123.0);
        let mut log = CostLog::new(64);
        // Views-only samples: no scan signal at all (and the two active
        // features vary independently, so the fit is identifiable).
        for i in 1..8u64 {
            log.push(synthetic_sample(10 * i, 9 * i, 0, 2, truth));
            log.push(synthetic_sample(25 * i, 3 * i + 40, 0, 3, truth));
        }
        let base = CostModel::default();
        let cm = base.calibrate(&log).expect("fit");
        assert_eq!(cm.scan_edge, base.scan_edge, "no signal: keep default");
        assert!((cm.read_pair - truth.0).abs() / truth.0 < 1e-3);
        assert!((cm.refine_pair - truth.1).abs() / truth.1 < 1e-3);
    }

    /// One plan shape executed repeatedly has collinear feature columns:
    /// no read-vs-refine split is identifiable, so the fit must be a pure
    /// rescale of the current ratios (units become measured), never an
    /// arbitrary split presented as measured.
    #[test]
    fn calibrate_rank_deficient_falls_back_to_rescale() {
        let base = CostModel::default();
        let mut log = CostLog::new(16);
        for _ in 0..4 {
            // wall = 2·(f0 + f1) — exactly twice the default prediction.
            log.push(synthetic_sample(100, 100, 0, 4, (2.0, 2.0, 2.0)));
        }
        let cm = base.calibrate(&log).expect("rescale fallback fits");
        assert!(cm.calibrated);
        let rr = cm.read_pair / base.read_pair;
        let rf = cm.refine_pair / base.refine_pair;
        let rs = cm.scan_edge / base.scan_edge;
        assert!(
            (rr - rf).abs() < 1e-9 && (rr - rs).abs() < 1e-9,
            "uniform rescale, not an invented split: {cm:?}"
        );
        assert!((rr - 2.0).abs() < 1e-9, "α recovers the true scale: {rr}");
        assert!(cm.mean_relative_error(&log).unwrap() < 1e-9);
    }

    #[test]
    fn calibrate_refuses_empty_or_tiny_logs() {
        let cm = CostModel::default();
        assert!(cm.calibrate(&CostLog::new(8)).is_none());
        let mut one = CostLog::new(8);
        one.push(synthetic_sample(10, 10, 5, 2, (1.0, 1.0, 1.0)));
        // One sample, three active columns: underdetermined.
        assert!(cm.calibrate(&one).is_none());
    }
}
