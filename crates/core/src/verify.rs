//! Static verification of plans, snapshots and on-disk shards — the
//! `GPV0xx` diagnostics engine.
//!
//! The paper's correctness argument rests on invariants the rest of the
//! crate only enforces dynamically: a merge plan must source every query
//! edge from a view edge that *actually covers it* (the `λ` witness of
//! Theorem 1), stored extensions must stay canonical CSR, and MVCC epochs
//! must stamp exactly the views a plan reads. This module checks those
//! statically and reports violations as [`Diagnostic`]s with stable
//! `GPV0xx` codes (catalogued in `docs/DIAGNOSTICS.md`), in the style of
//! production lint engines: machine-readable, severity-ranked, and cheap
//! enough to run on every plan.
//!
//! Four passes live in this module and its sibling [`crate::lint`]:
//!
//! * [`verify_plan`] / [`verify_bounded_plan`] — the plan-IR verifier,
//!   run behind `debug_assertions` at plan time and on every fuzz
//!   iteration;
//! * [`verify_plan_epochs`] — epoch-stamp consistency of a plan against a
//!   [`StoreSnapshot`];
//! * [`check_snapshot`] — live store integrity (CSR canonicality, epoch
//!   monotonicity, footprint consistency);
//! * [`check_store_dir`] — the offline shard/store checker behind
//!   `gpv check --store-dir`.
//!
//! Every injected corruption class maps to a *distinct* code, so a failing
//! `gpv check` names what rotted, not just that something did.

use std::collections::HashMap;
use std::path::Path;

use crate::bview::BoundedViewSet;
use crate::delta::ViewFootprint;
use crate::engine::BoundedPlan;
use crate::plan::{EdgeSource, QueryPlan};
use crate::shard::{decode_shard, ShardContents, ShardError, StoreMeta, SHARD_VERSION};
use crate::store::StoreSnapshot;
use crate::view::ViewSet;
use gpv_graph::DataGraph;
use gpv_matching::pattern_sim::{simulate_pattern, PatternSimResult};
use gpv_pattern::bounded::{BoundedPattern, EdgeBound};
use gpv_pattern::{Pattern, PatternEdgeId};
use serde::value::Value;
use serde::Serialize;

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — surfaced for visibility, never a failure.
    Info,
    /// Suspicious but legal — the construct works, it is just wasteful or
    /// almost certainly not what the author meant.
    Warning,
    /// An invariant violation — the plan/store/shard is unsound and must
    /// not be trusted.
    Error,
}

impl Severity {
    /// Lowercase label (`"error"` / `"warning"` / `"info"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identity of one diagnostic rule. The `GPV0xx` string returned by
/// [`DiagCode::code`] is the public contract: codes are never renumbered
/// or reused, only retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    // -- plan IR verifier (GPV001–GPV009) --------------------------------
    /// GPV001: a query edge has no merge source (or the source/λ vector
    /// length disagrees with the pattern's edge count).
    PlanEdgeUnsourced,
    /// GPV002: a plan references a view index (or view-edge id) outside
    /// the registered view set.
    PlanViewOutOfRange,
    /// GPV003: a view edge pinned as a merge source does not cover the
    /// query edge it is pinned for — the simulation witness fails.
    PlanEdgeNotCovered,
    // GPV004 (`plan-chunk-granularity`) is retired with the chunked
    // parallel executor; the number is not reused.
    /// GPV005: a views-only (Theorem 1) plan carries a graph-sourced edge.
    PlanViewsOnlyReadsGraph,
    /// GPV006: a plan's view footprint references a view the snapshot
    /// holds no epoch for.
    PlanEpochMisaligned,
    /// GPV007: a bounded query edge carries a zero hop bound.
    PlanBoundedZeroBound,

    // -- query lints (GPV010–GPV019) -------------------------------------
    /// GPV010: the query pattern is disconnected.
    QueryDisconnected,
    /// GPV011: the query pattern has a self-loop edge.
    QuerySelfLoop,
    /// GPV012: the query pattern repeats an edge.
    QueryDuplicateEdge,
    /// GPV013: the query is provably empty on this graph — a predicate
    /// label is absent from the graph's alphabet, or an edge's label pair
    /// never occurs in `G`.
    QueryProvablyEmpty,
    /// GPV014: the query carries redundant edges — its minimized
    /// equivalent (same answers on every graph) is strictly smaller.
    QueryRedundantEdges,

    // -- view-set lints (GPV020–GPV029) -----------------------------------
    /// GPV020: a view is subsumed by another registered view (`Vi ⊑ Vj`),
    /// so every query it helps answer is answerable without it.
    ViewSubsumed,
    /// GPV021: a view covers no edge of any workload query.
    ViewZeroCoverage,
    /// GPV022: a resident view no workload query reads — evicting it
    /// frees the reported bytes ([`crate::store::ViewStore::eviction_advice`]).
    ViewEvictable,

    // -- store / shard integrity (GPV050–GPV069) ---------------------------
    /// GPV050: filesystem error reading the store directory.
    StoreIo,
    /// GPV051: `meta.json` is missing or not valid [`StoreMeta`] JSON.
    StoreMetaInvalid,
    /// GPV052: a shard file does not open with the `GPVSHARD` magic.
    ShardBadMagic,
    /// GPV053: a shard (or `meta.json`) declares an unsupported format
    /// version.
    ShardBadVersion,
    /// GPV054: a shard's payload checksum does not match its header.
    ShardChecksumMismatch,
    /// GPV055: a shard file ends before a field it promises.
    ShardTruncated,
    /// GPV056: a CSR offset column is non-canonical (does not start at 0,
    /// not monotonic, or disagrees with its data column's length).
    ShardBadOffsets,
    /// GPV057: a node set or pair set is not strictly sorted (canonical
    /// sets are sorted and deduplicated).
    ShardUnsortedSet,
    /// GPV058: the interned name table is invalid (out-of-range name
    /// index or non-UTF-8 name bytes).
    ShardBadInternTable,
    /// GPV059: a view's embedded pattern JSON does not parse.
    ShardBadPatternJson,
    /// GPV060: view ids are not strictly ascending.
    StoreIdsNotAscending,
    /// GPV061: a shard file has trailing bytes after its last view.
    ShardTrailingBytes,
    /// GPV062: a shard is structurally malformed in a way no more specific
    /// code describes.
    ShardMalformed,
    /// GPV063: a shard (or snapshot) was materialized against a different
    /// graph than the store claims.
    StoreGraphMismatch,
    /// GPV064: a materialized node id is out of range for the graph
    /// (`id ≥ |V|`).
    StoreNodeOutOfRange,
    /// GPV065: a view's MVCC epoch exceeds the snapshot version.
    StoreEpochExceedsVersion,
    /// GPV066: the snapshot's epoch vector is not position-aligned with
    /// its view vector.
    StoreEpochMisaligned,
    /// GPV067: footprint inconsistency — a view classified
    /// [`ViewFootprint::Never`] holds a nonempty extension.
    StoreFootprintInconsistent,
    /// GPV068: a view id is at or above the store's `next_id` watermark
    /// (ids are never reused, so the watermark must dominate).
    StoreIdWatermark,
}

impl DiagCode {
    /// The stable `GPV0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::PlanEdgeUnsourced => "GPV001",
            DiagCode::PlanViewOutOfRange => "GPV002",
            DiagCode::PlanEdgeNotCovered => "GPV003",
            DiagCode::PlanViewsOnlyReadsGraph => "GPV005",
            DiagCode::PlanEpochMisaligned => "GPV006",
            DiagCode::PlanBoundedZeroBound => "GPV007",
            DiagCode::QueryDisconnected => "GPV010",
            DiagCode::QuerySelfLoop => "GPV011",
            DiagCode::QueryDuplicateEdge => "GPV012",
            DiagCode::QueryProvablyEmpty => "GPV013",
            DiagCode::QueryRedundantEdges => "GPV014",
            DiagCode::ViewSubsumed => "GPV020",
            DiagCode::ViewZeroCoverage => "GPV021",
            DiagCode::ViewEvictable => "GPV022",
            DiagCode::StoreIo => "GPV050",
            DiagCode::StoreMetaInvalid => "GPV051",
            DiagCode::ShardBadMagic => "GPV052",
            DiagCode::ShardBadVersion => "GPV053",
            DiagCode::ShardChecksumMismatch => "GPV054",
            DiagCode::ShardTruncated => "GPV055",
            DiagCode::ShardBadOffsets => "GPV056",
            DiagCode::ShardUnsortedSet => "GPV057",
            DiagCode::ShardBadInternTable => "GPV058",
            DiagCode::ShardBadPatternJson => "GPV059",
            DiagCode::StoreIdsNotAscending => "GPV060",
            DiagCode::ShardTrailingBytes => "GPV061",
            DiagCode::ShardMalformed => "GPV062",
            DiagCode::StoreGraphMismatch => "GPV063",
            DiagCode::StoreNodeOutOfRange => "GPV064",
            DiagCode::StoreEpochExceedsVersion => "GPV065",
            DiagCode::StoreEpochMisaligned => "GPV066",
            DiagCode::StoreFootprintInconsistent => "GPV067",
            DiagCode::StoreIdWatermark => "GPV068",
        }
    }

    /// Short kebab-case rule name (shown next to the code in human output).
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::PlanEdgeUnsourced => "plan-edge-unsourced",
            DiagCode::PlanViewOutOfRange => "plan-view-out-of-range",
            DiagCode::PlanEdgeNotCovered => "plan-edge-not-covered",
            DiagCode::PlanViewsOnlyReadsGraph => "plan-views-only-reads-graph",
            DiagCode::PlanEpochMisaligned => "plan-epoch-misaligned",
            DiagCode::PlanBoundedZeroBound => "plan-bounded-zero-bound",
            DiagCode::QueryDisconnected => "query-disconnected",
            DiagCode::QuerySelfLoop => "query-self-loop",
            DiagCode::QueryDuplicateEdge => "query-duplicate-edge",
            DiagCode::QueryProvablyEmpty => "query-provably-empty",
            DiagCode::QueryRedundantEdges => "query-redundant-edges",
            DiagCode::ViewSubsumed => "view-subsumed",
            DiagCode::ViewZeroCoverage => "view-zero-coverage",
            DiagCode::ViewEvictable => "view-evictable",
            DiagCode::StoreIo => "store-io",
            DiagCode::StoreMetaInvalid => "store-meta-invalid",
            DiagCode::ShardBadMagic => "shard-bad-magic",
            DiagCode::ShardBadVersion => "shard-bad-version",
            DiagCode::ShardChecksumMismatch => "shard-checksum-mismatch",
            DiagCode::ShardTruncated => "shard-truncated",
            DiagCode::ShardBadOffsets => "shard-bad-offsets",
            DiagCode::ShardUnsortedSet => "shard-unsorted-set",
            DiagCode::ShardBadInternTable => "shard-bad-intern-table",
            DiagCode::ShardBadPatternJson => "shard-bad-pattern-json",
            DiagCode::StoreIdsNotAscending => "store-ids-not-ascending",
            DiagCode::ShardTrailingBytes => "shard-trailing-bytes",
            DiagCode::ShardMalformed => "shard-malformed",
            DiagCode::StoreGraphMismatch => "store-graph-mismatch",
            DiagCode::StoreNodeOutOfRange => "store-node-out-of-range",
            DiagCode::StoreEpochExceedsVersion => "store-epoch-exceeds-version",
            DiagCode::StoreEpochMisaligned => "store-epoch-misaligned",
            DiagCode::StoreFootprintInconsistent => "store-footprint-inconsistent",
            DiagCode::StoreIdWatermark => "store-id-watermark",
        }
    }
}

impl std::fmt::Display for DiagCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding from a verifier or lint pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable rule identity.
    pub code: DiagCode,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// Span-ish locator: which query/edge/view/shard/file the finding is
    /// about (e.g. `"query edge e2"`, `"shard-0000.bin view id 7"`).
    pub context: String,
}

impl Diagnostic {
    /// Builds one diagnostic.
    pub fn new(
        code: DiagCode,
        severity: Severity,
        message: impl Into<String>,
        context: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            context: context.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.code,
            self.severity,
            self.code.name(),
            self.message
        )?;
        if !self.context.is_empty() {
            write!(f, " ({})", self.context)?;
        }
        Ok(())
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("code".to_string(), Value::Str(self.code.code().to_string())),
            ("name".to_string(), Value::Str(self.code.name().to_string())),
            (
                "severity".to_string(),
                Value::Str(self.severity.as_str().to_string()),
            ),
            ("message".to_string(), Value::Str(self.message.clone())),
            ("context".to_string(), Value::Str(self.context.clone())),
        ])
    }
}

/// Whether any diagnostic in `diags` is error severity — the exit-status
/// predicate for `gpv lint` / `gpv check` and the divergence predicate for
/// the fuzz harness.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Keeps only the error-severity findings (what the fuzz harness reports).
pub fn errors_only(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

// ---------------------------------------------------------------------------
// Pass 1: plan IR verifier
// ---------------------------------------------------------------------------

/// Re-derives, per sourced view edge, whether it actually covers the query
/// edge it is pinned for. Simulations are cached per view — the verifier
/// costs one pattern simulation per *distinct* view the plan reads.
struct CoverageWitness<'a> {
    q: &'a Pattern,
    views: &'a ViewSet,
    sims: HashMap<usize, Option<PatternSimResult>>,
}

impl<'a> CoverageWitness<'a> {
    fn new(q: &'a Pattern, views: &'a ViewSet) -> Self {
        CoverageWitness {
            q,
            views,
            sims: HashMap::new(),
        }
    }

    /// Checks one `λ` entry / merge source: view index in range, view edge
    /// id in range, and the simulation witness `qe ∈ S_eV`.
    fn check(
        &mut self,
        view: usize,
        vedge: PatternEdgeId,
        qe: usize,
        out: &mut Vec<Diagnostic>,
        what: &str,
    ) {
        if view >= self.views.card() {
            out.push(Diagnostic::new(
                DiagCode::PlanViewOutOfRange,
                Severity::Error,
                format!(
                    "{what} references view {view} but only {} views are registered",
                    self.views.card()
                ),
                format!("query edge e{qe}"),
            ));
            return;
        }
        let vpat = &self.views.get(view).pattern;
        if vedge.index() >= vpat.edge_count() {
            out.push(Diagnostic::new(
                DiagCode::PlanViewOutOfRange,
                Severity::Error,
                format!(
                    "{what} references edge {} of view {view}, which has {} edges",
                    vedge.index(),
                    vpat.edge_count()
                ),
                format!("query edge e{qe}"),
            ));
            return;
        }
        let (q, views) = (self.q, self.views);
        let sim = self
            .sims
            .entry(view)
            .or_insert_with(|| simulate_pattern(&views.get(view).pattern, q));
        let covered = sim
            .as_ref()
            .is_some_and(|s| s.edge_matches[vedge.index()].contains(&PatternEdgeId(qe as u32)));
        if !covered {
            out.push(Diagnostic::new(
                DiagCode::PlanEdgeNotCovered,
                Severity::Error,
                format!(
                    "{what} pins view {view} edge {} for query edge e{qe}, but the \
                     simulation witness says that view edge does not cover it",
                    vedge.index()
                ),
                format!("query edge e{qe}"),
            ));
        }
    }
}

/// The plan-IR verifier: checks that `plan` is a sound execution of `q`
/// over `views` — every pattern edge sourced exactly once, every
/// [`EdgeSource::View`] in range *and* covering its edge (re-derived via
/// pattern simulation, independently of the planner's own λ), and
/// views-only plans reading no graph edges.
///
/// Runs behind `debug_assertions` at plan time
/// ([`crate::engine::QueryEngine::plan`]) and on every fuzz iteration
/// ([`crate::differential`]).
pub fn verify_plan(q: &Pattern, plan: &QueryPlan, views: &ViewSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ne = q.edge_count();
    let mut witness = CoverageWitness::new(q, views);

    // The merge-source vector: exactly one source per pattern edge.
    if let Some(sources) = plan.sources() {
        if sources.len() != ne {
            out.push(Diagnostic::new(
                DiagCode::PlanEdgeUnsourced,
                Severity::Error,
                format!(
                    "plan sources {} edges but the query has {ne}",
                    sources.len()
                ),
                "merge sources",
            ));
        }
        for (ei, s) in sources.iter().enumerate() {
            if let EdgeSource::View(r) = s {
                witness.check(r.view, r.edge, ei, &mut out, "merge source");
            }
        }
    }

    match plan {
        QueryPlan::ViewsOnly(vp) => {
            for &vi in &vp.views {
                if vi >= views.card() {
                    out.push(Diagnostic::new(
                        DiagCode::PlanViewOutOfRange,
                        Severity::Error,
                        format!(
                            "selected view {vi} out of range ({} registered)",
                            views.card()
                        ),
                        "view selection",
                    ));
                }
            }
            if let Some(graph_sourced) = vp
                .sources
                .iter()
                .position(|s| matches!(s, EdgeSource::Graph))
            {
                out.push(Diagnostic::new(
                    DiagCode::PlanViewsOnlyReadsGraph,
                    Severity::Error,
                    format!(
                        "views-only (Theorem 1) plan sources edge e{graph_sourced} from \
                         the graph"
                    ),
                    format!("query edge e{graph_sourced}"),
                ));
            }
            check_lambda(q, &vp.plan.lambda, true, &mut witness, &mut out);
        }
        QueryPlan::Hybrid {
            partial, sources, ..
        } => {
            check_lambda(q, &partial.lambda, false, &mut witness, &mut out);
            // An edge the λ leaves uncovered has no extension to read: its
            // merge source must be a graph scan.
            for &ue in &partial.uncovered {
                if let Some(EdgeSource::View(_)) = sources.get(ue.index()) {
                    out.push(Diagnostic::new(
                        DiagCode::PlanEdgeNotCovered,
                        Severity::Error,
                        format!(
                            "edge e{} is uncovered by the λ but view-sourced",
                            ue.index()
                        ),
                        format!("query edge e{}", ue.index()),
                    ));
                }
            }
        }
        QueryPlan::Direct { .. } => {}
    }
    out
}

/// Shared λ-shape check: one entry vector per query edge; when
/// `require_total`, every entry vector nonempty (Theorem 1 containment).
/// Each entry is witness-checked.
fn check_lambda(
    q: &Pattern,
    lambda: &[Vec<crate::containment::ViewEdgeRef>],
    require_total: bool,
    witness: &mut CoverageWitness<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let ne = q.edge_count();
    if lambda.len() != ne {
        out.push(Diagnostic::new(
            DiagCode::PlanEdgeUnsourced,
            Severity::Error,
            format!("λ maps {} edges but the query has {ne}", lambda.len()),
            "containment plan",
        ));
        return;
    }
    for (ei, entries) in lambda.iter().enumerate() {
        if require_total && entries.is_empty() {
            out.push(Diagnostic::new(
                DiagCode::PlanEdgeUnsourced,
                Severity::Error,
                format!("λ(e{ei}) is empty in a views-only plan"),
                format!("query edge e{ei}"),
            ));
        }
        for r in entries {
            witness.check(r.view, r.edge, ei, out, "λ entry");
        }
    }
}

/// The bounded-plan verifier: λ shape and view-index ranges against the
/// bounded view set, coverage via [`crate::bcontainment::bounded_view_match`],
/// and zero-hop bounds.
pub fn verify_bounded_plan(
    qb: &BoundedPattern,
    plan: &BoundedPlan,
    views: &BoundedViewSet,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ne = qb.pattern().edge_count();
    for (ei, b) in qb.bounds().iter().enumerate() {
        if *b == EdgeBound::Hop(0) {
            out.push(Diagnostic::new(
                DiagCode::PlanBoundedZeroBound,
                Severity::Error,
                format!("bounded query edge e{ei} carries a zero hop bound"),
                format!("query edge e{ei}"),
            ));
        }
    }
    for &vi in &plan.views {
        if vi >= views.card() {
            out.push(Diagnostic::new(
                DiagCode::PlanViewOutOfRange,
                Severity::Error,
                format!(
                    "selected bounded view {vi} out of range ({} registered)",
                    views.card()
                ),
                "view selection",
            ));
        }
    }
    if plan.plan.lambda.len() != ne {
        out.push(Diagnostic::new(
            DiagCode::PlanEdgeUnsourced,
            Severity::Error,
            format!(
                "bounded λ maps {} edges but the query has {ne}",
                plan.plan.lambda.len()
            ),
            "containment plan",
        ));
        return out;
    }
    // Coverage per distinct view, via the bounded view match (covered query
    // edges of `V` into `Qb`), cached across λ entries.
    let mut matches: HashMap<usize, Vec<PatternEdgeId>> = HashMap::new();
    for (ei, entries) in plan.plan.lambda.iter().enumerate() {
        if entries.is_empty() {
            out.push(Diagnostic::new(
                DiagCode::PlanEdgeUnsourced,
                Severity::Error,
                format!("bounded λ(e{ei}) is empty"),
                format!("query edge e{ei}"),
            ));
            continue;
        }
        for r in entries {
            if r.view >= views.card() {
                out.push(Diagnostic::new(
                    DiagCode::PlanViewOutOfRange,
                    Severity::Error,
                    format!(
                        "bounded λ entry references view {} but only {} views are \
                         registered",
                        r.view,
                        views.card()
                    ),
                    format!("query edge e{ei}"),
                ));
                continue;
            }
            let covered = matches.entry(r.view).or_insert_with(|| {
                crate::bcontainment::bounded_view_match(&views.get(r.view).pattern, qb)
            });
            if !covered.contains(&PatternEdgeId(ei as u32)) {
                out.push(Diagnostic::new(
                    DiagCode::PlanEdgeNotCovered,
                    Severity::Error,
                    format!(
                        "bounded λ pins view {} for query edge e{ei}, but its bounded \
                         view match does not cover it",
                        r.view
                    ),
                    format!("query edge e{ei}"),
                ));
            }
        }
    }
    out
}

/// Epoch-stamp consistency of a plan against the snapshot it was planned
/// from: every view in the plan's footprint
/// ([`QueryPlan::view_indices`]) must have an epoch in the snapshot, and no
/// stamped epoch may exceed the snapshot version (epochs are the store
/// versions at which extensions last changed, so `epoch ≤ version` always).
pub fn verify_plan_epochs(plan: &QueryPlan, snap: &StoreSnapshot) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let epochs = snap.epochs();
    for idx in plan.view_indices() {
        match epochs.get(idx) {
            None => out.push(Diagnostic::new(
                DiagCode::PlanEpochMisaligned,
                Severity::Error,
                format!(
                    "plan footprint references view {idx} but the snapshot stamps \
                     {} epochs",
                    epochs.len()
                ),
                format!("snapshot v{}", snap.version),
            )),
            Some(&e) if e > snap.version => out.push(Diagnostic::new(
                DiagCode::StoreEpochExceedsVersion,
                Severity::Error,
                format!(
                    "view {idx} has epoch {e}, beyond snapshot version {}",
                    snap.version
                ),
                format!("snapshot v{}", snap.version),
            )),
            Some(_) => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pass 4: store / shard integrity
// ---------------------------------------------------------------------------

/// Maps a [`ShardError`] to its diagnostic. [`ShardError::Malformed`]
/// messages are classified into the specific structural codes (offsets,
/// sorted sets, intern table, pattern JSON, id order, trailing bytes);
/// unrecognized messages fall back to [`DiagCode::ShardMalformed`].
pub fn classify_shard_error(e: &ShardError) -> DiagCode {
    match e {
        ShardError::Io(_) => DiagCode::StoreIo,
        ShardError::Json(_) => DiagCode::StoreMetaInvalid,
        ShardError::BadMagic => DiagCode::ShardBadMagic,
        ShardError::BadVersion(_) => DiagCode::ShardBadVersion,
        ShardError::BadChecksum { .. } => DiagCode::ShardChecksumMismatch,
        ShardError::Truncated { .. } => DiagCode::ShardTruncated,
        ShardError::GraphMismatch { .. } => DiagCode::StoreGraphMismatch,
        ShardError::Malformed(msg) => {
            if msg.contains("offsets") {
                DiagCode::ShardBadOffsets
            } else if msg.contains("not strictly sorted") {
                DiagCode::ShardUnsortedSet
            } else if msg.contains("pattern json") {
                DiagCode::ShardBadPatternJson
            } else if msg.contains("name") {
                DiagCode::ShardBadInternTable
            } else if msg.contains("ids not strictly ascending") {
                DiagCode::StoreIdsNotAscending
            } else if msg.contains("trailing bytes") {
                DiagCode::ShardTrailingBytes
            } else {
                DiagCode::ShardMalformed
            }
        }
    }
}

fn shard_error_diag(e: &ShardError, context: String) -> Diagnostic {
    Diagnostic::new(
        classify_shard_error(e),
        Severity::Error,
        e.to_string(),
        context,
    )
}

/// Validates one decoded shard's contents against the directory header:
/// graph fingerprint agreement, id watermark, and (when the header carries
/// graph stats) node-id range over every materialized node and pair.
fn check_shard_contents(
    contents: &ShardContents,
    meta: &StoreMeta,
    file: &str,
    out: &mut Vec<Diagnostic>,
) {
    if contents.graph_fingerprint != meta.graph_fingerprint {
        out.push(Diagnostic::new(
            DiagCode::StoreGraphMismatch,
            Severity::Error,
            format!(
                "shard was written for graph {:#x} but meta.json says {:#x}",
                contents.graph_fingerprint, meta.graph_fingerprint
            ),
            file.to_string(),
        ));
    }
    let node_bound = meta.graph_stats.as_ref().map(|s| s.nodes);
    for (id, _def, ext) in &contents.views {
        if *id >= meta.next_id {
            out.push(Diagnostic::new(
                DiagCode::StoreIdWatermark,
                Severity::Error,
                format!(
                    "view id {id} is at or above the next_id watermark {}",
                    meta.next_id
                ),
                format!("{file} view id {id}"),
            ));
        }
        if let Some(n) = node_bound {
            let bad_pair = ext
                .all_pairs()
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .find(|v| v.index() >= n);
            if let Some(v) = bad_pair {
                out.push(Diagnostic::new(
                    DiagCode::StoreNodeOutOfRange,
                    Severity::Error,
                    format!("materialized pair references node {v} but the graph has {n} nodes"),
                    format!("{file} view id {id}"),
                ));
            }
        }
    }
}

/// The offline shard/store integrity checker behind `gpv check
/// --store-dir`: reads `meta.json` and every `shard-NNNN.bin`, reporting a
/// distinct diagnostic per corruption class instead of stopping at the
/// first error (one rotten shard should not hide another).
pub fn check_store_dir(dir: impl AsRef<Path>) -> Vec<Diagnostic> {
    let dir = dir.as_ref();
    let mut out = Vec::new();

    let meta_raw = match std::fs::read_to_string(dir.join("meta.json")) {
        Ok(s) => s,
        Err(e) => {
            out.push(Diagnostic::new(
                DiagCode::StoreIo,
                Severity::Error,
                format!("cannot read meta.json: {e}"),
                "meta.json".to_string(),
            ));
            return out;
        }
    };
    let meta: StoreMeta = match serde_json::from_str(&meta_raw) {
        Ok(m) => m,
        Err(e) => {
            out.push(Diagnostic::new(
                DiagCode::StoreMetaInvalid,
                Severity::Error,
                format!("meta.json does not parse as store metadata: {e}"),
                "meta.json".to_string(),
            ));
            return out;
        }
    };
    if meta.format_version != SHARD_VERSION {
        out.push(Diagnostic::new(
            DiagCode::ShardBadVersion,
            Severity::Error,
            format!(
                "meta.json declares format version {} (reader speaks {SHARD_VERSION})",
                meta.format_version
            ),
            "meta.json".to_string(),
        ));
        return out;
    }

    let mut all_ids: Vec<u64> = Vec::new();
    for i in 0..meta.shard_count as usize {
        let file = format!("shard-{i:04}.bin");
        let bytes = match std::fs::read(dir.join(&file)) {
            Ok(b) => b,
            Err(e) => {
                out.push(Diagnostic::new(
                    DiagCode::StoreIo,
                    Severity::Error,
                    format!("cannot read {file}: {e}"),
                    file.clone(),
                ));
                continue;
            }
        };
        match decode_shard(&bytes) {
            Ok(contents) => {
                check_shard_contents(&contents, &meta, &file, &mut out);
                all_ids.extend(contents.views.iter().map(|(id, _, _)| *id));
            }
            Err(e) => out.push(shard_error_diag(&e, file.clone())),
        }
    }
    // Per-shard ascending order is decode-enforced; ids must also be
    // globally unique across shards.
    all_ids.sort_unstable();
    if all_ids.windows(2).any(|w| w[0] == w[1]) {
        out.push(Diagnostic::new(
            DiagCode::StoreIdsNotAscending,
            Severity::Error,
            "duplicate view ids across shard files".to_string(),
            "store directory".to_string(),
        ));
    }
    out
}

/// Live store integrity over a published snapshot: epoch vector alignment
/// and monotonicity (`epoch ≤ version` for every view), id order, CSR
/// canonicality of every resident extension, and — when the current graph
/// is supplied — fingerprint agreement, node-id range, and footprint
/// consistency (a [`ViewFootprint::Never`] view must be empty).
///
/// Runs after every `apply_delta` inside the differential fuzz harness.
pub fn check_snapshot(snap: &StoreSnapshot, g: Option<&DataGraph>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let views = snap.views();
    let epochs = snap.epochs();
    if epochs.len() != views.len() {
        out.push(Diagnostic::new(
            DiagCode::StoreEpochMisaligned,
            Severity::Error,
            format!(
                "snapshot holds {} views but stamps {} epochs",
                views.len(),
                epochs.len()
            ),
            format!("snapshot v{}", snap.version),
        ));
    }
    for (v, &e) in views.iter().zip(epochs) {
        if e != v.epoch {
            out.push(Diagnostic::new(
                DiagCode::StoreEpochMisaligned,
                Severity::Error,
                format!(
                    "epoch vector says {e} but view id {} carries epoch {}",
                    v.id, v.epoch
                ),
                format!("view id {}", v.id),
            ));
        }
        if e > snap.version {
            out.push(Diagnostic::new(
                DiagCode::StoreEpochExceedsVersion,
                Severity::Error,
                format!(
                    "view id {} has epoch {e}, beyond snapshot version {}",
                    v.id, snap.version
                ),
                format!("view id {}", v.id),
            ));
        }
    }
    if views.windows(2).any(|w| w[0].id >= w[1].id) {
        out.push(Diagnostic::new(
            DiagCode::StoreIdsNotAscending,
            Severity::Error,
            "snapshot views are not in strictly ascending id order".to_string(),
            format!("snapshot v{}", snap.version),
        ));
    }
    for v in views {
        check_compact_view(&v.ext, &format!("view id {}", v.id), &mut out);
    }
    if let Some(g) = g {
        let actual = crate::storage::graph_fingerprint(g);
        if actual != snap.graph_fingerprint {
            out.push(Diagnostic::new(
                DiagCode::StoreGraphMismatch,
                Severity::Error,
                format!(
                    "snapshot claims graph {:#x} but the supplied graph fingerprints \
                     to {actual:#x}",
                    snap.graph_fingerprint
                ),
                format!("snapshot v{}", snap.version),
            ));
        }
        let n = g.node_count();
        for v in views {
            if let Some(bad) = v
                .ext
                .all_pairs()
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .find(|x| x.index() >= n)
            {
                out.push(Diagnostic::new(
                    DiagCode::StoreNodeOutOfRange,
                    Severity::Error,
                    format!("materialized pair references node {bad} but the graph has {n} nodes"),
                    format!("view id {}", v.id),
                ));
            }
            if ViewFootprint::of(&v.def, g) == ViewFootprint::Never && !v.ext.is_empty() {
                out.push(Diagnostic::new(
                    DiagCode::StoreFootprintInconsistent,
                    Severity::Error,
                    format!(
                        "view id {} can never match on this graph (footprint Never) \
                         yet holds {} pairs",
                        v.id,
                        v.ext.size()
                    ),
                    format!("view id {}", v.id),
                ));
            }
        }
    }
    out
}

/// Re-validates a frozen extension's CSR invariants from its raw columns:
/// both offset tables canonical, node sets and pair sets strictly sorted.
/// (The same checks [`crate::compact::CompactView`] enforces at
/// construction — re-run here so a corrupted or hand-built extension is
/// caught at the store boundary too.)
fn check_compact_view(ext: &crate::compact::CompactView, context: &str, out: &mut Vec<Diagnostic>) {
    let (edge_offsets, pairs, node_offsets, nodes) = ext.columns();
    for (offsets, len, what) in [
        (edge_offsets, pairs.len(), "edge"),
        (node_offsets, nodes.len(), "node"),
    ] {
        if offsets.is_empty()
            || offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || *offsets.last().expect("nonempty") as usize != len
        {
            out.push(Diagnostic::new(
                DiagCode::ShardBadOffsets,
                Severity::Error,
                format!("{what} offset column is not canonical CSR"),
                context.to_string(),
            ));
            return;
        }
    }
    let pairs_sorted = edge_offsets.windows(2).all(|w| {
        pairs[w[0] as usize..w[1] as usize]
            .windows(2)
            .all(|p| p[0] < p[1])
    });
    let nodes_sorted = node_offsets.windows(2).all(|w| {
        nodes[w[0] as usize..w[1] as usize]
            .windows(2)
            .all(|p| p[0] < p[1])
    });
    if !pairs_sorted || !nodes_sorted {
        out.push(Diagnostic::new(
            DiagCode::ShardUnsortedSet,
            Severity::Error,
            "a materialized set is not strictly sorted".to_string(),
            context.to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::ViewEdgeRef;
    use crate::engine::QueryEngine;
    use crate::view::ViewDef;
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let pm = b.add_node(["PM"]);
        let dba = b.add_node(["DBA"]);
        let prg = b.add_node(["PRG"]);
        b.add_edge(pm, dba);
        b.add_edge(dba, prg);
        b.build()
    }

    fn single(x: &str, y: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        b.build().unwrap()
    }

    fn chain(x: &str, y: &str, z: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        let w = b.node_labeled(z);
        b.edge(u, v);
        b.edge(v, w);
        b.build().unwrap()
    }

    #[test]
    fn clean_plan_verifies() {
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("v1", single("PM", "DBA")),
            ViewDef::new("v2", single("DBA", "PRG")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let q = chain("PM", "DBA", "PRG");
        let plan = engine.plan(&q);
        let diags = verify_plan(&q, &plan, engine.views());
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn tampered_plan_is_caught() {
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("v1", single("PM", "DBA")),
            ViewDef::new("v2", single("DBA", "PRG")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let q = chain("PM", "DBA", "PRG");
        let plan = engine.plan(&q);
        let QueryPlan::ViewsOnly(mut vp) = plan else {
            panic!("expected views-only plan");
        };
        // Point edge e1's source at v1 (which covers only e0): the witness
        // check must flag the miscover.
        vp.sources[1] = EdgeSource::View(ViewEdgeRef {
            view: 0,
            edge: PatternEdgeId(0),
        });
        let diags = verify_plan(&q, &QueryPlan::ViewsOnly(vp), engine.views());
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::PlanEdgeNotCovered && d.severity == Severity::Error));
    }

    #[test]
    fn out_of_range_view_index_is_caught() {
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("v1", single("PM", "DBA")),
            ViewDef::new("v2", single("DBA", "PRG")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let q = chain("PM", "DBA", "PRG");
        let QueryPlan::ViewsOnly(mut vp) = engine.plan(&q) else {
            panic!("expected views-only plan");
        };
        vp.sources[0] = EdgeSource::View(ViewEdgeRef {
            view: 99,
            edge: PatternEdgeId(0),
        });
        let diags = verify_plan(&q, &QueryPlan::ViewsOnly(vp), engine.views());
        assert!(diags.iter().any(|d| d.code == DiagCode::PlanViewOutOfRange));
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let d = Diagnostic::new(
            DiagCode::ShardChecksumMismatch,
            Severity::Error,
            "boom",
            "shard-0000.bin",
        );
        let js = serde_json::to_string(&d).unwrap();
        assert!(js.contains("\"GPV054\""), "{js}");
        assert!(js.contains("\"error\""), "{js}");
    }

    #[test]
    fn snapshot_of_live_store_is_clean() {
        let g = graph();
        let store = crate::store::ViewStore::materialize(
            ViewSet::new(vec![
                ViewDef::new("v1", single("PM", "DBA")),
                ViewDef::new("v2", single("DBA", "PRG")),
            ]),
            &g,
            2,
        );
        let diags = check_snapshot(&store.snapshot(), Some(&g));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn shard_error_classification_is_distinct_per_class() {
        use std::collections::HashSet;
        let errs = [
            ShardError::BadMagic,
            ShardError::BadVersion(9),
            ShardError::BadChecksum {
                expected: 1,
                actual: 2,
            },
            ShardError::Truncated {
                needed: 8,
                available: 0,
            },
            ShardError::Malformed("edge offsets not monotonic".into()),
            ShardError::Malformed("edge set not strictly sorted".into()),
            ShardError::Malformed("name index 9 out of table".into()),
            ShardError::Malformed("pattern json: bad".into()),
            ShardError::Malformed("view ids not strictly ascending".into()),
            ShardError::Malformed("3 trailing bytes after last view".into()),
            ShardError::GraphMismatch {
                expected: 1,
                actual: 2,
            },
        ];
        let codes: HashSet<&'static str> = errs
            .iter()
            .map(|e| classify_shard_error(e).code())
            .collect();
        assert_eq!(codes.len(), errs.len(), "codes must be pairwise distinct");
    }
}
