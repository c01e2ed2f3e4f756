//! Engine-contract property tests (seeded): on random graph / view /
//! pattern triples, `QueryEngine::answer(q, g)` must equal the
//! `match_pattern(q, g)` ground truth for *every* plan shape the planner
//! can pick — views-only under all three selection modes, the parallel
//! executor, hybrid partial coverage, direct fallback, and bounded plans.

use gpv_generator::{
    covering_bounded_views, covering_views, random_bounded_pattern, random_graph, random_pattern,
    PatternShape,
};
use graph_views::prelude::*;
use graph_views::views::{EdgeSource, ExecStrategy, QueryPlan};
use proptest::prelude::*;

const LABELS: [&str; 4] = ["A", "B", "C", "D"];

/// Thread counts the parallel-equivalence sweep exercises. CI forces the
/// threaded code paths on 1-core runners by extending the matrix through
/// `GPV_TEST_THREADS` (the counts are explicit worker counts, not
/// `available_parallelism`, so they fan out real threads anywhere).
fn sweep_threads() -> Vec<usize> {
    let mut ts = vec![1usize, 2, 4, 8];
    if let Ok(v) = std::env::var("GPV_TEST_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if !ts.contains(&n) {
                ts.push(n);
            }
        }
    }
    ts
}

fn arb_graph() -> impl Strategy<Value = DataGraph> {
    (5usize..60, 10usize..150, any::<u64>())
        .prop_map(|(n, m, seed)| random_graph(n, m, &LABELS, seed))
}

fn arb_query() -> impl Strategy<Value = Pattern> {
    (2usize..5, 1usize..6, any::<u64>())
        .prop_map(|(nv, ne, seed)| random_pattern(nv, ne, &LABELS, PatternShape::Any, seed))
}

fn arb_bounded_query() -> impl Strategy<Value = BoundedPattern> {
    (2usize..4, 1usize..5, 1u32..4, any::<u64>()).prop_map(|(nv, ne, k, seed)| {
        random_bounded_pattern(nv, ne, &LABELS, k, PatternShape::Any, seed)
    })
}

/// Cost-weight variants spanning the sourcing decisions the planner can
/// make: the unit-free default (views always win), scan-cheap calibrations
/// (bloated extensions demoted to graph scans), and read-expensive ones.
fn cost_variants() -> Vec<CostModel> {
    vec![
        CostModel::default(),
        CostModel {
            scan_edge: 0.001,
            refine_pair: 0.01,
            calibrated: true,
            ..CostModel::default()
        },
        CostModel {
            read_pair: 50.0,
            scan_edge: 0.5,
            refine_pair: 0.2,
            calibrated: true,
            ..CostModel::default()
        },
        CostModel {
            read_pair: 0.02,
            scan_edge: 1_000.0,
            calibrated: true,
            ..CostModel::default()
        },
    ]
}

/// Configs that pin each selection mode, plus the cost-based default.
fn mode_configs() -> Vec<EngineConfig> {
    let mut cfgs = vec![EngineConfig::default()];
    for m in [
        SelectionMode::All,
        SelectionMode::Minimal,
        SelectionMode::Minimum,
    ] {
        cfgs.push(EngineConfig {
            force_selection: Some(m),
            ..EngineConfig::default()
        });
    }
    cfgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Covered queries: the engine must answer from views alone, matching
    /// the ground truth under every selection mode and both executors.
    #[test]
    fn engine_equals_match_when_contained(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let direct = match_pattern(&q, &g);
        for cfg in mode_configs() {
            let engine = QueryEngine::materialize(views.clone(), &g).with_config(cfg);
            let plan = engine.plan(&q);
            prop_assert!(!plan.needs_graph(), "covering views contain q: {plan}");
            prop_assert_eq!(&engine.answer_from_views(&q).unwrap(), &direct);
            prop_assert_eq!(&engine.answer(&q, &g).unwrap(), &direct);
        }
        // Forced parallel execution (2 and 4 workers) agrees bit-for-bit.
        for threads in [2usize, 4] {
            let engine = QueryEngine::materialize(views.clone(), &g).with_config(EngineConfig {
                force_exec: Some(ExecStrategy::Parallel { threads }),
                ..EngineConfig::default()
            });
            prop_assert_eq!(&engine.answer_from_views(&q).unwrap(), &direct);
        }
    }

    /// The parallel-executor acceptance property: the per-edge parallel
    /// executor is **bit-for-bit identical** to the sequential
    /// `RankedBottomUp` strategy across threads ∈ {1, 2, 4, 8} (plus
    /// `GPV_TEST_THREADS`). Work units are fixed by index, so the thread
    /// count may not leak into the answer.
    #[test]
    fn parallel_is_bit_identical_to_ranked_bottom_up(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
    ) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let sequential = QueryEngine::materialize(views.clone(), &g).with_config(EngineConfig {
            force_exec: Some(ExecStrategy::Sequential(JoinStrategy::RankedBottomUp)),
            ..EngineConfig::default()
        });
        let baseline = sequential.answer_from_views(&q).unwrap();
        prop_assert_eq!(&baseline, &match_pattern(&q, &g));
        for threads in sweep_threads() {
            let engine = QueryEngine::materialize(views.clone(), &g).with_config(EngineConfig {
                force_exec: Some(ExecStrategy::Parallel { threads }),
                ..EngineConfig::default()
            });
            prop_assert_eq!(
                &engine.answer_from_views(&q).unwrap(),
                &baseline,
                "threads={}", threads
            );
        }
    }

    /// The union-merge ablation path under the parallel strategy:
    /// `match_join_union_with(Parallel)` runs the sequential union merge,
    /// then the parallel fixpoint, and must equal the sequential
    /// `RankedBottomUp` union join.
    #[test]
    fn parallel_union_join_matches_sequential(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
    ) {
        use graph_views::views::matchjoin::match_join_union_with;
        use graph_views::views::{contain, materialize};
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let Some(plan) = contain(&q, &views) else {
            return Ok(()); // covering_views should contain q; skip if not
        };
        let ext = materialize(&views, &g);
        let (seq, _) =
            match_join_union_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        let (par, _) = match_join_union_with(&q, &plan, &ext, JoinStrategy::Parallel).unwrap();
        prop_assert_eq!(par, seq);
    }

    /// Partially-covered queries: the planner picks hybrid (or direct) and
    /// `answer` still equals the ground truth; strict views-only answering
    /// refuses.
    #[test]
    fn engine_equals_match_under_partial_coverage(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
        keep_probe in any::<u64>(),
    ) {
        // Drop some of the covering views so coverage is partial (or, for
        // single-edge queries, possibly empty).
        let full = covering_views(std::slice::from_ref(&q), 2, vseed);
        let keep: Vec<usize> = (0..full.card())
            .filter(|i| (keep_probe >> (i % 64)) & 1 == 1)
            .collect();
        let views = full.subset(&keep);
        let engine = QueryEngine::materialize(views, &g);
        let direct = match_pattern(&q, &g);
        let plan = engine.plan(&q);
        prop_assert_eq!(&engine.answer(&q, &g).unwrap(), &direct, "plan was: {}", plan);
        if plan.needs_graph() {
            prop_assert!(engine.answer_from_views(&q).is_err());
        }
    }

    /// No views at all: the engine falls back to direct evaluation.
    #[test]
    fn engine_direct_fallback(g in arb_graph(), q in arb_query()) {
        let engine = QueryEngine::materialize(graph_views::views::ViewSet::default(), &g);
        prop_assert!(matches!(engine.plan(&q), QueryPlan::Direct { .. }));
        prop_assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    /// Bounded queries: engine plans over the bounded registry equal
    /// `bmatch_pattern` (Theorem 8), under every selection mode.
    #[test]
    fn engine_bounded_equals_bmatch(g in arb_graph(), qb in arb_bounded_query(), vseed in any::<u64>()) {
        let views = covering_bounded_views(std::slice::from_ref(&qb), 2, vseed);
        let direct = bmatch_pattern(&qb, &g);
        for cfg in mode_configs() {
            let engine = QueryEngine::materialize(graph_views::views::ViewSet::default(), &g)
                .with_bounded_views(views.clone(), &g)
                .with_config(cfg);
            prop_assert_eq!(&engine.answer_bounded(&qb).unwrap(), &direct);
        }
    }

    /// Hybrid per-edge sourcing never changes answers: whatever
    /// `EdgeSource` assignment the planner emits — under the default
    /// weights or any calibrated variant, over full, partial, or no
    /// coverage — `answer` equals `match_pattern`, and the emitted source
    /// vector always has one entry per query edge.
    #[test]
    fn hybrid_sourcing_never_changes_answers(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
        keep_probe in any::<u64>(),
    ) {
        let full = covering_views(std::slice::from_ref(&q), 2, vseed);
        let keep: Vec<usize> = (0..full.card())
            .filter(|i| (keep_probe >> (i % 64)) & 1 == 1)
            .collect();
        let views = full.subset(&keep);
        let direct = match_pattern(&q, &g);
        for cost in cost_variants() {
            let engine = QueryEngine::materialize(views.clone(), &g).with_config(EngineConfig {
                cost,
                ..EngineConfig::default()
            });
            let plan = engine.plan(&q);
            if let Some(sources) = plan.sources() {
                prop_assert_eq!(sources.len(), q.edge_count(), "plan: {}", plan);
            }
            prop_assert_eq!(&engine.answer(&q, &g).unwrap(), &direct, "plan: {}", plan);
        }
    }

    /// Calibration recovers known weights from synthetic logs: samples
    /// manufactured with random ground-truth weights are fitted back to
    /// those weights within tolerance, and the fitted model predicts the
    /// log better than the default one.
    #[test]
    fn calibrate_recovers_random_weights(
        wr in 1u32..2_000, wf in 1u32..2_000, ws in 1u32..2_000,
        jitter in any::<u64>(),
    ) {
        use graph_views::views::{CostEstimate, CostLog, CostSample, JoinStats};
        let truth = (wr as f64 / 100.0, wf as f64 / 100.0, ws as f64 / 100.0);
        let mut log = CostLog::new(128);
        for i in 1..16u64 {
            let j = (jitter >> (i % 32)) & 0x7;
            for (pairs, merged, scanned, ne) in [
                (100 * i + 13 * j, 80 * i + j, 0, 3),
                (37 * i, 22 * i + 9 * j, 11 * i, 4),
                (0, 0, 41 * i + j, 2),
            ] {
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
                log.push(CostSample {
                    wall_micros: truth.0 * f0 + truth.1 * f1 + truth.2 * f2,
                    ..s
                });
            }
        }
        let fitted = CostModel::default().calibrate(&log).expect("well-conditioned log");
        prop_assert!(fitted.calibrated);
        prop_assert!((fitted.read_pair - truth.0).abs() / truth.0 < 1e-2, "{} vs {}", fitted.read_pair, truth.0);
        prop_assert!((fitted.refine_pair - truth.1).abs() / truth.1 < 1e-2, "{} vs {}", fitted.refine_pair, truth.1);
        prop_assert!((fitted.scan_edge - truth.2).abs() / truth.2 < 1e-2, "{} vs {}", fitted.scan_edge, truth.2);
        let fit_err = fitted.mean_relative_error(&log).unwrap();
        prop_assert!(fit_err < 1e-3, "fitted error {fit_err}");
    }

    /// The plan IR is stable through serialization (plans are cacheable).
    #[test]
    fn plans_roundtrip_through_json(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        let json = serde_json::to_string(&plan).unwrap();
        let back: QueryPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, plan);
    }
}

/// A calibrated model that prices scans cheap must actually demote a
/// bloated covered extension to a graph scan (mixed sources, CostBased
/// hybrid) — and the answer is still exactly `match_pattern`. This pins
/// that the sourcing proptest genuinely exercises both `EdgeSource` arms.
#[test]
fn cheap_scan_calibration_emits_mixed_sources() {
    use graph_views::views::FallbackReason;
    let mut b = GraphBuilder::new();
    // 20 A->B edges (bloated vab extension), one B->C edge (tight vbc).
    let c = {
        let mut last_b = None;
        for _ in 0..20 {
            let a = b.add_node(["A"]);
            let bb = b.add_node(["B"]);
            b.add_edge(a, bb);
            last_b = Some(bb);
        }
        let c = b.add_node(["C"]);
        b.add_edge(last_b.unwrap(), c);
        c
    };
    let _ = c;
    let g = b.build();

    let single = |x: &str, y: &str| {
        let mut p = PatternBuilder::new();
        let u = p.node_labeled(x);
        let v = p.node_labeled(y);
        p.edge(u, v);
        p.build().unwrap()
    };
    let mut p = PatternBuilder::new();
    let ua = p.node_labeled("A");
    let ub = p.node_labeled("B");
    let uc = p.node_labeled("C");
    p.edge(ua, ub);
    p.edge(ub, uc);
    let q = p.build().unwrap();

    let views = graph_views::views::ViewSet::new(vec![
        ViewDef::new("vab", single("A", "B")),
        ViewDef::new("vbc", single("B", "C")),
    ]);
    let cheap_scan = CostModel {
        read_pair: 1.0,
        scan_edge: 0.1,
        refine_pair: 0.01,
        calibrated: true,
        ..CostModel::default()
    };
    let engine = QueryEngine::materialize(views.clone(), &g).with_config(EngineConfig {
        cost: cheap_scan,
        ..EngineConfig::default()
    });
    let plan = engine.plan(&q);
    let QueryPlan::Hybrid {
        sources, reason, ..
    } = &plan
    else {
        panic!("expected a cost-based hybrid, got: {plan}");
    };
    assert_eq!(*reason, FallbackReason::CostBased);
    assert!(
        matches!(sources[0], EdgeSource::Graph),
        "bloated extension demoted to a scan: {plan}"
    );
    assert!(
        matches!(sources[1], EdgeSource::View(_)),
        "tight extension stays on the view: {plan}"
    );
    assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));

    // Strict Theorem-1 mode: the demotion is a performance preference, not
    // an availability requirement — with no graph supplied the fully-covered
    // hybrid falls back to its view sources and still answers.
    assert!(plan.graph_optional());
    assert_eq!(engine.answer_from_views(&q).unwrap(), match_pattern(&q, &g));

    // Under the default weights the same registry stays views-only.
    let default_engine = QueryEngine::materialize(views, &g);
    assert!(!default_engine.plan(&q).needs_graph());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scenario-driven differential sweep: a `Scenario` sampled from a
    /// random (master seed, index) pair bundles every knob — graph source,
    /// query mode, executor, weights, cache state — and the differential
    /// checker asserts the engine and service agree bit-exactly with
    /// `match_pattern` on all of it. Failures print the scenario's
    /// one-line JSON and the exact `gpv fuzz --repro` command.
    #[test]
    fn scenario_differential_matches_oracle(master in any::<u64>(), idx in 0u64..60) {
        let sc = gpv_generator::Scenario::sample(master, idx);
        if let Err(d) = gpv_generator::check_scenario(&sc) {
            return Err(TestCaseError::fail(format!(
                "{d}\nscenario: {}\nrepro: {}",
                sc.to_json_line(),
                sc.repro_command()
            )));
        }
    }
}
