//! Workspace-level determinism guarantee of the parallel mining engine:
//! for any thread count **and for either data representation**
//! (adjacency lists or the columnar CSR snapshot), `SkinnyMine` must produce
//! **byte-identical** results — same patterns, same order, same embeddings —
//! because Stage I's chunked occurrence joins and Stage II's per-seed
//! cluster growth both merge their partial results in deterministic task
//! order, and both representations share one neighbor/edge iteration order.

use skinny_datagen::{erdos_renyi, inject_patterns, skinny_pattern, ErConfig, SkinnyPatternConfig};
use skinny_graph::{canonical_key, LabeledGraph, SupportMeasure};
use skinnymine::{
    Exploration, LengthConstraint, MiningResult, ReportMode, Representation, SkinnyMine, SkinnyMineConfig,
};

/// An Erdős–Rényi background with a known skinny pattern injected twice.
fn injected_er_graph() -> LabeledGraph {
    let background = erdos_renyi(&ErConfig::new(260, 2.0, 40, 7));
    let pattern = skinny_pattern(&SkinnyPatternConfig::new(13, 8, 2, 40, 19));
    inject_patterns(&background, &[(pattern, 2)], 3).graph
}

/// A full, order-sensitive fingerprint of a mining result: canonical key,
/// cluster identity, support flags and the exact embedding lists of every
/// pattern, in reported order.
fn fingerprint(result: &MiningResult) -> Vec<String> {
    result
        .patterns
        .iter()
        .map(|p| {
            format!(
                "{:?}|{:?}|{}|{}|{}|{:?}",
                canonical_key(&p.graph),
                p.diameter_labels,
                p.support,
                p.closed,
                p.maximal,
                p.embeddings.embeddings,
            )
        })
        .collect()
}

fn assert_thread_invariant(config: SkinnyMineConfig, graph: &LabeledGraph) {
    let baseline =
        SkinnyMine::new(config.clone().with_threads(1).with_representation(Representation::Adjacency))
            .mine(graph)
            .expect("mining succeeds");
    assert!(!baseline.is_empty(), "fixture must produce patterns for the comparison to mean anything");
    for representation in [Representation::Adjacency, Representation::CsrSnapshot] {
        for threads in [1usize, 2, 8] {
            if representation == Representation::Adjacency && threads == 1 {
                continue; // that is the baseline itself
            }
            let run =
                SkinnyMine::new(config.clone().with_threads(threads).with_representation(representation))
                    .mine(graph)
                    .expect("mining succeeds");
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&run),
                "threads = {threads}, representation = {representation:?} diverged from the \
                 sequential adjacency result"
            );
            assert_eq!(baseline.stats.clusters, run.stats.clusters);
            assert_eq!(baseline.stats.reported_patterns, run.stats.reported_patterns);
            assert_eq!(
                baseline.stats.level_grow.candidates_examined, run.stats.level_grow.candidates_examined,
                "threads = {threads}, representation = {representation:?}: ordered merge must \
                 reproduce the sequential counters"
            );
        }
    }
}

#[test]
fn closure_jump_mining_is_thread_invariant() {
    let graph = injected_er_graph();
    let config = SkinnyMineConfig::new(8, 2, 2)
        .with_length(LengthConstraint::AtLeast(7))
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    assert_thread_invariant(config, &graph);
}

#[test]
fn exhaustive_mining_is_thread_invariant() {
    let graph = injected_er_graph();
    let config = SkinnyMineConfig::new(7, 1, 2)
        .with_length(LengthConstraint::Between(6, 7))
        .with_report(ReportMode::All);
    assert_thread_invariant(config, &graph);
}

#[test]
fn transaction_setting_is_thread_invariant() {
    let t = |seed: u64| {
        let background = erdos_renyi(&ErConfig::new(120, 2.0, 30, seed));
        let pattern = skinny_pattern(&SkinnyPatternConfig::new(10, 6, 2, 30, 77));
        inject_patterns(&background, &[(pattern, 1)], seed + 1).graph
    };
    let db = skinny_graph::GraphDatabase::from_graphs((0..4).map(|i| t(i as u64)).collect());
    let config = SkinnyMineConfig::new(6, 2, 3)
        .with_support_measure(skinny_graph::SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    let baseline =
        SkinnyMine::new(config.clone().with_threads(1).with_representation(Representation::Adjacency))
            .mine_database(&db)
            .expect("mining succeeds");
    for representation in [Representation::Adjacency, Representation::CsrSnapshot] {
        for threads in [1usize, 2, 8] {
            if representation == Representation::Adjacency && threads == 1 {
                continue;
            }
            let run =
                SkinnyMine::new(config.clone().with_threads(threads).with_representation(representation))
                    .mine_database(&db)
                    .expect("mining succeeds");
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&run),
                "threads = {threads}, representation = {representation:?}"
            );
        }
    }
}

/// Two disjoint copies each of a labeled pentagon and a labeled heptagon,
/// each with a pendant vertex, so Stage I seeds C₅ (`l = 2`) and C₇
/// (`l = 3`) clusters next to the path clusters.
fn odd_cycle_graph() -> LabeledGraph {
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for _ in 0..2 {
        for cycle in [&[0u32, 1, 2, 3, 4][..], &[5, 6, 7, 8, 5, 6, 9]] {
            let base = labels.len() as u32;
            let m = cycle.len() as u32;
            labels.extend(cycle.iter().map(|&x| skinny_graph::Label(x)));
            edges.extend((0..m).map(|i| (base + i, base + (i + 1) % m)));
            labels.push(skinny_graph::Label(10));
            edges.push((base, base + m));
        }
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).expect("valid fixture")
}

/// Covers both cycle-seed routes: the length-`2l` closing route
/// (DistinctVertexSets) and the length-`l` join (MinimumImage).
#[test]
fn cycle_seeded_mining_is_thread_invariant() {
    let graph = odd_cycle_graph();
    for measure in [SupportMeasure::DistinctVertexSets, SupportMeasure::MinimumImage] {
        let config = SkinnyMineConfig::new(2, 2, 2)
            .with_length(LengthConstraint::Between(2, 3))
            .with_support_measure(measure)
            .with_report(ReportMode::All);
        let result = SkinnyMine::new(config.clone()).mine(&graph).expect("mining succeeds");
        for m in [5usize, 7] {
            assert!(
                result.patterns.iter().any(|p| p.vertex_count() == m
                    && p.edge_count() == m
                    && p.graph.vertices().all(|v| p.graph.degree(v) == 2)),
                "the fixture must seed and report C{m} under {measure:?}"
            );
        }
        assert_thread_invariant(config, &graph);
    }
}
