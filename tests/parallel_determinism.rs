//! Workspace-level determinism guarantee of the parallel mining engine:
//! for any thread count **and whichever way the input arrives** (a graph or
//! database that `mine`/`mine_database` freeze, or a CSR snapshot frozen
//! beforehand and handed to `mine_data`), `SkinnyMine` must produce
//! **byte-identical** results — same patterns, same order, same embeddings —
//! because Stage I's chunked occurrence joins and Stage II's per-seed
//! cluster growth both merge their partial results in deterministic task
//! order, and a parallel freeze is byte-identical to a serial one.

use skinny_datagen::{erdos_renyi, inject_patterns, skinny_pattern, ErConfig, SkinnyPatternConfig};
use skinny_graph::{canonical_key, CsrSnapshot, GraphDatabase, LabeledGraph, SupportMeasure};
use skinnymine::{
    Exploration, LengthConstraint, MineResult, MiningData, MiningResult, ReportMode, SkinnyMine,
    SkinnyMineConfig,
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

/// Mines with `config` at 1, 2 and 8 threads, once through `mine_raw`
/// (which freezes its input) and once over the pre-frozen `snapshot`, and
/// asserts every run is byte-identical to the sequential `mine_raw` run.
fn assert_invariant(
    config: SkinnyMineConfig,
    snapshot: &CsrSnapshot,
    mine_raw: impl Fn(&SkinnyMine) -> MineResult<MiningResult>,
) {
    let baseline = mine_raw(&SkinnyMine::new(config.clone().with_threads(1))).expect("mining succeeds");
    assert!(!baseline.is_empty(), "fixture must produce patterns for the comparison to mean anything");
    for threads in [1usize, 2, 8] {
        let miner = SkinnyMine::new(config.clone().with_threads(threads));
        let pre_frozen = miner.mine_data(MiningData::Snapshot(snapshot)).expect("mining succeeds");
        assert_eq!(pre_frozen.stats.freeze_seconds, 0.0, "a pre-frozen snapshot is mined without a freeze");
        let mut runs = vec![("pre-frozen", pre_frozen)];
        if threads > 1 {
            runs.push(("raw", mine_raw(&miner).expect("mining succeeds")));
        }
        for (input, run) in runs {
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&run),
                "threads = {threads}, input = {input} diverged from the sequential result"
            );
            assert_eq!(baseline.stats.clusters, run.stats.clusters);
            assert_eq!(baseline.stats.reported_patterns, run.stats.reported_patterns);
            assert_eq!(
                baseline.stats.level_grow.candidates_examined, run.stats.level_grow.candidates_examined,
                "threads = {threads}, input = {input}: ordered merge must reproduce the sequential \
                 counters"
            );
        }
    }
}

fn assert_thread_invariant(config: SkinnyMineConfig, graph: &LabeledGraph) {
    assert_invariant(config, &CsrSnapshot::from_graph(graph), |miner| miner.mine(graph));
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
    let db = GraphDatabase::from_graphs((0..4).map(|i| t(i as u64)).collect());
    let config = SkinnyMineConfig::new(6, 2, 3)
        .with_support_measure(SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    assert_invariant(config, &CsrSnapshot::from_database(&db), |miner| miner.mine_database(&db));
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
