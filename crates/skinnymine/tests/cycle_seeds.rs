//! Regression test for frequent-cycle seeding (ROADMAP open item):
//! genuinely minimal **non-path** patterns exist — C₅ for `l = 2` is
//! `(2, δ)`-skinny for `δ >= 1`, and every one-edge or one-vertex reduction
//! violates the constraint — so Definition-8 completeness requires Stage I
//! to seed the frequent odd cycles `C_{2l+1}` directly: Stage II can never
//! reach them from path seeds, because each intermediate pattern breaks the
//! canonical-diameter invariant.

use skinny_graph::{Label, LabeledGraph, SupportMeasure};
use skinnymine::{satisfies_skinny_spec, MinimalPatternIndex, ReportMode, SkinnyMine, SkinnyMineConfig};

fn l(x: u32) -> Label {
    Label(x)
}

/// Two disjoint all-same-label pentagons plus two disjoint 3-paths of a
/// different label (so path clusters exist alongside the cycle clusters).
fn pentagon_data() -> LabeledGraph {
    let mut labels = vec![l(7); 10];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for base in [0u32, 5] {
        for i in 0..5 {
            edges.push((base + i, base + (i + 1) % 5));
        }
    }
    for _ in 0..2 {
        let base = labels.len() as u32;
        labels.extend([l(1), l(2), l(3)]);
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

fn is_c5(p: &skinnymine::SkinnyPattern) -> bool {
    p.vertex_count() == 5 && p.edge_count() == 5
}

#[test]
fn c5_is_mined_for_l2_and_missed_without_cycle_seeds() {
    let g = pentagon_data();
    let config = SkinnyMineConfig::new(2, 1, 2).with_report(ReportMode::All);
    let result = SkinnyMine::new(config.clone()).mine(&g).unwrap();
    let c5 = result.patterns.iter().find(|p| is_c5(p)).expect("C5 must be seeded and reported");
    assert_eq!(c5.diameter_len, 2);
    assert_eq!(c5.skinniness, 1);
    assert_eq!(c5.support, 2);
    // the reported pattern genuinely satisfies the (2, 1) skinny spec with
    // its designated canonical diameter
    assert!(satisfies_skinny_spec(&c5.graph, 2, 1, &c5.diameter_labels));
    // every vertex of a C5 has degree 2
    assert!(c5.graph.vertices().all(|v| c5.graph.degree(v) == 2));
    // its occurrences are genuine and land on the two pentagons
    for e in c5.embeddings.iter() {
        assert!(e.is_valid(&c5.graph, &g));
    }
    assert_eq!(c5.embeddings.distinct_vertex_sets(), 2);

    // without cycle seeding the same request misses the pattern entirely —
    // this is the completeness gap the seeding closes
    let crippled = SkinnyMine::new(config.with_cycle_seeds(false)).mine(&g).unwrap();
    assert!(
        !crippled.patterns.iter().any(is_c5),
        "C5 must be unreachable from path seeds; if this fires, the regression test fixture is wrong"
    );
}

#[test]
fn index_serves_cycle_seeds() {
    let g = pentagon_data();
    let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
    // the C5 seed is pre-derived at build time
    assert_eq!(idx.minimal_cycles(2).len(), 1);
    assert_eq!(idx.minimal_cycles(2)[0].cycle_len(), 5);
    assert!(idx.minimal_cycles(3).is_empty());
    let result = idx.request_exact(2, 1, ReportMode::All).unwrap();
    assert!(result.patterns.iter().any(is_c5), "index request must report the C5 pattern");
    // and the served result matches direct mining exactly
    let direct = SkinnyMine::new(
        SkinnyMineConfig::new(2, 1, 2)
            .with_report(ReportMode::All)
            .with_length(skinnymine::LengthConstraint::Exactly(2)),
    )
    .mine(&g)
    .unwrap();
    assert_eq!(result.patterns.len(), direct.patterns.len());
}

#[test]
fn c3_is_mined_for_l1() {
    // two disjoint triangles: C3 is the minimal non-path pattern for l = 1
    let g = LabeledGraph::from_unlabeled_edges(&[l(0); 6], [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        .unwrap();
    let config = SkinnyMineConfig::new(1, 1, 2).with_report(ReportMode::All);
    let result = SkinnyMine::new(config).mine(&g).unwrap();
    let c3 = result
        .patterns
        .iter()
        .find(|p| p.vertex_count() == 3 && p.edge_count() == 3)
        .expect("C3 must be seeded and reported");
    assert_eq!(c3.diameter_len, 1);
    assert_eq!(c3.support, 2);
    assert!(c3.embeddings.iter().all(|e| e.is_valid(&c3.graph, &g)));
}
