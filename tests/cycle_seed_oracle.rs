//! Brute-force oracle for Stage-I cycle seeds.
//!
//! `DiamMine::cycle_seeds_with_stats` is the derivation `SkinnyMine::mine`
//! and the minimal-pattern index share: it joins the frequent odd cycles
//! `C_{2l+1}` out of a length-`l` path level under `Transactions` and
//! `MinimumImage`, and closes the frequent length-`2l` paths
//! (`DiamMine::cycles_from_paths`, the closing route) under the measures
//! that are not anti-monotone.  Both are checked here against a depth-first
//! enumeration of every `C_{2l+1}` occurrence of small random graphs, in the
//! single-graph and the transaction setting, for `l ∈ {1, 2, 3}` and
//! `σ ∈ {2, 3}`:
//!
//! * under every support measure each seed is **sound** — every row is a
//!   real, canonical, distinct `C_{2l+1}` occurrence of its key, rows are
//!   sorted, and support reaches σ — the seeds hold every key the closing
//!   route finds, and the minimal-pattern index holds the same seeds;
//! * under `Transactions` and `MinimumImage` (both anti-monotone) the seeds
//!   equal the brute force byte for byte, and under `Transactions` so does
//!   the closing route;
//! * under `DistinctVertexSets` and `EmbeddingCount` the seeds are the
//!   closing route's.  That route reads σ-filtered path levels whose support
//!   is not anti-monotone there, so it can miss a cycle the brute force
//!   finds; those counts are printed, not asserted.

use skinny_datagen::splitmix64;
use skinny_graph::{CsrSnapshot, GraphDatabase, GraphView, Label, LabeledGraph, SupportMeasure, VertexId};
use skinnymine::{CycleKey, CyclePattern, DiamMine, MinimalPatternIndex, MiningData, MiningStats};
use std::collections::BTreeMap;

const MEASURES: [SupportMeasure; 4] = [
    SupportMeasure::EmbeddingCount,
    SupportMeasure::DistinctVertexSets,
    SupportMeasure::MinimumImage,
    SupportMeasure::Transactions,
];

/// Graphs per setting.
const GRAPHS: u64 = 100;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n
    }
}

/// A random graph on 7–14 vertices with up to `vertex_labels` vertex labels,
/// mean degree about 3, and about one edge in four carrying label 1.
fn random_graph(rng: &mut Rng, vertex_labels: u64) -> LabeledGraph {
    let n = 7 + rng.below(8) as u32;
    let mut g = LabeledGraph::with_capacity(n as usize);
    for _ in 0..n {
        g.add_vertex(Label(rng.below(vertex_labels) as u32));
    }
    for u in 0..n {
        for v in u + 1..n {
            if rng.below(n as u64 - 1) < 3 {
                let label = if rng.below(4) == 0 { Label(1) } else { Label::DEFAULT_EDGE };
                g.add_edge(VertexId(u), VertexId(v), label).expect("fresh edge");
            }
        }
    }
    g
}

/// Every frequent `C_{2l+1}` by brute force: a depth-first enumeration of the
/// simple cycles through each start vertex over larger vertex ids, each
/// undirected cycle taken once, canonicalized, grouped by key, and
/// σ-filtered.
fn brute_force_cycles(
    data: &MiningData<'_>,
    l: usize,
    sigma: usize,
    measure: SupportMeasure,
) -> Vec<CyclePattern> {
    fn extend<G: GraphView>(
        view: &G,
        m: usize,
        path: &mut Vec<VertexId>,
        found: &mut Vec<(Vec<VertexId>, Label)>,
    ) {
        let (start, last) = (path[0], *path.last().expect("nonempty path"));
        if path.len() == m {
            // each undirected cycle is walked in both directions from its
            // smallest vertex; keep the walk with the smaller second vertex
            if path[1] < last {
                if let Some(closing) = view.edge_label(last, start) {
                    found.push((path.clone(), closing));
                }
            }
            return;
        }
        for (next, _) in view.neighbors(last) {
            if next > start && !path.contains(&next) {
                path.push(next);
                extend(view, m, path, found);
                path.pop();
            }
        }
    }

    let mut by_key: BTreeMap<CycleKey, CyclePattern> = BTreeMap::new();
    for t in 0..data.transaction_count() {
        let view = data.view(t);
        let mut found = Vec::new();
        for s in view.vertices() {
            extend(&view, 2 * l + 1, &mut vec![s], &mut found);
        }
        for (path, closing) in found {
            let (key, row) = CyclePattern::canonicalize(&view, &path, closing);
            by_key.entry(key.clone()).or_insert_with(|| CyclePattern::new(key)).push_occurrence(t, &row);
        }
    }
    by_key
        .into_values()
        .map(|mut c| {
            c.dedup();
            c
        })
        .filter(|c| c.support(measure) >= sigma)
        .collect()
}

/// Asserts that every seed is a frequent `C_{2l+1}` whose rows are real,
/// canonical, distinct occurrences of its key in sorted order.
fn assert_sound(
    data: &MiningData<'_>,
    seeds: &[CyclePattern],
    l: usize,
    sigma: usize,
    measure: SupportMeasure,
) {
    let m = 2 * l + 1;
    for c in seeds {
        assert_eq!(c.cycle_len(), m, "{:?}", c.key);
        assert!(c.support(measure) >= sigma, "{:?} below σ = {sigma} under {measure:?}", c.key);
        let rows: Vec<(usize, &[VertexId])> =
            c.embeddings.iter().map(|r| (r.transaction, r.vertices)).collect();
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "{:?}: rows not strictly sorted", c.key);
        for &(t, row) in &rows {
            let view = data.view(t);
            for i in 0..m {
                assert_eq!(view.label(row[i]), c.key.vertex_labels[i], "{:?} row {row:?}", c.key);
                assert_eq!(
                    view.edge_label(row[i], row[(i + 1) % m]),
                    Some(c.key.edge_labels[i]),
                    "{:?} row {row:?} is not a cycle of its key",
                    c.key
                );
            }
            let (key, canonical) = CyclePattern::canonicalize(&view, row, c.key.edge_labels[m - 1]);
            assert_eq!((&key, canonical.as_slice()), (&c.key, row), "row {row:?} is not canonical");
        }
    }
}

fn same(a: &[CyclePattern], b: &[CyclePattern]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.key == y.key && x.embeddings == y.embeddings)
}

/// Per-measure counts of configs, each config counted once per line.
#[derive(Debug, Default)]
struct Tally {
    configs: usize,
    /// The brute force found at least one frequent cycle.
    with_cycles: usize,
    /// The seeds differ from the brute force in any byte.
    seeds_vs_brute: usize,
    /// The seeds lack a key the brute force finds.
    seeds_lost_key: usize,
}

/// True when `a` has a key `b` lacks.
fn has_extra_key(a: &[CyclePattern], b: &[CyclePattern]) -> bool {
    a.iter().any(|x| !b.iter().any(|y| y.key == x.key))
}

/// Runs every measure × l × σ on one input, adding to the per-measure
/// tallies.  `index` builds the minimal-pattern index of the same input at
/// a given σ and measure.
fn check_input(
    snapshot: &CsrSnapshot,
    index: impl Fn(usize, SupportMeasure) -> MinimalPatternIndex,
    tallies: &mut BTreeMap<String, Tally>,
) {
    let data = MiningData::Snapshot(snapshot);
    for measure in MEASURES {
        for sigma in [2usize, 3] {
            let dm = DiamMine::new(data, sigma, measure);
            let idx = index(sigma, measure);
            for l in 1..=3usize {
                // the call `SkinnyMine::mine` makes for an `Exactly(l)` run
                let seeds = dm
                    .cycle_seeds_with_stats(
                        &dm.mine_range(l, Some(l)),
                        &[l],
                        Some(l),
                        &mut MiningStats::default(),
                    )
                    .remove(&l)
                    .unwrap_or_default();
                let closing = dm.cycles_from_paths(&dm.mine_exact(2 * l), l);
                let brute = brute_force_cycles(&data, l, sigma, measure);
                assert_sound(&data, &seeds, l, sigma, measure);
                assert_sound(&data, &closing, l, sigma, measure);
                assert_sound(&data, &brute, l, sigma, measure);
                assert!(same(&dm.frequent_cycles(l), &seeds));
                // the index derives the seeds of every l whose 2l it holds
                // as direct mining does
                if !idx.minimal_patterns(2 * l).is_empty() {
                    assert!(
                        same(idx.minimal_cycles(l), &seeds),
                        "{measure:?}: index != direct (l = {l}, σ = {sigma})"
                    );
                }
                assert!(
                    !has_extra_key(&closing, &seeds),
                    "{measure:?}: the seeds lack a key the closing route finds (l = {l}, σ = {sigma})"
                );
                match measure {
                    SupportMeasure::Transactions | SupportMeasure::MinimumImage => {
                        assert!(
                            same(&seeds, &brute),
                            "{measure:?}: seeds != brute force (l = {l}, σ = {sigma})"
                        );
                    }
                    SupportMeasure::DistinctVertexSets | SupportMeasure::EmbeddingCount => {
                        assert!(
                            same(&seeds, &closing),
                            "{measure:?}: seeds != closing route (l = {l}, σ = {sigma})"
                        );
                    }
                }
                if measure == SupportMeasure::Transactions {
                    assert!(same(&closing, &brute), "closing route != brute force (l = {l}, σ = {sigma})");
                }
                let tally = tallies.entry(format!("{measure:?}")).or_default();
                tally.configs += 1;
                tally.with_cycles += usize::from(!brute.is_empty());
                tally.seeds_vs_brute += usize::from(!same(&seeds, &brute));
                tally.seeds_lost_key += usize::from(has_extra_key(&brute, &seeds));
            }
        }
    }
}

/// Prints the tallies (visible with `cargo test -- --nocapture`).
fn report(setting: &str, tallies: &BTreeMap<String, Tally>) {
    for (measure, t) in tallies {
        eprintln!("{setting} {measure}: {t:?}");
    }
}

#[test]
fn single_graph_cycle_seeds_match_brute_force() {
    let mut tallies = BTreeMap::new();
    for seed in 0..GRAPHS {
        let mut rng = Rng(splitmix64(seed));
        let vertex_labels = 1 + rng.below(3);
        let g = random_graph(&mut rng, vertex_labels);
        let index = |sigma, measure| MinimalPatternIndex::build(&g, sigma, measure, None);
        check_input(&CsrSnapshot::from_graph(&g), index, &mut tallies);
    }
    report("single graph", &tallies);
    // the byte-for-byte equality above must not be vacuous
    assert!(tallies["MinimumImage"].with_cycles > GRAPHS as usize / 2);
}

#[test]
fn transaction_cycle_seeds_match_brute_force() {
    let mut tallies = BTreeMap::new();
    for seed in 0..GRAPHS {
        let mut rng = Rng(splitmix64(seed ^ 0x7a5c_0000));
        let vertex_labels = 1 + rng.below(3);
        let transactions = 2 + rng.below(3);
        let db = GraphDatabase::from_graphs(
            (0..transactions).map(|_| random_graph(&mut rng, vertex_labels)).collect(),
        );
        let index = |sigma, measure| MinimalPatternIndex::build_for_database(&db, sigma, measure, None);
        check_input(&CsrSnapshot::from_database(&db), index, &mut tallies);
    }
    report("transactions", &tallies);
    // the byte-for-byte equalities above must not be vacuous
    assert!(tallies["Transactions"].with_cycles > GRAPHS as usize);
    assert!(tallies["MinimumImage"].with_cycles > GRAPHS as usize);
}
