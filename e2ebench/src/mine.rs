//! `mine-fig16`: the default-config `SkinnyMine::mine` on the Figure-16
//! Erdős–Rényi preset, plus the traced pipeline that re-assembles the same
//! mine from each layer's public entry point.

use crate::measure::{median, ordered_fingerprint, peak_rss_mb, percentile, ratio, secs, Ops};
use crate::report::{Metrics, Report, END_TO_END, PER_LAYER};
use crate::Sizes;
use skinny_graph::{
    find_embeddings, is_l_long_delta_skinny, CsrSnapshot, Label, LabeledGraph, SubIsoOptions, SupportMeasure,
    VertexId,
};
use skinnymine::{
    duplicate_pattern_indices, DiamMine, Exploration, GrowScratch, LengthConstraint, LevelGrow, MiningData,
    MiningStats, ReportMode, Seed, SkinnyMine, SkinnyMineConfig, SkinnyPattern,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up (datagen) repetitions at the start of a run and again after every
/// mine; `setup_s` is their median.  A datagen takes under a millisecond, so
/// repetitions spread over the whole run sample the machine's speed at many
/// moments instead of one.
const SETUP_REPS: usize = 5;
/// Mined patterns whose support is recomputed by subgraph isomorphism.
const SUPPORT_SAMPLES: usize = 24;

/// Seed of the Figure-16 preset graph.
const PRESET_SEED: u64 = 20_130_622;
/// Vertex labels of the Figure-16 preset.
const LABELS: u32 = 10;

/// The workload's input graph: a copy of the Figure-16 preset graph
/// (Erdős–Rényi, degree 3, 10 labels, seed 20130622) with its vertex ids and
/// its labels renamed by permutations drawn from the workload seed.
///
/// Every seed yields an isomorphic copy, up to label renaming, so the mined
/// output has the same shape while vertex order, label order and canonical
/// orientations differ.  Fresh Erdős–Rényi draws per seed would not do: at
/// this size the mine time of two draws differs by up to 2x, which would
/// swamp the run-to-run noise the benchmark must resolve.
pub fn fig16_graph(vertices: usize, seed: u64) -> LabeledGraph {
    let base =
        skinny_datagen::erdos_renyi(&skinny_datagen::ErConfig::new(vertices, 3.0, LABELS, PRESET_SEED));
    let mut x = workload_seed(seed);
    let vertex_of = permutation(base.vertex_count(), &mut x);
    let label_of = permutation(LABELS as usize, &mut x);
    let mut labels = vec![Label(0); base.vertex_count()];
    for (v, l) in base.labels().iter().enumerate() {
        labels[vertex_of[v]] = Label(label_of[l.0 as usize] as u32);
    }
    let mut g = LabeledGraph::with_capacity(labels.len());
    for l in labels {
        g.add_vertex(l);
    }
    for e in base.edges() {
        let (u, v) = (vertex_of[e.u.0 as usize], vertex_of[e.v.0 as usize]);
        g.add_edge(VertexId(u as u32), VertexId(v as u32), e.label).expect("copying edges of a valid graph");
    }
    g
}

/// A uniform permutation of `0..n` (Fisher–Yates over SplitMix64).
fn permutation(n: usize, x: &mut u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        *x = skinny_datagen::splitmix64(*x);
        p.swap(i, (*x % (i as u64 + 1)) as usize);
    }
    p
}

/// Mixes the workload seed into an RNG state.
pub(crate) fn workload_seed(seed: u64) -> u64 {
    skinny_datagen::splitmix64(PRESET_SEED ^ skinny_datagen::splitmix64(seed))
}

/// The default mining configuration of the `perf` harness: l = 6, δ = 2,
/// σ = 2 under MinimumImage, closed patterns via ClosureJump, one thread,
/// cycle seeds on.
pub fn default_config() -> SkinnyMineConfig {
    SkinnyMineConfig::new(6, 2, 2)
        .with_length(LengthConstraint::Exactly(6))
        .with_support_measure(SupportMeasure::MinimumImage)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump)
        .with_threads(1)
}

/// Per-layer timings and counts of one traced mine.
#[derive(Debug, Clone, Default)]
pub struct MineTrace {
    /// `CsrSnapshot::from_graph`.
    pub freeze_s: f64,
    /// `DiamMine::mine_range_with_stats` over the requested lengths.
    pub paths_s: f64,
    /// Occurrence rows of the mined paths.
    pub paths_rows: u64,
    /// Join rows skipped by the σ row cap during the path ladder.
    pub join_rows_pruned: u64,
    /// Join products rejected by the σ filter during the path ladder.
    pub join_products_rejected_sigma: u64,
    /// `DiamMine::mine_exact_many_with_stats` for the missing `2l` lengths.
    pub cycle_ladder_s: f64,
    /// Occurrence rows of the `2l` paths the cycle seeds are closed from.
    pub cycle_ladder_rows: u64,
    /// `DiamMine::cycles_from_paths`.
    pub cycle_close_s: f64,
    /// Frequent `C_{2l+1}` seeds found.
    pub cycle_seeds: u64,
    /// `LevelGrow::grow_seed_with` over every seed.
    pub grow_s: f64,
    /// Seeds (clusters) grown.
    pub clusters: u64,
    /// Candidate extensions LevelGrow tried.
    pub candidates_examined: u64,
    /// Grown patterns LevelGrow took off its worklists.  `mine()` reports
    /// this plus `candidates_examined` as its `candidates_examined` stat.
    pub patterns_examined: u64,
    /// Patterns LevelGrow emitted before the finishing dedup.
    pub grown_patterns: u64,
    /// Extensions rejected as infrequent.
    pub rejected_infrequent: u64,
    /// Extensions pruned by the extension table's support bound.
    pub pruned_support_bound: u64,
    /// Cross-cluster dedup plus the output sort.
    pub finish_s: f64,
    /// Patterns the dedup dropped.
    pub duplicates_dropped: u64,
}

fn rows(paths: &[skinnymine::PathPattern]) -> u64 {
    paths.iter().map(|p| p.embeddings.len() as u64).sum()
}

/// Mines `graph` the way `SkinnyMine::mine` does for a single graph on one
/// thread, calling each layer's public function in turn and timing it from
/// outside: freeze, Stage I paths, the cycle-seed ladder and closing, Stage
/// II growth in seed order, then the finishing dedup and output sort.  The
/// returned patterns must equal `mine()`'s.
pub fn traced_mine(graph: &LabeledGraph, config: &SkinnyMineConfig) -> (Vec<SkinnyPattern>, MineTrace) {
    let mut tr = MineTrace::default();

    let t = Instant::now();
    let snapshot = CsrSnapshot::from_graph(graph);
    tr.freeze_s = secs(t);
    let data = MiningData::Snapshot(&snapshot);
    let dm = DiamMine::new(data.clone(), config.sigma, config.support).with_threads(config.threads);

    let (lo, hi) = (config.length.min_len(), config.length.max_len());
    let mut path_stats = MiningStats::default();
    let t = Instant::now();
    let ranged = dm.mine_range_with_stats(lo, hi, &mut path_stats);
    tr.paths_s = secs(t);
    tr.paths_rows = ranged.values().map(|p| rows(p)).sum();
    tr.join_rows_pruned = path_stats.join_rows_pruned;
    tr.join_products_rejected_sigma = path_stats.join_products_rejected_sigma;

    let mut seeds: Vec<Seed> = ranged.values().flatten().cloned().map(Seed::Path).collect();
    if config.cycle_seeds {
        // a C_{2l+1} needs frequent 2l-paths; only those cut off by a bounded
        // range are mined separately, as in `SkinnyMine::mine`
        let missing: Vec<usize> = ranged
            .keys()
            .map(|&l| 2 * l)
            .filter(|n| !ranged.contains_key(n) && hi.is_some_and(|h| *n > h))
            .collect();
        let t = Instant::now();
        let extra = if missing.is_empty() {
            BTreeMap::new()
        } else {
            dm.mine_exact_many_with_stats(&missing, &mut MiningStats::default())
        };
        tr.cycle_ladder_s = secs(t);
        let t = Instant::now();
        for &l in ranged.keys() {
            if let Some(paths_2l) = ranged.get(&(2 * l)).or_else(|| extra.get(&(2 * l))) {
                tr.cycle_ladder_rows += rows(paths_2l);
                let cycles = dm.cycles_from_paths(paths_2l, l);
                tr.cycle_seeds += cycles.len() as u64;
                seeds.extend(cycles.into_iter().map(Seed::Cycle));
            }
        }
        tr.cycle_close_s = secs(t);
    }

    let t = Instant::now();
    let grower = LevelGrow::new(data, config);
    let mut scratch = GrowScratch::new();
    let mut stats = MiningStats::default();
    let mut patterns = Vec::new();
    for seed in &seeds {
        let outcome = grower.grow_seed_with(seed, &mut scratch);
        stats.merge(&outcome.stats);
        tr.patterns_examined += outcome.examined;
        patterns.extend(outcome.patterns);
    }
    tr.grow_s = secs(t);
    tr.clusters = seeds.len() as u64;
    tr.grown_patterns = patterns.len() as u64;
    tr.candidates_examined = stats.level_grow.candidates_examined;
    tr.rejected_infrequent = stats.rejected_infrequent;
    tr.pruned_support_bound = stats.pruned_support_bound;

    let t = Instant::now();
    if seeds.iter().any(|s| matches!(s, Seed::Cycle(_))) {
        let (drop, _) = duplicate_pattern_indices(&patterns);
        tr.duplicates_dropped = drop.len() as u64;
        let mut drop = drop.into_iter().peekable();
        patterns = patterns
            .into_iter()
            .enumerate()
            .filter(|(i, _)| drop.next_if_eq(i).is_none())
            .map(|(_, p)| p)
            .collect();
    }
    // the miner's deterministic output order
    patterns.sort_by(|a, b| {
        b.edge_count()
            .cmp(&a.edge_count())
            .then_with(|| b.vertex_count().cmp(&a.vertex_count()))
            .then_with(|| a.diameter_labels.cmp(&b.diameter_labels))
            .then_with(|| a.support.cmp(&b.support))
    });
    if let Some(cap) = config.max_patterns {
        patterns.truncate(cap);
    }
    tr.finish_s = secs(t);
    (patterns, tr)
}

/// Checks mined patterns against the problem definition: every pattern is
/// `l`-long and δ-skinny, and a sample's support, recomputed by subgraph
/// isomorphism, reaches σ.  (Only `>= σ`: the reported MinimumImage support
/// of label-palindromic patterns is known to under-count.)
fn check_patterns(
    graph: &LabeledGraph,
    config: &SkinnyMineConfig,
    patterns: &[SkinnyPattern],
    seed: u64,
    ops: &mut Ops,
) {
    let l = config.length.min_len();
    for (i, p) in patterns.iter().enumerate() {
        let skinny = is_l_long_delta_skinny(&p.graph, l, config.delta).unwrap_or(false);
        ops.check(skinny, || {
            format!("pattern {i} is not {l}-long {}-skinny: {}", config.delta, p.describe())
        });
    }
    let mut x = workload_seed(seed);
    for _ in 0..SUPPORT_SAMPLES.min(patterns.len()) {
        x = skinny_datagen::splitmix64(x);
        let i = (x % patterns.len() as u64) as usize;
        let p = &patterns[i];
        let support = find_embeddings(&p.graph, graph, SubIsoOptions { limit: None, transaction: 0 })
            .support(config.support);
        ops.check(support >= config.sigma, || {
            format!("pattern {i} has recomputed support {support} < sigma {}: {}", config.sigma, p.describe())
        });
    }
}

/// Times `SETUP_REPS` datagens into `setup`, keeping none of the graphs.
fn time_setups(sizes: &Sizes, seed: u64, setup: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let graph = std::hint::black_box(fig16_graph(sizes.fig16_vertices, seed));
        setup.push(secs(t));
        drop(graph);
    }
}

/// Runs the workload: set-up (datagen), then full mines until `seconds` of
/// mining time are measured.  With `trace`, every iteration runs one
/// untraced mine and one traced mine, and the traced output must equal the
/// untraced one.
pub fn run(sizes: &Sizes, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut ops = Ops::default();
    let mut setup = Vec::new();
    time_setups(sizes, seed, &mut setup);
    let graph = fig16_graph(sizes.fig16_vertices, seed);
    let config = default_config();
    let miner = SkinnyMine::new(config.clone());

    // warm-up mine: its output is the reference every later mine must match
    let reference = ops.call("mine", miner.mine(&graph)).map(|r| r.patterns).unwrap_or_default();
    let expected = ordered_fingerprint(&reference);

    let mut mine_s = Vec::new();
    let mut traces = Vec::new();
    let mut measured = 0.0;
    while measured < seconds || mine_s.is_empty() {
        let t = Instant::now();
        let result = miner.mine(std::hint::black_box(&graph));
        let dt = secs(t);
        mine_s.push(dt);
        measured += dt;
        if let Some(r) = ops.call("mine", result) {
            ops.check(ordered_fingerprint(&r.patterns) == expected, || "a repeated mine diverged".into());
        }
        time_setups(sizes, seed, &mut setup);
        if trace {
            let t = Instant::now();
            let (patterns, tr) = traced_mine(&graph, &config);
            measured += secs(t);
            ops.check(ordered_fingerprint(&patterns) == expected, || {
                "the traced pipeline's output differs from mine()".into()
            });
            traces.push(tr);
        }
    }
    let rss = peak_rss_mb();
    if !trace {
        check_patterns(&graph, &config, &reference, seed, &mut ops);
        ops.check(!reference.is_empty(), || "the mine found no pattern".into());
    }

    let metrics = if trace {
        let mut m = Metrics::new(PER_LAYER);
        let med = |f: fn(&MineTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
        let last = traces.last().cloned().unwrap_or_default();
        let total = median(&mine_s);
        let layers = [
            ("csr.freeze_s", med(|t| t.freeze_s)),
            ("diam_mine.paths_s", med(|t| t.paths_s)),
            ("diam_mine.cycle_ladder_s", med(|t| t.cycle_ladder_s)),
            ("diam_mine.cycle_close_s", med(|t| t.cycle_close_s)),
            ("level_grow.s", med(|t| t.grow_s)),
            ("miner.finish_s", med(|t| t.finish_s)),
        ];
        for (name, v) in layers {
            m.set(name, v);
        }
        m.set("mine.total_s", total);
        m.set("mine.unattributed_s", total - layers.iter().map(|(_, v)| v).sum::<f64>());
        m.set("diam_mine.paths_rows", last.paths_rows as f64);
        m.set("diam_mine.join_rows_pruned", last.join_rows_pruned as f64);
        m.set("diam_mine.join_products_rejected_sigma", last.join_products_rejected_sigma as f64);
        m.set("diam_mine.cycle_ladder_rows", last.cycle_ladder_rows as f64);
        m.set("diam_mine.cycle_seeds", last.cycle_seeds as f64);
        m.set("diam_mine.cycle_yield", ratio(last.cycle_seeds as f64, last.cycle_ladder_rows as f64));
        m.set("level_grow.clusters", last.clusters as f64);
        m.set("level_grow.candidates_examined", last.candidates_examined as f64);
        m.set("level_grow.patterns", last.grown_patterns as f64);
        m.set("level_grow.yield", ratio(last.grown_patterns as f64, last.candidates_examined as f64));
        m.set("level_grow.rejected_infrequent", last.rejected_infrequent as f64);
        m.set("level_grow.pruned_support_bound", last.pruned_support_bound as f64);
        m.set("miner.duplicates_dropped", last.duplicates_dropped as f64);
        m
    } else {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mb", rss);
        m.set("op_p50_ms", median(&mine_s) * 1e3);
        m.set("op_tail_ms", percentile(&mine_s, 90.0) * 1e3);
        m.set("ops_per_s", mine_s.len() as f64 / mine_s.iter().sum::<f64>());
        m
    };
    crate::finish(ops, metrics)
}
