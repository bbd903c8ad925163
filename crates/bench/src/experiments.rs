//! The experiment harness: one function per table / figure of the paper's
//! evaluation (§6).  Each function generates the corresponding data set
//! (scaled down by a divisor so the default run finishes in seconds —
//! absolute sizes are configurable), runs the relevant miners and returns a
//! structured report that the `figures` binary renders and the Criterion
//! benches / integration tests assert against.
//!
//! The mapping from experiment id to paper artifact is recorded in
//! `DESIGN.md` (per-experiment index) and the measured outcomes in
//! `EXPERIMENTS.md`.

use crate::report::{distribution_table, series_table, Series, Table};
use skinny_baselines::{
    Budget, GraphMiner, Moss, MossConfig, Origami, OrigamiConfig, Seus, SeusConfig, SpiderMine,
    SpiderMineConfig, Subdue, SubdueConfig,
};
use skinny_datagen::{
    generate_dblp, generate_gid, generate_table3, generate_transaction_database, generate_weibo, gid_setting,
    DblpConfig, ScalabilitySetting, Table3Setting, TransactionSetting, WeiboConfig, GID_SETTINGS,
    TABLE3_ROWS,
};
use skinny_graph::{GraphDatabase, LabeledGraph, SupportMeasure};
use skinnymine::{
    Exploration, LengthConstraint, MinimalPatternIndex, MiningResult, ReportMode, SkinnyMine,
    SkinnyMineConfig,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use skinnymine::config::Exploration as SkinnyExploration;

/// Controls how far the experiment sizes are scaled down from the paper's
/// settings.  `divisor = 1` reproduces the paper-scale data sizes; the
/// default quick scale divides the large sweeps by 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Divisor applied to the large data sizes (scalability sweeps, DBLP /
    /// Weibo corpus sizes).  Table 1 / Table 3 settings are already small and
    /// are never scaled.
    pub divisor: usize,
    /// Base RNG seed for all generators.
    pub seed: u64,
}

impl Scale {
    /// Quick scale used by default (large sweeps divided by 10).
    pub fn quick() -> Self {
        Scale { divisor: 10, seed: 20130622 }
    }

    /// Paper-scale data sizes (long running).
    pub fn paper() -> Self {
        Scale { divisor: 1, seed: 20130622 }
    }

    fn shrink(&self, n: usize) -> usize {
        (n / self.divisor).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

/// The SkinnyMine configuration used across the effectiveness experiments:
/// closure-jumping exploration reporting closed patterns.
pub fn skinny_config(length: LengthConstraint, delta: u32, sigma: usize) -> SkinnyMineConfig {
    SkinnyMineConfig::new(length.min_len().max(1), delta, sigma)
        .with_length(length)
        .with_support_measure(SupportMeasure::MinimumImage)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------------------
// Table 1 / Table 2
// ---------------------------------------------------------------------------

/// Renders Table 1 (data settings) and Table 2 (setting differences).
pub fn table1_and_2() -> Vec<Table> {
    let mut t1 = Table::new(
        "Table 1: Data settings",
        &["GID", "|V|", "f", "deg", "|VL|", "Ld", "Ls", "n", "|VS|", "Sd", "Ss"],
    );
    for s in GID_SETTINGS {
        t1.push_row([
            s.gid.to_string(),
            s.vertices.to_string(),
            s.labels.to_string(),
            format!("{}", s.degree as i64),
            s.long_vertices.to_string(),
            s.long_diameter.to_string(),
            s.long_support.to_string(),
            s.short_patterns.to_string(),
            s.short_vertices.to_string(),
            s.short_diameter.to_string(),
            s.short_support.to_string(),
        ]);
    }
    let mut t2 = Table::new("Table 2: Setting differences", &["GID", "difference"]);
    for gid in 1..=5u8 {
        t2.push_row([gid.to_string(), skinny_datagen::presets::setting_difference(gid).to_string()]);
    }
    vec![t1, t2]
}

// ---------------------------------------------------------------------------
// Figures 4-8: effectiveness, single-graph setting
// ---------------------------------------------------------------------------

/// Pattern-size distributions and runtimes of one single-graph effectiveness
/// run (one of Figures 4–8, for one GID).
#[derive(Debug, Clone)]
pub struct EffectivenessReport {
    /// Which GID (1–5) the run used.
    pub gid: u8,
    /// Per-miner pattern size distributions (`|V| -> count`).
    pub distributions: Vec<(String, BTreeMap<usize, usize>)>,
    /// Per-miner runtimes in seconds.
    pub runtimes: Vec<(String, f64)>,
    /// Per-miner largest pattern size found (vertices).
    pub largest: Vec<(String, usize)>,
}

impl EffectivenessReport {
    /// Renders the report as tables.
    pub fn tables(&self) -> Vec<Table> {
        let dist = distribution_table(
            &format!("Figure {}: pattern size distribution (GID {})", 3 + self.gid, self.gid),
            &self.distributions,
        );
        let mut rt = Table::new(
            format!("GID {} runtimes (seconds) and largest pattern", self.gid),
            &["miner", "runtime (s)", "largest |V|"],
        );
        for ((name, t), (_, l)) in self.runtimes.iter().zip(self.largest.iter()) {
            rt.push_row([name.clone(), format!("{t:.3}"), l.to_string()]);
        }
        vec![dist, rt]
    }

    /// Distribution of one miner, if present.
    pub fn distribution_of(&self, miner: &str) -> Option<&BTreeMap<usize, usize>> {
        self.distributions.iter().find(|(n, _)| n == miner).map(|(_, d)| d)
    }

    /// Largest pattern size found by one miner.
    pub fn largest_of(&self, miner: &str) -> usize {
        self.largest.iter().find(|(n, _)| n == miner).map(|&(_, l)| l).unwrap_or(0)
    }
}

/// Runs one of Figures 4–8: SUBDUE, SEuS, SpiderMine and SkinnyMine on the
/// Table-1 data set `gid`, comparing the distribution of mined pattern sizes.
pub fn run_gid_effectiveness(gid: u8, scale: Scale) -> EffectivenessReport {
    let setting = gid_setting(gid).unwrap_or(GID_SETTINGS[0]);
    let injection = generate_gid(&setting, scale.seed.wrapping_add(gid as u64));
    let graph = &injection.graph;

    let mut distributions = Vec::new();
    let mut runtimes = Vec::new();
    let mut largest = Vec::new();
    let mut record = |name: &str, dist: BTreeMap<usize, usize>, runtime: f64| {
        let max = dist.keys().copied().max().unwrap_or(0);
        distributions.push((name.to_string(), dist));
        runtimes.push((name.to_string(), runtime));
        largest.push((name.to_string(), max));
    };

    // SUBDUE
    let out = Subdue::new(SubdueConfig { budget: Budget::tiny(), ..Default::default() }).mine_single(graph);
    record("SUBDUE", out.size_distribution(), secs(out.runtime));
    // SEuS
    let out = Seus::new(SeusConfig { budget: Budget::tiny(), ..SeusConfig::new(2) }).mine_single(graph);
    record("SEuS", out.size_distribution(), secs(out.runtime));
    // SpiderMine (paper settings: K = 5, Dmax = 4, many seeds)
    let spider_cfg = SpiderMineConfig::paper_defaults().with_k(5).with_seeds(60);
    let out = SpiderMine::new(spider_cfg).mine_single(graph);
    record("SpiderMine", out.size_distribution(), secs(out.runtime));
    // SkinnyMine: long-diameter request
    let config =
        skinny_config(LengthConstraint::AtLeast(setting.long_diameter.saturating_sub(3).max(4)), 3, 2);
    let started = Instant::now();
    let result = SkinnyMine::new(config).mine(graph).expect("valid config and non-empty data");
    let dist: BTreeMap<usize, usize> = result.size_histogram();
    record("SkinnyMine", dist, secs(started.elapsed()));

    EffectivenessReport { gid, distributions, runtimes, largest }
}

// ---------------------------------------------------------------------------
// Table 3: varied skinniness
// ---------------------------------------------------------------------------

/// Outcome of the Table-3 experiment: which injected patterns each miner
/// recovers.
#[derive(Debug, Clone)]
pub struct Table3Report {
    /// Rows `(pid, |V|, diameter, recovered by SkinnyMine, recovered by SpiderMine)`.
    pub rows: Vec<(u8, usize, usize, bool, bool)>,
}

impl Table3Report {
    /// Renders the report.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table 3: recovery of patterns of varied skinniness",
            &["PID", "|V|", "diameter", "SkinnyMine", "SpiderMine"],
        );
        for &(pid, v, d, sk, sp) in &self.rows {
            t.push_row([
                pid.to_string(),
                v.to_string(),
                d.to_string(),
                if sk { "found" } else { "-" }.to_string(),
                if sp { "found" } else { "-" }.to_string(),
            ]);
        }
        t
    }

    /// PIDs recovered by SkinnyMine.
    pub fn skinnymine_pids(&self) -> Vec<u8> {
        self.rows.iter().filter(|r| r.3).map(|r| r.0).collect()
    }

    /// PIDs recovered by SpiderMine.
    pub fn spidermine_pids(&self) -> Vec<u8> {
        self.rows.iter().filter(|r| r.4).map(|r| r.0).collect()
    }
}

/// Runs the Table-3 experiment: 10 patterns of decreasing skinniness injected
/// into a 2 000-vertex background; SkinnyMine is asked for long diameters,
/// SpiderMine for its top-K largest patterns under its diameter bound.
pub fn run_table3(scale: Scale) -> Table3Report {
    let setting = Table3Setting::default();
    let (injection, patterns) = generate_table3(&setting, scale.seed);
    let graph = &injection.graph;

    // SkinnyMine: request long diameters (l >= 25), as in "finding the skinny
    // patterns with the longest diameters"
    let config = skinny_config(LengthConstraint::AtLeast(25), 3, 2);
    let skinny_result = SkinnyMine::new(config).mine(graph).expect("valid config");

    // SpiderMine: top-10 largest with a relaxed diameter bound of 10
    let spider_cfg = SpiderMineConfig::paper_defaults().with_k(10).with_dmax(10).with_seeds(120);
    let spider_out = SpiderMine::new(spider_cfg).mine_single(graph);

    let rows = TABLE3_ROWS
        .iter()
        .zip(patterns.iter())
        .map(|(row, pattern)| {
            let by_skinny = skinny_result.patterns.iter().any(|p| {
                p.diameter_len == row.diameter && p.vertex_count() * 10 >= pattern.vertex_count() * 7
            });
            let by_spider = spider_out.patterns.iter().any(|p| {
                p.vertex_count() * 10 >= pattern.vertex_count() * 5
                    && skinny_graph::diameter(&p.graph).map(|d| d as usize <= row.diameter).unwrap_or(false)
                    && best_label_overlap(&p.graph, pattern) >= 0.5
            });
            (row.pid, row.vertices, row.diameter, by_skinny, by_spider)
        })
        .collect();
    Table3Report { rows }
}

/// Fraction of `mined`'s vertex labels that also occur in `injected`
/// (multiset overlap) — a cheap way to attribute a mined pattern to an
/// injected one.
fn best_label_overlap(mined: &LabeledGraph, injected: &LabeledGraph) -> f64 {
    use std::collections::HashMap;
    let mut inj: HashMap<skinny_graph::Label, usize> = HashMap::new();
    for &l in injected.labels() {
        *inj.entry(l).or_insert(0) += 1;
    }
    if mined.vertex_count() == 0 {
        return 0.0;
    }
    let mut hit = 0usize;
    for &l in mined.labels() {
        if let Some(c) = inj.get_mut(&l) {
            if *c > 0 {
                *c -= 1;
                hit += 1;
            }
        }
    }
    hit as f64 / mined.vertex_count() as f64
}

// ---------------------------------------------------------------------------
// Figures 9-10: effectiveness, graph-transaction setting
// ---------------------------------------------------------------------------

/// Runs Figure 9 (`more_small = false`) or Figure 10 (`more_small = true`):
/// ORIGAMI, SpiderMine and SkinnyMine on the graph-transaction database.
pub fn run_transaction_effectiveness(more_small: bool, scale: Scale) -> EffectivenessReport {
    let base = if more_small { TransactionSetting::figure10() } else { TransactionSetting::figure9() };
    let setting = base.scaled_down(scale.divisor.clamp(1, 4));
    let db: GraphDatabase = generate_transaction_database(&setting, scale.seed);

    let mut distributions = Vec::new();
    let mut runtimes = Vec::new();
    let mut largest = Vec::new();
    let mut record = |name: &str, dist: BTreeMap<usize, usize>, runtime: f64| {
        let max = dist.keys().copied().max().unwrap_or(0);
        distributions.push((name.to_string(), dist));
        runtimes.push((name.to_string(), runtime));
        largest.push((name.to_string(), max));
    };

    let out = Origami::new(OrigamiConfig::new(3).with_walks(60)).mine_database(&db);
    record("ORIGAMI", out.size_distribution(), secs(out.runtime));

    let spider_cfg = SpiderMineConfig::paper_defaults().with_k(5).with_sigma(3).with_seeds(60).with_dmax(6);
    let out = SpiderMine::new(spider_cfg).mine_database(&db);
    record("SpiderMine", out.size_distribution(), secs(out.runtime));

    let config =
        skinny_config(LengthConstraint::AtLeast(setting.skinny_diameter.saturating_sub(4).max(4)), 3, 3)
            .with_support_measure(SupportMeasure::Transactions);
    let started = Instant::now();
    let result = SkinnyMine::new(config).mine_database(&db).expect("valid config");
    record("SkinnyMine", result.size_histogram(), secs(started.elapsed()));

    EffectivenessReport { gid: if more_small { 10 } else { 9 }, distributions, runtimes, largest }
}

// ---------------------------------------------------------------------------
// Figures 11-13: runtime vs a baseline over growing |V|
// ---------------------------------------------------------------------------

/// Which runtime-comparison figure to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeFigure {
    /// Figure 11: SkinnyMine vs MoSS (degree 2, 70 labels, 100–500 vertices).
    VsMoss,
    /// Figure 12: SkinnyMine vs SUBDUE (degree 3, 100 labels, up to 7 500 vertices).
    VsSubdue,
    /// Figure 13: SkinnyMine vs SpiderMine (degree 3, 100 labels, up to 50 000 vertices).
    VsSpiderMine,
}

/// A runtime sweep report: runtime of SkinnyMine and a baseline as the graph
/// grows.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Which figure this corresponds to.
    pub figure: RuntimeFigure,
    /// The swept graph sizes.
    pub sizes: Vec<usize>,
    /// SkinnyMine runtime per size (seconds).
    pub skinnymine: Series,
    /// Baseline runtime per size (seconds).
    pub baseline: Series,
}

impl SweepReport {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let title = match self.figure {
            RuntimeFigure::VsMoss => "Figure 11: runtime vs MoSS",
            RuntimeFigure::VsSubdue => "Figure 12: runtime vs SUBDUE",
            RuntimeFigure::VsSpiderMine => "Figure 13: runtime vs SpiderMine",
        };
        series_table(title, "|V|", &[self.skinnymine.clone(), self.baseline.clone()])
    }
}

/// Runs one of the runtime-comparison sweeps (Figures 11–13).
pub fn run_runtime_sweep(figure: RuntimeFigure, scale: Scale) -> SweepReport {
    let setting = match figure {
        RuntimeFigure::VsMoss => ScalabilitySetting::figure11(),
        RuntimeFigure::VsSubdue => ScalabilitySetting::figure12(),
        RuntimeFigure::VsSpiderMine => ScalabilitySetting::figure13(),
    };
    let sizes: Vec<usize> = setting
        .sizes
        .iter()
        .map(|&s| match figure {
            // Figure 11's graphs are tiny already
            RuntimeFigure::VsMoss => s,
            _ => scale.shrink(s).max(setting.injected_vertices * setting.injected * 2),
        })
        .collect();

    let mut skinny_series = Series::new("SkinnyMine".to_string());
    let mut baseline_series = Series::new(
        match figure {
            RuntimeFigure::VsMoss => "MoSS",
            RuntimeFigure::VsSubdue => "SUBDUE",
            RuntimeFigure::VsSpiderMine => "SpiderMine",
        }
        .to_string(),
    );

    for (i, &size) in sizes.iter().enumerate() {
        let graph = setting.generate(size, scale.seed.wrapping_add(i as u64));
        // SkinnyMine: mine skinny patterns with diameter at least 6
        let config = skinny_config(LengthConstraint::AtLeast(6), 2, 2);
        let started = Instant::now();
        let _ = SkinnyMine::new(config).mine(&graph).expect("valid config");
        skinny_series.push(size as f64, secs(started.elapsed()));

        let baseline_runtime = match figure {
            RuntimeFigure::VsMoss => {
                let out =
                    Moss::new(MossConfig::new(2).with_budget(Budget {
                        max_candidates: 300_000,
                        max_duration: Duration::from_secs(60),
                    }))
                    .mine_single(&graph);
                out.runtime
            }
            RuntimeFigure::VsSubdue => {
                let out = Subdue::new(SubdueConfig { budget: Budget::default(), ..Default::default() })
                    .mine_single(&graph);
                out.runtime
            }
            RuntimeFigure::VsSpiderMine => {
                let cfg = SpiderMineConfig::paper_defaults().with_k(10).with_seeds(40);
                let out = SpiderMine::new(cfg).mine_single(&graph);
                out.runtime
            }
        };
        baseline_series.push(size as f64, secs(baseline_runtime));
    }
    SweepReport { figure, sizes, skinnymine: skinny_series, baseline: baseline_series }
}

// ---------------------------------------------------------------------------
// Figures 14-15: scalability of SkinnyMine alone
// ---------------------------------------------------------------------------

/// Scalability report: per-stage runtime and number of patterns as the graph
/// grows (Figures 14 and 15).
#[derive(Debug, Clone)]
pub struct ScalabilityReport {
    /// The swept sizes.
    pub sizes: Vec<usize>,
    /// Stage I (DiamMine) runtime per size.
    pub diam_mine: Series,
    /// Stage II (LevelGrow) runtime per size.
    pub level_grow: Series,
    /// Number of reported patterns per size.
    pub patterns: Series,
}

impl ScalabilityReport {
    /// Renders Figures 14 and 15 as tables.
    pub fn tables(&self) -> Vec<Table> {
        vec![
            series_table(
                "Figure 14: scalability (runtime per stage)",
                "|V|",
                &[self.diam_mine.clone(), self.level_grow.clone()],
            ),
            series_table(
                "Figure 15: scalability (# of patterns)",
                "|V|",
                std::slice::from_ref(&self.patterns),
            ),
        ]
    }
}

/// Runs the Figure 14/15 scalability sweep (`l >= 4`, δ = 3, σ = 2).
pub fn run_scalability(scale: Scale) -> ScalabilityReport {
    let setting = ScalabilitySetting::figure14();
    let sizes: Vec<usize> = setting.sizes.iter().map(|&s| scale.shrink(s).max(1000)).collect();
    let mut diam = Series::new("Stage I: DiamMine (s)");
    let mut grow = Series::new("Stage II: LevelGrow (s)");
    let mut pats = Series::new("patterns (l>=4, delta=3)");
    for (i, &size) in sizes.iter().enumerate() {
        let graph = setting.generate(size, scale.seed.wrapping_add(i as u64));
        let config = skinny_config(LengthConstraint::AtLeast(4), 3, 2);
        let result = SkinnyMine::new(config).mine(&graph).expect("valid config");
        diam.push(size as f64, secs(result.stats.diam_mine.duration));
        grow.push(size as f64, secs(result.stats.level_grow.duration));
        pats.push(size as f64, result.patterns.len() as f64);
    }
    ScalabilityReport { sizes, diam_mine: diam, level_grow: grow, patterns: pats }
}

// ---------------------------------------------------------------------------
// Figures 16-17: effect of the diameter constraint l
// ---------------------------------------------------------------------------

/// Report of the constraint sweeps of Figures 16–18: per parameter value, a
/// runtime and a number of patterns (plus largest pattern size for Fig. 19).
#[derive(Debug, Clone)]
pub struct ConstraintSweepReport {
    /// Figure title.
    pub title: String,
    /// Parameter values swept (l or δ).
    pub parameter: Vec<usize>,
    /// Runtime per value (seconds).
    pub runtime: Series,
    /// Number of patterns per value.
    pub patterns: Series,
    /// Largest pattern size in edges per value (used by Figure 19).
    pub largest_edges: Series,
}

impl ConstraintSweepReport {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        series_table(
            &self.title,
            "parameter",
            &[self.runtime.clone(), self.patterns.clone(), self.largest_edges.clone()],
        )
    }
}

/// The data set of Figures 16–17: a 10 000-vertex (scaled) background with
/// degree 3 and only 10 labels, so frequent paths abound.
fn fig16_graph(scale: Scale) -> LabeledGraph {
    let vertices = scale.shrink(10_000).max(500);
    skinny_datagen::erdos_renyi(&skinny_datagen::ErConfig::new(vertices, 3.0, 10, scale.seed))
}

/// Runs Figure 16: DiamMine runtime and number of frequent paths as the
/// requested diameter length l grows from 2 to 18.
pub fn run_diammine_vs_l(scale: Scale) -> ConstraintSweepReport {
    let snapshot = skinny_graph::CsrSnapshot::from_graph(&fig16_graph(scale));
    let mut runtime = Series::new("DiamMine runtime (s)");
    let mut patterns = Series::new("# canonical diameters");
    let mut largest = Series::new("longest path length");
    let parameter: Vec<usize> = (2..=18).step_by(2).collect();
    for &l in &parameter {
        let started = Instant::now();
        let dm = skinnymine::DiamMine::new(
            skinnymine::MiningData::Snapshot(&snapshot),
            2,
            SupportMeasure::MinimumImage,
        );
        let paths = dm.mine_exact(l);
        runtime.push(l as f64, secs(started.elapsed()));
        patterns.push(l as f64, paths.len() as f64);
        largest.push(l as f64, if paths.is_empty() { 0.0 } else { l as f64 });
    }
    ConstraintSweepReport {
        title: "Figure 16: DiamMine runtime and # of frequent paths vs l".to_string(),
        parameter,
        runtime,
        patterns,
        largest_edges: largest,
    }
}

/// Runs Figure 17: LevelGrow runtime and number of patterns as l grows from 2
/// to 18 (δ = 2), using a pre-built minimal-pattern index so only Stage II is
/// measured.
pub fn run_levelgrow_vs_l(scale: Scale) -> ConstraintSweepReport {
    let graph = fig16_graph(scale);
    let index = MinimalPatternIndex::build(&graph, 2, SupportMeasure::MinimumImage, Some(18));
    let mut runtime = Series::new("LevelGrow runtime (s)");
    let mut patterns = Series::new("# patterns");
    let mut largest = Series::new("largest |E|");
    let parameter: Vec<usize> = (2..=18).step_by(2).collect();
    for &l in &parameter {
        let config = SkinnyMineConfig::new(l, 2, 2)
            .with_support_measure(SupportMeasure::MinimumImage)
            .with_report(ReportMode::All)
            .with_exploration(Exploration::Exhaustive);
        let result = index.request(&config).expect("index and request share sigma/measure");
        runtime.push(l as f64, secs(result.stats.level_grow.duration));
        patterns.push(l as f64, result.patterns.len() as f64);
        largest.push(l as f64, result.stats.largest_pattern_edges as f64);
    }
    ConstraintSweepReport {
        title: "Figure 17: LevelGrow runtime and # of patterns vs l (delta = 2)".to_string(),
        parameter,
        runtime,
        patterns,
        largest_edges: largest,
    }
}

// ---------------------------------------------------------------------------
// Figures 18-19: effect of the skinniness constraint delta
// ---------------------------------------------------------------------------

/// Runs Figures 18 and 19: LevelGrow runtime, number of patterns and largest
/// pattern size as δ grows from 0 to 6, with the diameter fixed at l = 20.
pub fn run_levelgrow_vs_delta(scale: Scale) -> ConstraintSweepReport {
    // paper: |V| = 200 000, deg 3, f = 100, 250 injected patterns with l = 20,
    // delta = 6, 50 vertices, 5 embeddings each
    let vertices = scale.shrink(200_000).max(5_000);
    let injected = scale.shrink(250).max(5);
    let background =
        skinny_datagen::erdos_renyi(&skinny_datagen::ErConfig::new(vertices, 3.0, 100, scale.seed));
    let patterns: Vec<(LabeledGraph, usize)> = (0..injected)
        .map(|i| {
            (
                skinny_datagen::skinny_pattern(&skinny_datagen::SkinnyPatternConfig::new(
                    50,
                    20,
                    6,
                    100,
                    scale.seed.wrapping_add(i as u64 + 1),
                )),
                5,
            )
        })
        .collect();
    let graph = skinny_datagen::inject_patterns(&background, &patterns, scale.seed.wrapping_add(404)).graph;

    let index = MinimalPatternIndex::build(&graph, 2, SupportMeasure::MinimumImage, Some(20));
    let mut runtime = Series::new("LevelGrow runtime (s)");
    let mut count = Series::new("# patterns");
    let mut largest = Series::new("largest |E|");
    let parameter: Vec<usize> = (0..=6).collect();
    for &delta in &parameter {
        let config = SkinnyMineConfig::new(20, delta as u32, 2)
            .with_support_measure(SupportMeasure::MinimumImage)
            .with_report(ReportMode::Closed)
            .with_exploration(Exploration::ClosureJump);
        let result = index.request(&config).expect("index and request share sigma/measure");
        runtime.push(delta as f64, secs(result.stats.level_grow.duration));
        count.push(delta as f64, result.patterns.len() as f64);
        largest.push(delta as f64, result.stats.largest_pattern_edges as f64);
    }
    ConstraintSweepReport {
        title: "Figures 18-19: LevelGrow runtime, # patterns and largest |E| vs delta (l = 20)".to_string(),
        parameter,
        runtime,
        patterns: count,
        largest_edges: largest,
    }
}

// ---------------------------------------------------------------------------
// Figure 20: runtime comparison table
// ---------------------------------------------------------------------------

/// One row of the Figure-20 runtime table.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// GID of the data set.
    pub gid: u8,
    /// `(miner name, runtime seconds, completed)` triples.
    pub runtimes: Vec<(String, f64, bool)>,
}

/// The Figure-20 report.
#[derive(Debug, Clone)]
pub struct RuntimeTableReport {
    /// One row per GID.
    pub rows: Vec<RuntimeRow>,
}

impl RuntimeTableReport {
    /// Renders the table; miners that hit their budget are marked with `>`.
    pub fn table(&self) -> Table {
        let miners: Vec<String> = self
            .rows
            .first()
            .map(|r| r.runtimes.iter().map(|(n, _, _)| n.clone()).collect())
            .unwrap_or_default();
        let mut headers = vec!["GID".to_string()];
        headers.extend(miners);
        let mut t =
            Table { title: "Figure 20: runtime comparison (seconds)".to_string(), headers, rows: Vec::new() };
        for row in &self.rows {
            let mut cells = vec![row.gid.to_string()];
            for (_, secs, completed) in &row.runtimes {
                cells.push(if *completed { format!("{secs:.3}") } else { format!("> {secs:.3}") });
            }
            t.rows.push(cells);
        }
        t
    }

    /// Runtime of a miner on a GID, if recorded.
    pub fn runtime_of(&self, gid: u8, miner: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.gid == gid)?
            .runtimes
            .iter()
            .find(|(n, _, _)| n == miner)
            .map(|&(_, s, _)| s)
    }
}

/// Runs the Figure-20 runtime comparison: SkinnyMine, SpiderMine, SUBDUE,
/// SEuS and MoSS on the Table-1 data sets.
pub fn run_runtime_table(gids: &[u8], scale: Scale) -> RuntimeTableReport {
    let mut rows = Vec::new();
    for &gid in gids {
        let setting = gid_setting(gid).unwrap_or(GID_SETTINGS[0]);
        let graph = generate_gid(&setting, scale.seed.wrapping_add(gid as u64)).graph;
        let mut runtimes = Vec::new();

        let config =
            skinny_config(LengthConstraint::AtLeast(setting.long_diameter.saturating_sub(3).max(4)), 3, 2);
        let started = Instant::now();
        let _ = SkinnyMine::new(config).mine(&graph).expect("valid config");
        runtimes.push(("SkinnyMine".to_string(), secs(started.elapsed()), true));

        let out = SpiderMine::new(SpiderMineConfig::paper_defaults().with_seeds(60)).mine_single(&graph);
        runtimes.push(("SpiderMine".to_string(), secs(out.runtime), out.completed));

        let out =
            Subdue::new(SubdueConfig { budget: Budget::tiny(), ..Default::default() }).mine_single(&graph);
        runtimes.push(("SUBDUE".to_string(), secs(out.runtime), out.completed));

        let out = Seus::new(SeusConfig { budget: Budget::tiny(), ..SeusConfig::new(2) }).mine_single(&graph);
        runtimes.push(("SEuS".to_string(), secs(out.runtime), out.completed));

        let moss_budget = Budget { max_candidates: 150_000, max_duration: Duration::from_secs(20) };
        let out = Moss::new(MossConfig::new(2).with_budget(moss_budget)).mine_single(&graph);
        runtimes.push(("MoSS".to_string(), secs(out.runtime), out.completed));

        rows.push(RuntimeRow { gid, runtimes });
    }
    RuntimeTableReport { rows }
}

// ---------------------------------------------------------------------------
// Section 6.3: DBLP and Weibo case studies (simulated data)
// ---------------------------------------------------------------------------

/// A real-data case-study report (simulated corpus).
#[derive(Debug, Clone)]
pub struct CaseStudyReport {
    /// Corpus name ("DBLP" / "Weibo").
    pub name: String,
    /// Number of graphs in the corpus.
    pub graphs: usize,
    /// Mining runtime (seconds).
    pub runtime: f64,
    /// Number of skinny patterns found.
    pub patterns: usize,
    /// The diameter-length constraint used.
    pub min_diameter: usize,
    /// Description of an example pattern, if any was found.
    pub example: Option<String>,
}

impl CaseStudyReport {
    /// Renders the case study.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Case study: {} (simulated corpus)", self.name),
            &["graphs", "min diameter", "patterns", "runtime (s)", "example"],
        );
        t.push_row([
            self.graphs.to_string(),
            self.min_diameter.to_string(),
            self.patterns.to_string(),
            format!("{:.3}", self.runtime),
            self.example.clone().unwrap_or_else(|| "-".to_string()),
        ]);
        t
    }
}

/// Runs the DBLP case study: temporal collaboration patterns spanning at
/// least 20 years (simulated corpus).
pub fn run_dblp_case_study(scale: Scale) -> CaseStudyReport {
    let config = DblpConfig { authors: scale.shrink(2000).max(40), ..Default::default() };
    let db = generate_dblp(&config);
    let mining =
        skinny_config(LengthConstraint::AtLeast(20), 2, 2).with_support_measure(SupportMeasure::Transactions);
    let started = Instant::now();
    let result = SkinnyMine::new(mining).mine_database(&db).expect("valid config");
    CaseStudyReport {
        name: "DBLP".to_string(),
        graphs: db.len(),
        runtime: secs(started.elapsed()),
        patterns: result.patterns.len(),
        min_diameter: 20,
        example: result.patterns.first().map(|p| p.describe()),
    }
}

/// Runs the Weibo case study: long information-diffusion chains (simulated
/// conversation corpus), length constraint 10.
pub fn run_weibo_case_study(scale: Scale) -> CaseStudyReport {
    let config = WeiboConfig { conversations: scale.shrink(2000).max(40), ..Default::default() };
    let db = generate_weibo(&config);
    let mining =
        skinny_config(LengthConstraint::AtLeast(10), 3, 2).with_support_measure(SupportMeasure::Transactions);
    let started = Instant::now();
    let result = SkinnyMine::new(mining).mine_database(&db).expect("valid config");
    CaseStudyReport {
        name: "Weibo".to_string(),
        graphs: db.len(),
        runtime: secs(started.elapsed()),
        patterns: result.patterns.len(),
        min_diameter: 10,
        example: result.patterns.first().map(|p| p.describe()),
    }
}

/// Convenience: run SkinnyMine on an arbitrary graph with the experiment
/// configuration (used by benches).
pub fn mine_skinny(graph: &LabeledGraph, l: usize, delta: u32, sigma: usize) -> MiningResult {
    SkinnyMine::new(skinny_config(LengthConstraint::AtLeast(l), delta, sigma))
        .mine(graph)
        .expect("valid configuration and non-empty graph")
}
