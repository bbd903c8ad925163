//! The metric catalogue and the one-line JSON result.
//!
//! Every workload prints the same metric names: the end-to-end set on an
//! untraced run, the per-layer set on a traced run.  A per-layer metric of a
//! layer the workload never calls reads 0.  `BENCHMARK.json` at the
//! repository root lists the same names and units; a test keeps the two in
//! step.

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("csr.freeze_s", "s"),
    ("diam_mine.paths_s", "s"),
    ("diam_mine.paths_rows", "count"),
    ("diam_mine.join_rows_pruned", "count"),
    ("diam_mine.join_products_rejected_sigma", "count"),
    ("diam_mine.cycle_ladder_s", "s"),
    ("diam_mine.cycle_ladder_rows", "count"),
    ("diam_mine.cycle_close_s", "s"),
    ("diam_mine.cycle_seeds", "count"),
    ("diam_mine.cycle_yield", "ratio"),
    ("level_grow.s", "s"),
    ("level_grow.clusters", "count"),
    ("level_grow.candidates_examined", "count"),
    ("level_grow.patterns", "count"),
    ("level_grow.yield", "ratio"),
    ("level_grow.rejected_infrequent", "count"),
    ("level_grow.pruned_support_bound", "count"),
    ("miner.finish_s", "s"),
    ("miner.duplicates_dropped", "count"),
    ("mine.total_s", "s"),
    ("mine.unattributed_s", "s"),
    ("pattern_index.build_s", "s"),
    ("serving.parse_us", "us"),
    ("serving.hit_us", "us"),
    ("serving.miss_ms", "ms"),
    ("serving.hit_ratio", "ratio"),
    ("serving.evictions", "count"),
    ("serving.mining_runs", "count"),
    ("graph_db.apply_us", "us"),
    ("incremental.refresh_ms", "ms"),
    ("incremental.transactions_dirty", "count"),
    ("incremental.clusters_regrown", "count"),
    ("incremental.reuse_ratio", "ratio"),
    ("incremental.maintained_mb", "MB"),
];

/// Values for one catalogue, filled by name.
#[derive(Debug)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Metrics { catalogue, values: vec![None; catalogue.len()] }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    /// Panics when `name` is not in the catalogue or `value` is not finite:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// `(name, unit, value)` for every catalogue entry, in catalogue order;
    /// unset entries read 0.
    pub fn entries(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.catalogue.iter().zip(&self.values).map(|(&(n, u), v)| (n, u, v.unwrap_or(0.0))).collect()
    }

    /// Names of the catalogue entries never set.
    pub fn unset(&self) -> Vec<&'static str> {
        self.catalogue.iter().zip(&self.values).filter(|(_, v)| v.is_none()).map(|(&(n, _), _)| n).collect()
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// True when every operation succeeded and every output check held.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
    /// The metrics of the run's catalogue.
    pub metrics: Metrics,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with the keys `correct`,
    /// `attempted`, `failed` and `metrics`.  An incorrect run carries no
    /// metric values.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        if self.correct {
            for (i, (name, unit, value)) in self.metrics.entries().into_iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
            }
        }
        s.push_str("}}");
        s
    }
}
