//! `serve-fig16`: one closed-loop client sending textual requests to a
//! `MinimalPatternIndex` built once over the Figure-16 graph.
//!
//! Requests follow a fixed, seeded schedule.  Keys `(l, δ, σ, report)` are
//! drawn Zipf-like from a fixed popularity order, and some requests add
//! `require=`/`top=` clauses, which are views over the cached result.  The
//! cache's cost bound is below the working set, so evictions and re-mines
//! recur.  Each pass of the schedule starts from an empty cache, so every
//! pass sees the same hits and misses whatever the machine's speed.

use crate::measure::{median, pattern_hash, peak_rss_mb, percentile, ratio, secs, Ops};
use crate::mine::{fig16_graph, workload_seed};
use crate::report::{Metrics, Report, END_TO_END, PER_LAYER};
use crate::Sizes;
use skinny_datagen::splitmix64;
use skinny_graph::{find_embeddings, is_l_long_delta_skinny, LabeledGraph, SubIsoOptions, SupportMeasure};
use skinnymine::{
    MinimalPatternIndex, ReportMode, ServingCacheConfig, ServingRequest, SkinnyMine, SkinnyPattern,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Longest path length the index pre-computes.
const MAX_LEN: usize = 5;
/// Support threshold of the index.
const SIGMA: usize = 2;
/// Support measure of the index.
const SUPPORT: SupportMeasure = SupportMeasure::MinimumImage;
/// Cache bound in cached patterns: about 60% of the 127k patterns the 32
/// full results hold.
const CACHE_COST: u64 = 80_000;
/// One shard: a single client gains nothing from sharding, and one shard
/// makes the bound a single LRU over the whole working set.
const CACHE_SHARDS: usize = 1;
/// Requests a run serves at least, so that ten lie beyond the p99.
const MIN_REQUESTS: usize = 1000;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.5;

/// One request key: `(l, δ, σ, report)`.
type Key = (usize, u32, usize, &'static str);

/// The 32 keys l ∈ 2..=5 × δ ∈ {1, 2} × σ ∈ {2, 3} × report ∈ {closed,
/// maximal}, in a fixed popularity order that interleaves cheap and costly
/// keys (it does not depend on the workload seed).
fn keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for l in 2..=MAX_LEN {
        for delta in [1, 2] {
            for sigma in [2, 3] {
                for report in ["closed", "maximal"] {
                    keys.push((l, delta, sigma, report));
                }
            }
        }
    }
    let mut order: Vec<(u64, Key)> =
        keys.into_iter().enumerate().map(|(i, k)| (splitmix64(0x5E27_0000 + i as u64), k)).collect();
    order.sort_unstable_by_key(|&(r, _)| r);
    order.into_iter().map(|(_, k)| k).collect()
}

/// One pass of the request schedule: `n` request texts.
///
/// The sequence of keys, and of which requests carry `require=`/`top=`,
/// is drawn from a fixed seed, so every workload seed sees the same hits,
/// misses and evictions and the same mix of views: with a few dozen misses
/// per pass, and hit latencies spread over 10–700 µs by result size and
/// view, a per-seed draw would move every latency figure by more than the
/// run-to-run noise.  The workload seed draws the clause values (and,
/// through [`fig16_graph`], the graph's vertex and label names).
fn schedule(seed: u64, n: usize) -> Vec<String> {
    let keys = keys();
    let weights: Vec<f64> = (1..=keys.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let (mut key_rng, mut clause_rng) = (0x5E27_u64, workload_seed(seed));
    (0..n)
        .map(|_| {
            key_rng = splitmix64(key_rng);
            let mut u = (key_rng >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut k = keys.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    k = i;
                    break;
                }
                u -= w;
            }
            let (l, delta, sigma, report) = keys[k];
            let mut text = format!("l={l} delta={delta} sigma={sigma} report={report}");
            let shape = splitmix64(key_rng ^ 0xC1A0);
            clause_rng = splitmix64(clause_rng);
            if shape.is_multiple_of(4) {
                text.push_str(&format!(" require={}", clause_rng % 10));
            }
            if (shape >> 4).is_multiple_of(8) {
                text.push_str(&format!(" top={}", 1 + (clause_rng >> 16) % 20));
            }
            text
        })
        .collect()
}

fn build_index(graph: &LabeledGraph) -> MinimalPatternIndex {
    MinimalPatternIndex::build(graph, SIGMA, SUPPORT, Some(MAX_LEN))
        .with_cache_config(ServingCacheConfig::new(CACHE_SHARDS, CACHE_COST))
}

/// The request text of the full result a request is a view of.
fn base_text(req: &ServingRequest) -> String {
    let report = match req.report {
        ReportMode::All => "all",
        ReportMode::Closed => "closed",
        ReportMode::Maximal => "maximal",
    };
    format!("l={} delta={} sigma={} report={report}", req.length.min_len(), req.delta, req.sigma)
}

/// Sorted hashes of a result's patterns: the result as an unordered set.
fn pattern_set(patterns: &[SkinnyPattern]) -> Vec<u64> {
    let mut hashes: Vec<u64> = patterns.iter().map(pattern_hash).collect();
    hashes.sort_unstable();
    hashes
}

/// Elements of sorted `a` missing from sorted `b`, as multisets.
fn minus(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j < b.len() && b[j] == x {
            j += 1;
        } else {
            out.push(x);
        }
    }
    out
}

/// Per-request observation of a pass.
struct Served {
    /// Latency of the whole request, as the client sees it.
    latency_s: f64,
    /// Time inside `ServingRequest::parse` (traced runs only).
    parse_s: f64,
    /// Whether the request mined (a miss).
    miss: bool,
}

/// Runs the workload: build the index `SETUP_REPS` times, then whole passes
/// of the schedule until `seconds` of request time are measured.
pub fn run(sizes: &Sizes, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut ops = Ops::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut build = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take()); // free the previous index before building the next
        let t = Instant::now();
        let graph = fig16_graph(sizes.fig16_vertices, seed);
        let index = build_index(&graph);
        setup.push(secs(t));
        build.push(index.build_time().as_secs_f64());
        built = Some((graph, index));
    }
    let (graph, index) = built.expect("SETUP_REPS >= 1");
    let texts = schedule(seed, sizes.serve_pass);

    // the full result each key was served, as an unordered pattern set
    let mut served_sets: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut served: Vec<Served> = Vec::new();
    let mut pass_counts: Option<(u64, u64)> = None;
    let mut measured = 0.0;
    while measured < seconds || served.len() < MIN_REQUESTS {
        index.purge_cache();
        let at_start = index.serving_stats();
        for text in &texts {
            let before = index.serving_stats();
            let (response, latency_s, parse_s) = if trace {
                let t = Instant::now();
                let parsed = ServingRequest::parse(text);
                let parse_s = secs(t);
                let response = parsed.and_then(|req| index.serve(&req));
                (response, secs(t), parse_s)
            } else {
                let t = Instant::now();
                let response = index.serve_text(std::hint::black_box(text));
                (response, secs(t), 0.0)
            };
            measured += latency_s;
            let after = index.serving_stats();
            let miss = after.misses > before.misses;
            ops.check(miss || after.hits > before.hits, || format!("'{text}' was neither a hit nor a miss"));
            served.push(Served { latency_s, parse_s, miss });
            let Some(response) = ops.call(text, response) else { continue };
            let req = ServingRequest::parse(text).expect("the request was just served");
            ops.check(response.patterns().all(|p| req.admits(p)), || {
                format!("'{text}' served a filtered-out pattern")
            });
            ops.check(req.top_k.is_none_or(|k| response.len() <= k), || {
                format!("'{text}' served more than top")
            });
            if miss {
                let set = pattern_set(&response.full_result().patterns);
                let previous = served_sets.entry(base_text(&req)).or_insert_with(|| set.clone());
                ops.check(*previous == set, || format!("'{text}' re-mined a different result"));
            }
        }
        let at_end = index.serving_stats();
        pass_counts.get_or_insert((
            at_end.evictions - at_start.evictions,
            at_end.mining_runs - at_start.mining_runs,
        ));
    }
    let rss = peak_rss_mb();
    check_against_direct_mines(&graph, &index, &served_sets, &mut ops);

    let latencies: Vec<f64> = served.iter().map(|s| s.latency_s).collect();
    let metrics = if trace {
        let mut m = Metrics::new(PER_LAYER);
        let pick =
            |miss: bool| served.iter().filter(|s| s.miss == miss).map(|s| s.latency_s).collect::<Vec<_>>();
        let (hits, misses) = (pick(false), pick(true));
        let (evictions, mining_runs) = pass_counts.unwrap_or_default();
        m.set("pattern_index.build_s", median(&build));
        m.set("serving.parse_us", median(&served.iter().map(|s| s.parse_s).collect::<Vec<_>>()) * 1e6);
        m.set("serving.hit_us", median(&hits) * 1e6);
        m.set("serving.miss_ms", median(&misses) * 1e3);
        m.set("serving.hit_ratio", ratio(hits.len() as f64, served.len() as f64));
        m.set("serving.evictions", evictions as f64);
        m.set("serving.mining_runs", mining_runs as f64);
        m
    } else {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mb", rss);
        m.set("op_p50_ms", median(&latencies) * 1e3);
        m.set("op_tail_ms", percentile(&latencies, 99.0) * 1e3);
        m.set("ops_per_s", latencies.len() as f64 / measured);
        m
    };
    crate::finish(ops, metrics)
}

/// Every served key must match a direct `SkinnyMine::mine` of its base
/// configuration, compared as unordered pattern sets (serving sorts without
/// the miner's tie-breaks).  The index derives cycle seeds only for `2l <=
/// MAX_LEN`, so the direct mine runs with cycle seeds exactly there.
///
/// At the index's own σ both run the same Stage I and must agree exactly.
/// Above it the index filters paths mined at its lower σ while the direct
/// mine prunes at the request's σ, and the σ-pruned Stage I is known to
/// miss frequent paths (the open support-measure completeness defect).  So
/// there the served set must contain the direct set, and every pattern only
/// the index serves must be verified independently: `l`-long, δ-skinny and
/// with support, recomputed by subgraph isomorphism, of at least σ.  Those
/// patterns are reported on standard error as misses of the direct mine.
fn check_against_direct_mines(
    graph: &LabeledGraph,
    index: &MinimalPatternIndex,
    served_sets: &BTreeMap<String, Vec<u64>>,
    ops: &mut Ops,
) {
    let mut missed_by_direct = 0;
    for (text, served) in served_sets {
        let req = ServingRequest::parse(text).expect("served keys parse");
        let l = req.length.min_len();
        let config = req.base_config(SUPPORT).with_cycle_seeds(2 * l <= MAX_LEN).with_threads(1);
        let Some(direct) = ops.call("direct mine", SkinnyMine::new(config).mine(graph)) else { continue };
        let direct = pattern_set(&direct.patterns);
        ops.check(minus(&direct, served).is_empty(), || {
            format!("'{text}' did not serve a pattern the direct mine found")
        });
        let extra = minus(served, &direct);
        if extra.is_empty() {
            continue;
        }
        ops.check(req.sigma > SIGMA, || {
            format!("'{text}' served {} patterns a direct mine did not find", extra.len())
        });
        let Some(full) = ops.call(text, index.serve(&req)) else { continue };
        for p in full.full_result().patterns.iter().filter(|p| extra.binary_search(&pattern_hash(p)).is_ok())
        {
            let skinny = is_l_long_delta_skinny(&p.graph, l, req.delta).unwrap_or(false);
            let support = find_embeddings(&p.graph, graph, SubIsoOptions { limit: None, transaction: 0 })
                .support(SUPPORT);
            ops.check(skinny && support >= req.sigma, || {
                format!("'{text}' served {} with recomputed support {support}", p.describe())
            });
            missed_by_direct += 1;
        }
    }
    if missed_by_direct > 0 {
        eprintln!(
            "e2ebench: note: {missed_by_direct} served patterns are frequent but missing from the direct \
             mine at the same sigma (known Stage-I completeness defect)"
        );
    }
}
