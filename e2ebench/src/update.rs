//! `update-stream`: an `IncrementalMiner` over the Figure-16 update corpus
//! absorbing a deterministic stream of transaction replacements, refreshing
//! after every step (one transaction per step, a 10-transaction batch every
//! 10th step).  Latency is measured from the first `apply_update` of a step
//! to the refreshed result.

use crate::measure::{median, ordered_fingerprint, peak_rss_mb, percentile, ratio, secs, Ops};
use crate::mine::workload_seed;
use crate::report::{Metrics, Report, END_TO_END, PER_LAYER};
use crate::Sizes;
use skinny_datagen::{apply_update, generate_update_stream, UpdateStreamSetting};
use skinny_graph::SupportMeasure;
use skinnymine::{Exploration, IncrementalMiner, LengthConstraint, ReportMode, SkinnyMine, SkinnyMineConfig};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Untimed steps before the measured ones, so that allocator pools and
/// caches are warm (two batch periods).
const WARMUP_STEPS: usize = 2 * BATCH_EVERY;
/// Every this many steps, one step applies a batch.
const BATCH_EVERY: usize = 10;
/// Transactions replaced by a batch step.
const BATCH: usize = 10;

/// The Figure-16 update corpus (seed 20130622) with `families` families.
fn setting(families: usize) -> UpdateStreamSetting {
    UpdateStreamSetting { families, ..UpdateStreamSetting::fig16() }
}

/// The stream's first step.  Every step is a pure function of its index, so
/// starting at a seeded offset gives each workload seed its own sequence of
/// replaced transactions and redrawn backgrounds over the same corpus (a
/// per-seed corpus would also change the planted patterns, and with them
/// the refresh cost).
fn first_step(seed: u64) -> u64 {
    workload_seed(seed) >> 16
}

/// The transaction-setting configuration: the planted diameter, δ = 2, σ =
/// the family size under Transactions support, closed patterns via
/// ClosureJump, one thread, cycle seeds on.
fn config(setting: &UpdateStreamSetting) -> SkinnyMineConfig {
    SkinnyMineConfig::new(setting.pattern_diameter, 2, setting.planted_support())
        .with_length(LengthConstraint::Exactly(setting.pattern_diameter))
        .with_support_measure(SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump)
        .with_threads(1)
}

/// The maintained result must be byte-identical to a from-scratch mine of
/// the current database.
fn check_against_full_mine(inc: &IncrementalMiner, step: u64, ops: &mut Ops) {
    let full = SkinnyMine::new(inc.config().clone()).mine_database(inc.database());
    if let Some(full) = ops.call("full mine", full) {
        let same = ordered_fingerprint(&full.patterns) == ordered_fingerprint(&inc.result().patterns);
        ops.check(same, || format!("after update {step} the maintained result differs from a full mine"));
    }
}

/// Runs the workload: build the corpus and the initial `IncrementalMiner`
/// `SETUP_REPS` times, take `WARMUP_STEPS` untimed steps, then update steps
/// until `seconds` of step time are measured.
pub fn run(sizes: &Sizes, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut ops = Ops::default();
    let s = setting(sizes.update_families);
    let cfg = config(&s);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut inc = None;
    for _ in 0..SETUP_REPS {
        drop(inc.take()); // free the previous miner before building the next
        let t = Instant::now();
        let db = generate_update_stream(&s, 1);
        let built = IncrementalMiner::new(cfg.clone(), db);
        setup.push(secs(t));
        inc = ops.call("initial mine", built);
    }
    let Some(mut inc) = inc else { return crate::finish(ops, Metrics::new(END_TO_END)) };
    ops.check(!inc.result().patterns.is_empty(), || "the initial mine found no pattern".into());

    let (mut latency, mut apply, mut refresh) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dirty, mut regrown, mut reused) = (0u64, 0u64, 0u64);
    let mut step = first_step(seed);
    for taken in 0..WARMUP_STEPS {
        let updates = if taken % BATCH_EVERY == BATCH_EVERY - 1 { BATCH } else { 1 };
        for _ in 0..updates {
            apply_update(&s, inc.database_mut(), step);
            step += 1;
        }
        let result = inc.refresh().map(|_| ());
        ops.call("refresh", result);
    }
    let mut measured = 0.0;
    while measured < seconds || latency.is_empty() {
        let updates = if latency.len() % BATCH_EVERY == BATCH_EVERY - 1 { BATCH } else { 1 };
        let t = Instant::now();
        for _ in 0..updates {
            if trace {
                let ta = Instant::now();
                apply_update(&s, inc.database_mut(), step);
                apply.push(secs(ta));
            } else {
                apply_update(&s, inc.database_mut(), step);
            }
            step += 1;
        }
        let tr = Instant::now();
        let result = inc.refresh();
        let (done, refresh_s) = (secs(t), secs(tr));
        let result = result.map(|r| r.stats.clone());
        latency.push(done);
        refresh.push(refresh_s);
        measured += done;
        if let Some(stats) = ops.call("refresh", result) {
            dirty += stats.transactions_dirty;
            regrown += stats.clusters_regrown;
            reused += stats.clusters_reused;
        }
        if latency.len() % sizes.update_check_every == 0 {
            check_against_full_mine(&inc, step, &mut ops);
        }
    }
    let rss = peak_rss_mb();
    check_against_full_mine(&inc, step, &mut ops);

    let metrics = if trace {
        let mut m = Metrics::new(PER_LAYER);
        let steps = latency.len() as f64;
        m.set("graph_db.apply_us", median(&apply) * 1e6);
        m.set("incremental.refresh_ms", median(&refresh) * 1e3);
        m.set("incremental.transactions_dirty", dirty as f64 / steps);
        m.set("incremental.clusters_regrown", regrown as f64 / steps);
        m.set("incremental.reuse_ratio", ratio(reused as f64, (reused + regrown) as f64));
        m.set("incremental.maintained_mb", inc.maintained_bytes() as f64 / 1e6);
        m
    } else {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", median(&setup));
        m.set("peak_rss_mb", rss);
        m.set("op_p50_ms", median(&latency) * 1e3);
        m.set("op_tail_ms", percentile(&latency, 95.0) * 1e3);
        m.set("ops_per_s", latency.len() as f64 / measured);
        m
    };
    crate::finish(ops, metrics)
}
