//! Per-layer metrics of the traced run: read from the program's
//! `MetricsRecorder`s and stats through public accessors, or timed by
//! the benchmark around public calls.

use psi_core::engine::proto;
use psi_core::PsiResult;
use psi_obs::{Counter, Histogram, LogHistogram, MetricsRecorder, Phase, HIST_BUCKETS};

use crate::report::Metrics;

/// Every per-layer metric with its unit. A layer that does no work on a
/// workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("graph.load_ms", "ms"),
    ("signature.build_ms", "ms"),
    ("signature.index_mb", "MB"),
    ("signature.rows_repaired", "count"),
    ("evolve.update_p50_ms", "ms"),
    ("training.ms", "ms"),
    ("training.nodes", "count"),
    ("prefilter.ms", "ms"),
    ("prefilter.pruned_ratio", "ratio"),
    ("predict.ms", "ms"),
    ("predict.ml_inferences", "count"),
    ("predict.cache_hit_ratio", "ratio"),
    ("ladder.s1_ms", "ms"),
    ("ladder.s2_ms", "ms"),
    ("ladder.s3_ms", "ms"),
    ("ladder.s1_resolved_ratio", "ratio"),
    ("ladder.escalations", "count"),
    ("exec.merge_ms", "ms"),
    ("pool.spawn_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.cross_query_cache_hits", "count"),
    ("service.cache_invalidations", "count"),
    ("shard.deploy_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.fanout", "count"),
    ("proto.parse_us", "us"),
    ("proto.serialize_us", "us"),
    ("net.read_ms", "ms"),
    ("net.write_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// Spans on a query's path from admission to answer (not the idle
/// socket wait inside `NetRead`).
const QUERY_PATH: [Phase; 10] = [
    Phase::Train,
    Phase::Prefilter,
    Phase::Predict,
    Phase::MatchS1,
    Phase::MatchS2,
    Phase::MatchS3,
    Phase::ExactFallback,
    Phase::Merge,
    Phase::ShardMerge,
    Phase::NetWrite,
];

/// The per-layer metric set, every name present (zero until filled).
pub fn zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.put(name, 0.0, unit);
    }
    m
}

pub fn put(m: &mut Metrics, name: &str, value: f64) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    m.put(name, value, unit);
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Mean milliseconds per query of one phase.
fn per_query_ms(rec: &MetricsRecorder, p: Phase, queries: f64) -> f64 {
    rec.phase_nanos(p) as f64 / 1e6 / queries.max(1.0)
}

/// Query-path layers from a recorder attached through `RunSpec`.
pub fn from_query_recorder(m: &mut Metrics, rec: &MetricsRecorder, queries: f64) {
    put(m, "training.ms", per_query_ms(rec, Phase::Train, queries));
    put(
        m,
        "training.nodes",
        rec.counter(Counter::TrainedNodes) as f64,
    );
    put(
        m,
        "prefilter.ms",
        per_query_ms(rec, Phase::Prefilter, queries),
    );
    put(
        m,
        "prefilter.pruned_ratio",
        ratio(
            rec.counter(Counter::PrefilterPruned),
            rec.counter(Counter::Candidates),
        ),
    );
    put(m, "predict.ms", per_query_ms(rec, Phase::Predict, queries));
    put(
        m,
        "predict.ml_inferences",
        rec.counter(Counter::MlInferences) as f64,
    );
    let hits = rec.counter(Counter::CacheHits);
    put(
        m,
        "predict.cache_hit_ratio",
        ratio(hits, hits + rec.counter(Counter::CacheMisses)),
    );
    put(
        m,
        "ladder.s1_ms",
        per_query_ms(rec, Phase::MatchS1, queries),
    );
    put(
        m,
        "ladder.s2_ms",
        per_query_ms(rec, Phase::MatchS2, queries),
    );
    put(
        m,
        "ladder.s3_ms",
        per_query_ms(rec, Phase::MatchS3, queries),
    );
    let s1 = rec.counter(Counter::ResolvedS1);
    put(
        m,
        "ladder.s1_resolved_ratio",
        ratio(
            s1,
            s1 + rec.counter(Counter::RecoveredS2) + rec.counter(Counter::RecoveredS3),
        ),
    );
    put(
        m,
        "ladder.escalations",
        rec.counter(Counter::Escalations) as f64,
    );
    put(m, "exec.merge_ms", per_query_ms(rec, Phase::Merge, queries));
}

/// Summed query-path span time across recorders, nanoseconds.
pub fn query_path_ns(recs: &[&MetricsRecorder]) -> u64 {
    recs.iter()
        .map(|r| QUERY_PATH.iter().map(|&p| r.phase_nanos(p)).sum::<u64>())
        .sum()
}

/// Median of a queue-wait histogram merged over registries, in ms
/// (bucket midpoints, as the program itself reads it).
pub fn queue_wait_p50_ms(recs: &[&MetricsRecorder]) -> f64 {
    let mut hist = [0u64; HIST_BUCKETS];
    for r in recs {
        for (h, n) in hist.iter_mut().zip(r.histogram(Histogram::QueueWait)) {
            *h += n;
        }
    }
    let total: u64 = hist.iter().sum();
    let mut seen = 0;
    for (i, n) in hist.iter().enumerate() {
        seen += n;
        if total > 0 && seen * 2 >= total {
            return LogHistogram::bucket_midpoint(i) as f64 / 1e6;
        }
    }
    0.0
}

/// Mean microseconds `proto::parse_request` takes on the run's request
/// lines (three passes).
pub fn parse_us(lines: &[String]) -> f64 {
    let t0 = std::time::Instant::now();
    let mut ok = 0usize;
    for _ in 0..3 {
        for l in lines {
            ok += usize::from(proto::parse_request(l).is_ok());
        }
    }
    assert_eq!(
        ok,
        lines.len() * 3,
        "a generated request line failed to parse"
    );
    t0.elapsed().as_secs_f64() * 1e6 / (lines.len() * 3).max(1) as f64
}

/// Mean microseconds `proto::query_result_line` takes on the run's
/// results (three passes).
pub fn serialize_us(results: &[PsiResult]) -> f64 {
    let t0 = std::time::Instant::now();
    let mut bytes = 0usize;
    for _ in 0..3 {
        for (i, r) in results.iter().enumerate() {
            bytes += proto::query_result_line(i as u64, r).len();
        }
    }
    std::hint::black_box(bytes);
    t0.elapsed().as_secs_f64() * 1e6 / (results.len() * 3).max(1) as f64
}

/// CPU time this process has used so far, seconds (all threads).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 (1-based), in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}
