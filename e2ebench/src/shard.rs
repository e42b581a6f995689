//! `shard`: the scatter-gather path. Distinct shapes go through a
//! `Deployment` sharded into `nproc` shards with one worker each, over
//! a large, id-local power-law graph with few labels.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psi_core::{Deployment, DeploymentSpec, PsiResult, RunSpec, SmartPsi, SmartPsiConfig};
use psi_obs::{Counter, MetricsRecorder, Phase};

use crate::gen::{self, GraphShape, Rng};
use crate::harness::{Harness, Timing};
use crate::layers;
use crate::report::median;
use crate::{parse_queries, Opts, Outcome};

/// Power-law attachment within a window of recent ids, so range shards
/// stay local and halo slabs stay small.
pub const SHAPE: GraphShape = GraphShape {
    nodes: 100_000,
    attach: 3,
    labels: 10,
    label_skew: 0.3,
    homophily: 0.3,
    uniform_share: 0.3,
    window: 2_000,
};
pub const QUERIES: usize = 600;
pub const SIZES: (usize, usize) = (3, 5);
/// Halo depth of the deployment; queries are drawn with pivot
/// eccentricity at most this, so no submit is refused.
pub const HALO: u32 = 3;
/// Queries whose sharded answer is compared against an unsharded
/// `SmartPsi::run` of the same query.
const UNSHARDED_SAMPLE: usize = 12;
/// Queries per leg of a round; the closed loop drains at the end of
/// each leg for a set-up probe.
const PROBE_EVERY: usize = 50;

/// Scatter-gather and per-shard service numbers over the traced rounds.
#[derive(Default)]
struct FrontTotals {
    merge_ns: u64,
    fanout: u64,
    cross_hits: u64,
    invalidations: u64,
    spawn_ns: u64,
    queue_wait_p50_ms: Vec<f64>,
}

pub fn run(o: &Opts) -> Outcome {
    let g = gen::generate(&SHAPE, &mut Rng::new(gen::DATASET_SEED));
    let queries = gen::distinct_queries(
        &g,
        QUERIES,
        SIZES,
        HALO,
        &mut Rng::new(gen::PLAN_SEED),
        &mut Rng::new(o.seed),
    );
    let lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| q.request_line(i as u64))
        .collect();
    let parsed = parse_queries(&lines);
    let window = o.nproc;

    let mut h = Harness::new(o, g.to_text());
    let mut answers: Vec<Vec<u32>> = Vec::new();
    let mut deploy_ms = Vec::new();
    let rec = Arc::new(MetricsRecorder::new());
    let mut traced_results: Vec<PsiResult> = Vec::new();
    let mut front_tot = FrontTotals::default();
    let mut reference = None;
    let cfg = SmartPsiConfig::web_scale;
    let ready = |smart: &SmartPsi| {
        let d0 = Instant::now();
        let dep = smart.deploy(&DeploymentSpec::new().shards(o.nproc).workers(1).halo(HALO));
        (dep, d0.elapsed().as_secs_f64() * 1e3)
    };
    let teardown = |deploy_ms: &mut Vec<f64>, (mut dep, ms): (Deployment, f64)| {
        deploy_ms.push(ms);
        dep.shutdown(Duration::from_secs(60));
    };
    while h.more_rounds(2) {
        let (smart, (mut dep, ms)) = h.setup(cfg(), ready);
        deploy_ms.push(ms);

        let traced = o.trace && h.rounds() % 2 == 1;
        let mut spec = RunSpec::new();
        if traced {
            spec = spec.recorder(rec.clone());
        }
        let mut clock = h.start();
        let mut steps = 0;
        let mut inflight = VecDeque::new();
        for leg in (0..parsed.len()).step_by(PROBE_EVERY) {
            // Closed loop: keep `window` queries outstanding, then drain
            // for the leg's probe.
            let (mut next, end) = (leg, (leg + PROBE_EVERY).min(parsed.len()));
            while next < end || !inflight.is_empty() {
                if next < end && inflight.len() < window {
                    let q0 = Instant::now();
                    match dep.submit(parsed[next].clone(), spec.clone()) {
                        Ok(handle) => inflight.push_back((next, q0, handle)),
                        Err(e) => {
                            h.t.queries += 1;
                            h.t.queries_failed += 1;
                            h.t.error(format!("query {next}: submit refused: {e:?}"));
                        }
                    }
                    next += 1;
                    continue;
                }
                let (i, q0, handle) = inflight.pop_front().expect("loop guard");
                let r = handle.wait();
                h.t.latency_ms.push(q0.elapsed().as_secs_f64() * 1e3);
                h.t.queries += 1;
                steps += r.steps;
                h.record(&mut answers, i, &r);
                if traced {
                    traced_results.push(r);
                }
            }
            h.probe(&mut clock, cfg(), ready, |d| teardown(&mut deploy_ms, d));
        }
        if traced {
            let sharded = dep.as_sharded().expect("sharded deployment");
            let shard_recs: Vec<&MetricsRecorder> = (0..sharded.shard_count())
                .map(|s| sharded.shard_metrics(s))
                .collect();
            // The deployment's own registries live one round: add them
            // up over the traced rounds.
            let front = sharded.metrics();
            let stats = sharded.stats();
            front_tot.merge_ns += front.phase_nanos(Phase::ShardMerge);
            front_tot.fanout += front.counter(Counter::ShardFanout);
            front_tot.cross_hits += stats.cross_query_cache_hits;
            front_tot.invalidations += stats.cache_invalidations;
            front_tot.spawn_ns += shard_recs
                .iter()
                .map(|r| r.phase_nanos(Phase::PoolSpawn))
                .sum::<u64>();
            front_tot
                .queue_wait_p50_ms
                .push(layers::queue_wait_p50_ms(&shard_recs));
        }
        let timing = if traced {
            Timing::Traced
        } else {
            Timing::Untraced
        };
        h.end_round(clock, steps, timing, parsed.len());
        dep.shutdown(Duration::from_secs(60));
        drop(dep);
        if reference.is_none() {
            // Sharding must be exact: a seeded sample of queries must
            // get the same valid sets from the unsharded engine.
            let mut srng = Rng::new(o.seed ^ 0x5a4d);
            let picks: Vec<usize> = (0..UNSHARDED_SAMPLE)
                .map(|_| srng.below(parsed.len()))
                .collect();
            reference = Some(
                picks
                    .into_iter()
                    .map(|i| (i, smart.run(&parsed[i], &RunSpec::new()).valid))
                    .collect::<Vec<_>>(),
            );
        }
    }

    for (i, valid) in reference.into_iter().flatten() {
        if answers[i] != valid {
            h.t.error(format!(
                "query {i}: sharded answer differs from the unsharded run"
            ));
        }
    }
    h.check_static(&g, &queries, &answers);

    let layers = if o.trace {
        let n = h.traced_queries();
        let mut m = h.layers(
            &rec,
            &lines,
            &traced_results,
            front_tot.spawn_ns,
            front_tot.merge_ns,
        );
        layers::put(&mut m, "shard.deploy_ms", median(&deploy_ms));
        layers::put(
            &mut m,
            "shard.merge_ms",
            front_tot.merge_ns as f64 / 1e6 / n,
        );
        layers::put(&mut m, "shard.fanout", front_tot.fanout as f64);
        layers::put(
            &mut m,
            "service.queue_wait_p50_ms",
            median(&front_tot.queue_wait_p50_ms),
        );
        layers::put(
            &mut m,
            "service.cross_query_cache_hits",
            front_tot.cross_hits as f64,
        );
        layers::put(
            &mut m,
            "service.cache_invalidations",
            front_tot.invalidations as f64,
        );
        m
    } else {
        Default::default()
    };
    Outcome {
        tally: h.t,
        layers,
        threads: o.nproc,
        connections: 0,
        inputs: gen::describe(&g, &queries),
    }
}
