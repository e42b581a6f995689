//! `batch`: the library path. One caller runs distinct query shapes
//! through `SmartPsi::run` on `nproc` work-stealing threads over a
//! dense, many-label (Human-shaped, enlarged) graph.

use std::sync::Arc;

use psi_core::{PsiResult, RunSpec, SmartPsiConfig};
use psi_obs::MetricsRecorder;

use crate::gen::{self, GraphShape, Rng};
use crate::harness::{Harness, Timing};
use crate::{parse_queries, Opts, Outcome};

/// Human's 44 labels on a much larger graph (120,000 nodes, average
/// degree 16), so that one set-up takes about 0.3 s on the reference
/// box.
pub const SHAPE: GraphShape = GraphShape {
    nodes: 120_000,
    attach: 8,
    labels: 44,
    label_skew: 0.5,
    homophily: 0.3,
    uniform_share: 0.5,
    window: 0,
};
/// Distinct queries per round.
pub const QUERIES: usize = 1000;
pub const SIZES: (usize, usize) = (4, 8);
/// Queries between two set-up probes.
const PROBE_EVERY: usize = 40;

pub fn run(o: &Opts) -> Outcome {
    let g = gen::generate(&SHAPE, &mut Rng::new(gen::DATASET_SEED));
    let queries = gen::distinct_queries(
        &g,
        QUERIES,
        SIZES,
        u32::MAX,
        &mut Rng::new(gen::PLAN_SEED),
        &mut Rng::new(o.seed),
    );
    let lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| q.request_line(i as u64))
        .collect();
    let parsed = parse_queries(&lines);

    let mut h = Harness::new(o, g.to_text());
    let mut answers: Vec<Vec<u32>> = Vec::new();
    let rec = Arc::new(MetricsRecorder::new());
    let mut traced_results: Vec<PsiResult> = Vec::new();
    let cfg = SmartPsiConfig::default;
    while h.more_rounds(2) {
        let (smart, ()) = h.setup(cfg(), |_| ());
        if h.rounds() == 0 {
            // The worker pool is process-global and grows lazily: let
            // its one-time spawn happen before anything is timed.
            smart.run(&parsed[0], &RunSpec::new().threads(o.nproc));
        }
        let traced = o.trace && h.rounds() % 2 == 1;
        let mut spec = RunSpec::new().threads(o.nproc);
        if traced {
            spec = spec.recorder(rec.clone());
        }
        let mut clock = h.start();
        let mut steps = 0;
        for (i, q) in parsed.iter().enumerate() {
            let q0 = std::time::Instant::now();
            let r = smart.run(q, &spec);
            h.t.latency_ms.push(q0.elapsed().as_secs_f64() * 1e3);
            h.t.queries += 1;
            steps += r.steps;
            h.record(&mut answers, i, &r);
            if traced {
                traced_results.push(r);
            }
            if (i + 1) % PROBE_EVERY == 0 {
                h.probe(&mut clock, cfg(), |_| (), drop);
            }
        }
        let timing = if traced {
            Timing::Traced
        } else {
            Timing::Untraced
        };
        h.end_round(clock, steps, timing, parsed.len());
    }
    h.check_static(&g, &queries, &answers);

    let layers = if o.trace {
        h.layers(&rec, &lines, &traced_results, 0, 0)
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
