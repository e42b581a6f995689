//! What every workload shares: timed set-ups, the round clock and the
//! set-up probes it pauses for, the traced/untraced split, the checks
//! of answers, and the per-layer metrics every workload reports.

use std::time::Instant;

use psi_core::{PsiResult, SmartPsi, SmartPsiConfig};
use psi_obs::{MetricsRecorder, Phase};

use crate::checker::Checker;
use crate::gen::{DataGraph, Query, Rng};
use crate::layers;
use crate::report::{median, Metrics, Tally};
use crate::{load_graph, Opts, MIN_QUERIES};

/// Candidates outside the valid set the checker proves invalid, per
/// answer.
pub const INVALID_SAMPLE: usize = 2;

/// What a round's measured time stands for in a traced run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// No recorder attached: the base of `trace.overhead_ratio`.
    Untraced,
    /// A recorder attached: the per-layer figures come from these.
    Traced,
    /// Neither (the `wire` net rounds of a traced run).
    Other,
}

/// The measured phase of one round. Set-up probes taken inside it are
/// paused out of both its wall time and its CPU time.
pub struct Clock {
    p0: Instant,
    cpu0: f64,
    paused_s: f64,
    paused_cpu_s: f64,
}

pub struct Harness<'o> {
    pub o: &'o Opts,
    pub t: Tally,
    text: String,
    load_ms: Vec<f64>,
    build_ms: Vec<f64>,
    index_mb: f64,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    traced_cpu_s: f64,
    traced_queries: u64,
}

impl<'o> Harness<'o> {
    /// `text` is the workload's graph text; every set-up starts from it.
    pub fn new(o: &'o Opts, text: String) -> Self {
        Harness {
            o,
            t: Tally::default(),
            text,
            load_ms: Vec::new(),
            build_ms: Vec::new(),
            index_mb: 0.0,
            untraced_s: Vec::new(),
            traced_s: Vec::new(),
            traced_cpu_s: 0.0,
            traced_queries: 0,
        }
    }

    pub fn rounds(&self) -> usize {
        self.t.round_s.len()
    }

    /// Whether to start another round: until the measured time reaches
    /// `--seconds` and at least `MIN_QUERIES` queries were answered.
    /// Traced runs cycle through `cycle` kinds of round and stop only
    /// after a whole cycle.
    pub fn more_rounds(&self, cycle: usize) -> bool {
        let rounds = self.rounds();
        let cycle = if self.o.trace { cycle } else { 1 };
        rounds == 0
            || !rounds.is_multiple_of(cycle)
            || self.t.measured_s < self.o.seconds
            || self.t.latency_ms.len() < MIN_QUERIES
    }

    /// One timed set-up: parse the graph text, build the engine with
    /// `cfg`, then make it ready to answer with `ready` (deploy, bind,
    /// connect).
    pub fn setup<T>(
        &mut self,
        cfg: SmartPsiConfig,
        ready: impl FnOnce(&SmartPsi) -> T,
    ) -> (SmartPsi, T) {
        if self.t.setup_s.is_empty() {
            self.t.mark_rss_baseline();
        }
        let t0 = Instant::now();
        let (graph, load_s) = load_graph(&self.text);
        let smart = SmartPsi::new(graph, cfg);
        let ready = ready(&smart);
        self.t.setup_s.push(t0.elapsed().as_secs_f64());
        self.load_ms.push(load_s * 1e3);
        self.build_ms
            .push(smart.signature_build_time().as_secs_f64() * 1e3);
        self.index_mb = smart.signatures().index_bytes() as f64 / 1e6;
        (smart, ready)
    }

    pub fn start(&self) -> Clock {
        Clock {
            p0: Instant::now(),
            cpu0: layers::process_cpu_s(),
            paused_s: 0.0,
            paused_cpu_s: 0.0,
        }
    }

    /// A set-up probe, taken while no query is in flight: one more
    /// timed set-up beside the live one, torn down at once. Probes
    /// spread the `setup_s` samples over the whole run; none of their
    /// time counts in the measured phase.
    pub fn probe<T>(
        &mut self,
        clock: &mut Clock,
        cfg: SmartPsiConfig,
        ready: impl FnOnce(&SmartPsi) -> T,
        teardown: impl FnOnce(T),
    ) {
        let (p0, cpu0) = (Instant::now(), layers::process_cpu_s());
        let (smart, ready) = self.setup(cfg, ready);
        teardown(ready);
        drop(smart);
        clock.paused_s += p0.elapsed().as_secs_f64();
        clock.paused_cpu_s += layers::process_cpu_s() - cpu0;
    }

    /// Close a round that answered `queries` queries with `steps`
    /// search steps in all.
    pub fn end_round(&mut self, clock: Clock, steps: u64, timing: Timing, queries: usize) {
        let phase = clock.p0.elapsed().as_secs_f64() - clock.paused_s;
        let cpu = layers::process_cpu_s() - clock.cpu0 - clock.paused_cpu_s;
        self.t.end_round(steps, phase);
        match timing {
            Timing::Untraced => self.untraced_s.push(phase),
            Timing::Traced => {
                self.traced_s.push(phase);
                self.traced_cpu_s += cpu;
                self.traced_queries += queries as u64;
            }
            Timing::Other => {}
        }
    }

    /// Count a failed answer, keep the first round's answers, and hold
    /// every later round to them.
    pub fn record(&mut self, answers: &mut Vec<Vec<u32>>, i: usize, r: &PsiResult) {
        if r.unresolved > 0 || !r.failures.nodes.is_empty() {
            self.t.queries_failed += 1;
        }
        let round = self.rounds();
        if round == 0 {
            answers.push(r.valid.clone());
        } else if answers[i] != r.valid {
            self.t.error(format!(
                "query {i}: round {round} answered differently from round 0"
            ));
        }
    }

    /// Check every answer against the checker's copy of the (static)
    /// data graph.
    pub fn check_static(&mut self, g: &DataGraph, queries: &[Query], answers: &[Vec<u32>]) {
        let checker = Checker::new(g);
        let mut crng = Rng::new(self.o.seed ^ 0xc4ec);
        for (q, valid) in queries.iter().zip(answers) {
            if let Err(e) = checker.check_answer(q, valid, &[], INVALID_SAMPLE, &mut crng) {
                self.t.error(format!("query {q:?}: {e}"));
            }
        }
    }

    /// Queries answered in the traced rounds.
    pub fn traced_queries(&self) -> f64 {
        self.traced_queries as f64
    }

    /// The per-layer metrics every workload reports: the set-up layers,
    /// the query path from `rec`, the protocol timings on the run's
    /// `lines` and traced `results`, worker spawn, and the trace
    /// overhead and coverage. `service_ns` adds worker-spawn and
    /// query-path span time from the deployment's own registries, which
    /// `rec` does not see.
    pub fn layers(
        &self,
        rec: &MetricsRecorder,
        lines: &[String],
        results: &[PsiResult],
        spawn_ns: u64,
        covered_ns: u64,
    ) -> Metrics {
        let mut m = layers::zeroed();
        let n = self.traced_queries();
        layers::put(&mut m, "graph.load_ms", median(&self.load_ms));
        layers::put(&mut m, "signature.build_ms", median(&self.build_ms));
        layers::put(&mut m, "signature.index_mb", self.index_mb);
        layers::from_query_recorder(&mut m, rec, n);
        let spawn = rec.phase_nanos(Phase::PoolSpawn) + spawn_ns;
        layers::put(&mut m, "pool.spawn_ms", spawn as f64 / 1e6 / n.max(1.0));
        layers::put(&mut m, "proto.parse_us", layers::parse_us(lines));
        layers::put(&mut m, "proto.serialize_us", layers::serialize_us(results));
        layers::put(
            &mut m,
            "trace.overhead_ratio",
            median(&self.traced_s) / median(&self.untraced_s),
        );
        let covered = layers::query_path_ns(&[rec]) + covered_ns;
        layers::put(
            &mut m,
            "trace.coverage_ratio",
            covered as f64 / 1e9 / self.traced_cpu_s,
        );
        m
    }
}
