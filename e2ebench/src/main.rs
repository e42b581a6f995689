//! End-to-end and per-layer benchmark of the SmartPSI stack.
//!
//! ```text
//! e2ebench --workload batch|wire|shard --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from the seed, drives the program
//! through its public APIs only (graph text through `psi_graph::io`,
//! query lines through `psi_core::engine::proto`, `SmartPsi`,
//! `Deployment`, `PsiService`, `NetServer`), checks every answer with
//! an independent checker, and prints one JSON result line last. With
//! `--trace 0` it reports the end-to-end metrics of untraced rounds;
//! with `--trace 1` the per-layer metrics of traced rounds. See
//! README.md for the workloads and metrics.

mod batch;
mod checker;
mod gen;
mod harness;
mod layers;
mod report;
mod shard;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

use psi_core::engine::proto::{self, Request};
use psi_graph::{Graph, PivotedQuery};

use report::{Env, Metrics, Tally};

/// Every run answers at least this many queries, so the p99 has at
/// least ten samples beyond it.
pub const MIN_QUERIES: usize = 1000;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub layers: Metrics,
    pub threads: usize,
    pub connections: usize,
    /// The make-up of the generated inputs, for the run record.
    pub inputs: Vec<(&'static str, f64)>,
}

/// Parse graph text through the program's loader; returns the graph and
/// the seconds it took.
pub fn load_graph(text: &str) -> (Graph, f64) {
    let t0 = Instant::now();
    let g = psi_graph::io::read_graph(text.as_bytes()).expect("generated graph text must load");
    (g, t0.elapsed().as_secs_f64())
}

/// Parse wire-protocol query lines through the program's parser.
pub fn parse_queries(lines: &[String]) -> Vec<PivotedQuery> {
    lines
        .iter()
        .map(|l| match proto::parse_request(l) {
            Ok(Request::Query { query, .. }) => query,
            other => panic!("generated query line did not parse: {other:?}"),
        })
        .collect()
}

fn usage() -> ExitCode {
    eprintln!("usage: e2ebench --workload batch|wire|shard --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // The checker vouches for every answer, so it proves itself first.
    if let Err(e) = checker::self_test() {
        eprintln!("e2ebench: checker self-test failed: {e}");
        return ExitCode::FAILURE;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("--workload"),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds").and_then(|s| s.parse::<u64>().ok()),
        get("--trace"),
    ) else {
        return usage();
    };
    let trace = match trace.as_str() {
        "0" => false,
        "1" => true,
        _ => return usage(),
    };
    let o = Opts {
        seed,
        seconds: seconds as f64,
        trace,
        nproc: report::nproc(),
    };
    let out = match workload.as_str() {
        "batch" => batch::run(&o),
        "wire" => wire::run(&o),
        "shard" => shard::run(&o),
        _ => return usage(),
    };
    let env = Env {
        workload: &workload,
        seed,
        seconds,
        trace,
        threads: out.threads,
        connections: out.connections,
    };
    report::print_env(&env, &out.tally, &out.inputs);
    let metrics = if trace {
        out.layers
    } else {
        out.tally.end_to_end()
    };
    report::print_result(&out.tally, &metrics);
    ExitCode::SUCCESS
}
