//! Run accounting, quantiles, environment record and the JSON result
//! line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `VmHWM` (peak resident) or `VmRSS` (resident now).
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run accumulates across its rounds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Set-up times, seconds: one per round and one per probe.
    pub setup_s: Vec<f64>,
    /// Per-query latencies over every round, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Wall time of the measured phases, summed over rounds.
    pub measured_s: f64,
    pub queries: u64,
    pub queries_failed: u64,
    pub updates: u64,
    pub updates_failed: u64,
    /// Search steps of each round (every round runs the same work).
    pub round_steps: Vec<u64>,
    /// Measured-phase wall time of each round, seconds.
    pub round_s: Vec<f64>,
    /// Resident memory just before the first set-up: the benchmark's
    /// own inputs (graph, text, queries), which `peak_rss_mb` leaves out.
    pub rss_base_mb: f64,
    /// Peak RSS above `rss_base_mb` when the first round ended. Later
    /// rounds re-deploy and leave the high-water mark to the allocator's
    /// reuse of freed memory, so the first round is the part every run
    /// has in common.
    pub peak_rss_mb: f64,
    /// Correctness disagreements found by the checks.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.queries + self.updates
    }

    pub fn failed(&self) -> u64 {
        self.queries_failed + self.updates_failed
    }

    pub fn mark_rss_baseline(&mut self) {
        self.rss_base_mb = status_mb("VmRSS:");
    }

    pub fn end_round(&mut self, steps: u64, phase_s: f64) {
        if self.round_s.is_empty() {
            self.peak_rss_mb = status_mb("VmHWM:") - self.rss_base_mb;
        } else if steps != self.round_steps[0] {
            self.error(format!(
                "round {} did {steps} search steps, round 0 did {}",
                self.round_s.len(),
                self.round_steps[0]
            ));
        }
        self.measured_s += phase_s;
        self.round_steps.push(steps);
        self.round_s.push(phase_s);
    }

    pub fn error(&mut self, e: String) {
        eprintln!("e2ebench: check failed: {e}");
        self.errors.push(e);
    }

    /// The six end-to-end metrics.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put(
            "queries_per_s",
            self.latency_ms.len() as f64 / self.measured_s,
            "1/s",
        );
        m.put("query_p50_ms", quantile(&self.latency_ms, 0.50), "ms");
        m.put("query_p99_ms", quantile(&self.latency_ms, 0.99), "ms");
        m.put(
            "search_steps",
            self.round_steps.first().copied().unwrap_or(0) as f64,
            "count",
        );
        m.put("peak_rss_mb", self.peak_rss_mb, "MB");
        m
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), (value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (v, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// What a run was and where it ran: printed before the result line.
pub struct Env<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub connections: usize,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The program's revision: `git rev-parse HEAD` where the checkout is a
/// repository, otherwise "unknown".
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn print_env(env: &Env<'_>, t: &Tally, inputs: &[(&str, f64)]) {
    let fields: Vec<String> = inputs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"inputs\": {{{}}}}}", fields.join(", "));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"env\": {{\"nproc\": {}, \"commit\": \"{}\", \"profile\": \"{profile}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \
         \"connections\": {}, \"rounds\": {}, \"queries_attempted\": {}, \"queries_failed\": {}, \
         \"updates_attempted\": {}, \"updates_failed\": {}, \"round_steps\": {:?}, \
         \"round_s\": {:?}, \"setup_s\": {:?}, \"rss_base_mb\": {}}}}}",
        nproc(),
        commit(),
        env.workload,
        env.seed,
        env.seconds,
        env.trace,
        env.threads,
        env.connections,
        t.round_s.len(),
        t.queries,
        t.queries_failed,
        t.updates,
        t.updates_failed,
        t.round_steps,
        t.round_s,
        t.setup_s,
        t.rss_base_mb,
    );
}

/// The result line: the last line of standard output.
pub fn print_result(t: &Tally, metrics: &Metrics) {
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.errors.is_empty(),
        t.attempted(),
        t.failed(),
        metrics.to_json()
    );
}
