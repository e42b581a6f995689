//! Seeded input generation: data graphs (as edge-list text), pivoted
//! queries (as wire-protocol request lines) and update batches.
//!
//! Everything here is the benchmark's own code. The program under test
//! only ever sees the text this module writes, so a change to the
//! program's dataset generators cannot change the benchmark's inputs.

use std::collections::HashSet;
use std::fmt::Write as _;

/// Seed of every workload's data graph. The graph is the workload's
/// fixed dataset; `--seed` draws the queries, the stream and the
/// updates over it. Graphs with hubs and label homophily differ so much
/// in hardness from one draw to the next that seeding them too would
/// bury every change in seed-to-seed spread.
pub const DATASET_SEED: u64 = 0x0da7_a5e7;
/// Seed of the query plan (sizes and pivot labels; see
/// [`distinct_queries`]), fixed for the same reason.
pub const PLAN_SEED: u64 = 0x91a4_5eed;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed index sampler over `0..k` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0;
        for i in 0..k {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A generated data graph: node labels plus undirected simple edges.
#[derive(Debug, Clone)]
pub struct DataGraph {
    pub labels: Vec<u32>,
    pub adj: Vec<Vec<u32>>,
}

impl DataGraph {
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    pub fn label_count(&self) -> usize {
        self.labels
            .iter()
            .copied()
            .max()
            .map_or(0, |l| l as usize + 1)
    }

    /// The graph in the program's edge-list format (`v id label` /
    /// `e src dst`).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.labels.len() * 10 + self.edge_count() * 14);
        out.push_str("t bench\n");
        for (i, l) in self.labels.iter().enumerate() {
            let _ = writeln!(out, "v {i} {l}");
        }
        for (u, ns) in self.adj.iter().enumerate() {
            for &v in ns {
                if (u as u32) < v {
                    let _ = writeln!(out, "e {u} {v}");
                }
            }
        }
        out
    }
}

/// Shape of a generated graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphShape {
    pub nodes: usize,
    /// Edges each new node attaches with (≈ average degree / 2).
    pub attach: usize,
    pub labels: usize,
    /// Zipf exponent of the label frequencies.
    pub label_skew: f64,
    /// Probability that a node copies a neighbour's label.
    pub homophily: f64,
    /// Share of attachments made uniformly instead of preferentially.
    pub uniform_share: f64,
    /// Attach only within the last `window` nodes (0 = anywhere). A
    /// window keeps neighbourhoods id-local, as range sharding needs.
    pub window: usize,
}

/// Growth model: each new node attaches `attach` edges to earlier
/// nodes, preferentially (endpoint of a random earlier edge) or
/// uniformly, optionally within a window of recent ids.
pub fn generate(shape: &GraphShape, rng: &mut Rng) -> DataGraph {
    let n = shape.nodes;
    let zipf = Zipf::new(shape.labels, shape.label_skew);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut labels = vec![0u32; n];
    // Flat endpoint list: sampling it is degree-proportional.
    let mut ends: Vec<u32> = Vec::with_capacity(n * shape.attach * 2);
    let seed_nodes = (shape.attach + 1).min(n);
    for u in 0..seed_nodes {
        labels[u] = zipf.sample(rng) as u32;
        for v in 0..u {
            adj[u].push(v as u32);
            adj[v].push(u as u32);
            ends.push(u as u32);
            ends.push(v as u32);
        }
    }
    let mut picked: Vec<u32> = Vec::with_capacity(shape.attach);
    for u in seed_nodes..n {
        let lo = if shape.window > 0 {
            u.saturating_sub(shape.window)
        } else {
            0
        };
        picked.clear();
        let mut tries = 0;
        while picked.len() < shape.attach && tries < shape.attach * 8 {
            tries += 1;
            let v = if rng.unit() < shape.uniform_share {
                lo + rng.below(u - lo)
            } else {
                // Preferential: a random endpoint among recent edges
                // (the whole list when unwindowed).
                let span = if shape.window > 0 {
                    (shape.window * shape.attach * 2).min(ends.len())
                } else {
                    ends.len()
                };
                ends[ends.len() - 1 - rng.below(span)] as usize
            };
            if v < lo || v >= u || picked.contains(&(v as u32)) {
                continue;
            }
            picked.push(v as u32);
        }
        labels[u] = if !picked.is_empty() && rng.unit() < shape.homophily {
            labels[picked[rng.below(picked.len())] as usize]
        } else {
            zipf.sample(rng) as u32
        };
        for &v in &picked {
            adj[u].push(v);
            adj[v as usize].push(u as u32);
            ends.push(u as u32);
            ends.push(v);
        }
    }
    for ns in &mut adj {
        ns.sort_unstable();
        ns.dedup();
    }
    DataGraph { labels, adj }
}

/// A pivoted query in the benchmark's own representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub labels: Vec<u32>,
    pub edges: Vec<(u32, u32)>,
    pub pivot: u32,
}

impl Query {
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// The wire-protocol request line for this query.
    pub fn request_line(&self, id: u64) -> String {
        let mut out = format!("{{\"op\":\"query\",\"id\":{id},\"labels\":[");
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{l}");
        }
        out.push_str("],\"edges\":[");
        for (i, (a, b)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{a},{b}]");
        }
        let _ = write!(out, "],\"pivot\":{}}}", self.pivot);
        out
    }

    /// Largest BFS distance from the pivot to any query node.
    pub fn pivot_eccentricity(&self) -> u32 {
        let n = self.size();
        let mut dist = vec![u32::MAX; n];
        dist[self.pivot as usize] = 0;
        let mut frontier = vec![self.pivot];
        let mut d = 0;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &x in &frontier {
                for &(a, b) in &self.edges {
                    let y = if a == x {
                        b
                    } else if b == x {
                        a
                    } else {
                        continue;
                    };
                    if dist[y as usize] == u32::MAX {
                        dist[y as usize] = d;
                        next.push(y);
                    }
                }
            }
            frontier = next;
        }
        dist.into_iter().max().unwrap_or(0)
    }
}

/// Extract a connected query of `size` nodes by random walk with
/// restart (restart probability 0.15) from `start`, induced on the
/// visited nodes, with `start` as the pivot. The start node is a valid
/// binding of the pivot by construction, so every query has at least
/// one answer.
pub fn walk_query(g: &DataGraph, start: u32, size: usize, rng: &mut Rng) -> Option<Query> {
    if g.adj[start as usize].is_empty() {
        return None;
    }
    let mut nodes = vec![start];
    let mut cur = start;
    for _ in 0..4096 {
        if nodes.len() == size {
            break;
        }
        if rng.unit() < 0.15 {
            cur = start;
            continue;
        }
        let ns = &g.adj[cur as usize];
        cur = ns[rng.below(ns.len())];
        if !nodes.contains(&cur) {
            nodes.push(cur);
        }
    }
    if nodes.len() < size {
        return None;
    }
    let labels = nodes.iter().map(|&v| g.labels[v as usize]).collect();
    let mut edges = Vec::new();
    for i in 0..size {
        for j in i + 1..size {
            if g.adj[nodes[i] as usize].binary_search(&nodes[j]).is_ok() {
                edges.push((i as u32, j as u32));
            }
        }
    }
    Some(Query {
        labels,
        edges,
        pivot: 0,
    })
}

/// A query walked from a random start, with a random pivot.
pub fn extract_query(g: &DataGraph, size: usize, rng: &mut Rng) -> Option<Query> {
    for _ in 0..256 {
        let start = rng.below(g.labels.len()) as u32;
        if let Some(mut q) = walk_query(g, start, size, rng) {
            q.pivot = rng.below(size) as u32;
            return Some(q);
        }
    }
    None
}

/// `count` distinct queries whose pivot eccentricity is at most
/// `max_ecc`.
///
/// Query `k`'s size (uniform in `sizes`) and pivot label (that of a
/// uniformly drawn node) come from `plan`, which callers seed with a
/// fixed seed; the pivot node and the walk come from `rng`. Every seed
/// thus draws the same mix of sizes and pivot labels, which set most of
/// a query's cost, and differs in everything else.
pub fn distinct_queries(
    g: &DataGraph,
    count: usize,
    sizes: (usize, usize),
    max_ecc: u32,
    plan: &mut Rng,
    rng: &mut Rng,
) -> Vec<Query> {
    let mut by_label: Vec<Vec<u32>> = vec![Vec::new(); g.label_count()];
    for (v, &l) in g.labels.iter().enumerate() {
        by_label[l as usize].push(v as u32);
    }
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let size = sizes.0 + plan.below(sizes.1 - sizes.0 + 1);
        let nodes = &by_label[g.labels[plan.below(g.labels.len())] as usize];
        for _ in 0..1000 {
            let start = nodes[rng.below(nodes.len())];
            let Some(q) = walk_query(g, start, size, rng) else {
                continue;
            };
            if q.pivot_eccentricity() <= max_ecc && seen.insert(q.clone()) {
                out.push(q);
                break;
            }
        }
    }
    out
}

/// The make-up of a graph and its queries, for the run record.
pub fn describe(g: &DataGraph, queries: &[Query]) -> Vec<(&'static str, f64)> {
    let sizes: Vec<usize> = queries.iter().map(|q| q.size()).collect();
    vec![
        ("nodes", g.labels.len() as f64),
        ("edges", g.edge_count() as f64),
        ("labels", g.label_count() as f64),
        (
            "avg_degree",
            2.0 * g.edge_count() as f64 / g.labels.len() as f64,
        ),
        (
            "max_degree",
            g.adj.iter().map(Vec::len).max().unwrap_or(0) as f64,
        ),
        ("queries", queries.len() as f64),
        (
            "query_size_min",
            sizes.iter().copied().min().unwrap_or(0) as f64,
        ),
        (
            "query_size_max",
            sizes.iter().copied().max().unwrap_or(0) as f64,
        ),
        (
            "query_size_mean",
            sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64,
        ),
    ]
}

/// One graph-update batch: new nodes (appended ids) and new edges.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    pub add_nodes: Vec<u32>,
    /// Edges over existing or just-appended ids.
    pub add_edges: Vec<(u32, u32)>,
}

impl UpdateBatch {
    /// The wire-protocol `update` request line.
    pub fn request_line(&self, id: u64) -> String {
        let mut out = format!("{{\"op\":\"update\",\"id\":{id},\"updates\":[");
        let mut first = true;
        for l in &self.add_nodes {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{{\"add_node\":{l}}}");
        }
        for (u, v) in &self.add_edges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{{\"add_edge\":[{u},{v},0]}}");
        }
        out.push_str("]}");
        out
    }
}

/// An update batch against a graph of `node_count` nodes: `nodes` new
/// nodes each wired to two existing ones, plus `edges` new edges
/// between existing nodes (biased towards low ids, where the graph's
/// hubs sit, so the repairs reach busy neighbourhoods).
pub fn update_batch(
    node_count: usize,
    label_count: usize,
    nodes: usize,
    edges: usize,
    rng: &mut Rng,
) -> UpdateBatch {
    let n = node_count;
    let mut b = UpdateBatch::default();
    for i in 0..nodes {
        let id = (n + i) as u32;
        b.add_nodes.push(rng.below(label_count) as u32);
        b.add_edges.push((id, rng.below(n) as u32));
        b.add_edges.push((id, rng.below(n) as u32));
    }
    for _ in 0..edges {
        let u = rng.below(n) as u32;
        let v = (rng.unit() * rng.unit() * n as f64) as u32;
        if u != v {
            b.add_edges.push((u, v));
        }
    }
    b
}
