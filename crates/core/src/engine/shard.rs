//! The sharding math behind a sharded [`Deployment`]: partition the
//! data graph into contiguous node ranges, build every shard's private
//! [`GraphContext`](super::context::GraphContext) (local CSR plus a
//! gathered signature slab) with a ghost-node halo, and merge the
//! per-shard partial answers back into one global-id [`PsiResult`].
//! The serving half (routing, fan-out, updates, adaptation) lives on
//! [`Deployment`] itself; this module is pure functions over graphs
//! and results.
//!
//! # Why PSI shards cleanly
//!
//! A PSI answer is a set of *pivot bindings* — per-node verdicts. Each
//! data node is owned by exactly one shard, so the merged answer is a
//! disjoint union of per-shard answers; nothing is double-counted and
//! nothing needs reconciliation. An unsharded deployment is the
//! one-cell case of the same union. The only obstruction is embeddings
//! that cross a partition boundary, and that is solved locally with a
//! ghost-node **halo**.
//!
//! # The halo-depth argument
//!
//! Let `ecc(q)` be the eccentricity of the query pivot inside the query
//! graph. In any full embedding, the image of a query node `w` lies
//! within data-distance `qdist(pivot, w) ≤ ecc(q)` of the matched pivot
//! candidate `u` (a query path maps to a data walk of the same length).
//! Therefore every embedding that binds `u` lives entirely inside the
//! `ecc(q)`-ball of `u`, and every edge of that embedding joins two
//! nodes at distance `≤ ecc(q)`.
//!
//! A shard built with halo depth `D` materializes, per owned range:
//!
//! * **members** — all nodes at distance `≤ D` of the owned range, with
//!   *every* incident edge whose nearer endpoint is at distance `≤ D`.
//!   Members at distance `≤ D` keep their full global adjacency (their
//!   neighbors are at distance `≤ D + 1` and hence resident), so their
//!   local degree equals their global degree;
//! * **rim stubs** — nodes at distance exactly `D + 1`, retained only
//!   so the members at distance `D` keep exact degrees. Rim stubs carry
//!   truncated adjacency and are never owned candidates.
//!
//! Signature rows are **gathered from the global matrix**, never
//! recomputed per shard — a boundary node's `D`-ball extends outside
//! the shard, so local recomputation would diverge. With global rows,
//! signature pruning and ranking behave identically to the
//! single-context engine.
//!
//! With `D ≥ ecc(q)` the local search over an owned pivot candidate is
//! verdict-exact: candidates it examines are at distance `≤ ecc + 1`
//! and every check it performs (label, degree for nodes `≤ D`,
//! signature, adjacency between embedding nodes) matches the global
//! graph. Scheduling-dependent *cost* (steps, escalations) may differ —
//! per-shard training samples differ — but verdicts cannot.
//! [`Deployment::submit`] therefore rejects queries with
//! `ecc(q) > D`; `crates/core/tests/sharded.rs` proves both directions
//! (exactness at depth `D`, detectable wrongness at `D − 1`).
//!
//! # Merge semantics
//!
//! Per-shard partial results are translated back to global ids (owned
//! locals are `global − lo`, a mapping that is stable across epoch
//! republishes) and merged under a [`Phase::ShardMerge`] span: valid
//! sets concatenate and sort, candidate/step/unresolved totals add,
//! failure reports merge with node ids and injected-panic reasons
//! rewritten to global space. A shard job answered without running —
//! it died twice (fault isolation at the shard-job boundary), its
//! deadline expired while queued, or a drain aborted it — collapses
//! the whole query to the same empty-result-plus-failure shape a
//! single-context [`PsiService`](super::service::PsiService) produces,
//! so a client reads one structured failure (never a partial answer)
//! and differential suites can compare the two deployment shapes
//! bit-for-bit.
//!
//! # Updates
//!
//! An evolving sharded deployment owns one global
//! [`IncrementalSignatures`](psi_signature::IncrementalSignatures)
//! maintainer. [`Deployment::apply_update`] repairs the global matrix,
//! then rebuilds only the shards whose resident set intersects the
//! batch's blast zone (the ball around the endpoints at the repair radius
//! `depth − 1`), bumping each affected shard's epoch independently.
//! Appended nodes are owned by the last shard (its range is
//! open-ended).
//!
//! [`Deployment`]: super::deploy::Deployment
//! [`Deployment::submit`]: super::deploy::Deployment::submit
//! [`Deployment::apply_update`]: super::deploy::Deployment::apply_update
//! [`Phase::ShardMerge`]: psi_obs::Phase::ShardMerge

use psi_graph::hash::FxHashSet;
use psi_graph::{Graph, GraphBuilder, NodeId, PivotedQuery};
use psi_obs::{Counter, QueryProfile};
use psi_signature::{SigStore, SignatureStore};

use crate::report::PsiResult;

/// Why [`Deployment::submit`](super::deploy::Deployment::submit)
/// refused a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The query's pivot eccentricity exceeds the deployment's halo
    /// depth: answering it could silently miss boundary-crossing
    /// embeddings, so the serving tier rejects it instead.
    QueryTooDeep {
        /// Eccentricity of the pivot inside the query graph.
        eccentricity: u32,
        /// Halo depth `D` every shard was built with.
        halo_depth: u32,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueryTooDeep {
                eccentricity,
                halo_depth,
            } => write!(
                f,
                "query pivot eccentricity {eccentricity} exceeds the shard halo depth \
                 {halo_depth}; redeploy with DeploymentSpec::halo({eccentricity}) or more"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a sharded deployment cuts the node range into contiguous owned
/// ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBalance {
    /// Equal node counts per shard.
    #[default]
    EvenNodes,
    /// Balance the *expected candidate load* instead of raw node
    /// counts: each node weighs `1 / label_frequency(label(node))`, so
    /// every shard owns roughly the same fraction of each label class
    /// under a uniformly random pivot label.
    LabelAware,
}

/// Default halo depth: supports query pivot eccentricities up to 4
/// (e.g. any connected query of ≤ 5 nodes).
pub const DEFAULT_HALO_DEPTH: u32 = 4;

/// What one shard rebuild produced.
pub(crate) struct ShardBuild {
    pub(crate) graph: Graph,
    /// Resident signature rows, gathered in the deployment's storage
    /// backend (a compact deployment gathers compact slabs).
    pub(crate) slab: SigStore,
    /// local id → global id; owned prefix `0..owned_len` (ascending,
    /// `global = lo + local`), then halo + rim in ascending global
    /// order.
    pub(crate) locals: Vec<NodeId>,
}

/// Merge per-shard partial results into one global-id result.
pub(crate) fn merge_results(pivot: NodeId, parts: Vec<(NodeId, PsiResult)>) -> PsiResult {
    // A cell that answered without running the query (its job died
    // twice, its deadline expired in the queue, or a drain aborted it)
    // reports an empty result plus failures at the query pivot.
    // Mirror the single-context service: the whole query collapses to
    // that shape, and partial answers from the other cells are
    // discarded, so a client sees one structured failure instead of a
    // partial verdict set and the two deployment shapes stay
    // bit-identical.
    if let Some((lo, r)) = parts
        .iter()
        .find(|(_, r)| r.candidates == 0 && !r.failures.nodes.is_empty())
    {
        let mut out = PsiResult::empty(0, 0);
        for f in &r.failures.nodes {
            debug_assert_eq!(f.node, pivot, "an unrun cell job records the query pivot");
            out.failures.record(f.node, translate_reason(&f.reason, *lo), f.attempts);
        }
        out.failures.worker_deaths = r.failures.worker_deaths;
        return out;
    }
    let mut out = PsiResult::empty(0, 0);
    let mut profile = QueryProfile::new();
    let mut any_profile = false;
    for (lo, r) in parts {
        out.valid.extend(r.valid.iter().map(|&l| lo + l));
        out.candidates += r.candidates;
        out.steps += r.steps;
        out.unresolved += r.unresolved;
        let mut failures = r.failures.clone();
        for f in &mut failures.nodes {
            f.reason = translate_reason(&f.reason, lo);
            f.node += lo;
        }
        out.failures.merge(&failures);
        for mut row in r.feedback {
            row.node += lo;
            out.feedback.push(row);
        }
        if let Some(p) = r.profile {
            merge_profile(&mut profile, &p);
            any_profile = true;
        }
    }
    out.valid.sort_unstable();
    out.failures.sort();
    out.feedback.sort_by_key(|f| f.node);
    if any_profile {
        out.profile = Some(Box::new(profile));
    }
    out
}

/// Rewrite a shard-local injected-panic reason to global id space.
/// (The injected-panic format is the only reason string carrying a
/// data node id; see `fault::panic_reason`.)
fn translate_reason(reason: &str, lo: NodeId) -> String {
    if let Some(rest) = reason.strip_prefix("injected panic (node ") {
        if let Some(num) = rest.strip_suffix(')') {
            if let Ok(local) = num.parse::<NodeId>() {
                return format!("injected panic (node {})", lo + local);
            }
        }
    }
    reason.to_string()
}

/// Sum a shard profile into the merged one. Spans, counters and
/// histograms add; wall clocks take the slowest shard (the shards ran
/// concurrently); the alpha accuracy is averaged weighted by trained
/// nodes.
fn merge_profile(into: &mut QueryProfile, p: &QueryProfile) {
    let w_prev = into.counter(Counter::TrainedNodes) as f64;
    let w_new = p.counter(Counter::TrainedNodes) as f64;
    let acc = |a: f64| if a.is_nan() { 0.0 } else { a };
    if w_prev + w_new > 0.0 {
        into.alpha_accuracy =
            (acc(into.alpha_accuracy) * w_prev + acc(p.alpha_accuracy) * w_new) / (w_prev + w_new);
    }
    into.total_wall_ns = into.total_wall_ns.max(p.total_wall_ns);
    into.signature_build_ns = into.signature_build_ns.max(p.signature_build_ns);
    into.train_ns += p.train_ns;
    into.evaluation_ns += p.evaluation_ns;
    into.recorded |= p.recorded;
    for (o, v) in into.spans_ns.iter_mut().zip(p.spans_ns.iter()) {
        *o += v;
    }
    for (o, v) in into.counters.iter_mut().zip(p.counters.iter()) {
        *o += v;
    }
    for (oh, vh) in into.hists.iter_mut().zip(p.hists.iter()) {
        for (o, v) in oh.iter_mut().zip(vh.iter()) {
            *o += v;
        }
    }
}

/// Eccentricity of the query pivot inside the (connected) query graph.
pub(crate) fn pivot_eccentricity(q: &PivotedQuery) -> u32 {
    q.graph()
        .bfs_distances(q.pivot())
        .into_iter()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

/// Cut `[0, n)` into `shards` contiguous ranges.
pub(crate) fn partition(
    g: &Graph,
    shards: usize,
    balance: ShardBalance,
) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    let k = shards.max(1);
    match balance {
        ShardBalance::EvenNodes => (0..k)
            .map(|i| ((i * n / k) as NodeId, ((i + 1) * n / k) as NodeId))
            .collect(),
        ShardBalance::LabelAware => {
            let weight = |u: NodeId| 1.0 / g.label_frequency(g.label(u)).max(1) as f64;
            let total: f64 = (0..n as NodeId).map(weight).sum();
            let mut cuts = Vec::with_capacity(k + 1);
            cuts.push(0 as NodeId);
            let mut acc = 0.0;
            for u in 0..n as NodeId {
                acc += weight(u);
                // Close every range whose cumulative weight target
                // (i/k of the total for the i-th boundary) is met.
                while cuts.len() < k && acc + 1e-9 >= total * cuts.len() as f64 / k as f64 {
                    cuts.push(u + 1);
                }
            }
            while cuts.len() < k {
                cuts.push(n as NodeId);
            }
            cuts.push(n as NodeId);
            cuts.windows(2).map(|w| (w[0], w[1])).collect()
        }
    }
}

/// Build one shard: BFS the halo, assemble the local CSR (owned
/// prefix, then halo members, then rim stubs) and gather its signature
/// slab from the global matrix.
pub(crate) fn build_shard(
    g: &Graph,
    sigs: &dyn SignatureStore,
    lo: NodeId,
    hi: NodeId,
    halo: u32,
) -> ShardBuild {
    let n = g.node_count();
    let reach = halo + 1;
    // Multi-source BFS from the owned range, bounded at halo + 1.
    let mut dist = vec![u32::MAX; n];
    let mut frontier: Vec<NodeId> = (lo..hi).collect();
    for &u in &frontier {
        dist[u as usize] = 0;
    }
    let mut d = 0;
    while d < reach && !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = d + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
        d += 1;
    }

    // Local ids: owned prefix first (local = global - lo), then every
    // other resident node in ascending global order.
    let mut locals: Vec<NodeId> = (lo..hi).collect();
    for v in 0..n as NodeId {
        if dist[v as usize] != u32::MAX && !(lo..hi).contains(&v) {
            locals.push(v);
        }
    }
    let mut to_local = vec![u32::MAX; n];
    for (l, &gv) in locals.iter().enumerate() {
        to_local[gv as usize] = l as NodeId;
    }

    let mut b = GraphBuilder::with_capacity(locals.len(), locals.len() * 2);
    b.reserve_label_space(sigs.label_count());
    for &gv in &locals {
        b.add_node(g.label(gv));
    }
    for (lu, &gu) in locals.iter().enumerate() {
        if dist[gu as usize] > halo {
            continue; // rim stub: its retained edges come from members
        }
        for (gv, el) in g.neighbors_with_labels(gu) {
            let dv = dist[gv as usize];
            if dv == u32::MAX {
                continue; // unreachable from an isolated owned node's side
            }
            if dv <= halo {
                // member–member: add once, from the smaller global id
                if gu < gv {
                    b.add_labeled_edge(lu as NodeId, to_local[gv as usize], el);
                }
            } else {
                // member–rim: the rim side is skipped above, so this
                // enumeration is the only one
                b.add_labeled_edge(lu as NodeId, to_local[gv as usize], el);
            }
        }
    }
    let graph = match b.build() {
        Ok(graph) => graph,
        Err(e) => unreachable!("a shard subgraph of a valid graph is valid: {e}"),
    };

    // Gather global signature rows for every resident node — never
    // recompute locally: boundary balls extend outside the shard. The
    // gather stays in the deployment's storage backend, so a compact
    // deployment's per-shard slabs are compact too.
    ShardBuild {
        graph,
        slab: sigs.gather(&locals),
        locals,
    }
}

/// Bounded multi-source BFS: every node within `depth` of any seed.
pub(crate) fn ball(g: &Graph, seeds: &[NodeId], depth: u32) -> Vec<NodeId> {
    let mut seen = FxHashSet::default();
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if (s as usize) < g.node_count() && seen.insert(s) {
            frontier.push(s);
        }
    }
    let mut out: Vec<NodeId> = frontier.clone();
    for _ in 0..depth {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if seen.insert(v) {
                    next.push(v);
                }
            }
        }
        out.extend_from_slice(&next);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_covers_range() {
        let g = psi_datasets::generators::erdos_renyi(103, 300, 3, 1);
        let cuts = partition(&g, 4, ShardBalance::EvenNodes);
        assert_eq!(cuts.len(), 4);
        assert_eq!(cuts[0].0, 0);
        assert_eq!(cuts[3].1, 103);
        for w in cuts.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
    }

    #[test]
    fn label_aware_partition_covers_range_and_balances_rare_labels() {
        // 90 nodes of label 0, 10 of label 1: a label-aware 2-cut puts
        // roughly half the rare label in each shard, which an even cut
        // (boundary at 50) cannot do when the rare nodes sit at the end.
        let mut b = GraphBuilder::new();
        for _ in 0..90 {
            b.add_node(0);
        }
        for _ in 0..10 {
            b.add_node(1);
        }
        b.add_edge(0, 99);
        let g = match b.build() {
            Ok(g) => g,
            Err(e) => unreachable!("{e}"),
        };
        let cuts = partition(&g, 2, ShardBalance::LabelAware);
        assert_eq!(cuts[0].0, 0);
        assert_eq!(cuts[1].1, 100);
        assert_eq!(cuts[0].1, cuts[1].0);
        // Half the total weight sits exactly at the label boundary
        // (node 90), far from the even-node midpoint (50).
        assert!(
            (88..=92).contains(&cuts[0].1),
            "label-aware cut at {}",
            cuts[0].1
        );
    }

    #[test]
    fn shard_members_keep_global_degrees() {
        let g = psi_datasets::generators::erdos_renyi(80, 240, 3, 9);
        let sigs = psi_signature::matrix_signatures(&g, 2);
        let halo = 2;
        let b = build_shard(&g, &sigs, 10, 30, halo);
        let dist_ok = |gv: NodeId| {
            (10..30)
                .map(|s| g.bfs_distances(s)[gv as usize])
                .min()
                .unwrap_or(u32::MAX)
        };
        for (l, &gv) in b.locals.iter().enumerate() {
            assert_eq!(b.graph.label(l as NodeId), g.label(gv), "labels preserved");
            assert_eq!(
                b.slab.dense().unwrap().row(l as NodeId),
                sigs.row(gv),
                "rows gathered"
            );
            if dist_ok(gv) <= halo {
                assert_eq!(
                    b.graph.degree(l as NodeId),
                    g.degree(gv),
                    "member {gv} keeps its global degree"
                );
            }
        }
    }

    #[test]
    fn an_unrun_cell_job_collapses_the_merged_answer() {
        use crate::engine::service::{ABORTED_BY_SHUTDOWN_REASON, DEADLINE_EXPIRED_REASON};
        let answered = |lo: NodeId| {
            let mut r = PsiResult::empty(3, 7);
            r.valid = vec![1, 2];
            (lo, r)
        };
        let unrun = |lo: NodeId, reason: &str| {
            let mut r = PsiResult::empty(0, 0);
            r.failures.record(0, reason, 0);
            (lo, r)
        };
        for reason in [DEADLINE_EXPIRED_REASON, ABORTED_BY_SHUTDOWN_REASON] {
            // Every cell expired, or only some did: either way one
            // failure at the pivot, no verdicts, no partial answer.
            for parts in [
                vec![unrun(0, reason), unrun(50, reason), unrun(100, reason)],
                vec![answered(0), unrun(50, reason), answered(100)],
            ] {
                let merged = merge_results(0, parts);
                assert!(merged.valid.is_empty(), "{reason}: partial answer leaked");
                assert_eq!(merged.candidates, 0);
                assert_eq!(merged.failures.nodes.len(), 1, "{reason}");
                assert_eq!(merged.failures.nodes[0].node, 0, "failure stays at the pivot");
                assert_eq!(merged.failures.nodes[0].reason, reason);
            }
        }
        // Cells that all ran merge as a disjoint union.
        let merged = merge_results(0, vec![answered(0), answered(100)]);
        assert_eq!(merged.valid, vec![1, 2, 101, 102]);
        assert!(merged.failures.nodes.is_empty());
    }

    #[test]
    fn translate_reason_rewrites_injected_panics_only() {
        assert_eq!(translate_reason("injected panic (node 3)", 100), "injected panic (node 103)");
        assert_eq!(translate_reason("node timeout", 100), "node timeout");
        assert_eq!(translate_reason("panic: boom", 100), "panic: boom");
    }
}
