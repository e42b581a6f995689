//! One serving type for every deployment shape.
//!
//! [`DeploymentSpec`] describes the whole product space in one
//! builder:
//!
//! ```text
//!   {workers} × {unsharded | sharded} × {static | evolving}
//!             × {dense | compact} × {frozen | adaptive}
//! ```
//!
//! and [`SmartPsi::deploy`] resolves it into one [`Deployment`]: a set
//! of `N ≥ 1` **cells**, each a [`PsiService`] (a persistent worker
//! pool over one [`GraphContext`]). A PSI answer is a set of per-pivot
//! verdicts, so a sharded answer is the disjoint union of the cells'
//! answers (see the [`shard`](super::shard) module docs), and an
//! unsharded deployment is simply the one-cell case:
//!
//! * **Unsharded** — one cell over the full context `Arc`: no halo
//!   copy, no row gather, no candidate routing, no eccentricity guard.
//!   Its handle returns the cell's [`PsiResult`] untouched, and an
//!   evolving deployment updates through the cell's own
//!   [`EvolvingContext`].
//! * **Sharded** — one cell per contiguous owned range plus its ghost
//!   halo. Submission guards the halo depth, routes each query to the
//!   cells owning candidates, and the handle merges their answers;
//!   updates repair one global signature maintainer and republish only
//!   the cells the batch touches; adaptation pools every cell's
//!   feedback through one coordinator.
//!
//! Either shape has the same surface — submit, update, stats, drain —
//! and [`NetServer`](super::net::NetServer) serves both.
//!
//! ```
//! use psi_core::{DeploymentSpec, RunSpec, SmartPsi, SmartPsiConfig};
//!
//! let g = psi_datasets::generators::erdos_renyi(400, 1400, 3, 11);
//! let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 2).unwrap();
//! let smart = SmartPsi::new(g, SmartPsiConfig::default());
//! let single = smart.run(&q, &RunSpec::new());
//!
//! // A 2-worker unsharded deployment on the compact store:
//! let spec = DeploymentSpec::new()
//!     .workers(2)
//!     .sig_store(psi_signature::SigStoreKind::Compact);
//! let mut dep = smart.deploy(&spec);
//! let r = dep.submit(q.clone(), RunSpec::new()).unwrap().wait();
//! # let _ = r;
//! dep.shutdown(std::time::Duration::from_secs(1));
//!
//! // Four scatter-gather shards answer the same verdicts:
//! let mut sharded = smart.deploy(&DeploymentSpec::new().shards(4).workers(1));
//! let merged = sharded.submit(q, RunSpec::new()).unwrap().wait();
//! assert_eq!(merged.valid, single.valid);
//! sharded.shutdown(std::time::Duration::from_secs(1));
//! ```
//!
//! [`SmartPsi::deploy`]: crate::SmartPsi::deploy

use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use psi_graph::{Graph, GraphUpdate, LabelId, NodeId, PivotedQuery};
use psi_ml::forest::ForestConfig;
use psi_obs::{timed, Counter, MetricsRecorder, Phase, Recorder};
use psi_signature::{IncrementalSignatures, SigStoreKind, SignatureStore};

use crate::fault::FaultPlan;
use crate::report::PsiResult;
use crate::smart::RunSpec;
use crate::sync::{lock, read, write};

use super::adapt::{
    fit_feedback_models, AdaptedModels, AdaptiveConfig, AdaptiveStats, SplitMix64,
    MIN_REFIT_SAMPLES,
};
use super::context::{GraphContext, SmartPsiConfig};
use super::evolve::{maintainer, EvolvingContext, UpdateError, UpdateReport};
use super::service::{DrainReport, JobHandle, PsiService, ServiceStats};
use super::shard::{
    ball, build_shard, merge_results, partition, pivot_eccentricity, ShardBalance, SubmitError,
    DEFAULT_HALO_DEPTH,
};

/// Builder-style description of one serving deployment: worker count,
/// sharding, halo depth, partition balance, signature store backend,
/// static-vs-evolving and adaptation. `DeploymentSpec::default()` is a
/// 1-worker, unsharded, static deployment on the context's existing
/// store.
#[derive(Debug, Clone, Default)]
pub struct DeploymentSpec {
    workers: usize,
    shards: usize,
    halo: Option<u32>,
    balance: ShardBalance,
    sig_store: Option<SigStoreKind>,
    evolving: Option<usize>,
    adaptive: Option<AdaptiveConfig>,
}

impl DeploymentSpec {
    /// A 1-worker, unsharded, static deployment on the context's
    /// existing signature store (same as `default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads per cell — the total for an unsharded deployment,
    /// *per shard* when [`DeploymentSpec::shards`] is set (clamped to
    /// ≥ 1 at deploy).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Partition the graph into `shards` contiguous ranges served
    /// scatter-gather (`0` or `1` = one unsharded cell).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Ghost-node halo depth `D` for sharded deployments (default:
    /// [`DEFAULT_HALO_DEPTH`]): a sharded deployment accepts a query
    /// iff its pivot eccentricity is `≤ D`, and deeper halos cost more
    /// resident memory per shard. Ignored when unsharded.
    pub fn halo(mut self, depth: u32) -> Self {
        self.halo = Some(depth);
        self
    }

    /// Partition balance policy for sharded deployments. Ignored when
    /// unsharded.
    pub fn balance(mut self, balance: ShardBalance) -> Self {
        self.balance = balance;
        self
    }

    /// Signature store backend for the deployment. Unset (the default)
    /// keeps whatever store the context was built with; setting a
    /// different backend converts once at deploy time.
    pub fn sig_store(mut self, kind: SigStoreKind) -> Self {
        self.sig_store = Some(kind);
        self
    }

    /// Make the deployment evolving: accept
    /// [`apply_update`](Deployment::apply_update) batches, reserving
    /// signature label space for `label_capacity` labels (clamped up
    /// to the graph's current label count).
    pub fn evolving(mut self, label_capacity: usize) -> Self {
        self.evolving = Some(label_capacity);
        self
    }

    /// Enable the online α/β adaptation loop: every served query
    /// feeds its `(features, method, outcome, steps)` back into a
    /// bounded reservoir, an `epsilon` fraction of queries explores
    /// the non-predicted method, and pooled models are refit every
    /// `cadence` queries (0 = refit only on drift / explicit install).
    /// Off by default — a frozen deployment stays bit-identical to
    /// pre-adaptive behavior. Tune capacity/seed via
    /// [`DeploymentSpec::adaptive_config`] with a hand-built
    /// [`AdaptiveConfig`].
    pub fn adaptive(mut self, cadence: u64, epsilon: f64) -> Self {
        self.adaptive = Some(AdaptiveConfig::new(cadence, epsilon));
        self
    }

    /// Enable adaptation with a fully specified [`AdaptiveConfig`]
    /// (reservoir capacity, ε seed) instead of the
    /// [`DeploymentSpec::adaptive`] defaults.
    pub fn adaptive_config(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = Some(cfg);
        self
    }
}

/// One shard cell's owned range, republished with the cell.
struct ShardRange {
    /// Owned range start. Never changes, so `owned local ↔ global`
    /// translation (`global = lo + local`) is stable across epochs.
    lo: NodeId,
    meta: RwLock<ShardMeta>,
}

/// The part of a shard's range that an update republish replaces.
struct ShardMeta {
    /// Owned range end (exclusive). Only the last shard's `hi` grows.
    hi: NodeId,
    /// local → global for every resident node: the owned prefix
    /// `0..hi - lo` (ascending, `global = lo + local`), then halo and
    /// rim in ascending global order.
    locals: Vec<NodeId>,
}

/// The scatter-gather half of a sharded deployment.
struct Shards {
    /// One owned range per cell, in cell order.
    ranges: Vec<ShardRange>,
    halo_depth: u32,
    /// Per-cell config of rebuilt shard contexts (fault plan stripped;
    /// faults are projected per query instead).
    config: SmartPsiConfig,
    /// The deployment-level fault plan, projected onto each shard's
    /// candidate subset at submit time.
    base_fault: Option<Arc<FaultPlan>>,
    /// The one global incremental signature maintainer of an evolving
    /// deployment; `None` = static.
    evolving: Option<Mutex<IncrementalSignatures>>,
    adaptive: Option<Mutex<AdaptCoordinator>>,
    /// Deployment-level registry: [`Counter::ShardFanout`] (cell jobs
    /// submitted), [`Phase::ShardMerge`] spans, update spans and
    /// merged refits. Queue and worker counters live in each cell's
    /// own registry ([`Deployment::shard_metrics`]).
    metrics: Arc<MetricsRecorder>,
}

/// The deployment-level half of a sharded adaptation loop. Cells run
/// collection-only adaptation (per-shard reservoirs, no ε, no
/// cadence); this coordinator owns the ε draws, the merged-refit
/// cadence over all reservoirs, and the installed models. Admission
/// or-semantics on [`RunSpec`] (a cell only fills `explore`/`adapted`
/// when unset) are what let the coordinator's draw survive each cell's
/// own admission.
struct AdaptCoordinator {
    cfg: AdaptiveConfig,
    forest: ForestConfig,
    /// Feature width of the *global* signature matrix (+1 score) —
    /// identical in every cell, whose slabs reserve global label space.
    dim: usize,
    explore_rng: SplitMix64,
    since_refit: u64,
    refit_forced: bool,
    models: Option<Arc<AdaptedModels>>,
    stats: AdaptiveStats,
}

/// A live deployment resolved from a [`DeploymentSpec`]: `N ≥ 1`
/// [`PsiService`] cells behind one submit/update/stats/drain surface.
/// See the module docs for the two shapes.
pub struct Deployment {
    /// One service per cell: the whole graph when unsharded, one owned
    /// range plus its halo per shard.
    cells: Vec<PsiService>,
    /// Scatter-gather state; `None` on an unsharded deployment.
    shards: Option<Shards>,
}

/// An in-flight query submitted through a [`Deployment`]; resolves to
/// one [`PsiResult`] whatever the deployment's shape.
pub struct DeploymentHandle {
    pivot: NodeId,
    /// `(owned range start, cell job)` for every cell the query was
    /// routed to.
    parts: Vec<(NodeId, JobHandle)>,
    /// Set on a sharded deployment: merge the parts under a
    /// [`Phase::ShardMerge`] span recorded here. `None`: the single
    /// part's result is the answer, untouched.
    merge: Option<Arc<MetricsRecorder>>,
}

impl DeploymentHandle {
    /// Block until every routed cell answers and return the (merged)
    /// result.
    pub fn wait(self) -> PsiResult {
        let Some(metrics) = self.merge else {
            return match self.parts.into_iter().next() {
                Some((_, h)) => h.wait(),
                None => PsiResult::empty(0, 0),
            };
        };
        let results: Vec<(NodeId, PsiResult)> =
            self.parts.into_iter().map(|(lo, h)| (lo, h.wait())).collect();
        timed(metrics.as_ref(), Phase::ShardMerge, || merge_results(self.pivot, results))
    }
}

impl From<PsiService> for Deployment {
    /// A one-cell unsharded deployment over an existing service.
    fn from(service: PsiService) -> Self {
        Self {
            cells: vec![service],
            shards: None,
        }
    }
}

/// `ctx`, converted to the `kind` signature-store backend when one is
/// requested and differs; otherwise the shared context as-is.
fn with_store(ctx: &Arc<GraphContext>, kind: Option<SigStoreKind>) -> Arc<GraphContext> {
    match kind {
        Some(k) if k != ctx.config().sig_store => Arc::new(ctx.with_store_kind(k)),
        _ => ctx.clone(),
    }
}

impl Deployment {
    /// Resolve `spec` over `ctx` (the body of
    /// [`SmartPsi::deploy`](crate::SmartPsi::deploy)).
    pub(crate) fn build(ctx: &Arc<GraphContext>, spec: &DeploymentSpec) -> Self {
        let workers = spec.workers.max(1);
        if spec.shards <= 1 {
            let cell = match spec.evolving {
                None => {
                    let ctx = with_store(ctx, spec.sig_store);
                    PsiService::with_adaptive(ctx, workers, spec.adaptive)
                }
                // The maintainer seeds from the current dense rows and
                // publishes snapshots on the requested backend itself;
                // converting the static context first would only throw
                // the f32 seed away.
                Some(cap) => PsiService::spawn_evolving(
                    EvolvingContext::from_context(ctx, cap, spec.sig_store),
                    workers,
                    spec.adaptive,
                ),
            };
            return Self::from(cell);
        }
        let Some(cap) = spec.evolving else {
            let ctx = with_store(ctx, spec.sig_store);
            return Self::sharded(ctx.graph(), ctx.signatures(), ctx.config(), spec);
        };
        // One global maintainer on the requested backend, seeded from
        // the context's dense rows when it has them; the shards gather
        // from it.
        let mut config = ctx.config().clone();
        if let Some(k) = spec.sig_store {
            config.sig_store = k;
        }
        let inc = maintainer(ctx.graph(), &config, cap, ctx.signatures().dense());
        let mut dep = Self::sharded(ctx.graph(), inc.store(), &config, spec);
        if let Some(sh) = &mut dep.shards {
            sh.evolving = Some(Mutex::new(inc));
        }
        dep
    }

    /// Partition `g`, build every shard cell with its halo and gathered
    /// rows of `sigs`, and spawn its worker pool.
    fn sharded(
        g: &Graph,
        sigs: &dyn SignatureStore,
        config: &SmartPsiConfig,
        spec: &DeploymentSpec,
    ) -> Self {
        let halo_depth = spec.halo.unwrap_or(DEFAULT_HALO_DEPTH);
        let mut config = config.clone();
        let base_fault = config.fault.take();
        let (cells, ranges) = partition(g, spec.shards, spec.balance)
            .into_iter()
            .map(|(lo, hi)| {
                let b = build_shard(g, sigs, lo, hi, halo_depth);
                let ctx = GraphContext::from_precomputed(
                    b.graph,
                    b.slab,
                    config.clone(),
                    0,
                    Duration::ZERO,
                );
                let service = PsiService::with_adaptive(
                    Arc::new(ctx),
                    spec.workers.max(1),
                    spec.adaptive.map(|c| c.collect_only()),
                );
                let meta = RwLock::new(ShardMeta { hi, locals: b.locals });
                (service, ShardRange { lo, meta })
            })
            .unzip();
        let adaptive = spec.adaptive.map(|cfg| {
            Mutex::new(AdaptCoordinator {
                forest: config.forest,
                dim: sigs.label_count() + 1,
                explore_rng: SplitMix64::new(cfg.seed),
                since_refit: 0,
                refit_forced: false,
                models: None,
                stats: AdaptiveStats::default(),
                cfg,
            })
        });
        Self {
            cells,
            shards: Some(Shards {
                ranges,
                halo_depth,
                config,
                base_fault,
                evolving: None,
                adaptive,
                metrics: Arc::new(MetricsRecorder::new()),
            }),
        }
    }

    /// Submit one query. A sharded deployment rejects a query whose
    /// pivot eccentricity exceeds its halo depth `D` — such a query
    /// could match embeddings that leave a shard's resident ball, so
    /// its answers would silently miss boundary-crossing embeddings.
    /// A serving tier must be able to reject one bad client query
    /// without tearing the deployment down, so this is a recoverable
    /// error, not a panic. An unsharded deployment accepts everything.
    pub fn submit(
        &self,
        query: PivotedQuery,
        spec: RunSpec,
    ) -> Result<DeploymentHandle, SubmitError> {
        if let Some(sh) = &self.shards {
            let ecc = pivot_eccentricity(&query);
            if ecc > sh.halo_depth {
                return Err(SubmitError::QueryTooDeep {
                    eccentricity: ecc,
                    halo_depth: sh.halo_depth,
                });
            }
        }
        Ok(self.submit_unchecked(query, spec))
    }

    /// [`Deployment::submit`] without the halo-depth guard. Only for
    /// tests that deliberately build an undersized halo to prove the
    /// guard is load-bearing; never correct in production.
    #[doc(hidden)]
    pub fn submit_unchecked(&self, query: PivotedQuery, spec: RunSpec) -> DeploymentHandle {
        let pivot = query.pivot();
        let Some(sh) = &self.shards else {
            // The one cell job, counted in the cell's own registry.
            self.cells[0].metrics().add(Counter::ShardFanout, 1);
            return DeploymentHandle {
                pivot,
                parts: vec![(0, self.cells[0].submit(query, spec))],
                merge: None,
            };
        };
        let spec = self.adapt_submit(sh, spec);
        let pivot_degree = query.graph().degree(pivot);
        let label = query.pivot_label();
        let fault = spec.fault.clone().or_else(|| sh.base_fault.clone());
        let mut parts = Vec::new();
        for (cell, range) in self.cells.iter().zip(&sh.ranges) {
            // Pin this shard's current snapshot for candidate routing.
            // Owned locals are `global - lo` under every epoch, so a
            // concurrent republish cannot invalidate the subset ids.
            let ctx = cell.context();
            let local_g = ctx.graph();
            let owned_len = (read(&range.meta).hi - range.lo) as usize;
            // Exactly the global candidate filter, restricted to owned
            // nodes: owned nodes keep full adjacency, so local degree
            // equals global degree and the union over shards is the
            // global candidate set.
            let subset: Vec<NodeId> = local_g
                .nodes_with_label(label)
                .iter()
                .copied()
                .filter(|&l| (l as usize) < owned_len && local_g.degree(l) >= pivot_degree)
                .collect();
            if subset.is_empty() {
                continue;
            }
            let mut shard_spec = spec.clone();
            if let Some(plan) = &fault {
                let projected = plan.project(subset.iter().map(|&l| (range.lo + l, l)));
                shard_spec = shard_spec.faults(Arc::new(projected));
            }
            shard_spec = shard_spec.candidates(subset);
            parts.push((range.lo, cell.submit(query.clone(), shard_spec)));
        }
        sh.metrics.add(Counter::ShardFanout, parts.len() as u64);
        DeploymentHandle {
            pivot,
            parts,
            merge: Some(sh.metrics.clone()),
        }
    }

    /// Coordinator half of sharded adaptation, run once per submitted
    /// query: fire the merged refit when the cadence (or a
    /// drift-forced window) is due, draw the ε floor, and attach the
    /// installed models to the spec fanned out to every cell. A
    /// caller-pinned `explore`/`adapted` stays authoritative (the
    /// coordinator only fills unset fields), and the same or-semantics
    /// in each cell's admission keep the coordinator's values intact
    /// downstream.
    fn adapt_submit(&self, sh: &Shards, mut spec: RunSpec) -> RunSpec {
        let Some(adaptive) = &sh.adaptive else {
            return spec;
        };
        let mut co = lock(adaptive);
        co.since_refit += 1;
        let due = (co.cfg.cadence > 0 && co.since_refit >= co.cfg.cadence) || co.refit_forced;
        if due {
            // Merged refit: gather every cell's reservoir in cell
            // order. Feedback features carry no node ids, so the
            // concatenation needs no re-sorting to be deterministic
            // for serial clients.
            let rows: Vec<_> =
                self.cells.iter().filter_map(|c| c.adaptive_rows()).flatten().collect();
            if rows.len() >= MIN_REFIT_SAMPLES {
                let version = co.stats.model_version + 1;
                let seed = co.cfg.seed ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let fitted = timed(sh.metrics.as_ref(), Phase::Refit, || {
                    fit_feedback_models(&rows, co.dim, co.forest, seed, version)
                });
                if let Some(m) = fitted {
                    co.models = Some(Arc::new(m));
                    co.stats.refits += 1;
                    co.stats.model_version = version;
                    sh.metrics.add(Counter::Refits, 1);
                }
                co.since_refit = 0;
                co.refit_forced = false;
            } else if co.cfg.cadence > 0 && co.since_refit >= co.cfg.cadence {
                // Too few pooled rows to fit on; re-arm the cadence so
                // the gather doesn't repeat on every subsequent submit
                // (a drift-forced window, by contrast, stays open).
                co.since_refit = 0;
            }
        }
        if spec.explore.is_none()
            && co.cfg.epsilon > 0.0
            && co.explore_rng.next_f64() < co.cfg.epsilon
        {
            co.stats.exploration_runs += 1;
            sh.metrics.add(Counter::ExplorationRuns, 1);
            spec.explore = Some(co.explore_rng.below(2) as u8);
        }
        if spec.adapted.is_none() {
            spec.adapted = co.models.clone();
        }
        spec
    }

    /// Apply a graph-update batch to an evolving deployment.
    ///
    /// Unsharded, the one cell repairs its signatures incrementally and
    /// publishes the next epoch (see [`PsiService::apply_update`]).
    /// Sharded, the global signature matrix is repaired once, then
    /// only the shards whose resident set intersects the batch's blast
    /// zone (edge endpoints, appended nodes, and the `(depth − 1)`-ball
    /// of repaired rows) are rebuilt — fresh halo BFS, local CSR and
    /// re-gathered slab — each bumping its own epoch and retiring its
    /// cross-query caches; untouched shards keep serving their current
    /// snapshot. Appended nodes are owned by the last shard, whose
    /// range is open-ended.
    ///
    /// Returns [`UpdateError::StaticDeployment`] on a static
    /// deployment. Erroneous batches are atomic: nothing mutates.
    pub fn apply_update(&self, updates: &[GraphUpdate]) -> Result<UpdateReport, UpdateError> {
        let Some(sh) = &self.shards else {
            return self.cells[0].apply_update(updates);
        };
        let Some(evolving) = &sh.evolving else {
            return Err(UpdateError::StaticDeployment);
        };
        let mut inc = lock(evolving);
        let pre_nodes = inc.graph().node_count() as NodeId;
        let (stats, affected_shards) = timed(sh.metrics.as_ref(), Phase::GraphUpdate, || {
            let stats = inc.apply_batch(updates).map_err(UpdateError::Graph)?;
            let snapshot = inc.graph().snapshot();
            let sigs = inc.store();

            // Blast zone: batch endpoints + appended nodes, dilated by
            // the signature repair radius (rows within depth−1 of an
            // endpoint were rewritten). Updates are additive, so the
            // post-update BFS ball contains the pre-update one.
            let mut seeds = Vec::new();
            let mut next_new = pre_nodes;
            for u in updates {
                match u {
                    GraphUpdate::AddNode { .. } => {
                        seeds.push(next_new);
                        next_new += 1;
                    }
                    GraphUpdate::AddEdge { u, v, .. } => {
                        seeds.push(*u);
                        seeds.push(*v);
                    }
                }
            }
            let touched = ball(&snapshot, &seeds, inc.depth().saturating_sub(1));

            let last = self.cells.len() - 1;
            let mut affected_shards = Vec::new();
            for (idx, (cell, range)) in self.cells.iter().zip(&sh.ranges).enumerate() {
                let grows = idx == last && stats.nodes_added > 0;
                let hit = grows || {
                    let meta = read(&range.meta);
                    let halo = &meta.locals[(meta.hi - range.lo) as usize..];
                    touched.iter().any(|&t| {
                        (t >= range.lo && t < meta.hi) || halo.binary_search(&t).is_ok()
                    })
                };
                if !hit {
                    continue;
                }
                let mut meta = write(&range.meta);
                let hi = if idx == last {
                    snapshot.node_count() as NodeId
                } else {
                    meta.hi
                };
                let b = build_shard(&snapshot, sigs, range.lo, hi, sh.halo_depth);
                let epoch = cell.context().epoch() + 1;
                let ctx = GraphContext::from_precomputed(
                    b.graph,
                    b.slab,
                    sh.config.clone(),
                    epoch,
                    Duration::ZERO,
                );
                cell.publish_ctx(Arc::new(ctx));
                *meta = ShardMeta { hi, locals: b.locals };
                affected_shards.push(idx);
            }
            Ok::<_, UpdateError>((stats, affected_shards))
        })?;
        sh.metrics
            .add(Counter::RowsRepaired, stats.rows_repaired as u64);
        sh.metrics
            .add(Counter::EpochsPublished, affected_shards.len() as u64);
        // Drift hook: drop the merged models (per-query training takes
        // over) and open a forced refit window. Cells the rebuild
        // republished already cleared their own reservoirs; untouched
        // cells keep theirs — their subgraphs did not change, so their
        // rows are still valid refit input (stale-width rows from a
        // label-growing batch are filtered by the fitter).
        if let Some(adaptive) = &sh.adaptive {
            let mut co = lock(adaptive);
            co.stats.epoch += 1;
            co.dim = inc.store().label_count() + 1;
            co.models = None;
            co.refit_forced = true;
            co.since_refit = 0;
        }
        let shard_epochs = self.shard_epochs();
        Ok(UpdateReport {
            epoch: shard_epochs.iter().copied().max().unwrap_or(0),
            nodes_added: stats.nodes_added,
            edges_added: stats.edges_added,
            duplicate_edges: stats.duplicate_edges,
            rows_repaired: stats.rows_repaired,
            affected_shards,
            shard_epochs,
        })
    }

    /// Gracefully drain every cell within one shared `grace` window:
    /// each cell stops accepting work, finishes what it can before the
    /// common deadline, and aborts the rest with structured
    /// [`ABORTED_BY_SHUTDOWN_REASON`](super::service::ABORTED_BY_SHUTDOWN_REASON)
    /// failures (see [`PsiService::shutdown`]). The returned
    /// [`DrainReport`] sums drained/aborted counts across cells, so on
    /// a sharded deployment it counts cell jobs, not queries.
    /// Idempotent: a second call returns an empty report.
    ///
    /// Cells drain sequentially against one absolute deadline, not
    /// `grace` each — a sharded drain must not take `shards × grace`.
    pub fn shutdown(&mut self, grace: Duration) -> DrainReport {
        let deadline = Instant::now() + grace;
        let mut report = DrainReport::default();
        for cell in &mut self.cells {
            report.absorb(cell.shutdown(deadline.saturating_duration_since(Instant::now())));
        }
        report
    }

    /// Number of cells (1 when unsharded).
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The ghost-node halo depth `D` every shard was built with;
    /// `None` when unsharded (no halo, no eccentricity limit).
    pub fn halo_depth(&self) -> Option<u32> {
        self.shards.as_ref().map(|sh| sh.halo_depth)
    }

    /// Owned node range `[lo, hi)` of one cell (the whole graph when
    /// unsharded).
    pub fn owned_range(&self, shard: usize) -> (NodeId, NodeId) {
        match &self.shards {
            None => (0, self.cells[0].context().graph().node_count() as NodeId),
            Some(sh) => {
                let range = &sh.ranges[shard];
                (range.lo, read(&range.meta).hi)
            }
        }
    }

    /// Every global node resident in a cell (owned + halo + rim),
    /// ascending. Test/introspection surface for the halo proofs.
    pub fn resident_nodes(&self, shard: usize) -> Vec<NodeId> {
        match &self.shards {
            None => (0..self.owned_range(0).1).collect(),
            Some(sh) => {
                let mut nodes = read(&sh.ranges[shard].meta).locals.clone();
                nodes.sort_unstable();
                nodes
            }
        }
    }

    /// Current per-cell epochs (each starts at 0 and advances only
    /// when an update batch republishes that cell).
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.context().epoch()).collect()
    }

    /// Lifetime counters of one cell's service (queue waits, requeues,
    /// cache reuse).
    pub fn shard_stats(&self, shard: usize) -> ServiceStats {
        self.cells[shard].stats()
    }

    /// One cell's metrics registry (its queue-wait histogram, pool
    /// spawns and the counters behind its stats).
    pub fn shard_metrics(&self, shard: usize) -> &MetricsRecorder {
        self.cells[shard].metrics()
    }

    /// Stats summed over every cell; `graph_epoch` reports the maximum
    /// cell epoch. One cell's stats are exactly its service's; on a
    /// sharded deployment the job counters (`queries_served`,
    /// `deadline_expired`, `drained`, …) count cell jobs, so a query
    /// routed to `k` cells counts `k` times.
    pub fn stats(&self) -> ServiceStats {
        let mut out = ServiceStats::default();
        for cell in &self.cells {
            let s = cell.stats();
            out.queries_served += s.queries_served;
            out.cross_query_cache_hits += s.cross_query_cache_hits;
            out.requeued_jobs += s.requeued_jobs;
            out.worker_panics += s.worker_panics;
            out.distinct_query_shapes += s.distinct_query_shapes;
            out.graph_epoch = out.graph_epoch.max(s.graph_epoch);
            out.cache_invalidations += s.cache_invalidations;
            out.deadline_expired += s.deadline_expired;
            out.drained += s.drained;
        }
        out
    }

    /// The deployment-level metrics registry: [`Counter::ShardFanout`]
    /// increments (one per cell job), plus, when sharded,
    /// [`Phase::ShardMerge`] spans and update and merged-refit
    /// accounting. Unsharded, this is the one cell's own registry.
    pub fn metrics(&self) -> &MetricsRecorder {
        match &self.shards {
            None => self.cells[0].metrics(),
            Some(sh) => &sh.metrics,
        }
    }

    /// Adaptation counters, `None` on a frozen deployment. Unsharded:
    /// the cell's own loop. Sharded: per-cell feedback, reservoir,
    /// refit and exploration sums plus the coordinator's exploration,
    /// merged-refit and model-version state.
    pub fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        let Some(sh) = &self.shards else {
            return self.cells[0].adaptive_stats();
        };
        let mut out = lock(sh.adaptive.as_ref()?).stats;
        for s in self.cells.iter().filter_map(|c| c.adaptive_stats()) {
            out.feedback_samples += s.feedback_samples;
            out.reservoir += s.reservoir;
            out.refits += s.refits;
            out.exploration_runs += s.exploration_runs;
        }
        Some(out)
    }

    /// Queries currently queued, measured as the deepest cell's queue:
    /// a query queues at most one job per cell, so this counts queries
    /// (not the cell jobs a sharded query fans out to) and is the
    /// depth a per-query admission cap compares against.
    pub fn pending(&self) -> usize {
        self.cells.iter().map(PsiService::pending).max().unwrap_or(0)
    }

    /// Worker threads across every cell.
    pub fn workers(&self) -> usize {
        self.cells.iter().map(PsiService::workers).sum()
    }

    /// Owned nodes carrying `label` and owned nodes in all, summed over
    /// cells — the front door's pre-evaluation cost signal.
    pub(crate) fn label_load(&self, label: LabelId) -> (usize, usize) {
        (0..self.cells.len()).fold((0, 0), |(with_label, all), i| {
            let (lo, hi) = self.owned_range(i);
            let owned = (hi - lo) as usize;
            let ctx = self.cells[i].context();
            let labelled = ctx.graph().nodes_with_label(label);
            let n = labelled.partition_point(|&l| (l as usize) < owned);
            (with_label + n, all + owned)
        })
    }

    /// The single service behind this deployment, if unsharded.
    pub fn as_service(&self) -> Option<&PsiService> {
        self.shards.is_none().then(|| &self.cells[0])
    }

    /// This deployment, if sharded (the shard-introspection surface:
    /// [`Deployment::shard_count`], [`Deployment::shard_metrics`], …).
    pub fn as_sharded(&self) -> Option<&Deployment> {
        self.shards.is_some().then_some(self)
    }

    /// Unwrap the single service. Panics on a sharded deployment —
    /// callers using `into_service` asked for an unsharded spec.
    pub fn into_service(mut self) -> PsiService {
        match (&self.shards, self.cells.pop()) {
            (None, Some(service)) => service,
            _ => panic!("deployment is sharded; serve it as a Deployment"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunSpec, SmartPsi, SmartPsiConfig};
    use psi_signature::SigStoreKind;

    fn setup() -> (SmartPsi, PivotedQuery) {
        let g = psi_datasets::generators::erdos_renyi(400, 1800, 3, 5);
        let q = psi_datasets::rwr::extract_query_seeded(&g, 4, 2).unwrap();
        (SmartPsi::new(g, SmartPsiConfig::default()), q)
    }

    #[test]
    fn default_spec_matches_run() {
        let (smart, q) = setup();
        let want = smart.run(&q, &RunSpec::new());
        let mut dep = smart.deploy(&DeploymentSpec::new());
        assert!(dep.as_service().is_some());
        assert!(dep.as_sharded().is_none());
        let got = dep.submit(q, RunSpec::new()).unwrap().wait();
        assert_eq!(want, got, "one cell answers untouched, steps included");
        dep.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn sharded_compact_evolving_full_product() {
        let (smart, q) = setup();
        let want = smart.run(&q, &RunSpec::new()).valid;
        let spec = DeploymentSpec::new()
            .workers(2)
            .shards(3)
            .halo(4)
            .evolving(8)
            .sig_store(SigStoreKind::Compact);
        let mut dep = smart.deploy(&spec);
        assert!(dep.as_sharded().is_some());
        let got = dep.submit(q.clone(), RunSpec::new()).unwrap().wait().valid;
        assert_eq!(want, got);
        let report = dep
            .apply_update(&[psi_graph::GraphUpdate::AddNode { label: 1 }])
            .unwrap();
        assert_eq!(report.epoch, 1);
        dep.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn evolving_single_service_updates() {
        let (smart, q) = setup();
        let mut dep = smart.deploy(&DeploymentSpec::new().workers(2).evolving(6));
        let before = dep.submit(q.clone(), RunSpec::new()).unwrap().wait().valid;
        let report = dep
            .apply_update(&[psi_graph::GraphUpdate::AddNode { label: 0 }])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.affected_shards, vec![0]);
        assert_eq!(report.shard_epochs, dep.shard_epochs());
        let after = dep.submit(q, RunSpec::new()).unwrap().wait().valid;
        assert_eq!(before, after, "an isolated new node can't change the answer");
        dep.shutdown(Duration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "deployment is sharded")]
    fn into_service_panics_on_sharded() {
        let (smart, _) = setup();
        let dep = smart.deploy(&DeploymentSpec::new().shards(2));
        let _ = dep.into_service();
    }
}
