//! `wire`: the served path over TCP loopback. A `NetServer` fronts an
//! evolving `PsiService` on a mid-size, 25-label (YouTube-shaped)
//! graph. `nproc` pipelining connections send a Zipf-weighted stream
//! of repeating query shapes in a closed loop; after every segment of
//! the stream, once every earlier reply has arrived, one connection
//! sends an `update` batch, so every query runs on a known epoch.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psi_core::engine::proto::{self, Request};
use psi_core::{
    DeploymentSpec, JobHandle, NetServer, NetServerConfig, PsiResult, PsiService, RunSpec,
    SmartPsi, SmartPsiConfig,
};
use psi_graph::{GraphUpdate, PivotedQuery};
use psi_obs::{MetricsRecorder, Phase};

use crate::checker::Checker;
use crate::gen::{self, GraphShape, Rng, Zipf};
use crate::harness::{Harness, Timing, INVALID_SAMPLE};
use crate::layers;
use crate::report::median;
use crate::{parse_queries, Opts, Outcome};

/// YouTube's shape (25 labels, skew 0.8, strong homophily, power-law
/// degrees) at a mid size.
pub const SHAPE: GraphShape = GraphShape {
    nodes: 25_000,
    attach: 5,
    labels: 25,
    label_skew: 0.8,
    homophily: 0.65,
    uniform_share: 0.0,
    window: 0,
};
/// Distinct query shapes in the pool the stream draws from.
pub const POOL: usize = 1000;
pub const SIZES: (usize, usize) = (3, 5);
/// Zipf exponent of the shape weights.
pub const ZIPF_S: f64 = 0.5;
/// Queries per round, and per segment between two update batches.
pub const STREAM: usize = 2400;
pub const SEGMENT: usize = 600;
/// Each update batch: new nodes (two edges each) and new edges.
pub const UPDATE_NODES: usize = 10;
pub const UPDATE_EDGES: usize = 100;
/// Outstanding requests per connection.
pub const DEPTH: usize = 4;
/// Queries per leg: every connection drains at the end of a leg, for
/// a set-up probe and, at the end of a segment, the update batch.
pub const LEG: usize = 50;

/// One query's reply, as the client saw it.
struct Reply {
    valid: Vec<u32>,
    steps: u64,
    failed: bool,
    result: Option<PsiResult>,
}

/// One client connection's view of the server: the socket, or (in the
/// traced replay) the service itself.
trait Channel {
    fn send(&mut self, i: usize);
    fn recv(&mut self, i: usize) -> Result<Reply, String>;
    /// Apply update batch `s`; returns the rows repaired.
    fn update(&mut self, s: usize) -> Result<u64, String>;
}

struct NetChannel<'a> {
    w: TcpStream,
    r: BufReader<TcpStream>,
    lines: &'a [String],
    update_lines: &'a [String],
    buf: String,
}

impl NetChannel<'_> {
    fn read_line(&mut self) -> Result<&str, String> {
        self.buf.clear();
        match self.r.read_line(&mut self.buf) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Channel for NetChannel<'_> {
    fn send(&mut self, i: usize) {
        let line = &self.lines[i];
        self.w
            .write_all(line.as_bytes())
            .and_then(|()| self.w.write_all(b"\n"))
            .expect("request write");
    }

    fn recv(&mut self, i: usize) -> Result<Reply, String> {
        let line = self.read_line()?;
        if field(line, "id") != Some(i as u64) {
            return Err(format!("reply out of order for request {i}: {line}"));
        }
        let failed = !line.contains("\"ok\":true")
            || field(line, "unresolved") != Some(0)
            || line.contains("\"failures\"");
        Ok(Reply {
            valid: valid_list(line),
            steps: field(line, "steps").unwrap_or(0),
            failed,
            result: None,
        })
    }

    fn update(&mut self, s: usize) -> Result<u64, String> {
        let line = &self.update_lines[s];
        self.w
            .write_all(line.as_bytes())
            .and_then(|()| self.w.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        let reply = self.read_line()?;
        if !reply.contains("\"ok\":true") {
            return Err(reply.to_string());
        }
        field(reply, "rows_repaired").ok_or_else(|| reply.to_string())
    }
}

struct DirectChannel<'a> {
    service: &'a PsiService,
    queries: &'a [PivotedQuery],
    batches: &'a [Vec<GraphUpdate>],
    spec: RunSpec,
    pending: VecDeque<JobHandle>,
}

impl Channel for DirectChannel<'_> {
    fn send(&mut self, i: usize) {
        let h = self
            .service
            .submit(self.queries[i].clone(), self.spec.clone());
        self.pending.push_back(h);
    }

    fn recv(&mut self, _: usize) -> Result<Reply, String> {
        let r = self.pending.pop_front().ok_or("nothing pending")?.wait();
        Ok(Reply {
            valid: r.valid.clone(),
            steps: r.steps,
            failed: r.unresolved > 0 || !r.failures.nodes.is_empty(),
            result: Some(r),
        })
    }

    fn update(&mut self, s: usize) -> Result<u64, String> {
        self.service
            .apply_update(&self.batches[s])
            .map(|r| r.rows_repaired as u64)
            .map_err(|e| e.to_string())
    }
}

/// `"key":N` in a reply line.
fn field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The `"valid":[…]` list of a reply line.
fn valid_list(line: &str) -> Vec<u32> {
    let Some(at) = line.find("\"valid\":[") else {
        return Vec::new();
    };
    let rest = &line[at + 9..];
    let end = rest.find(']').unwrap_or(0);
    rest[..end]
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect()
}

/// What one connection saw during one leg.
#[derive(Default)]
struct ConnOut {
    latency_ms: Vec<f64>,
    replies: Vec<(usize, Reply)>,
    error: Option<String>,
}

/// The closed loop of connection `c` of `conns` over its share of
/// `leg`, with up to `DEPTH` requests outstanding; it ends drained.
fn drive(ch: &mut dyn Channel, c: usize, conns: usize, leg: Range<usize>) -> ConnOut {
    let mut out = ConnOut::default();
    let mine: Vec<usize> = leg.filter(|i| i % conns == c).collect();
    let mut sent = VecDeque::new();
    let mut k = 0;
    while k < mine.len() || !sent.is_empty() {
        if k < mine.len() && sent.len() < DEPTH {
            sent.push_back((mine[k], Instant::now()));
            ch.send(mine[k]);
            k += 1;
            continue;
        }
        let (i, t0) = sent.pop_front().expect("loop guard");
        match ch.recv(i) {
            Ok(r) => {
                out.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.replies.push((i, r));
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    out
}

/// Which path a round drives. Untraced runs use `Net` only; the traced
/// run cycles through all three.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Net,
    Direct,
    DirectTraced,
}

/// A deployment ready to answer: a `NetServer` with one connected
/// socket per client connection, or the bare service.
enum Ready {
    Net(NetServer, Vec<TcpStream>),
    Direct(Box<PsiService>),
}

impl Ready {
    fn close(self) {
        match self {
            Ready::Net(mut srv, sockets) => {
                drop(sockets);
                srv.shutdown(Duration::from_secs(60));
            }
            Ready::Direct(mut service) => {
                service.shutdown(Duration::from_secs(60));
            }
        }
    }
}

pub fn run(o: &Opts) -> Outcome {
    let g = gen::generate(&SHAPE, &mut Rng::new(gen::DATASET_SEED));
    let mut rng = Rng::new(o.seed);
    let label_count = g.label_count();
    let mut plan = Rng::new(gen::PLAN_SEED);
    let pool = gen::distinct_queries(&g, POOL, SIZES, u32::MAX, &mut plan, &mut rng);
    // How often each shape rank occurs is part of the fixed plan; the
    // seed decides the order.
    let zipf = Zipf::new(POOL, ZIPF_S);
    let mut stream: Vec<usize> = (0..STREAM).map(|_| zipf.sample(&mut plan)).collect();
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.below(i + 1));
    }
    let segs: Vec<Range<usize>> = (0..STREAM.div_ceil(SEGMENT))
        .map(|s| s * SEGMENT..((s + 1) * SEGMENT).min(STREAM))
        .collect();
    let legs: Vec<Range<usize>> = (0..STREAM.div_ceil(LEG))
        .map(|l| l * LEG..((l + 1) * LEG).min(STREAM))
        .collect();
    let mut batches = Vec::new();
    let mut nodes = g.labels.len();
    for _ in 1..segs.len() {
        let b = gen::update_batch(nodes, label_count, UPDATE_NODES, UPDATE_EDGES, &mut rng);
        nodes += b.add_nodes.len();
        batches.push(b);
    }
    let lines: Vec<String> = stream
        .iter()
        .enumerate()
        .map(|(i, &p)| pool[p].request_line(i as u64))
        .collect();
    let update_lines: Vec<String> = batches
        .iter()
        .enumerate()
        .map(|(s, b)| b.request_line((STREAM + s) as u64))
        .collect();
    let parsed = parse_queries(&lines);
    let parsed_updates: Vec<Vec<GraphUpdate>> = update_lines
        .iter()
        .map(|l| match proto::parse_request(l) {
            Ok(Request::Update { updates, .. }) => updates,
            other => panic!("generated update line did not parse: {other:?}"),
        })
        .collect();
    let conns = o.nproc;
    let mut inputs = gen::describe(&g, &pool);
    let (rep_round, rep_epoch) = repeated_shares(&stream, &segs);
    inputs.extend([
        ("stream", STREAM as f64),
        ("repeated_share_round", rep_round),
        ("repeated_share_epoch", rep_epoch),
        ("update_every", SEGMENT as f64),
        ("updates_per_round", batches.len() as f64),
        (
            "update_ops_mean",
            batches
                .iter()
                .map(|b| b.add_nodes.len() + b.add_edges.len())
                .sum::<usize>() as f64
                / batches.len().max(1) as f64,
        ),
        ("pipeline_depth", DEPTH as f64),
    ]);

    let mut h = Harness::new(o, g.to_text());
    let mut answers: Vec<Option<Vec<u32>>> = vec![None; STREAM];
    let (mut update_ms, mut rows_repaired) = (Vec::new(), 0);
    let (mut net_read_ns, mut net_write_ns, mut net_queries) = (0u64, 0u64, 0u64);
    let rec = Arc::new(MetricsRecorder::new());
    let mut traced_results: Vec<PsiResult> = Vec::new();
    let (mut spawn_ns, mut cross_hits, mut invalidations, mut queue_p50) = (0, 0, 0, Vec::new());
    let cfg = SmartPsiConfig::default;
    // Ready to answer: evolving deploy, and on the net path bind and
    // connect.
    let ready = |smart: &SmartPsi, kind: Kind| {
        let service = smart
            .deploy(&DeploymentSpec::new().workers(o.nproc).evolving(label_count))
            .into_service();
        if kind != Kind::Net {
            return Ready::Direct(Box::new(service));
        }
        let cfg = NetServerConfig {
            max_queue: 4 * conns * DEPTH + 64,
            quota_rate: 0.0,
            default_deadline: None,
            ..NetServerConfig::default()
        };
        let srv = NetServer::bind(service, "127.0.0.1:0", cfg).expect("bind loopback");
        let sockets = (0..conns)
            .map(|_| {
                let s = TcpStream::connect(srv.local_addr()).expect("connect loopback");
                s.set_nodelay(true).expect("nodelay");
                s
            })
            .collect();
        Ready::Net(srv, sockets)
    };
    while h.more_rounds(3) {
        let kind = match (o.trace, h.rounds() % 3) {
            (true, 1) => Kind::Direct,
            (true, 2) => Kind::DirectTraced,
            _ => Kind::Net,
        };
        let (_smart, live) = h.setup(cfg(), |smart| ready(smart, kind));
        let mut spec = RunSpec::new();
        if kind == Kind::DirectTraced {
            spec = spec.recorder(rec.clone());
        }
        let mut chans: Vec<Box<dyn Channel + Send + '_>> = (0..conns)
            .map(|c| -> Box<dyn Channel + Send + '_> {
                match &live {
                    Ready::Direct(service) => Box::new(DirectChannel {
                        service,
                        queries: &parsed,
                        batches: &parsed_updates,
                        spec: spec.clone(),
                        pending: VecDeque::new(),
                    }),
                    Ready::Net(_, sockets) => Box::new(NetChannel {
                        w: sockets[c].try_clone().expect("socket clone"),
                        r: BufReader::new(sockets[c].try_clone().expect("socket clone")),
                        lines: &lines,
                        update_lines: &update_lines,
                        buf: String::new(),
                    }),
                }
            })
            .collect();

        let mut clock = h.start();
        let (mut steps, mut round_rows) = (0, 0);
        for leg in legs.iter() {
            let outs: Vec<ConnOut> = std::thread::scope(|scope| {
                let handles: Vec<_> = chans
                    .iter_mut()
                    .enumerate()
                    .map(|(c, ch)| scope.spawn(move || drive(ch.as_mut(), c, conns, leg.clone())))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let mut broken = false;
            for out in outs {
                h.t.latency_ms.extend(&out.latency_ms);
                if let Some(e) = out.error {
                    broken = true;
                    h.t.error(e);
                }
                for (i, r) in out.replies {
                    h.t.queries += 1;
                    steps += r.steps;
                    if r.failed {
                        h.t.queries_failed += 1;
                    }
                    match &answers[i] {
                        None => answers[i] = Some(r.valid),
                        Some(a) if *a != r.valid => {
                            let round = h.rounds();
                            h.t.error(format!("request {i}: round {round} answered differently"));
                        }
                        Some(_) => {}
                    }
                    if let Some(res) = r.result.filter(|_| kind == Kind::DirectTraced) {
                        traced_results.push(res);
                    }
                }
            }
            if broken {
                break;
            }
            // Every earlier reply is in: at the end of a segment, one
            // connection sends the next update batch.
            let s = leg.end / SEGMENT;
            if leg.end % SEGMENT == 0 && s <= batches.len() {
                h.t.updates += 1;
                let t0 = Instant::now();
                match chans[0].update(s - 1) {
                    Ok(rows) => {
                        if kind == Kind::Net {
                            update_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        round_rows += rows;
                    }
                    Err(e) => {
                        h.t.updates_failed += 1;
                        h.t.error(format!("update {}: {e}", s - 1));
                    }
                }
            }
            h.probe(&mut clock, cfg(), |smart| ready(smart, kind), Ready::close);
        }
        drop(chans);
        rows_repaired = round_rows;
        let timing = match &live {
            Ready::Net(srv, _) => {
                net_read_ns += srv.metrics().phase_nanos(Phase::NetRead);
                net_write_ns += srv.metrics().phase_nanos(Phase::NetWrite);
                net_queries += STREAM as u64;
                Timing::Other
            }
            Ready::Direct(_) if kind == Kind::Direct => Timing::Untraced,
            Ready::Direct(service) => {
                spawn_ns += service.metrics().phase_nanos(Phase::PoolSpawn);
                queue_p50.push(layers::queue_wait_p50_ms(&[service.metrics()]));
                let stats = service.stats();
                cross_hits += stats.cross_query_cache_hits;
                invalidations += stats.cache_invalidations;
                Timing::Traced
            }
        };
        h.end_round(clock, steps, timing, STREAM);
        live.close();
    }

    // Check each (shape, epoch) pair once against the checker's own,
    // independently updated graph; repeats of a shape within a segment
    // must agree with it.
    let mut checker = Checker::new(&g);
    let mut crng = Rng::new(o.seed ^ 0xc4ec);
    // Valid sets already confirmed at an earlier epoch, per shape.
    let mut confirmed: HashMap<usize, Vec<u32>> = HashMap::new();
    for (s, seg) in segs.iter().enumerate() {
        let mut first: HashMap<usize, usize> = HashMap::new();
        for i in seg.clone() {
            let Some(valid) = &answers[i] else { continue };
            let p = stream[i];
            match first.get(&p) {
                Some(&j) if answers[j].as_ref() != Some(valid) => {
                    h.t.error(format!(
                        "requests {j} and {i}: same shape, same epoch, different answers"
                    ));
                }
                Some(_) => {}
                None => {
                    first.insert(p, i);
                    let known = confirmed.get(&p).map_or(&[][..], Vec::as_slice);
                    match checker.check_answer(&pool[p], valid, known, INVALID_SAMPLE, &mut crng) {
                        Ok(()) => {
                            confirmed.insert(p, valid.clone());
                        }
                        Err(e) => h.t.error(format!("request {i} (epoch {s}): {e}")),
                    }
                }
            }
        }
        if let Some(b) = batches.get(s) {
            checker.apply(b);
        }
    }

    let layers = if o.trace {
        let mut m = h.layers(&rec, &lines, &traced_results, spawn_ns, 0);
        layers::put(&mut m, "signature.rows_repaired", rows_repaired as f64);
        layers::put(&mut m, "evolve.update_p50_ms", median(&update_ms));
        layers::put(&mut m, "service.queue_wait_p50_ms", median(&queue_p50));
        layers::put(&mut m, "service.cross_query_cache_hits", cross_hits as f64);
        layers::put(&mut m, "service.cache_invalidations", invalidations as f64);
        let nq = net_queries.max(1) as f64;
        layers::put(&mut m, "net.read_ms", net_read_ns as f64 / 1e6 / nq);
        layers::put(&mut m, "net.write_ms", net_write_ns as f64 / 1e6 / nq);
        m
    } else {
        Default::default()
    };
    Outcome {
        tally: h.t,
        layers,
        threads: conns,
        connections: conns,
        inputs,
    }
}

/// Share of stream queries whose shape already appeared earlier in the
/// round, and earlier in the same epoch (where the cross-query cache
/// can serve it).
fn repeated_shares(stream: &[usize], segs: &[Range<usize>]) -> (f64, f64) {
    let mut seen_round = std::collections::HashSet::new();
    let (mut round, mut epoch) = (0, 0);
    for seg in segs {
        let mut seen_epoch = std::collections::HashSet::new();
        for &p in &stream[seg.clone()] {
            round += usize::from(!seen_round.insert(p));
            epoch += usize::from(!seen_epoch.insert(p));
        }
    }
    let n = stream.len() as f64;
    (round as f64 / n, epoch as f64 / n)
}
