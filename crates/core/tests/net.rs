//! Loopback integration tests for the TCP front door
//! ([`NetServer`]): protocol round-trips, malformed-input robustness,
//! queue-depth shedding with retry hints, per-request deadlines,
//! per-connection quotas, and graceful drain.
//!
//! The invariant every test leans on: **every request the server
//! reads gets exactly one response line on the same connection, in
//! request order** — a result, or a structured `"ok":false` error.
//! Accepted (admitted) jobs are never silently dropped, even when the
//! test slams the queue or drains the server mid-stream.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use psi_core::{DeploymentSpec, NetServer, NetServerConfig, SmartPsi, SmartPsiConfig};
use psi_datasets::generators;

/// Spin up a served deployment on an ephemeral loopback port.
fn serve(nodes: usize, edges: usize, workers: usize, cfg: NetServerConfig) -> NetServer {
    let g = generators::erdos_renyi(nodes, edges, 3, 7);
    let capacity = g.label_count() + 4; // headroom for wire updates
    let service = SmartPsi::new(g, SmartPsiConfig::default())
        .deploy(&DeploymentSpec::new().workers(workers).evolving(capacity))
        .into_service();
    NetServer::bind(service, "127.0.0.1:0", cfg).expect("bind loopback")
}

/// Serve a 3-shard evolving deployment of the graph [`serve`] builds
/// for `(nodes, edges)`, with one worker per shard and halo depth
/// `halo`.
fn serve_sharded(nodes: usize, edges: usize, halo: u32, cfg: NetServerConfig) -> NetServer {
    let g = generators::erdos_renyi(nodes, edges, 3, 7);
    let capacity = g.label_count() + 4;
    let spec = DeploymentSpec::new().shards(3).workers(1).halo(halo).evolving(capacity);
    let dep = SmartPsi::new(g, SmartPsiConfig::default()).deploy(&spec);
    NetServer::bind(dep, "127.0.0.1:0", cfg).expect("bind loopback")
}

/// A blocking line-protocol client with a read timeout so a wedged
/// server fails the test instead of hanging it.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &NetServer) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
    }

    /// Next response line, or `None` once the server closes the
    /// connection.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e) => panic!("read from server failed: {e}"),
        }
    }
}

/// Extract `"id":N` from a response line without a JSON parser.
fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"valid":[…]` list of a query response.
fn valid_list(line: &str) -> &str {
    let start = line.find("\"valid\":[").unwrap_or_else(|| panic!("no valid list: {line}"));
    let end = start + line[start..].find(']').expect("closed valid list");
    &line[start..=end]
}

#[test]
fn loopback_roundtrip_query_update_stats_shutdown() {
    let mut server = serve(150, 600, 2, NetServerConfig::default());
    let mut c = Client::connect(&server);

    c.send(r#"{"op":"query","id":1,"labels":[0,1],"edges":[[0,1]],"pivot":0}"#);
    let r = c.recv().expect("query response");
    assert!(r.contains("\"id\":1") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"valid\":["), "{r}");

    c.send(r#"{"op":"update","id":2,"updates":[{"add_node":1},{"add_edge":[0,1,0]}]}"#);
    let r = c.recv().expect("update response");
    assert!(r.contains("\"id\":2") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"epoch\":1"), "{r}");

    c.send(r#"{"op":"stats","id":3}"#);
    let r = c.recv().expect("stats response");
    assert!(r.contains("\"id\":3") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"graph_epoch\":1"), "update must be visible: {r}");
    assert!(r.contains("\"admitted\":1"), "{r}");

    // The updated graph serves queries (epoch bumped, caches intact).
    c.send(r#"{"op":"query","id":4,"labels":[0],"edges":[],"pivot":0}"#);
    let r = c.recv().expect("post-update query");
    assert!(r.contains("\"id\":4") && r.contains("\"ok\":true"), "{r}");

    c.send(r#"{"op":"shutdown","id":5,"grace_ms":2000}"#);
    let r = c.recv().expect("shutdown response");
    assert!(r.contains("\"id\":5") && r.contains("\"drained\":"), "{r}");
    assert_eq!(c.recv(), None, "connection closes after shutdown");

    let report = server.wait();
    assert_eq!(report.aborted, 0, "nothing was left to abort");
}

#[test]
fn malformed_lines_get_errors_and_never_wedge_the_connection() {
    let mut server = serve(150, 600, 2, NetServerConfig::default());
    let mut bad = Client::connect(&server);
    let mut good = Client::connect(&server);

    // A fuzz-style corpus: every entry must produce exactly one
    // structured bad_request/update error on THIS connection and leave
    // the server serving.
    let deep = format!("{}1{}", "[".repeat(60), "]".repeat(60));
    let corpus: Vec<String> = vec![
        "GARBAGE NOT JSON".into(),
        "{".into(),
        "{}".into(),
        r#"{"op":"nosuch","id":1}"#.into(),
        r#"{"op":"query","id":2}"#.into(),
        r#"{"op":"query","id":3,"labels":"zebra","edges":[],"pivot":0}"#.into(),
        r#"{"op":"query","id":4,"labels":[0],"edges":[[0,9]],"pivot":0}"#.into(),
        r#"{"op":"query","id":5,"labels":[0],"edges":[],"pivot":7}"#.into(),
        r#"{"op":"update","id":6,"updates":[{"warp_core":1}]}"#.into(),
        r#"{"op":"update","id":7,"updates":[{"add_edge":[0,999999,0]}]}"#.into(),
        r#"{"id":8,"labels":[0]}"#.into(),
        "\u{0}\u{1}\u{2}binary\u{7f}".into(),
        "[1,2,3]".into(),
        "null".into(),
        r#""just a string""#.into(),
        "{\"op\":\"query\",\"id\":9,".into(),
        deep,
    ];
    for line in &corpus {
        bad.send(line);
        let r = bad.recv().expect("error response for malformed line");
        assert!(r.contains("\"ok\":false"), "line {line:?} got {r}");
    }

    // The abused connection still serves…
    bad.send(r#"{"op":"stats","id":100}"#);
    let r = bad.recv().expect("stats after abuse");
    assert!(r.contains("\"id\":100") && r.contains("\"ok\":true"), "{r}");

    // …and the garbage never leaked onto the healthy connection.
    good.send(r#"{"op":"query","id":200,"labels":[0,1],"edges":[[0,1]],"pivot":0}"#);
    let r = good.recv().expect("healthy connection response");
    assert!(r.contains("\"id\":200") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn oversized_line_is_rejected_but_connection_survives() {
    let cfg = NetServerConfig {
        max_line_bytes: 1024,
        ..NetServerConfig::default()
    };
    let mut server = serve(150, 600, 2, cfg);
    let mut c = Client::connect(&server);

    let huge = format!(r#"{{"op":"stats","id":1,"pad":"{}"}}"#, "x".repeat(4096));
    c.send(&huge);
    let r = c.recv().expect("oversized-line response");
    assert!(
        r.contains("\"ok\":false") && r.contains("bad_request"),
        "{r}"
    );

    c.send(r#"{"op":"stats","id":2}"#);
    let r = c.recv().expect("stats after oversized line");
    assert!(r.contains("\"id\":2") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn queue_full_sheds_with_retry_after_and_every_id_is_answered_once() {
    // One slow worker + a one-deep queue: pipelining a burst MUST shed
    // most of it, and everything — admitted or shed — answers exactly
    // once.
    let cfg = NetServerConfig {
        max_queue: 1,
        ..NetServerConfig::default()
    };
    let mut server = serve(3000, 24000, 1, cfg);
    let mut c = Client::connect(&server);

    const BURST: u64 = 24;
    let mut batch = String::new();
    for id in 0..BURST {
        batch.push_str(&format!(
            r#"{{"op":"query","id":{id},"labels":[0,1,0,1,0,1],"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]],"pivot":0}}"#
        ));
        batch.push('\n');
    }
    c.stream.write_all(batch.as_bytes()).expect("burst write");

    let mut answered = vec![0u32; BURST as usize];
    let (mut ok, mut shed) = (0u32, 0u32);
    for _ in 0..BURST {
        let r = c.recv().expect("burst response");
        let id = response_id(&r).expect("response id") as usize;
        answered[id] += 1;
        if r.contains("\"ok\":true") {
            ok += 1;
        } else {
            assert!(r.contains("\"error\":\"shed\""), "unexpected failure: {r}");
            assert!(r.contains("\"retry_after_ms\":"), "shed without hint: {r}");
            shed += 1;
        }
    }
    assert!(
        answered.iter().all(|&n| n == 1),
        "every id answers exactly once: {answered:?}"
    );
    assert!(ok >= 1, "at least the first job is admitted");
    assert!(shed >= 1, "a 1-deep queue under a {BURST}-burst must shed");
    assert_eq!(ok + shed, BURST as u32);

    // The shed counter is observable over the wire.
    c.send(&format!(r#"{{"op":"stats","id":{}}}"#, BURST));
    let r = c.recv().expect("stats");
    assert!(r.contains(&format!("\"shed\":{shed}")), "{r}");

    let report = server.shutdown(Duration::from_secs(30));
    assert_eq!(
        report.aborted, 0,
        "a 30s grace drains every admitted job: {report:?}"
    );
}

#[test]
fn wire_deadline_already_expired_reports_deadline_error() {
    let mut server = serve(150, 600, 1, NetServerConfig::default());
    let mut c = Client::connect(&server);

    c.send(r#"{"op":"query","id":1,"labels":[0,1],"edges":[[0,1]],"pivot":0,"deadline_ms":0}"#);
    let r = c.recv().expect("deadline response");
    assert!(
        r.contains("\"id\":1") && r.contains("\"error\":\"deadline\""),
        "{r}"
    );

    // Deadline bookkeeping is visible in stats, and the connection is
    // healthy for a query with room to breathe.
    c.send(r#"{"op":"stats","id":2}"#);
    let r = c.recv().expect("stats");
    assert!(r.contains("\"deadline_expired\":1"), "{r}");
    c.send(r#"{"op":"query","id":3,"labels":[0],"edges":[],"pivot":0,"deadline_ms":60000}"#);
    let r = c.recv().expect("roomy deadline response");
    assert!(r.contains("\"id\":3") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn per_connection_quota_sheds_with_retry_after() {
    let cfg = NetServerConfig {
        quota_rate: 0.001, // one token per ~17 minutes: no refill mid-test
        quota_burst: 2.0,
        ..NetServerConfig::default()
    };
    let mut server = serve(150, 600, 2, cfg);
    let mut c = Client::connect(&server);

    for id in 1..=2 {
        c.send(&format!(
            r#"{{"op":"query","id":{id},"labels":[0],"edges":[],"pivot":0}}"#
        ));
        let r = c.recv().expect("burst-credit response");
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    c.send(r#"{"op":"query","id":3,"labels":[0],"edges":[],"pivot":0}"#);
    let r = c.recv().expect("quota response");
    assert!(r.contains("\"error\":\"quota\""), "{r}");
    assert!(r.contains("\"retry_after_ms\":"), "{r}");

    // Stats are exempt from the quota (cheap, needed to observe the
    // backoff) and a FRESH connection gets its own bucket.
    c.send(r#"{"op":"stats","id":4}"#);
    let r = c.recv().expect("stats exempt from quota");
    assert!(r.contains("\"id\":4") && r.contains("\"ok\":true"), "{r}");
    let mut fresh = Client::connect(&server);
    fresh.send(r#"{"op":"query","id":5,"labels":[0],"edges":[],"pivot":0}"#);
    let r = fresh.recv().expect("fresh connection response");
    assert!(r.contains("\"id\":5") && r.contains("\"ok\":true"), "{r}");

    server.shutdown(Duration::from_secs(2));
}

#[test]
fn drain_closes_connections_and_refuses_new_ones() {
    let mut server = serve(150, 600, 2, NetServerConfig::default());
    let addr = server.local_addr();
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);

    a.send(r#"{"op":"shutdown","id":1,"grace_ms":2000}"#);
    let r = a.recv().expect("drain report");
    assert!(r.contains("\"drained\":") && r.contains("\"aborted\":"), "{r}");
    assert_eq!(a.recv(), None, "initiator's connection closes");

    // The bystander either races a final request in (answered with a
    // structured "draining" shed) or finds its connection already
    // closed (write fails or EOF) — never a silent hang.
    let late = b
        .stream
        .write_all(b"{\"op\":\"query\",\"id\":2,\"labels\":[0],\"edges\":[],\"pivot\":0}\n");
    if late.is_ok() {
        match b.recv() {
            None => {}
            Some(r) => assert!(r.contains("\"error\":\"draining\""), "{r}"),
        }
    }

    let report = server.wait();
    assert_eq!(report.aborted, 0, "{report:?}");

    // The accept loop is gone: new connections fail outright or are
    // closed without ever being served.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(s) => {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut r = BufReader::new(s);
            let mut line = String::new();
            assert_eq!(r.read_line(&mut line).unwrap_or(0), 0, "got {line:?}");
        }
    }
}

#[test]
fn sharded_deployment_serves_query_update_and_stats() {
    let mut single = serve(150, 600, 2, NetServerConfig::default());
    let mut sharded = serve_sharded(150, 600, 2, NetServerConfig::default());
    let mut a = Client::connect(&single);
    let mut b = Client::connect(&sharded);

    // Pivot eccentricities 1, 1, 2 and 2: all within the halo.
    let queries = [
        r#""labels":[0,1],"edges":[[0,1]],"pivot":0"#,
        r#""labels":[0,1,2],"edges":[[0,1],[1,2]],"pivot":1"#,
        r#""labels":[0,1,2],"edges":[[0,1],[1,2]],"pivot":0"#,
        r#""labels":[2,0,1,0],"edges":[[0,1],[1,2],[2,0],[2,3]],"pivot":0"#,
    ];
    let mut next_id = 0u64;
    let mut same_answers = |a: &mut Client, b: &mut Client, when: &str| {
        for body in queries {
            next_id += 1;
            let line = format!(r#"{{"op":"query","id":{next_id},{body}}}"#);
            a.send(&line);
            b.send(&line);
            let (ra, rb) = (a.recv().expect("single"), b.recv().expect("sharded"));
            assert!(ra.contains("\"ok\":true") && rb.contains("\"ok\":true"), "{ra} / {rb}");
            assert_eq!(valid_list(&rb), valid_list(&ra), "{when}: sharded answer diverged");
        }
    };
    same_answers(&mut a, &mut b, "before the update");

    // A wire update repairs the global matrix and republishes shards;
    // both deployments then answer over the grown graph alike.
    let update = concat!(
        r#"{"op":"update","id":50,"updates":"#,
        r#"[{"add_node":1},{"add_edge":[0,150,0]},{"add_edge":[149,150,0]}]}"#
    );
    a.send(update);
    b.send(update);
    let (ra, rb) = (a.recv().expect("single update"), b.recv().expect("sharded update"));
    for r in [&ra, &rb] {
        assert!(r.contains("\"id\":50") && r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"epoch\":1") && r.contains("\"nodes_added\":1"), "{r}");
    }
    same_answers(&mut a, &mut b, "after the update");

    b.send(r#"{"op":"stats","id":60}"#);
    let r = b.recv().expect("sharded stats");
    assert!(r.contains("\"id\":60") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"graph_epoch\":1"), "update must be visible: {r}");
    assert!(r.contains("\"workers\":3"), "one worker per shard: {r}");
    assert!(r.contains("\"admitted\":8"), "{r}");

    // Eccentricity 3 exceeds the halo: a structured refusal, and the
    // connection keeps serving.
    b.send(r#"{"op":"query","id":70,"labels":[0,1,2,0],"edges":[[0,1],[1,2],[2,3]],"pivot":0}"#);
    let r = b.recv().expect("too-deep response");
    assert!(r.contains("\"id\":70") && r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("eccentricity 3"), "{r}");
    b.send(r#"{"op":"stats","id":71}"#);
    let r = b.recv().expect("stats after the refusal");
    assert!(r.contains("\"id\":71") && r.contains("\"ok\":true"), "{r}");
    assert!(r.contains("\"admitted\":8"), "a refused query is not admitted: {r}");

    let report = sharded.shutdown(Duration::from_secs(5));
    assert_eq!(report.aborted, 0, "{report:?}");
    single.shutdown(Duration::from_secs(5));
}

#[test]
fn sharded_deadline_expiry_answers_one_structured_failure() {
    // Every cell the query reaches expires it in its own queue; the
    // client must read one `deadline` error, not an empty answer.
    let mut server = serve_sharded(150, 600, 2, NetServerConfig::default());
    let mut c = Client::connect(&server);

    c.send(r#"{"op":"query","id":1,"labels":[0,1],"edges":[[0,1]],"pivot":0,"deadline_ms":0}"#);
    let r = c.recv().expect("deadline response");
    assert!(
        r.contains("\"id\":1") && r.contains("\"error\":\"deadline\""),
        "{r}"
    );
    c.send(r#"{"op":"query","id":2,"labels":[0,1],"edges":[[0,1]],"pivot":0,"deadline_ms":60000}"#);
    let r = c.recv().expect("roomy deadline response");
    assert!(r.contains("\"id\":2") && r.contains("\"ok\":true"), "{r}");

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.aborted, 0, "{report:?}");
}

#[test]
fn sharded_server_sheds_and_answers_every_id_once() {
    // The shed ladder over a 3-shard deployment: a one-deep queue
    // (counted in queries, the deepest cell's queue) under a burst
    // sheds, and every id, admitted or shed, answers exactly once.
    let cfg = NetServerConfig {
        max_queue: 1,
        ..NetServerConfig::default()
    };
    let mut server = serve_sharded(3000, 24000, 3, cfg);
    let mut c = Client::connect(&server);

    const BURST: u64 = 24;
    let mut batch = String::new();
    for id in 0..BURST {
        batch.push_str(&format!(
            r#"{{"op":"query","id":{id},"labels":[0,1,0,1,0,1],"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]],"pivot":2}}"#
        ));
        batch.push('\n');
    }
    c.stream.write_all(batch.as_bytes()).expect("burst write");

    let mut answered = vec![0u32; BURST as usize];
    let (mut ok, mut shed) = (0u32, 0u32);
    for _ in 0..BURST {
        let r = c.recv().expect("burst response");
        let id = response_id(&r).expect("response id") as usize;
        answered[id] += 1;
        if r.contains("\"ok\":true") {
            ok += 1;
        } else {
            assert!(r.contains("\"error\":\"shed\""), "unexpected failure: {r}");
            assert!(r.contains("\"retry_after_ms\":"), "shed without hint: {r}");
            shed += 1;
        }
    }
    assert!(
        answered.iter().all(|&n| n == 1),
        "every id answers exactly once: {answered:?}"
    );
    assert!(ok >= 1, "at least the first job is admitted");
    assert!(shed >= 1, "a 1-deep queue under a {BURST}-burst must shed");

    c.send(&format!(r#"{{"op":"stats","id":{}}}"#, BURST));
    let r = c.recv().expect("stats");
    assert!(r.contains(&format!("\"shed\":{shed}")), "{r}");
    assert!(r.contains(&format!("\"admitted\":{ok}")), "{r}");

    let report = server.shutdown(Duration::from_secs(30));
    assert_eq!(report.aborted, 0, "{report:?}");
}
