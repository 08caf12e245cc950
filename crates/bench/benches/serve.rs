//! E16 — the `ped serve` multi-session analysis daemon under concurrent
//! clients.
//!
//! N clients, each owning a *distinct* program, drive one shared daemon
//! through the full verb set (open → analyze → check → edit → analyze →
//! undo → redo → close) concurrently. Measured: per-request latency
//! (p50/p99 over every request of the cold phase), sustained
//! requests/sec, and the cost of `open` cold versus warm. The daemon is
//! then shut down and a *new* daemon is pointed at the same on-disk
//! graph store: every client re-opens its program and the persisted
//! graphs must come back (`warm_graphs > 0` per open, `reused > 0` on
//! the follow-up analyze, zero rebuilds) — the warm-restart property the
//! store exists for.
//!
//! Every response is asserted `ok`; a daemon that answered any scripted
//! request with an error fails the bench. Results go to
//! `target/BENCH_E16.json`, including a profile report (with the
//! `serve` section filled from live daemon counters) for the CI schema
//! smoke.

use ped_bench::harness::fmt_ns;
use ped_core::{Daemon, GraphStore};
use ped_obs::json::{self, Json};
use std::time::Instant;

/// Concurrent clients, each with its own program and session.
const CLIENTS: usize = 8;

/// One client's program; `variant` perturbs a constant so an `edit`
/// genuinely changes the loop's fingerprints.
fn client_src(client: usize, variant: usize) -> String {
    let n = 600 + client * 60;
    let scale = 1.5 + client as f64 * 0.25 + variant as f64 * 0.125;
    format!(
        "      program cli{client}\n\
               integer n\n\
               parameter (n = {n})\n\
               real a(n), b(n)\n\
               do 10 i = 1, n\n\
               a(i) = 0.001 * i\n\
   10 continue\n\
               do 20 j = 1, n\n\
               b(j) = a(j) * {scale:.3} + 1.0\n\
   20 continue\n\
               print *, b(n)\n\
               end\n"
    )
}

/// Send one request, assert the response is `ok`, and return
/// (parsed response, latency ns).
fn request(daemon: &Daemon, owner: u64, req: &Json) -> (Json, u64) {
    let line = req.to_string_compact();
    let t0 = Instant::now();
    let resp = daemon.handle_line(owner, &line);
    let ns = t0.elapsed().as_nanos() as u64;
    let v = json::parse(&resp.text).expect("daemon responses are valid JSON");
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "request {line} failed: {}",
        resp.text
    );
    (v, ns)
}

fn req(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("id", Json::int(0))];
    all.extend(fields);
    Json::obj(all)
}

fn u(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing {key} in {v:?}"))
}

/// What one cold-phase client observed.
struct ClientRun {
    open_ns: u64,
    request_ns: Vec<u64>,
}

/// The scripted cold-phase session: the whole verb surface, ending in a
/// `close` that persists the session's graphs.
fn cold_client(daemon: &Daemon, client: usize) -> ClientRun {
    let owner = client as u64 + 1;
    let (v, open_ns) = request(
        daemon,
        owner,
        &req(vec![("verb", Json::str("open")), ("source", Json::str(&client_src(client, 0)))]),
    );
    let session = u(&v, "session");
    let mut request_ns = Vec::new();
    let mut run = |r: &Json| {
        let (v, ns) = request(daemon, owner, r);
        request_ns.push(ns);
        v
    };
    let sess = Json::int(session);
    let v = run(&req(vec![("verb", Json::str("analyze")), ("session", sess.clone())]));
    assert_eq!(u(&v, "loops"), 2, "client {client}: unexpected loop count");
    assert_eq!(u(&v, "built"), 2, "client {client}: cold analyze should build");
    let v = run(&req(vec![("verb", Json::str("check")), ("session", sess.clone())]));
    assert_eq!(v.get("clean").and_then(Json::as_bool), Some(true));
    run(&req(vec![
        ("verb", Json::str("edit")),
        ("session", sess.clone()),
        ("unit", Json::str(&format!("cli{client}"))),
        ("source", Json::str(&client_src(client, 1))),
    ]));
    let v = run(&req(vec![("verb", Json::str("analyze")), ("session", sess.clone())]));
    assert!(u(&v, "built") >= 1, "client {client}: edit should invalidate at least one graph");
    let v = run(&req(vec![("verb", Json::str("undo")), ("session", sess.clone())]));
    assert_eq!(v.get("applied").and_then(Json::as_bool), Some(true));
    let v = run(&req(vec![("verb", Json::str("redo")), ("session", sess.clone())]));
    assert_eq!(v.get("applied").and_then(Json::as_bool), Some(true));
    // Land on the edited variant; its graphs are what `close` persists
    // and what the warm phase must get back.
    run(&req(vec![("verb", Json::str("analyze")), ("session", sess.clone())]));
    let v = run(&req(vec![("verb", Json::str("close")), ("session", sess)]));
    assert!(u(&v, "persisted") >= 2, "client {client}: close persisted nothing");
    ClientRun { open_ns, request_ns }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let store_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/e16_store");
    // Start truly cold: no entries from a previous bench run.
    std::fs::remove_dir_all(&store_dir).ok();

    // ---- Cold phase: one daemon, N concurrent clients, full scripts. ----
    let daemon = Daemon::new(Some(GraphStore::open(&store_dir).expect("store opens")));
    let t0 = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let daemon = &daemon;
        let handles: Vec<_> =
            (0..CLIENTS).map(|c| scope.spawn(move || cold_client(daemon, c))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let cold_wall_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(daemon.session_count(), 0, "all cold sessions closed");
    let cold_stats = daemon.stats();
    assert_eq!(cold_stats.errors, 0);
    assert!(cold_stats.graphs_persisted >= 2 * CLIENTS as u64);

    let mut latencies: Vec<u64> =
        runs.iter().flat_map(|r| r.request_ns.iter().copied()).collect();
    latencies.extend(runs.iter().map(|r| r.open_ns));
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let requests = latencies.len() as u64;
    let requests_per_sec = requests as f64 / (cold_wall_ns as f64 / 1e9);
    let cold_open_ns =
        runs.iter().map(|r| r.open_ns).sum::<u64>() / runs.len() as u64;

    // ---- Restart: a NEW daemon on the same store must start warm. ----
    drop(daemon);
    let daemon = Daemon::new(Some(GraphStore::open(&store_dir).expect("store reopens")));
    let mut warm_open_ns_total = 0u64;
    let mut warm_graphs = 0u64;
    let mut graphs_reused = 0u64;
    let mut last_session = 0u64;
    for c in 0..CLIENTS {
        let owner = c as u64 + 1;
        // `profile: true` so the warm phase emits a live report below.
        let (v, ns) = request(
            &daemon,
            owner,
            &req(vec![
                ("verb", Json::str("open")),
                ("source", Json::str(&client_src(c, 1))),
                ("profile", Json::Bool(true)),
            ]),
        );
        warm_open_ns_total += ns;
        let loaded = u(&v, "warm_graphs");
        assert!(loaded >= 2, "client {c}: warm reopen loaded only {loaded} graphs");
        warm_graphs += loaded;
        last_session = u(&v, "session");
        let (v, _) = request(
            &daemon,
            owner,
            &req(vec![("verb", Json::str("analyze")), ("session", Json::int(last_session))]),
        );
        assert_eq!(u(&v, "built"), 0, "client {c}: warm analyze rebuilt graphs");
        graphs_reused += u(&v, "reused");
    }
    assert!(graphs_reused > 0, "warm restart must reuse persisted graphs");
    let warm_open_ns = warm_open_ns_total / CLIENTS as u64;
    let warm_stats = daemon.stats();
    assert_eq!(warm_stats.warm_opens, CLIENTS as u64);

    // A profile report with the serve section filled from the live
    // daemon (the CI schema smoke validates this sub-document).
    let (v, _) = request(
        &daemon,
        CLIENTS as u64,
        &req(vec![("verb", Json::str("profile")), ("session", Json::int(last_session))]),
    );
    let profile = v.get("report").expect("profile response carries a report").clone();
    let report = ped_obs::ProfileReport::from_json(&profile)
        .expect("emitted profile report validates");
    assert!(report.serve.requests > 0, "serve section not filled");
    assert!(report.serve.warm_opens > 0, "serve section missing warm opens");

    println!(
        "E16: {CLIENTS} concurrent clients, {requests} requests in {}",
        fmt_ns(cold_wall_ns as u128)
    );
    println!(
        "  latency p50 {}  p99 {}  ({requests_per_sec:.0} req/s)",
        fmt_ns(p50 as u128),
        fmt_ns(p99 as u128)
    );
    println!(
        "  open: cold {} vs warm {} ({} graphs preloaded, {} reused after restart)",
        fmt_ns(cold_open_ns as u128),
        fmt_ns(warm_open_ns as u128),
        warm_graphs,
        graphs_reused
    );

    let doc = Json::obj(vec![
        ("bench", Json::str("E16")),
        ("schema_version", Json::int(1)),
        ("clients", Json::int(CLIENTS as u64)),
        ("requests", Json::int(requests)),
        ("errors", Json::int(cold_stats.errors)),
        ("p50_request_ns", Json::int(p50)),
        ("p99_request_ns", Json::int(p99)),
        ("requests_per_sec", Json::Num(requests_per_sec)),
        ("cold_open_ns", Json::int(cold_open_ns)),
        ("warm_open_ns", Json::int(warm_open_ns)),
        ("warm_graphs", Json::int(warm_graphs)),
        ("graphs_reused", Json::int(graphs_reused)),
        ("graphs_persisted", Json::int(cold_stats.graphs_persisted)),
        ("warm_opens", Json::int(warm_stats.warm_opens)),
        ("profile", profile),
    ]);
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_E16.json");
    match std::fs::write(&out, doc.to_string_pretty()) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => println!("could not write {}: {e}", out.display()),
    }
}
