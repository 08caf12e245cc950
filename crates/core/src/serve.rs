//! `ped serve` — a long-lived analysis daemon owning many concurrent
//! [`Ped`] sessions behind a line-delimited JSON protocol.
//!
//! The paper's interactive model assumes the editor outlives any single
//! query; this module makes Ped itself outlive any single *process
//! invocation*. One daemon owns N independent sessions (one per open
//! program), addressed by numeric session ids. Requests are single JSON
//! lines; every response echoes the request's `id` so clients can
//! pipeline. Malformed input of any shape gets a structured error
//! response — the daemon never crashes on client bytes.
//!
//! ## Wire protocol
//!
//! Request: `{"id": <any>, "verb": "<name>", ...params}` on one line.
//! Response: `{"id": <echoed>, "ok": true, ...result}` or
//! `{"id": <echoed>, "ok": false, "error": {"code": "...", "message": "..."}}`.
//!
//! Verbs: `open`, `edit`, `analyze`, `transform`, `undo`, `redo`,
//! `check`, `profile`, `close`, plus `shutdown` for daemon lifecycle.
//! See README.md for one example request/response per verb.
//!
//! ## Sharing
//!
//! All sessions share one global [`PairCache`] (its keys canonicalize
//! resolved subscripts and bounds, so cross-program sharing is sound) and,
//! when configured, one persistent [`GraphStore`]: `close`/`shutdown`
//! persist each session's analyzed graphs under their three-part
//! fingerprint certificates, and `open` preloads every graph whose
//! certificate still matches — re-opening a program starts warm even
//! across daemon restarts.
//!
//! ## Fault isolation
//!
//! Each TCP connection owns the sessions it opened. A broken client pipe
//! (or clean disconnect) closes — and persists — that connection's
//! sessions only. A request that panics gets an `internal_error` reply
//! carrying the panic message, and its session is retired unpersisted
//! (its lock is poisoned and its state may be half-written). Either way,
//! every other session keeps serving.

use crate::campaign::panic_text;
use crate::session::{parse_xform, Ped};
use crate::store::GraphStore;
use ped_dep::PairCache;
use ped_fortran::StmtId;
use ped_obs::json::{self, Json};
use ped_obs::ServeReport;
use ped_runtime::{ExecConfig, ParallelMode};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Live daemon counters; snapshot with [`Daemon::stats`] into the profile
/// report's `serve` section.
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicU64,
    errors: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    warm_opens: AtomicU64,
    graphs_loaded: AtomicU64,
    graphs_persisted: AtomicU64,
    total_request_ns: AtomicU64,
    max_request_ns: AtomicU64,
}

impl ServeStats {
    fn snapshot(&self) -> ServeReport {
        ServeReport {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            warm_opens: self.warm_opens.load(Ordering::Relaxed),
            graphs_loaded: self.graphs_loaded.load(Ordering::Relaxed),
            graphs_persisted: self.graphs_persisted.load(Ordering::Relaxed),
            total_request_ns: self.total_request_ns.load(Ordering::Relaxed),
            max_request_ns: self.max_request_ns.load(Ordering::Relaxed),
        }
    }
}

/// One session slot: the connection that opened it plus the session
/// itself, individually locked so requests against different sessions
/// run concurrently (the registry mutex is held only for the lookup).
struct SessionSlot {
    owner: u64,
    ped: Arc<Mutex<Ped>>,
}

/// The answer to one request line.
#[derive(Debug)]
pub struct Response {
    /// One line of JSON (no trailing newline).
    pub text: String,
    /// True when the request asked the daemon to shut down.
    pub shutdown: bool,
}

/// A structured request failure: `code` is machine-matchable, `message`
/// human-readable. Never escapes as a panic.
struct ReqError {
    code: &'static str,
    message: String,
}

impl ReqError {
    fn new(code: &'static str, message: impl Into<String>) -> ReqError {
        ReqError { code, message: message.into() }
    }
}

/// The multi-session analysis daemon. All methods take `&self`; the
/// daemon is shared freely across connection threads.
pub struct Daemon {
    sessions: Mutex<HashMap<u64, SessionSlot>>,
    next_session: AtomicU64,
    next_owner: AtomicU64,
    pair_cache: Arc<PairCache>,
    store: Option<GraphStore>,
    shutdown: AtomicBool,
    stats: ServeStats,
}

/// Owner id of the stdio client (connection owners start at 1).
pub const STDIO_OWNER: u64 = 0;

impl Daemon {
    /// A daemon with an optional persistent graph store. Without a store,
    /// sessions still share the global pair cache but nothing survives
    /// the process.
    pub fn new(store: Option<GraphStore>) -> Daemon {
        Daemon {
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            next_owner: AtomicU64::new(0),
            pair_cache: Arc::new(PairCache::new()),
            store,
            shutdown: AtomicBool::new(false),
            stats: ServeStats::default(),
        }
    }

    /// Snapshot the request/session/store counters (the profile report's
    /// `serve` section).
    pub fn stats(&self) -> ServeReport {
        self.stats.snapshot()
    }

    /// Sessions currently open.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().expect("session registry poisoned").len()
    }

    /// Run `f` directly against a session's [`Ped`] (None when the id is
    /// unknown). This is the embedding escape hatch: in-process hosts and
    /// the equivalence oracle inspect session state — e.g. canonical
    /// graph forms — without going through the wire protocol.
    pub fn with_ped<R>(&self, session: u64, f: impl FnOnce(&mut Ped) -> R) -> Option<R> {
        let ped = {
            let reg = self.sessions.lock().expect("session registry poisoned");
            Arc::clone(&reg.get(&session)?.ped)
        };
        let mut ped = ped.lock().expect("session poisoned");
        Some(f(&mut ped))
    }

    /// Handle one request line from `owner` and produce the response
    /// line. This is the whole protocol — the socket and stdio loops are
    /// plumbing around it, and tests can drive a daemon without either.
    pub fn handle_line(&self, owner: u64, line: &str) -> Response {
        let t0 = Instant::now();
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let (id, verb, result) = match json::parse(line) {
            Err(e) => (
                Json::Null,
                String::new(),
                Err(ReqError::new("bad_json", format!("request is not valid JSON: {e}"))),
            ),
            Ok(v) => {
                let id = v.get("id").cloned().unwrap_or(Json::Null);
                match v.get("verb").and_then(Json::as_str) {
                    None => (
                        id,
                        String::new(),
                        Err(ReqError::new("bad_request", "missing string field 'verb'")),
                    ),
                    Some(verb) => {
                        let verb = verb.to_string();
                        let r = catch_unwind(AssertUnwindSafe(|| self.dispatch(owner, &verb, &v)))
                            .unwrap_or_else(|panic| {
                                self.retire(&v);
                                Err(ReqError::new("internal_error", panic_text(panic)))
                            });
                        (id, verb, r)
                    }
                }
            }
        };
        let shutdown = verb == "shutdown" && result.is_ok();
        let mut fields = vec![("id", id)];
        let text = match result {
            Ok(extra) => {
                fields.push(("ok", Json::Bool(true)));
                fields.extend(extra);
                Json::obj(fields).to_string_compact()
            }
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                fields.push(("ok", Json::Bool(false)));
                fields.push((
                    "error",
                    Json::obj(vec![
                        ("code", Json::str(e.code)),
                        ("message", Json::str(&e.message)),
                    ]),
                ));
                Json::obj(fields).to_string_compact()
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.total_request_ns.fetch_add(ns, Ordering::Relaxed);
        self.stats.max_request_ns.fetch_max(ns, Ordering::Relaxed);
        if shutdown {
            self.shutdown.store(true, Ordering::SeqCst);
        }
        Response { text, shutdown }
    }

    fn dispatch(
        &self,
        owner: u64,
        verb: &str,
        v: &Json,
    ) -> Result<Vec<(&'static str, Json)>, ReqError> {
        match verb {
            "open" => self.verb_open(owner, v),
            "edit" => self.with_session(v, |ped| {
                let unit = need_str(v, "unit")?;
                let source = need_str(v, "source")?;
                ped.edit_unit(unit, source)
                    .map_err(|e| ReqError::new("edit", e.to_string()))?;
                Ok(vec![])
            }),
            "analyze" => self.with_session(v, |ped| {
                let r = ped.analyze_all();
                Ok(vec![
                    ("units", Json::int(r.units as u64)),
                    ("loops", Json::int(r.loops as u64)),
                    ("built", Json::int(r.built as u64)),
                    ("reused", Json::int(r.reused as u64)),
                    ("deps", Json::int(r.deps as u64)),
                    ("warm", Json::int(ped.graphs_warm_total())),
                ])
            }),
            "transform" => self.with_session(v, |ped| {
                let unit = need_str(v, "unit")?;
                let target = StmtId(need_u64(v, "target")? as u32);
                let spec = need_str(v, "xform")?;
                let unit_idx = unit_index(ped, unit)?;
                let xform = parse_xform(&ped.program().units[unit_idx], spec)
                    .map_err(|m| ReqError::new("bad_xform", m))?;
                let a = ped
                    .apply(unit_idx, target, &xform)
                    .map_err(|e| ReqError::new("transform", e.to_string()))?;
                Ok(vec![("description", Json::str(&a.description))])
            }),
            "undo" => self.with_session(v, |ped| {
                Ok(vec![("applied", Json::Bool(ped.undo()))])
            }),
            "redo" => self.with_session(v, |ped| {
                Ok(vec![("applied", Json::Bool(ped.redo()))])
            }),
            "check" => self.with_session(v, |ped| {
                let config = ExecConfig {
                    mode: match v.get("threads").and_then(Json::as_u64) {
                        Some(n) if n > 0 => ParallelMode::Threads(n as usize),
                        _ => ParallelMode::Serial,
                    },
                    ..ExecConfig::default()
                };
                let r = ped.check(config).map_err(|e| ReqError::new("check", e.to_string()))?;
                Ok(vec![
                    ("clean", Json::Bool(r.clean())),
                    ("races", Json::int(r.race_count() as u64)),
                    ("loops_checked", Json::int(r.loops.len() as u64)),
                    ("observed_deps", Json::int(r.observed_deps as u64)),
                ])
            }),
            "suggest" => self.with_session(v, |ped| {
                let cfg = crate::autopilot::AutopilotConfig::default();
                let s = crate::autopilot::suggest(ped, &cfg);
                let nests: Vec<Json> = s
                    .nests
                    .iter()
                    .map(|n| {
                        let mut fields = vec![
                            ("unit", Json::str(&n.unit_name)),
                            ("header", Json::int(u64::from(n.header.0))),
                            ("var", Json::str(&n.var)),
                            ("est_serial_ops", Json::Num(n.baseline_serial)),
                            ("safe", Json::Bool(n.plan.is_some())),
                        ];
                        match &n.plan {
                            Some(p) => {
                                fields.push((
                                    "plan",
                                    Json::str(&crate::autopilot::plan_text(
                                        &ped.program().units[n.unit],
                                        &p.steps,
                                    )),
                                ));
                                fields.push(("predicted_speedup", Json::Num(p.predicted)));
                            }
                            None => fields.push(("blocked", Json::str(&n.blocked))),
                        }
                        Json::obj(fields)
                    })
                    .collect();
                Ok(vec![
                    ("nests", Json::Arr(nests)),
                    ("candidates", Json::int(s.stats.candidates)),
                    ("pruned_unsafe", Json::int(s.stats.pruned_unsafe)),
                    ("pruned_unprofitable", Json::int(s.stats.pruned_unprofitable)),
                ])
            }),
            "profile" => self.with_session(v, |ped| {
                let mut report = ped.profile_report();
                report.serve = self.stats.snapshot();
                Ok(vec![("report", report.to_json())])
            }),
            "close" => {
                let session = need_u64(v, "session")?;
                let slot = self
                    .sessions
                    .lock()
                    .expect("session registry poisoned")
                    .remove(&session)
                    .ok_or_else(|| {
                        ReqError::new("no_such_session", format!("no session {session}"))
                    })?;
                let persisted = self.persist_slot(&slot);
                self.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                Ok(vec![("persisted", Json::int(persisted as u64))])
            }
            "shutdown" => {
                let persisted = self.persist_and_close_all();
                Ok(vec![("persisted", Json::int(persisted as u64))])
            }
            other => Err(ReqError::new("unknown_verb", format!("unknown verb '{other}'"))),
        }
    }

    fn verb_open(
        &self,
        owner: u64,
        v: &Json,
    ) -> Result<Vec<(&'static str, Json)>, ReqError> {
        let source = need_str(v, "source")?;
        let profile = v.get("profile").and_then(Json::as_bool).unwrap_or(false);
        let warm = v.get("warm").and_then(Json::as_bool).unwrap_or(true);
        let mut ped = if profile { Ped::open_profiled(source) } else { Ped::open(source) }
            .map_err(|e| ReqError::new("parse", e.to_string()))?;
        ped.set_pair_cache(Arc::clone(&self.pair_cache));
        let mut warm_graphs = 0;
        if warm {
            if let Some(store) = &self.store {
                warm_graphs = ped.preload_graphs(store);
                if warm_graphs > 0 {
                    self.stats.warm_opens.fetch_add(1, Ordering::Relaxed);
                    self.stats.graphs_loaded.fetch_add(warm_graphs as u64, Ordering::Relaxed);
                }
            }
        }
        let units: Vec<Json> =
            ped.program().units.iter().map(|u| Json::str(&u.name)).collect();
        let session = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        self.sessions
            .lock()
            .expect("session registry poisoned")
            .insert(session, SessionSlot { owner, ped: Arc::new(Mutex::new(ped)) });
        self.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Ok(vec![
            ("session", Json::int(session)),
            ("units", Json::Arr(units)),
            ("warm_graphs", Json::int(warm_graphs as u64)),
        ])
    }

    /// Run `f` against the request's session. The registry lock is held
    /// only for the lookup; the session's own mutex serializes requests
    /// against it while other sessions proceed.
    fn with_session<F>(&self, v: &Json, f: F) -> Result<Vec<(&'static str, Json)>, ReqError>
    where
        F: FnOnce(&mut Ped) -> Result<Vec<(&'static str, Json)>, ReqError>,
    {
        let session = need_u64(v, "session")?;
        let ped = {
            let reg = self.sessions.lock().expect("session registry poisoned");
            let slot = reg.get(&session).ok_or_else(|| {
                ReqError::new("no_such_session", format!("no session {session}"))
            })?;
            Arc::clone(&slot.ped)
        };
        let mut ped = ped.lock().expect("session poisoned");
        f(&mut ped)
    }

    /// Drop a panicked request's session from the registry without
    /// persisting it.
    fn retire(&self, v: &Json) {
        let Some(session) = v.get("session").and_then(Json::as_u64) else { return };
        if self.sessions.lock().expect("session registry poisoned").remove(&session).is_some() {
            self.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn persist_slot(&self, slot: &SessionSlot) -> usize {
        let Some(store) = &self.store else { return 0 };
        let n = slot.ped.lock().expect("session poisoned").persist_graphs(store);
        self.stats.graphs_persisted.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Close (persisting first) every session a disconnected client
    /// owned. The rest of the daemon is untouched — this is the fault
    /// isolation property: a broken pipe kills its sessions, never the
    /// daemon. Returns how many sessions were closed.
    pub fn close_owner(&self, owner: u64) -> usize {
        let slots: Vec<SessionSlot> = {
            let mut reg = self.sessions.lock().expect("session registry poisoned");
            let ids: Vec<u64> =
                reg.iter().filter(|(_, s)| s.owner == owner).map(|(&id, _)| id).collect();
            ids.into_iter().filter_map(|id| reg.remove(&id)).collect()
        };
        for slot in &slots {
            self.persist_slot(slot);
        }
        self.stats.sessions_closed.fetch_add(slots.len() as u64, Ordering::Relaxed);
        slots.len()
    }

    /// Persist and drop every session (shutdown path). Returns graphs
    /// persisted.
    fn persist_and_close_all(&self) -> usize {
        let slots: Vec<SessionSlot> = {
            let mut reg = self.sessions.lock().expect("session registry poisoned");
            reg.drain().map(|(_, s)| s).collect()
        };
        let mut persisted = 0;
        for slot in &slots {
            persisted += self.persist_slot(slot);
        }
        self.stats.sessions_closed.fetch_add(slots.len() as u64, Ordering::Relaxed);
        persisted
    }

    /// Serve a single client over stdin/stdout. An I/O *error* on stdin
    /// is reported distinctly from clean EOF (the bug class of the old
    /// interactive loop's `unwrap_or(0)`): EOF ends the loop cleanly,
    /// an error is printed and returned.
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let resp = self.handle_line(STDIO_OWNER, line.trim_end());
                    {
                        let mut out = stdout.lock();
                        out.write_all(resp.text.as_bytes())?;
                        out.write_all(b"\n")?;
                        out.flush()?;
                    }
                    if resp.shutdown {
                        break;
                    }
                }
                Err(e) => {
                    eprintln!("ped serve: stdin read error: {e}");
                    self.close_owner(STDIO_OWNER);
                    return Err(e);
                }
            }
        }
        self.close_owner(STDIO_OWNER);
        Ok(())
    }

    /// Serve clients over TCP until a `shutdown` request arrives. Each
    /// connection gets its own thread and owner id; connection-level
    /// failures (broken pipes, bad bytes) never escape their thread.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        // Non-blocking accept so the loop can observe the shutdown flag
        // set by whichever connection carried the `shutdown` request.
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            loop {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        scope.spawn(move || self.handle_conn(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
    }

    fn handle_conn(&self, stream: TcpStream) {
        let owner = self.next_owner.fetch_add(1, Ordering::Relaxed) + 1;
        // A finite read timeout lets the reader poll the shutdown flag;
        // `read_line` keeps partial data in `line` across timeouts, so
        // pipelined requests are never corrupted.
        stream.set_read_timeout(Some(Duration::from_millis(100))).ok();
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match reader.read_line(&mut line) {
                Ok(0) => break, // clean disconnect
                Ok(_) => {
                    let resp = self.handle_line(owner, line.trim_end());
                    line.clear();
                    if writer.write_all(resp.text.as_bytes()).is_err()
                        || writer.write_all(b"\n").is_err()
                        || writer.flush().is_err()
                    {
                        break; // broken pipe: this client is gone
                    }
                    if resp.shutdown {
                        break;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break, // read error: treat like a broken pipe
            }
        }
        // Whatever ended the connection, only ITS sessions close.
        self.close_owner(owner);
    }
}

fn need_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ReqError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ReqError::new("bad_request", format!("missing string field '{key}'")))
}

fn need_u64(v: &Json, key: &str) -> Result<u64, ReqError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| {
            ReqError::new("bad_request", format!("missing non-negative integer field '{key}'"))
        })
}

fn unit_index(ped: &Ped, name: &str) -> Result<usize, ReqError> {
    ped.program()
        .units
        .iter()
        .position(|u| u.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| ReqError::new("no_such_unit", format!("no unit '{name}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
      program tiny\n\
      integer i\n\
      real a(100)\n\
      do 10 i = 1, 100\n\
      a(i) = a(i) + 1.0\n\
   10 continue\n\
      end\n";

    fn open(d: &Daemon, owner: u64) -> u64 {
        open_source(d, owner, SRC)
    }

    fn open_source(d: &Daemon, owner: u64, src: &str) -> u64 {
        let req = Json::obj(vec![
            ("id", Json::int(1)),
            ("verb", Json::str("open")),
            ("source", Json::str(src)),
        ])
        .to_string_compact();
        let resp = d.handle_line(owner, &req);
        let v = json::parse(&resp.text).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.text);
        v.get("session").and_then(Json::as_u64).unwrap()
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let d = Daemon::new(None);
        for bad in [
            "not json at all",
            "{\"id\":1}",
            "{\"id\":1,\"verb\":\"frobnicate\"}",
            "{\"id\":1,\"verb\":\"analyze\"}",
            "{\"id\":1,\"verb\":\"analyze\",\"session\":999}",
            "{\"id\":1,\"verb\":\"open\"}",
        ] {
            let resp = d.handle_line(STDIO_OWNER, bad);
            let v = json::parse(&resp.text).expect("error responses are valid JSON");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(v.get("error").and_then(|e| e.get("code")).is_some(), "{bad}");
            assert!(!resp.shutdown);
        }
        assert_eq!(d.stats().errors, 6);
    }

    #[test]
    fn out_of_range_transform_target_is_an_error_and_the_session_survives() {
        let d = Daemon::new(None);
        let s = open(&d, STDIO_OWNER);
        let reply = |line: String| json::parse(&d.handle_line(STDIO_OWNER, &line).text).unwrap();
        let bad = reply(format!(
            "{{\"id\":2,\"verb\":\"transform\",\"session\":{s},\"unit\":\"tiny\",\
             \"target\":999,\"xform\":\"parallelize\"}}"
        ));
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        assert!(bad.get("error").and_then(|e| e.get("code")).is_some());
        let ok = reply(format!("{{\"id\":3,\"verb\":\"analyze\",\"session\":{s}}}"));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("loops").and_then(Json::as_u64), Some(1));
    }

    /// A store to an undeclared array cannot run: `check` is refused with
    /// a typed error, and the daemon and the session keep answering.
    #[test]
    fn undeclared_array_check_is_an_error_and_the_session_survives() {
        let d = Daemon::new(None);
        let s = open_source(&d, STDIO_OWNER, "program t\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n");
        let reply = |line: String| json::parse(&d.handle_line(STDIO_OWNER, &line).text).unwrap();
        let bad = reply(format!("{{\"id\":2,\"verb\":\"check\",\"session\":{s}}}"));
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        let message = bad.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
        assert!(message.is_some_and(|m| m.contains("`a` is subscripted")), "{message:?}");
        let ok = reply(format!("{{\"id\":3,\"verb\":\"analyze\",\"session\":{s}}}"));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("loops").and_then(Json::as_u64), Some(1));
    }

    /// A scalar bound to an array formal.
    const SCALAR_TO_ARRAY_FORMAL: &str = "program t\nx = 1.0\ncall f(x)\nend\n\
                                          subroutine f(a)\nreal a(10)\na(1) = 2.0\nend\n";

    /// The same bad call inside a `PARALLEL DO`, checked with two threads.
    /// A checked run executes every `PARALLEL DO` on the calling thread,
    /// so it panics there, inside the loop's chunk.
    const SCALAR_TO_ARRAY_FORMAL_IN_PARALLEL_DO: &str =
        "program t\nx = 1.0\nparallel do i = 1, 4\ncall f(x)\nenddo\nend\n\
         subroutine f(a)\nreal a(10)\na(1) = 2.0\nend\n";

    #[test]
    fn panicking_request_retires_its_session_and_the_daemon_keeps_serving() {
        for (src, threads) in [
            (SCALAR_TO_ARRAY_FORMAL, ""),
            (SCALAR_TO_ARRAY_FORMAL_IN_PARALLEL_DO, ",\"threads\":2"),
        ] {
            let d = Arc::new(Daemon::new(None));
            let good = open(&d, STDIO_OWNER);
            let bad = open_source(&d, STDIO_OWNER, src);
            let reply =
                |line: String| json::parse(&d.handle_line(STDIO_OWNER, &line).text).unwrap();
            let code = |v: &Json| {
                v.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            // The check runs on its own thread under a deadline, so a
            // request that wedges fails the test instead of hanging it.
            let check = format!("{{\"id\":3,\"verb\":\"check\",\"session\":{bad}{threads}}}");
            let (tx, rx) = std::sync::mpsc::channel();
            let daemon = Arc::clone(&d);
            let request = std::thread::spawn(move || {
                tx.send(daemon.handle_line(STDIO_OWNER, &check).text).unwrap()
            });
            let text = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("check{threads}: no reply within 60 s"));
            request.join().unwrap();
            let panicked = json::parse(&text).unwrap();
            assert_eq!(panicked.get("ok").and_then(Json::as_bool), Some(false), "{panicked:?}");
            assert_eq!(code(&panicked).as_deref(), Some("internal_error"));
            let message =
                panicked.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
            assert!(message.is_some_and(|m| !m.is_empty()), "{panicked:?}");
            // The good session keeps answering; the bad one is gone.
            let ok = reply(format!("{{\"id\":4,\"verb\":\"analyze\",\"session\":{good}}}"));
            assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok:?}");
            assert_eq!(ok.get("loops").and_then(Json::as_u64), Some(1));
            let gone = reply(format!("{{\"id\":5,\"verb\":\"analyze\",\"session\":{bad}}}"));
            assert_eq!(code(&gone).as_deref(), Some("no_such_session"));
            assert_eq!(d.session_count(), 1);
            let bye = reply("{\"id\":6,\"verb\":\"shutdown\"}".to_string());
            assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true), "{bye:?}");
        }
    }

    #[test]
    fn request_id_is_echoed_verbatim() {
        let d = Daemon::new(None);
        let resp = d.handle_line(0, "{\"id\":\"req-17\",\"verb\":\"nope\"}");
        let v = json::parse(&resp.text).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("req-17"));
    }

    #[test]
    fn open_analyze_close_round_trip() {
        let d = Daemon::new(None);
        let s = open(&d, STDIO_OWNER);
        let resp = d.handle_line(
            STDIO_OWNER,
            &format!("{{\"id\":2,\"verb\":\"analyze\",\"session\":{s}}}"),
        );
        let v = json::parse(&resp.text).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.text);
        assert_eq!(v.get("loops").and_then(Json::as_u64), Some(1));
        let resp =
            d.handle_line(STDIO_OWNER, &format!("{{\"id\":3,\"verb\":\"close\",\"session\":{s}}}"));
        let v = json::parse(&resp.text).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(d.session_count(), 0);
    }

    #[test]
    fn suggest_verb_ranks_nests_and_leaves_session_untouched() {
        let d = Daemon::new(None);
        let hot = "\
          program hot\n\
          integer i\n\
          real a(50000)\n\
          do 10 i = 1, 50000\n\
          a(i) = a(i) + 1.0\n\
       10 continue\n\
          end\n";
        let req = Json::obj(vec![
            ("id", Json::int(1)),
            ("verb", Json::str("open")),
            ("source", Json::str(hot)),
        ])
        .to_string_compact();
        let v = json::parse(&d.handle_line(STDIO_OWNER, &req).text).unwrap();
        let s = v.get("session").and_then(Json::as_u64).unwrap();
        let resp = d.handle_line(
            STDIO_OWNER,
            &format!("{{\"id\":2,\"verb\":\"suggest\",\"session\":{s}}}"),
        );
        let v = json::parse(&resp.text).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.text);
        let nests = match v.get("nests") {
            Some(Json::Arr(n)) => n,
            other => panic!("nests must be an array, got {other:?}"),
        };
        assert_eq!(nests.len(), 1);
        let n = &nests[0];
        assert_eq!(n.get("safe").and_then(Json::as_bool), Some(true));
        assert_eq!(n.get("plan").and_then(Json::as_str), Some("parallelize"));
        assert!(n.get("predicted_speedup").and_then(Json::as_f64).unwrap() > 1.0);
        // Advisory only: a follow-up undo has nothing to undo.
        let resp = d.handle_line(
            STDIO_OWNER,
            &format!("{{\"id\":3,\"verb\":\"undo\",\"session\":{s}}}"),
        );
        let v = json::parse(&resp.text).unwrap();
        assert_eq!(v.get("applied").and_then(Json::as_bool), Some(false));
        // Nor does it touch the redo history: transform, undo, suggest,
        // then redo re-applies the transform.
        let header = Ped::open(hot).unwrap().loops(0)[0].0;
        let reply = |line: String| json::parse(&d.handle_line(STDIO_OWNER, &line).text).unwrap();
        let t = reply(format!(
            "{{\"id\":4,\"verb\":\"transform\",\"session\":{s},\"unit\":\"hot\",\
             \"target\":{},\"xform\":\"parallelize\"}}",
            header.0
        ));
        assert_eq!(t.get("ok").and_then(Json::as_bool), Some(true), "{t:?}");
        for (id, verb) in [(5, "undo"), (6, "suggest")] {
            let v = reply(format!("{{\"id\":{id},\"verb\":\"{verb}\",\"session\":{s}}}"));
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{verb}: {v:?}");
        }
        let v = reply(format!("{{\"id\":7,\"verb\":\"redo\",\"session\":{s}}}"));
        assert_eq!(v.get("applied").and_then(Json::as_bool), Some(true), "{v:?}");
    }

    #[test]
    fn close_owner_is_scoped_to_that_owner() {
        let d = Daemon::new(None);
        let s1 = open(&d, 1);
        let _s2 = open(&d, 2);
        assert_eq!(d.session_count(), 2);
        assert_eq!(d.close_owner(1), 1);
        assert_eq!(d.session_count(), 1);
        // Owner 1's session is gone; owner 2's still serves.
        let resp = d.handle_line(
            2,
            &format!("{{\"id\":4,\"verb\":\"analyze\",\"session\":{s1}}}"),
        );
        let v = json::parse(&resp.text).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    }
}
