//! The session section: closed-loop clients drive one in-process
//! [`Daemon`] through `handle_line`. Each episode runs the editing script
//! on one program:
//!
//! 1. open, analyze, suggest;
//! 2. transform `parallelize` on each nest whose suggested plan is a
//!    plain `parallelize`;
//! 3. analyze, then `check` on `threads` workers;
//! 4. undo all, analyze, redo all, analyze, close.
//!
//! Every reply must be `ok` and every `check` clean. Verification
//! episodes also compare the session's final graphs with a fresh
//! session's (`equiv::canonical_graphs`) before closing.

use crate::inputs::Input;
use crate::stats::median;
use crate::trace::{span, Ctx, Tracer};
use crate::{traced_turn, Budget, Tally};
use ped_core::equiv::canonical_graphs;
use ped_core::{Daemon, Ped};
use ped_obs::json::{self, Json};
use std::time::Instant;

/// Request verbs the script sends, in the order the per-verb metrics
/// list them.
pub const VERBS: [&str; 8] = [
    "open",
    "analyze",
    "suggest",
    "transform",
    "undo",
    "redo",
    "check",
    "close",
];

fn span_name(verb: &str) -> &'static str {
    match verb {
        "open" => "serve.open",
        "analyze" => "serve.analyze",
        "suggest" => "serve.suggest",
        "transform" => "serve.transform",
        "undo" => "serve.undo",
        "redo" => "serve.redo",
        "check" => "serve.check",
        "close" => "serve.close",
        _ => "serve.other",
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub verb: &'static str,
    pub us: f64,
    pub traced: bool,
    /// Completion time since the section started (s).
    pub done_s: f64,
}

/// Counts read from replies, summed over episodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub episodes: u64,
    pub graphs_built: u64,
    pub graphs_reused: u64,
    pub candidates: u64,
    pub pruned_unsafe: u64,
    pub pruned_unprofitable: u64,
    pub loops_checked: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.episodes += o.episodes;
        self.graphs_built += o.graphs_built;
        self.graphs_reused += o.graphs_reused;
        self.candidates += o.candidates;
        self.pruned_unsafe += o.pruned_unsafe;
        self.pruned_unprofitable += o.pruned_unprofitable;
        self.loops_checked += o.loops_checked;
    }
}

#[derive(Debug, Default)]
pub struct Serve {
    pub requests: Vec<Request>,
    pub wall_s: f64,
    pub counts: Counts,
    pub clients: usize,
    /// Graphs loaded from and persisted to the graph store per episode
    /// of the verification passes.
    pub store_loaded_per_episode: f64,
    pub store_persisted_per_episode: f64,
}

struct Client<'a> {
    daemon: &'a Daemon,
    start: Instant,
    owner: u64,
    tracer: Option<&'a Tracer>,
    threads: usize,
    traced: bool,
    next_id: u64,
    requests: Vec<Request>,
    tally: Tally,
}

fn field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

impl Serve {
    /// Requests completed per second: the median over the section's
    /// half-second windows, so a burst of outside load moves it less than
    /// a whole-run average.
    pub fn req_per_s(&self) -> f64 {
        const WINDOW_S: f64 = 0.5;
        let windows = (self.wall_s / WINDOW_S).floor() as usize;
        if windows == 0 {
            return self.requests.len() as f64 / self.wall_s;
        }
        let mut counts = vec![0usize; windows];
        for r in &self.requests {
            if let Some(c) = counts.get_mut((r.done_s / WINDOW_S) as usize) {
                *c += 1;
            }
        }
        median(
            &counts
                .iter()
                .map(|&c| c as f64 / WINDOW_S)
                .collect::<Vec<_>>(),
        )
    }
}

impl Client<'_> {
    /// Send one request; time only `handle_line`. A reply that is not
    /// `ok` fails the episode.
    fn req(
        &mut self,
        verb: &'static str,
        session: Option<u64>,
        extra: Vec<(&str, Json)>,
    ) -> Result<Json, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut fields = vec![("id", Json::int(id)), ("verb", Json::str(verb))];
        if let Some(s) = session {
            fields.push(("session", Json::int(s)));
        }
        fields.extend(extra);
        let line = Json::obj(fields).to_string_compact();
        let tracer = self.tracer.filter(|_| self.traced);
        let t0 = Instant::now();
        let resp = span(
            tracer,
            span_name(verb),
            Ctx::root(self.owner << 32 | id),
            |_| self.daemon.handle_line(self.owner, &line),
        );
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let done_s = self.start.elapsed().as_secs_f64();
        self.requests.push(Request {
            verb,
            us,
            traced: self.traced,
            done_s,
        });
        let v = json::parse(&resp.text).map_err(|e| format!("{verb}: reply is not JSON: {e}"))?;
        let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
        self.tally.check(ok, || format!("{verb}: {}", resp.text));
        if ok {
            Ok(v)
        } else {
            Err(format!("{verb} failed"))
        }
    }

    /// One script episode on `input`.
    fn episode(&mut self, input: &Input, verify: bool) -> Result<Counts, String> {
        let mut c = Counts {
            episodes: 1,
            ..Counts::default()
        };
        let v = self.req("open", None, vec![("source", Json::str(&input.source))])?;
        let s = field(&v, "session");
        let r = self.episode_body(s, input, verify, &mut c);
        // Close even after a failed step so no session leaks.
        self.req("close", Some(s), vec![])?;
        r.map(|()| c)
    }

    fn analyze(&mut self, s: u64, c: &mut Counts) -> Result<(), String> {
        let v = self.req("analyze", Some(s), vec![])?;
        c.graphs_built += field(&v, "built");
        c.graphs_reused += field(&v, "reused");
        Ok(())
    }

    fn episode_body(
        &mut self,
        s: u64,
        input: &Input,
        verify: bool,
        c: &mut Counts,
    ) -> Result<(), String> {
        self.analyze(s, c)?;
        let v = self.req("suggest", Some(s), vec![])?;
        c.candidates += field(&v, "candidates");
        c.pruned_unsafe += field(&v, "pruned_unsafe");
        c.pruned_unprofitable += field(&v, "pruned_unprofitable");
        let targets: Vec<(String, u64)> = v
            .get("nests")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|n| n.get("plan").and_then(Json::as_str) == Some("parallelize"))
            .filter_map(|n| {
                Some((
                    n.get("unit")?.as_str()?.to_string(),
                    n.get("header")?.as_u64()?,
                ))
            })
            .collect();
        for (unit, header) in &targets {
            self.req(
                "transform",
                Some(s),
                vec![
                    ("unit", Json::str(unit)),
                    ("target", Json::int(*header)),
                    ("xform", Json::str("parallelize")),
                ],
            )?;
        }
        self.analyze(s, c)?;
        let v = self.req(
            "check",
            Some(s),
            vec![("threads", Json::int(self.threads as u64))],
        )?;
        c.loops_checked += field(&v, "loops_checked");
        let clean = v.get("clean").and_then(Json::as_bool) == Some(true);
        self.tally.check(clean, || {
            format!(
                "{}: check reported races: {}",
                input.name,
                v.to_string_compact()
            )
        });
        for verb in ["undo", "redo"] {
            for _ in &targets {
                let v = self.req(verb, Some(s), vec![])?;
                let applied = v.get("applied").and_then(Json::as_bool) == Some(true);
                self.tally.check(applied, || {
                    format!("{}: {verb} applied nothing", input.name)
                });
            }
            self.analyze(s, c)?;
        }
        if !verify {
            return Ok(());
        }
        let (graphs, src) = self
            .daemon
            .with_ped(s, |ped| (canonical_graphs(ped), ped.source()))
            .ok_or("session vanished before close")?;
        let mut fresh = Ped::open(&src).map_err(|e| e.to_string())?;
        let same = canonical_graphs(&mut fresh) == graphs;
        self.tally.check(same, || {
            format!("{}: final graphs differ from a fresh session's", input.name)
        });
        Ok(())
    }
}

/// How a session section runs.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// Episodes until the budget runs out (at least `min_ops` per client);
    /// with a tracer, every other episode is traced.
    Timed(Budget, Option<&'a Tracer>),
    /// Exactly one untraced pass over each client's order, checking the
    /// final graphs of every episode against a fresh session's.
    Verify,
}

/// Run `orders.len()` concurrent clients, each walking its program order
/// episode by episode.
pub fn run(
    daemon: &Daemon,
    inputs: &[Input],
    orders: &[Vec<usize>],
    threads: usize,
    mode: Mode,
    tally: &mut Tally,
) -> Serve {
    let (budget, tracer, verify) = match mode {
        Mode::Timed(budget, tracer) => (budget, tracer, false),
        Mode::Verify => (Budget::secs(0.0, 0), None, true),
    };
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(c, order)| {
                scope.spawn(move || {
                    let mut cl = Client {
                        daemon,
                        start,
                        owner: c as u64 + 1,
                        tracer,
                        threads,
                        traced: false,
                        next_id: 0,
                        requests: Vec::new(),
                        tally: Tally::default(),
                    };
                    let mut counts = Counts::default();
                    let n = order.len();
                    let mut e = 0usize;
                    while if verify { e < n } else { budget.more(start, e) } {
                        let k = order[e % n];
                        cl.traced = tracer.is_some() && traced_turn(e, n);
                        match cl.episode(&inputs[k], verify) {
                            Ok(ec) => counts.add(&ec),
                            Err(err) => cl
                                .tally
                                .fail(format!("client {c}, {}: {err}", inputs[k].name)),
                        }
                        e += 1;
                    }
                    (cl.requests, counts, cl.tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Serve {
        wall_s: start.elapsed().as_secs_f64(),
        clients: orders.len(),
        ..Serve::default()
    };
    for (reqs, counts, t) in results {
        out.requests.extend(reqs);
        out.counts.add(&counts);
        tally.absorb(t);
    }
    out
}
