//! The robustness kernel: a deterministic event-loop server.
//!
//! The server executes a scripted [`Trace`] as a discrete-event
//! simulation over milliseconds. Every *decision* — accept or refuse a
//! connection, admit or shed a request, evict a slow loris, reap an
//! idle keep-alive — is made serially in the event loop, in a total
//! order defined by `(time, connection, sequence)`. Only the *handler
//! computation* (store queries + JSON rendering, pure functions) fans
//! out through [`mx_par::par_map`], whose order-preserving results are
//! folded back serially. That split is what buys the headline
//! guarantee: the same trace, config and fault plan produce
//! byte-identical transcripts and identical Stable obs counters at any
//! thread count.
//!
//! Backpressure and degradation ladder, outermost first:
//!
//! 1. **Connection cap** — beyond [`ServerConfig::max_conns`] open
//!    connections, new ones get an immediate 503 and close (counted
//!    `serve.conns.refused`).
//! 2. **Load shedding** — beyond `workers + queue_capacity` in-flight
//!    requests, new requests get 503 + `Retry-After` without touching
//!    a worker (counted `serve.reqs.shed`); the connection stays up.
//! 3. **Read deadline** — a partial request older than
//!    `read_deadline_ms` is answered 408 and the connection closed
//!    (counted `serve.reqs.evicted`): slowloris and mid-request
//!    disconnects cannot pin buffers.
//! 4. **Idle reaping** — a keep-alive connection with nothing buffered
//!    and nothing in flight is closed after `idle_deadline_ms`.
//! 5. **Graceful drain** — when the trace ends, in-flight work
//!    completes, every buffered partial is answered 408, and no
//!    connection closes with an unanswered accepted request
//!    ([`RunReport::dropped_without_response`] is always 0).
//!
//! `/healthz` bypasses the admission queue entirely and is answered
//! from the serial loop, so liveness probes succeed even while the
//! server sheds everything else.
//!
//! The accounting identity the obs gate re-proves at every thread
//! count: `served + errored + shed + evicted == accepted`.

use std::collections::BTreeMap;

use crate::cache::Caches;
use crate::http::{HttpError, Parsed, RequestParser};
use crate::render::Response;
use crate::router::{
    cacheable, head_only, json_cache_key, lookup_response, row_cache_probe, Endpoint, ServeState,
};
use crate::transport::{CloseReason, ConnTranscript, Part, Trace};
use crate::{Clock, SimMs};
use mx_obs::names;
use mx_store::StoreReader;

/// Tuning knobs for the robustness kernel. Everything is in simulated
/// milliseconds; nothing reads a host clock.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Service slots: requests being executed concurrently (the
    /// simulated counterpart of the `mx_par` pool width).
    pub workers: usize,
    /// Requests allowed to wait beyond the busy workers before the
    /// server sheds with 503.
    pub queue_capacity: usize,
    /// Maximum concurrently open connections; excess gets 503+close.
    pub max_conns: usize,
    /// A partial request older than this is answered 408 and evicted.
    pub read_deadline_ms: u64,
    /// An idle keep-alive connection older than this is reaped.
    pub idle_deadline_ms: u64,
    /// Simulated service time per request on a worker slot.
    pub service_ms: u64,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 8,
            max_conns: 64,
            read_deadline_ms: 100,
            idle_deadline_ms: 250,
            service_ms: 10,
            retry_after_secs: 1,
        }
    }
}

/// What one run did: per-connection transcripts plus the request
/// accounting the obs counters must reconcile with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// One transcript per scripted connection, in trace order.
    pub transcripts: Vec<ConnTranscript>,
    /// Requests the server committed to an outcome for.
    pub accepted: u64,
    /// 2xx responses, plus 304 conditional answers.
    pub served: u64,
    /// 4xx/5xx responses other than shed/evict.
    pub errored: u64,
    /// 503 load-shed responses.
    pub shed: u64,
    /// 408 deadline evictions.
    pub evicted: u64,
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections refused at the cap.
    pub conns_refused: u64,
    /// Accepted requests whose connection closed with no response
    /// written. The drain guarantee is that this is always zero.
    pub dropped_without_response: u64,
    /// Simulated time when the last event fired.
    pub end_ms: u64,
}

impl RunReport {
    /// The accounting identity: every accepted request ended in
    /// exactly one of the four outcomes.
    pub fn reconciles(&self) -> bool {
        self.served + self.errored + self.shed + self.evicted == self.accepted
    }

    /// All response bytes of all connections, in connection order —
    /// the byte-identity surface the replay gate compares.
    pub fn all_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.transcripts.iter().map(ConnTranscript::len).sum());
        for t in &self.transcripts {
            t.write_to(&mut out);
        }
        out
    }
}

/// Per-connection server-side state.
struct Conn {
    id: u64,
    /// Accepted and not yet closed.
    open: bool,
    /// Set once, when the connection is done.
    closed: Option<CloseReason>,
    /// Accept decision made (so a refused conn is not re-refused).
    accept_decided: bool,
    /// Stop feeding the parser (close-after response pending).
    reject_input: bool,
    parser: RequestParser,
    last_activity_ms: u64,
    /// Requests parsed so far == next request sequence number.
    seqs: u64,
    /// Next sequence to flush to the transcript.
    next_out: u64,
    /// Responses waiting on earlier sequences: seq -> (part, status,
    /// close reason after flushing, if any).
    pending_out: BTreeMap<u64, (Part, u16, Option<CloseReason>)>,
    /// Jobs dispatched and not yet completed.
    in_flight: usize,
    /// Flushed responses, in write order.
    parts: Vec<Part>,
    statuses: Vec<u16>,
}

impl Conn {
    fn new(id: u64) -> Conn {
        Conn {
            id,
            open: false,
            closed: None,
            accept_decided: false,
            reject_input: false,
            parser: RequestParser::new(),
            last_activity_ms: 0,
            seqs: 0,
            next_out: 0,
            pending_out: BTreeMap::new(),
            in_flight: 0,
            parts: Vec::new(),
            statuses: Vec::new(),
        }
    }
}

/// A dispatched request waiting for its worker slot to finish.
struct Job {
    conn: usize,
    seq: u64,
    req: crate::http::Request,
    arrived_ms: u64,
}

// Trace-event tags: every per-request event carries a 48-bit packed
// `(conn, seq, detail)` tag so a timeline can be grouped per request
// offline. 48 bits keeps the value exact through the JSON f64 number.

/// Outcome bit on cache-probe instants: hit.
const ARG_HIT: u64 = 1;
/// Outcome bit on cache-probe instants: miss.
const ARG_MISS: u64 = 2;

/// Stable small code per endpoint for event tags.
fn ep_code(ep: Endpoint) -> u64 {
    match ep {
        Endpoint::Other => 0,
        Endpoint::Lookup => 1,
        Endpoint::Market => 2,
        Endpoint::Series => 3,
        Endpoint::Churn => 4,
        Endpoint::Providers => 5,
        Endpoint::Diff => 6,
        Endpoint::Healthz => 7,
        Endpoint::Metrics => 8,
        Endpoint::DebugTrace => 9,
        Endpoint::DebugAttribution => 10,
    }
}

/// `(conn, seq, endpoint, outcome)` packed into 48 bits:
/// `conn[16] | seq[16] | ep[8] | outcome[8]`.
fn req_tag(conn_id: u64, seq: u64, ep: Endpoint, outcome: u64) -> u64 {
    ((conn_id & 0xFFFF) << 32) | ((seq & 0xFFFF) << 16) | ((ep_code(ep) & 0xFF) << 8)
        | (outcome & 0xFF)
}

/// `(conn, seq, status)` packed into 48 bits for write-flush instants:
/// `conn[16] | seq[16] | status[16]`.
fn write_tag(conn_id: u64, seq: u64, status: u16) -> u64 {
    ((conn_id & 0xFFFF) << 32) | ((seq & 0xFFFF) << 16) | u64::from(status)
}

/// The server: store state, caches, clock, and the robustness kernel.
pub struct Server<'a> {
    state: ServeState<'a>,
    cfg: ServerConfig,
    caches: Caches,
    clock: SimMs,
}

impl<'a> Server<'a> {
    /// A server over an open store with the given tuning.
    pub fn new(reader: &'a StoreReader<'a>, cfg: ServerConfig) -> Server<'a> {
        // Register the full metric/stage vocabulary up front so the
        // live `/metrics` body is a function of recorded values only,
        // never of which call sites happened to run first in this
        // process — the CI double-run byte-compare depends on it.
        mx_obs::names::preregister();
        Server {
            state: ServeState::new(reader),
            cfg,
            caches: Caches::new(),
            clock: SimMs::new(),
        }
    }

    /// The server's clock, advanced as simulated events process.
    /// Deadline decisions read time only through the [`Clock`] trait,
    /// so tests can observe exactly what the kernel saw.
    pub fn clock(&self) -> &dyn Clock {
        &self.clock
    }

    /// Execute a trace to completion (including graceful drain) and
    /// report everything that happened.
    ///
    /// A `Server` accumulates cache state across runs by design (warm
    /// caches are part of serving); for byte-identical replays use a
    /// fresh `Server` per run.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        let _span = mx_obs::stage!(names::STAGE_SERVE_TRACE).enter();
        Engine::new(self, trace).run()
    }
}

/// One run's mutable simulation state, separated from `Server` so the
/// borrow of the trace and the per-run event maps stay contained.
struct Engine<'s, 'a> {
    srv: &'s mut Server<'a>,
    conns: Vec<Conn>,
    /// (ms -> (conn, segment)) arrivals, in trace order within a tick.
    arrivals: BTreeMap<u64, Vec<(usize, usize)>>,
    segments: Vec<Vec<crate::transport::Segment>>,
    /// (ms -> jobs) worker completions.
    completions: BTreeMap<u64, Vec<Job>>,
    /// (ms -> conns) deadline/idle checks.
    checks: BTreeMap<u64, Vec<usize>>,
    /// Worker slots: when each becomes free.
    free_at: Vec<u64>,
    in_flight_total: usize,
    open_count: usize,
    report: RunReport,
}

impl<'s, 'a> Engine<'s, 'a> {
    fn new(srv: &'s mut Server<'a>, trace: &Trace) -> Engine<'s, 'a> {
        let mut arrivals: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
        let mut segments = Vec::new();
        let mut conns = Vec::new();
        for (ci, conn) in trace.conns.iter().enumerate() {
            for (si, seg) in conn.segments.iter().enumerate() {
                let at = seg.at_ms.max(conn.opened_at_ms);
                arrivals.entry(at).or_default().push((ci, si));
            }
            segments.push(conn.segments.clone());
            conns.push(Conn::new(conn.id));
        }
        let workers = srv.cfg.workers.max(1);
        Engine {
            srv,
            conns,
            arrivals,
            segments,
            completions: BTreeMap::new(),
            checks: BTreeMap::new(),
            free_at: vec![0; workers],
            in_flight_total: 0,
            open_count: 0,
            report: RunReport {
                transcripts: Vec::new(),
                accepted: 0,
                served: 0,
                errored: 0,
                shed: 0,
                evicted: 0,
                conns_accepted: 0,
                conns_refused: 0,
                dropped_without_response: 0,
                end_ms: 0,
            },
        }
    }

    fn run(mut self) -> RunReport {
        // Event loop: completions before arrivals before checks within
        // one tick, so a response never races the byte that follows it
        // and a byte arriving exactly at a deadline counts as progress.
        while let Some(now) = self.next_event_time() {
            self.srv.clock.advance_to(now);
            self.report.end_ms = now;
            if let Some(jobs) = self.completions.remove(&now) {
                self.complete_batch(jobs, now);
            }
            if let Some(list) = self.arrivals.remove(&now) {
                for (ci, si) in list {
                    self.deliver(ci, si, now);
                }
            }
            if let Some(list) = self.checks.remove(&now) {
                for ci in list {
                    self.check_deadlines(ci, now);
                }
            }
        }
        self.drain();
        self.finish()
    }

    fn next_event_time(&self) -> Option<u64> {
        let a = self.arrivals.keys().next().copied();
        let b = self.completions.keys().next().copied();
        let c = self.checks.keys().next().copied();
        [a, b, c].into_iter().flatten().min()
    }

    /// End-of-trace safety net. The deadline checks normally close
    /// every connection before the event maps empty; this sweep exists
    /// so a config with enormous deadlines still drains: every
    /// buffered partial is answered 408, everything else closes clean.
    fn drain(&mut self) {
        let end = self.report.end_ms;
        for ci in 0..self.conns.len() {
            let conn = match self.conns.get(ci) {
                Some(c) => c,
                None => continue,
            };
            if conn.closed.is_some() || !conn.open {
                continue;
            }
            if conn.parser.buffered() > 0 && !conn.reject_input {
                self.evict(ci, end);
            } else {
                self.close(ci, CloseReason::Drained);
            }
        }
    }

    fn finish(mut self) -> RunReport {
        for conn in &mut self.conns {
            // An accepted request with no flushed response would still
            // be sitting in pending_out or in flight here.
            let unanswered = conn.pending_out.len() + conn.in_flight;
            self.report.dropped_without_response += unanswered as u64;
            let close = conn.closed.unwrap_or(CloseReason::Drained);
            self.report.transcripts.push(ConnTranscript {
                id: conn.id,
                parts: std::mem::take(&mut conn.parts),
                statuses: std::mem::take(&mut conn.statuses),
                close,
            });
        }
        self.report
    }

    // ---- event handlers -------------------------------------------

    fn deliver(&mut self, ci: usize, si: usize, now: u64) {
        let bytes = match self.segments.get(ci).and_then(|s| s.get(si)) {
            Some(seg) => seg.bytes.clone(),
            None => return,
        };
        // Accept decision on first bytes.
        let Some(conn) = self.conns.get_mut(ci) else { return };
        if conn.closed.is_some() {
            return; // client talking to a closed socket
        }
        if !conn.accept_decided {
            conn.accept_decided = true;
            if self.open_count >= self.srv.cfg.max_conns {
                mx_obs::counter!(names::SERVE_CONNS_REFUSED).incr();
                self.report.conns_refused += 1;
                let resp = Response::shed(self.srv.cfg.retry_after_secs);
                let Some(conn) = self.conns.get_mut(ci) else { return };
                conn.parts.push(resp.part(false, false));
                conn.statuses.push(503);
                // A refused conn writes its 503 directly (no enqueue),
                // so mark the write here to keep the trace identity
                // `write instants == flushed statuses` exact.
                mx_obs::stage!(names::STAGE_SERVE_REQ_WRITE, names::STAGE_SERVE_REQ)
                    .instant(now, write_tag(conn.id, 0, 503));
                conn.closed = Some(CloseReason::Refused);
                return;
            }
            conn.open = true;
            self.open_count += 1;
            mx_obs::counter!(names::SERVE_CONNS_ACCEPTED).incr();
            self.report.conns_accepted += 1;
        }
        let Some(conn) = self.conns.get_mut(ci) else { return };
        if conn.reject_input || !conn.open {
            return;
        }
        conn.last_activity_ms = now;
        if let Err(e) = conn.parser.push(&bytes) {
            self.parse_fail(ci, e, now);
            return;
        }
        // Drain every complete pipelined request.
        loop {
            let Some(conn) = self.conns.get_mut(ci) else { return };
            if conn.reject_input {
                break;
            }
            match conn.parser.try_next() {
                Ok(Parsed::NeedMore) => break,
                Ok(Parsed::Request(req)) => {
                    let seq = conn.seqs;
                    conn.seqs += 1;
                    if !req.keep_alive {
                        conn.reject_input = true;
                    }
                    self.admit(ci, seq, req, now);
                }
                Err(e) => {
                    self.parse_fail(ci, e, now);
                    return;
                }
            }
        }
        self.schedule_check(ci, now);
    }

    /// Commit a parsed request to an outcome: serve from the serial
    /// loop (healthz, cache hits), shed, or dispatch to a worker.
    fn admit(&mut self, ci: usize, seq: u64, req: crate::http::Request, now: u64) {
        mx_obs::counter!(names::SERVE_REQS_ACCEPTED).incr();
        self.report.accepted += 1;
        let endpoint = Endpoint::of(&req.path);
        let conn_id = self.conns.get(ci).map(|c| c.id).unwrap_or(0);
        let tag = req_tag(conn_id, seq, endpoint, 0);
        // Parse finished the moment admit runs: a zero-length sim span
        // marks the request's arrival on the timeline.
        mx_obs::stage!(names::STAGE_SERVE_REQ_PARSE, names::STAGE_SERVE_REQ).span_sim(now, 0, tag);

        // Liveness never queues: answered serially, even saturated.
        if endpoint == Endpoint::Healthz {
            let resp = self.srv.state.healthz();
            self.record_outcome(&resp, endpoint, 0);
            self.queue_response(ci, seq, &resp, head_only(&req), !req.keep_alive, now);
            return;
        }

        // Introspection (`/metrics`, `/debug/*`) is answered from the
        // serial loop like healthz: the bodies snapshot global obs
        // state, which only the serial loop mutates, so rendering here
        // keeps them byte-deterministic — and observability must stay
        // reachable while the data plane sheds.
        if endpoint.is_introspection() {
            let h = self.srv.state.handle(&req);
            mx_obs::stage!(names::STAGE_SERVE_REQ_RENDER, names::STAGE_SERVE_REQ)
                .span_sim(now, 0, tag);
            self.record_outcome(&h.response, endpoint, 0);
            self.queue_response(ci, seq, &h.response, head_only(&req), !req.keep_alive, now);
            return;
        }

        // Conditional requests: a client revalidating with the current
        // etag is answered 304 from the serial loop, before either
        // cache tier and without touching a worker — cheaper than even
        // a cache hit, which is the point of `If-None-Match`.
        if self.srv.state.revalidates(&req) {
            let resp = Response::not_modified(self.srv.state.etag);
            self.record_outcome(&resp, endpoint, 0);
            self.queue_response(ci, seq, &resp, head_only(&req), !req.keep_alive, now);
            return;
        }

        // Tier two: whole rendered bodies.
        if let Some(key) = json_cache_key(&req) {
            if let Some(body) = self.srv.caches.json.get(&key) {
                mx_obs::counter_volatile!(names::SERVE_CACHE_JSON_HITS).incr();
                mx_obs::stage!(names::STAGE_SERVE_REQ_CACHE, names::STAGE_SERVE_REQ)
                    .instant(now, tag | ARG_HIT);
                let resp = Response {
                    status: 200,
                    body,
                    retry_after: None,
                    content_type: crate::render::CONTENT_TYPE_JSON,
                    etag: Some(self.srv.state.etag),
                };
                self.record_outcome(&resp, endpoint, 0);
                self.queue_response(ci, seq, &resp, head_only(&req), !req.keep_alive, now);
                return;
            }
            mx_obs::counter_volatile!(names::SERVE_CACHE_JSON_MISSES).incr();
            mx_obs::stage!(names::STAGE_SERVE_REQ_CACHE, names::STAGE_SERVE_REQ)
                .instant(now, tag | ARG_MISS);
        }

        // Tier one: rendered lookup rows (also caches 404 rows).
        if let Some((key, domain, epoch)) = row_cache_probe(&self.srv.state, &req) {
            if let Some(fragment) = self.srv.caches.rows.get(&key) {
                mx_obs::counter_volatile!(names::SERVE_CACHE_ROW_HITS).incr();
                mx_obs::stage!(names::STAGE_SERVE_REQ_CACHE, names::STAGE_SERVE_REQ)
                    .instant(now, tag | ARG_HIT);
                let mut resp = lookup_response(&domain, epoch, &fragment);
                if resp.status == 200 {
                    // The miss path got its etag from `handle`; the hot
                    // path must produce the same bytes.
                    resp.etag = Some(self.srv.state.etag);
                }
                self.record_outcome(&resp, endpoint, 0);
                self.queue_response(ci, seq, &resp, head_only(&req), !req.keep_alive, now);
                return;
            }
            mx_obs::counter_volatile!(names::SERVE_CACHE_ROW_MISSES).incr();
            mx_obs::stage!(names::STAGE_SERVE_REQ_CACHE, names::STAGE_SERVE_REQ)
                .instant(now, tag | ARG_MISS);
        }

        // Load shedding: bounded in-flight queue on the worker pool.
        let capacity = self.srv.cfg.workers.max(1) + self.srv.cfg.queue_capacity;
        if self.in_flight_total >= capacity {
            mx_obs::counter!(names::SERVE_REQS_SHED).incr();
            self.report.shed += 1;
            mx_obs::stage!(names::STAGE_SERVE_REQ_SHED, names::STAGE_SERVE_REQ).instant(now, tag);
            let resp = Response::shed(self.srv.cfg.retry_after_secs);
            self.queue_response(ci, seq, &resp, head_only(&req), !req.keep_alive, now);
            return;
        }

        // Dispatch: earliest-free worker slot, deterministic tie-break
        // by slot index.
        let slot = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let start = self.free_at.get(slot).copied().unwrap_or(now).max(now);
        let done_at = start + self.srv.cfg.service_ms.max(1);
        if let Some(t) = self.free_at.get_mut(slot) {
            *t = done_at;
        }
        self.in_flight_total += 1;
        if let Some(conn) = self.conns.get_mut(ci) {
            conn.in_flight += 1;
        }
        self.completions.entry(done_at).or_default().push(Job {
            conn: ci,
            seq,
            req,
            arrived_ms: now,
        });
    }

    /// Execute a completion batch: the only parallel section. Handlers
    /// are pure, `par_map` preserves order, and the fold-back below is
    /// serial in `(conn, seq)` order — so thread count cannot reorder
    /// anything observable.
    fn complete_batch(&mut self, mut jobs: Vec<Job>, now: u64) {
        jobs.sort_by_key(|j| (j.conn, j.seq));
        let state = self.srv.state;
        let handled = mx_par::par_map(&jobs, |job| state.handle(&job.req));
        for (job, h) in jobs.iter().zip(handled) {
            self.in_flight_total = self.in_flight_total.saturating_sub(1);
            if let Some(conn) = self.conns.get_mut(job.conn) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
            }
            if let Some((key, fragment)) = h.row_fragment {
                self.srv.caches.rows.insert(key, fragment);
            }
            if cacheable(&h.response) {
                if let Some(key) = json_cache_key(&job.req) {
                    self.srv.caches.json.insert(key, h.response.body.clone());
                }
            }
            let endpoint = Endpoint::of(&job.req.path);
            let conn_id = self.conns.get(job.conn).map(|c| c.id).unwrap_or(0);
            // The render span covers queue wait + service time on the
            // simulated clock: arrival to completion.
            mx_obs::stage!(names::STAGE_SERVE_REQ_RENDER, names::STAGE_SERVE_REQ).span_sim(
                job.arrived_ms,
                now.saturating_sub(job.arrived_ms),
                req_tag(conn_id, job.seq, endpoint, 0),
            );
            self.record_outcome(&h.response, endpoint, now.saturating_sub(job.arrived_ms));
            self.queue_response(
                job.conn,
                job.seq,
                &h.response,
                head_only(&job.req),
                !job.req.keep_alive,
                now,
            );
            self.schedule_check(job.conn, now);
        }
    }

    fn check_deadlines(&mut self, ci: usize, now: u64) {
        let Some(conn) = self.conns.get(ci) else { return };
        if conn.closed.is_some() || !conn.open {
            return;
        }
        let idle_for = now.saturating_sub(conn.last_activity_ms);
        let buffered = conn.parser.buffered();
        let busy = conn.in_flight > 0 || !conn.pending_out.is_empty();
        if buffered > 0 && !conn.reject_input && idle_for >= self.srv.cfg.read_deadline_ms {
            self.evict(ci, now);
            return;
        }
        if buffered == 0 && !busy && !conn.reject_input && idle_for >= self.srv.cfg.idle_deadline_ms
        {
            self.close(ci, CloseReason::IdleReaped);
            return;
        }
        // Not expired yet (or waiting on responses): re-arm.
        self.schedule_check(ci, now);
    }

    /// Arm the next deadline check for a connection: read deadline if a
    /// partial request is buffered, idle deadline otherwise.
    fn schedule_check(&mut self, ci: usize, now: u64) {
        let Some(conn) = self.conns.get(ci) else { return };
        if conn.closed.is_some() || !conn.open {
            return;
        }
        let horizon = if conn.parser.buffered() > 0 && !conn.reject_input {
            conn.last_activity_ms + self.srv.cfg.read_deadline_ms
        } else {
            conn.last_activity_ms + self.srv.cfg.idle_deadline_ms
        };
        let at = horizon.max(now.saturating_add(1));
        let slot = self.checks.entry(at).or_default();
        if !slot.contains(&ci) {
            slot.push(ci);
        }
    }

    // ---- terminal request outcomes --------------------------------

    fn parse_fail(&mut self, ci: usize, e: HttpError, now: u64) {
        // A terminal parse failure is an accepted-then-errored request:
        // the server committed to an outcome (the 4xx/5xx) for it.
        mx_obs::counter!(names::SERVE_REQS_ACCEPTED).incr();
        mx_obs::counter!(names::SERVE_REQS_ERRORED).incr();
        self.report.accepted += 1;
        self.report.errored += 1;
        let resp = Response::error(e.status(), &e.to_string());
        let seq = match self.conns.get_mut(ci) {
            Some(conn) => {
                conn.reject_input = true;
                let s = conn.seqs;
                conn.seqs += 1;
                s
            }
            None => return,
        };
        self.enqueue(ci, seq, &resp, false, Some(CloseReason::ParseFailed), now);
    }

    fn evict(&mut self, ci: usize, now: u64) {
        mx_obs::counter!(names::SERVE_REQS_ACCEPTED).incr();
        mx_obs::counter!(names::SERVE_REQS_EVICTED).incr();
        self.report.accepted += 1;
        self.report.evicted += 1;
        let resp = Response::error(408, "request timed out");
        let (seq, conn_id) = match self.conns.get_mut(ci) {
            Some(conn) => {
                conn.reject_input = true;
                let s = conn.seqs;
                conn.seqs += 1;
                (s, conn.id)
            }
            None => return,
        };
        mx_obs::stage!(names::STAGE_SERVE_REQ_EVICT, names::STAGE_SERVE_REQ)
            .instant(now, write_tag(conn_id, seq, 408));
        self.enqueue(ci, seq, &resp, false, Some(CloseReason::DeadlineEvicted), now);
    }

    /// Count the outcome of a rendered response and record latency.
    /// A 304 is a successful conditional answer, not an error.
    fn record_outcome(&mut self, resp: &Response, endpoint: Endpoint, latency_ms: u64) {
        if resp.status == 200 || resp.status == 304 {
            mx_obs::counter!(names::SERVE_REQS_SERVED).incr();
            self.report.served += 1;
        } else {
            mx_obs::counter!(names::SERVE_REQS_ERRORED).incr();
            self.report.errored += 1;
        }
        mx_obs::histogram!(endpoint.latency_metric(), names::SERVE_LATENCY_BOUNDS)
            .observe(latency_ms);
    }

    // ---- ordered response writing ---------------------------------

    fn queue_response(
        &mut self,
        ci: usize,
        seq: u64,
        resp: &Response,
        head: bool,
        close: bool,
        now: u64,
    ) {
        self.enqueue(ci, seq, resp, head, close.then_some(CloseReason::ClientDone), now);
    }

    /// Slot a response at its sequence number and flush every response
    /// that is now in order. Pipelining means a later request can
    /// finish first (cache hit, shed) — per-connection responses still
    /// go out strictly in request order. A `close` reason takes effect
    /// only when its response actually flushes, so earlier in-flight
    /// responses always land first.
    fn enqueue(
        &mut self,
        ci: usize,
        seq: u64,
        resp: &Response,
        head: bool,
        close: Option<CloseReason>,
        now: u64,
    ) {
        let Some(conn) = self.conns.get_mut(ci) else { return };
        if conn.closed.is_some() {
            return;
        }
        let part = resp.part(head, close.is_none());
        conn.pending_out.insert(seq, (part, resp.status, close));
        let mut closed_reason = None;
        while let Some((part, status, close)) = conn.pending_out.remove(&conn.next_out) {
            conn.parts.push(part);
            conn.statuses.push(status);
            // Mark the actual flush, not the enqueue: a reordered
            // pipelined response's write event fires when its bytes
            // hit the transcript.
            mx_obs::stage!(names::STAGE_SERVE_REQ_WRITE, names::STAGE_SERVE_REQ)
                .instant(now, write_tag(conn.id, conn.next_out, status));
            conn.next_out += 1;
            if let Some(reason) = close {
                closed_reason = Some(reason);
                break;
            }
        }
        if let Some(reason) = closed_reason {
            self.close(ci, reason);
        }
    }

    // ---- helpers --------------------------------------------------

    fn close(&mut self, ci: usize, reason: CloseReason) {
        let Some(conn) = self.conns.get_mut(ci) else { return };
        if conn.closed.is_none() {
            conn.closed = Some(reason);
            if conn.open {
                conn.open = false;
                self.open_count = self.open_count.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::http::Request;
    use crate::transport::{ClientConn, Segment};
    use mx_store::{RowIn, ShareIn, ShareSource, StoreWriter};

    fn store() -> Vec<u8> {
        let row = |name: &str, provider: &str| RowIn {
            name: name.into(),
            has_smtp: true,
            self_hosted: false,
            shares: vec![ShareIn {
                provider: provider.into(),
                company: Some(format!("{provider}-co")),
                weight: 1.0,
                source: ShareSource::MxRecord,
            }],
        };
        let acq = mx_acq::AcquisitionReport::default();
        let mut w = StoreWriter::new();
        let first = vec![row("a.test", "google"), row("b.test", "ms")];
        w.add_epoch("2017-06", first, &acq).unwrap();
        let second = vec![row("a.test", "ms"), row("c.test", "yandex")];
        w.add_epoch("2017-12", second, &acq).unwrap();
        w.finish()
    }

    fn conn(id: u64, bursts: &[(u64, &str)]) -> ClientConn {
        ClientConn {
            id,
            opened_at_ms: bursts.first().map_or(0, |b| b.0),
            segments: bursts
                .iter()
                .map(|(at_ms, raw)| Segment {
                    at_ms: *at_ms,
                    bytes: raw.as_bytes().to_vec(),
                })
                .collect(),
        }
    }

    fn parse(raw: &str) -> Request {
        let mut p = RequestParser::new();
        p.push(raw.as_bytes()).unwrap();
        match p.try_next().unwrap() {
            Parsed::Request(req) => req,
            Parsed::NeedMore => panic!("incomplete request {raw:?}"),
        }
    }

    /// The bytes a request gets when rendered on its own.
    fn encoded(state: &ServeState<'_>, raw: &str) -> Vec<u8> {
        let req = parse(raw);
        state
            .handle(&req)
            .response
            .encode(head_only(&req), req.keep_alive)
    }

    const MARKET: &str = "GET /market?epoch=0 HTTP/1.1\r\n\r\n";
    const CHURN: &str = "GET /churn?from=0&to=1 HTTP/1.1\r\n\r\n";
    const HEAD_MARKET_CLOSE: &str = "HEAD /market?epoch=0 HTTP/1.1\r\nConnection: close\r\n\r\n";

    #[test]
    fn market_hits_share_the_cached_body() {
        let bytes = store();
        let reader = StoreReader::open(&bytes).unwrap();
        let trace = Trace::new().with(conn(0, &[(0, MARKET), (20, MARKET), (40, MARKET)]));
        let report = Server::new(&reader, ServerConfig::default()).run(&trace);
        let t = report.transcripts.first().unwrap();
        assert_eq!(t.statuses, [200, 200, 200]);
        let bodies: Vec<&Arc<[u8]>> = t.parts.iter().filter_map(|p| p.body.as_ref()).collect();
        assert_eq!(bodies.len(), 3);
        // The miss and both hits write one allocation: zero copies.
        assert!(bodies.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));
    }

    #[test]
    fn pipelined_hit_flushes_after_the_in_flight_miss() {
        let bytes = store();
        let reader = StoreReader::open(&bytes).unwrap();
        let state = ServeState::new(&reader);
        let burst = format!("{CHURN}{MARKET}{HEAD_MARKET_CLOSE}");
        let trace = Trace::new()
            .with(conn(0, &[(0, MARKET)]))
            .with(conn(1, &[(20, &burst)]));
        let report = Server::new(&reader, ServerConfig::default()).run(&trace);
        let warm = report.transcripts.first().unwrap();
        let t = report.transcripts.get(1).unwrap();
        // The churn miss is in flight until 30 ms; the two hits are
        // ready at 20 ms and wait for it.
        assert_eq!(t.statuses, [200, 200, 200]);
        assert_eq!(t.close, CloseReason::ClientDone);
        let want = [CHURN, MARKET, HEAD_MARKET_CLOSE]
            .map(|raw| encoded(&state, raw))
            .concat();
        assert_eq!(t.bytes(), want);
        assert_eq!(t.len(), want.len());
        // The GET hit shares the body the first connection rendered;
        // the HEAD answer is a head-only part.
        let cached = warm.parts.first().and_then(|p| p.body.as_ref()).unwrap();
        let hit = t.parts.get(1).and_then(|p| p.body.as_ref()).unwrap();
        assert!(Arc::ptr_eq(cached, hit));
        assert_eq!(t.parts.get(2).map(|p| p.body.is_none()), Some(true));
        assert_eq!(report.all_bytes(), [warm.bytes(), t.bytes()].concat());
    }

    #[test]
    fn refused_connection_writes_one_shed_response() {
        let bytes = store();
        let reader = StoreReader::open(&bytes).unwrap();
        let cfg = ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        };
        let trace = Trace::new()
            .with(conn(0, &[(0, MARKET)]))
            .with(conn(1, &[(1, MARKET)]));
        let report = Server::new(&reader, cfg).run(&trace);
        assert_eq!(report.conns_refused, 1);
        let t = report.transcripts.get(1).unwrap();
        assert_eq!(t.statuses, [503]);
        assert_eq!(t.close, CloseReason::Refused);
        let shed = Response::shed(cfg.retry_after_secs);
        assert_eq!(t.bytes(), shed.encode(false, false));
    }
}
