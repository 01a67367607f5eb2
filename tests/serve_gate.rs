//! Replay + robustness gate for `mx-serve`.
//!
//! One `#[test]` on purpose, mirroring `tests/obs_gate.rs`: the obs
//! registry is process-global, so the reconciliation phase must not
//! race other serving runs in the same binary. The phases:
//!
//! 1. **Byte replay** — the same scripted trace against the same store
//!    produces byte-identical transcripts (and an identical
//!    [`RunReport`]) at every `mx_par::install` width in {1, 2, 8} and
//!    across reruns with a fresh [`Server`] each time.
//! 2. **Chaos sweep** — `ConnFaultPlan::uniform(rate, seed)` for rates
//!    {0.0, 0.1, 0.3} × the gate seeds: no panics, the accounting
//!    identity holds, nothing is dropped without a response. Rate 0.0
//!    is byte-identical to `ConnFaultPlan::none()`, and within a
//!    faulted run every unfaulted or dribbled connection still gets
//!    byte-identical responses — dribbling delivers the same bytes at
//!    the same instants, so the server must not be able to tell.
//! 3. **Saturation** — a burst beyond `workers + queue_capacity`
//!    sheds with `503` + `Retry-After`, while `/healthz` (served from
//!    the serial loop, never queued) still answers `200`.
//! 4. **Obs reconciliation** — at every thread count the `serve.*`
//!    counters equal the report fields and the identity
//!    `served + errored + shed + evicted == accepted` holds on both
//!    sides, with all four outcome classes exercised.

use mx_analysis::store::StudyStoreExt;
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mx_delta::{full_recompute, generate_events, run_incremental, EventStreamConfig, WorldState};
use mx_infer::Pipeline;
use mx_net::{ConnFault, ConnFaultPlan};
use mx_obs::names;
use mx_serve::{apply_chaos, ClientConn, CloseReason, RunReport, Server, ServerConfig, Trace};
use mx_store::StoreReader;

const SEEDS: &[u64] = &[1, 7, 42];
const THREADS: &[usize] = &[1, 2, 8];
const RATES: &[f64] = &[0.0, 0.1, 0.3];

fn build_store(seed: u64) -> Vec<u8> {
    let study = Study::generate(ScenarioConfig::small(seed));
    study
        .write_store(
            Dataset::Alexa,
            &Pipeline::priority_based(provider_knowledge(10)),
            &company_map(),
        )
        .expect("serialize study")
}

fn run(reader: &StoreReader, cfg: ServerConfig, trace: &Trace) -> RunReport {
    let mut server = Server::new(reader, cfg);
    server.run(trace)
}

/// Wide limits: nothing sheds, nothing is refused, deadlines only fire
/// for streams that genuinely stall. The replay phases use this so the
/// only variable under test is determinism.
fn generous() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_capacity: 1024,
        max_conns: 1024,
        read_deadline_ms: 100,
        idle_deadline_ms: 250,
        service_ms: 10,
        retry_after_secs: 1,
    }
}

fn conn_of(id: u64, opened_at_ms: u64, gap_ms: u64, reqs: &[String]) -> ClientConn {
    let bytes: Vec<&[u8]> = reqs.iter().map(|r| r.as_bytes()).collect();
    ClientConn::scripted(id, opened_at_ms, gap_ms, &bytes)
}

fn get(target: &str) -> String {
    format!("GET {target} HTTP/1.1\r\n\r\n")
}

fn get_close(target: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n")
}

/// A workload touching every endpoint: cache hits and misses, a 404,
/// a HEAD, a pipelined double request, and one malformed escape that
/// must close with a clean 400.
fn workload(reader: &StoreReader) -> Trace {
    let last = reader.epoch_count().saturating_sub(1);
    let mut domains: Vec<String> = Vec::new();
    reader
        .for_each_row(0, |name, _| {
            if domains.len() < 4 {
                domains.push(name.to_string());
            }
            Ok(())
        })
        .expect("scan epoch 0");
    let d0 = domains
        .first()
        .cloned()
        .unwrap_or_else(|| "missing.test".to_string());
    let d1 = domains.get(1).cloned().unwrap_or_else(|| d0.clone());
    let provider = reader
        .providers()
        .first()
        .map(|p| p.replace(' ', "%20"))
        .unwrap_or_else(|| "Google".to_string());

    Trace::new()
        .with(conn_of(
            0,
            0,
            30,
            &[
                get("/healthz"),
                get(&format!("/lookup?domain={d0}&epoch={last}")),
                // Identical target: must come off the caches with the
                // exact bytes of the miss path.
                get(&format!("/lookup?domain={d0}&epoch={last}")),
                get_close("/lookup?domain=no-such-domain.test"),
            ],
        ))
        .with(conn_of(
            1,
            7,
            30,
            &[
                get("/market?epoch=0"),
                get("/market?epoch=0&top=3"),
                get_close(&format!("/market?epoch={last}")),
            ],
        ))
        .with(conn_of(
            2,
            14,
            30,
            &[
                get("/series?credit=Google&credit=Microsoft"),
                get_close(&format!("/churn?from=0&to={last}")),
            ],
        ))
        .with(conn_of(
            3,
            21,
            30,
            &[
                get(&format!("/providers/{provider}/domains?epoch={last}")),
                get_close(&format!("/epochs/0..{last}/diff")),
            ],
        ))
        .with(conn_of(
            4,
            28,
            30,
            &[
                get(&format!("/lookup?domain={d1}")),
                get("/market?epoch=0"),
                get("/nope"),
                format!("HEAD /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"),
            ],
        ))
        .with(conn_of(
            5,
            35,
            30,
            // Two requests pipelined into one burst.
            &[format!(
                "{}{}",
                get("/healthz"),
                get_close(&format!("/market?epoch={last}"))
            )],
        ))
        .with(conn_of(
            6,
            42,
            30,
            &[get("/lookup?domain=%zz")], // bad escape: 400 + close
        ))
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Phase 1: byte-identical replay across thread counts and reruns.
fn replay_identical(reader: &StoreReader, seed: u64) {
    let trace = workload(reader);
    let mut runs = Vec::new();
    for &n in THREADS {
        runs.push((n, mx_par::install(n, || run(reader, generous(), &trace))));
    }
    let (_, base) = runs.first().expect("at least one thread count");
    assert!(base.reconciles(), "seed {seed}: accounting identity");
    assert_eq!(base.dropped_without_response, 0, "seed {seed}: drain");
    assert!(base.served > 0, "seed {seed}: workload must serve 2xx");
    assert!(base.errored > 0, "seed {seed}: workload must include 4xx");
    assert_eq!(base.shed, 0, "seed {seed}: generous config never sheds");
    for (n, rep) in &runs {
        assert_eq!(
            rep, base,
            "seed {seed}: run diverges at {n} threads (bytes: {} vs {})",
            rep.all_bytes().len(),
            base.all_bytes().len()
        );
    }
    // Fresh server, repeated at the widest width: no hidden state.
    let again = mx_par::install(8, || run(reader, generous(), &trace));
    assert_eq!(&again, base, "seed {seed}: rerun diverges");
    // The malformed-escape connection closed with a clean 400.
    let bad = base
        .transcripts
        .iter()
        .find(|t| t.id == 6)
        .expect("conn 6 transcript");
    assert_eq!(bad.statuses, vec![400], "seed {seed}: bad escape status");
    assert_eq!(bad.close, CloseReason::ParseFailed, "seed {seed}");
}

/// Phase 2: chaos sweep. Returns how many connections actually
/// faulted, so the caller can assert the sweep was not vacuous.
fn chaos_sweep(reader: &StoreReader, seed: u64) -> usize {
    let trace = workload(reader);
    assert_eq!(
        apply_chaos(&trace, &ConnFaultPlan::none()),
        trace,
        "seed {seed}: none() must be the identity rewrite"
    );
    let clean = run(reader, generous(), &trace);
    let mut fired = 0usize;
    for &rate in RATES {
        let plan = ConnFaultPlan::uniform(rate, seed);
        let chaotic = apply_chaos(&trace, &plan);
        let rep = run(reader, generous(), &chaotic);
        assert!(rep.reconciles(), "seed {seed} rate {rate}: identity");
        assert_eq!(
            rep.dropped_without_response, 0,
            "seed {seed} rate {rate}: drain under chaos"
        );
        if rate == 0.0 {
            assert_eq!(
                rep, clean,
                "seed {seed}: rate-0 plan must match ConnFaultPlan::none()"
            );
        }
        for (tc, tb) in rep.transcripts.iter().zip(&clean.transcripts) {
            match plan.conn_fault(tc.id) {
                // Unfaulted and dribbled connections see the same
                // bytes at the same instants; responses must match
                // byte for byte even while other connections misbehave.
                None => {
                    assert_eq!(tc, tb, "seed {seed} rate {rate}: unfaulted conn {}", tc.id);
                }
                Some(ConnFault::Dribble) => {
                    fired += 1;
                    assert_eq!(
                        tc.bytes(), tb.bytes(),
                        "seed {seed} rate {rate}: dribbled conn {} bytes",
                        tc.id
                    );
                    assert_eq!(tc.statuses, tb.statuses, "seed {seed} rate {rate}");
                }
                Some(ConnFault::Garbage) => {
                    fired += 1;
                    // Junk before the request line: a clean 400, never
                    // a panic or a hang.
                    assert_eq!(
                        tc.statuses.first(),
                        Some(&400),
                        "seed {seed} rate {rate}: garbage conn {} must 400",
                        tc.id
                    );
                    assert_eq!(tc.close, CloseReason::ParseFailed);
                }
                Some(ConnFault::Disconnect) | Some(ConnFault::Stall) => {
                    fired += 1;
                    // A remnant stream must be reaped by a deadline,
                    // not linger: the close reason is always decisive.
                    assert!(
                        matches!(
                            tc.close,
                            CloseReason::DeadlineEvicted
                                | CloseReason::IdleReaped
                                | CloseReason::ClientDone
                                | CloseReason::ParseFailed
                        ),
                        "seed {seed} rate {rate}: conn {} close {:?}",
                        tc.id,
                        tc.close
                    );
                }
            }
        }
        // Chaos runs still terminate in bounded simulated time.
        assert!(
            rep.end_ms < 10_000,
            "seed {seed} rate {rate}: run did not settle ({} ms)",
            rep.end_ms
        );
    }
    fired
}

/// Phase 3: a burst beyond the queue sheds with Retry-After while
/// /healthz still answers.
fn saturation(reader: &StoreReader, seed: u64) {
    let tight = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        max_conns: 64,
        read_deadline_ms: 500,
        idle_deadline_ms: 500,
        service_ms: 50,
        retry_after_secs: 1,
    };
    let mut trace = Trace::new();
    for i in 0..6u64 {
        trace = trace.with(conn_of(i, 0, 0, &[get_close("/market?epoch=0")]));
    }
    // Arrives while every worker slot and queue seat is taken.
    trace = trace.with(conn_of(50, 1, 0, &[get_close("/healthz")]));
    let rep = run(reader, tight, &trace);
    assert!(rep.reconciles(), "seed {seed}: saturation identity");
    assert_eq!(rep.dropped_without_response, 0, "seed {seed}");
    assert!(
        rep.shed > 0,
        "seed {seed}: burst of 6 against workers=1+queue=1 must shed"
    );
    let health = rep
        .transcripts
        .iter()
        .find(|t| t.id == 50)
        .expect("healthz transcript");
    assert_eq!(
        health.statuses,
        vec![200],
        "seed {seed}: /healthz must answer while saturated"
    );
    assert!(contains(&health.bytes(), b"\"epochs\""), "seed {seed}");
    let shed = rep
        .transcripts
        .iter()
        .find(|t| t.statuses.contains(&503))
        .expect("a shed transcript");
    assert!(
        contains(&shed.bytes(), b"Retry-After: 1"),
        "seed {seed}: shed response must advertise Retry-After"
    );
    assert!(contains(&shed.bytes(), b"overloaded"), "seed {seed}");
}

/// A trace engineered so all four request outcomes are nonzero under a
/// tight config: served (workload), errored (404s/bad escape), shed
/// (same-instant burst) and evicted (a slowloris remnant).
fn stress_trace(reader: &StoreReader) -> Trace {
    let mut trace = workload(reader);
    for i in 0..8u64 {
        trace = trace.with(conn_of(
            100 + i,
            0,
            0,
            &[get_close("/churn?from=0&to=1")],
        ));
    }
    // Partial request line, then silence: the read deadline evicts it.
    trace = trace.with(ClientConn::scripted(200, 0, 0, &[b"GET /heal"]));
    trace
}

/// Phase 4: serve.* counters reconcile with the report at every
/// thread count.
fn obs_reconciliation(reader: &StoreReader) {
    let tight = ServerConfig {
        workers: 2,
        queue_capacity: 2,
        max_conns: 64,
        read_deadline_ms: 100,
        idle_deadline_ms: 250,
        service_ms: 10,
        retry_after_secs: 1,
    };
    let trace = stress_trace(reader);
    mx_obs::set_enabled(true);
    for &n in THREADS {
        mx_obs::reset();
        let rep = mx_par::install(n, || run(reader, tight.clone(), &trace));
        let counter = |name: &str| mx_obs::metrics::counter_value(name);
        assert!(rep.reconciles(), "{n} threads: report identity");
        assert_eq!(rep.dropped_without_response, 0, "{n} threads");
        // Every outcome class is exercised, so the reconciliation is
        // not trivially zero.
        assert!(rep.served > 0, "{n} threads: served");
        assert!(rep.errored > 0, "{n} threads: errored");
        assert!(rep.shed > 0, "{n} threads: shed");
        assert!(rep.evicted > 0, "{n} threads: evicted");
        assert_eq!(
            counter(names::SERVE_REQS_ACCEPTED),
            rep.accepted,
            "{n} threads: accepted counter"
        );
        assert_eq!(counter(names::SERVE_REQS_SERVED), rep.served, "{n} threads");
        assert_eq!(
            counter(names::SERVE_REQS_ERRORED),
            rep.errored,
            "{n} threads"
        );
        assert_eq!(counter(names::SERVE_REQS_SHED), rep.shed, "{n} threads");
        assert_eq!(
            counter(names::SERVE_REQS_EVICTED),
            rep.evicted,
            "{n} threads"
        );
        assert_eq!(
            counter(names::SERVE_CONNS_ACCEPTED),
            rep.conns_accepted,
            "{n} threads"
        );
        assert_eq!(
            counter(names::SERVE_CONNS_REFUSED),
            rep.conns_refused,
            "{n} threads"
        );
        assert_eq!(
            counter(names::SERVE_REQS_ACCEPTED),
            counter(names::SERVE_REQS_SERVED)
                + counter(names::SERVE_REQS_ERRORED)
                + counter(names::SERVE_REQS_SHED)
                + counter(names::SERVE_REQS_EVICTED),
            "{n} threads: counter-side identity"
        );
    }
    mx_obs::reset();
    mx_obs::set_enabled(false);
}

fn get_inm(target: &str, tag: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nIf-None-Match: {tag}\r\n\r\n")
}

/// Count occurrences of `needle` in `haystack`.
fn count(haystack: &[u8], needle: &[u8]) -> usize {
    haystack.windows(needle.len()).filter(|w| *w == needle).count()
}

/// Phase 5: conditional requests. Every cacheable 200 carries the
/// strong store etag; `If-None-Match` with the current tag is a 304
/// hit answered from the serial loop, a stale tag is a miss that
/// re-renders in full, and appending delta epochs to the store changes
/// the tag so old validators stop matching.
fn conditional_requests() {
    let initial = WorldState::seeded(5, 48);
    let log = generate_events(
        &initial,
        &EventStreamConfig {
            seed: 5,
            batches: 1,
            churn: 0.10,
            adds_per_batch: 1,
        },
    );
    let base = full_recompute(&initial, &[]).expect("base store");
    let (grown, _) = run_incremental(&initial, &log).expect("grown store");

    let reader = StoreReader::open(&base).expect("open base store");
    let tag = mx_serve::etag_value(mx_serve::store_etag(&reader));
    let stale = "\"mx-0000000000000000\"";
    let mut domain = String::new();
    reader
        .for_each_row(0, |name, _| {
            if domain.is_empty() {
                domain = name.to_string();
            }
            Ok(())
        })
        .expect("scan base epoch");
    let lookup = format!("/lookup?domain={domain}&epoch=0");

    let trace = Trace::new()
        .with(conn_of(
            0,
            0,
            30,
            &[
                get("/market?epoch=0"),                      // 200 + ETag
                get_inm("/market?epoch=0", &tag),            // hit: 304
                get_inm("/market?epoch=0", stale),           // miss: full 200
                get_inm("/market?epoch=0", &format!("W/{tag}")), // weak compare: 304
                get_inm("/market?epoch=0", &format!("{stale}, {tag}")), // list: 304
                get_close_inm("/market?epoch=0", "*"),       // wildcard: 304
            ],
        ))
        .with(conn_of(
            1,
            5,
            30,
            &[
                get(&lookup),          // row-cache miss: 200 + ETag
                get(&lookup),          // row/json-cache hit: identical bytes
                get_inm(&lookup, &tag), // hit: 304
                // /healthz is live, never conditional: always a full 200.
                get_close_inm("/healthz", &tag),
            ],
        ));
    let rep = run(&reader, generous(), &trace);
    assert!(rep.reconciles(), "conditional: accounting identity");
    assert_eq!(rep.dropped_without_response, 0, "conditional: drain");
    let c0 = rep.transcripts.iter().find(|t| t.id == 0).expect("conn 0");
    assert_eq!(c0.statuses, vec![200, 304, 200, 304, 304, 304]);
    let c1 = rep.transcripts.iter().find(|t| t.id == 1).expect("conn 1");
    assert_eq!(c1.statuses, vec![200, 200, 304, 200]);
    // Every 200 on a cacheable endpoint and every 304 carries the tag;
    // the cache-hit 200 must be byte-identical to the miss, and the
    // healthz answer stays unconditional and tagless.
    let header = format!("ETag: {tag}\r\n");
    assert_eq!(count(&c0.bytes(), header.as_bytes()), 6, "conn 0 etags");
    assert_eq!(count(&c1.bytes(), header.as_bytes()), 3, "conn 1 etags");
    assert!(contains(&c0.bytes(), b"304 Not Modified\r\n"));
    assert!(contains(&c1.bytes(), b"\"status\":\"ok\""), "healthz served in full");

    // Appending delta epochs rewrites the digest sections: the etag
    // changes and the old validator stops revalidating.
    let reader2 = StoreReader::open(&grown).expect("open grown store");
    assert!(reader2.epoch_count() > reader.epoch_count(), "grown store appended");
    let tag2 = mx_serve::etag_value(mx_serve::store_etag(&reader2));
    assert_ne!(tag, tag2, "append must change the etag");
    let trace2 = Trace::new().with(conn_of(
        0,
        0,
        30,
        &[
            get_inm("/market?epoch=0", &tag),  // old tag: full 200 again
            get_close_inm("/market?epoch=0", &tag2), // new tag: 304
        ],
    ));
    let rep2 = run(&reader2, generous(), &trace2);
    let c = rep2.transcripts.first().expect("grown conn");
    assert_eq!(c.statuses, vec![200, 304], "after-append etag change");
    let header2 = format!("ETag: {tag2}\r\n");
    assert_eq!(count(&c.bytes(), header2.as_bytes()), 2, "grown etags");
    assert!(!contains(&c.bytes(), header.as_bytes()), "old etag gone");
}

fn get_close_inm(target: &str, tag: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nIf-None-Match: {tag}\r\nConnection: close\r\n\r\n")
}

#[test]
fn serve_gate() {
    let mut fired = 0usize;
    for &seed in SEEDS {
        let bytes = build_store(seed);
        let reader = StoreReader::open(&bytes).expect("open store");
        replay_identical(&reader, seed);
        fired += chaos_sweep(&reader, seed);
        saturation(&reader, seed);
    }
    assert!(
        fired > 0,
        "chaos sweep never fired a fault — rates or coin widths are broken"
    );
    let bytes = build_store(1);
    let reader = StoreReader::open(&bytes).expect("open store");
    obs_reconciliation(&reader);
    conditional_requests();
}
