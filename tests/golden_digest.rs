//! Cross-revision golden digests of the study's store files and of one
//! mx-serve replay.
//!
//! Determinism gates compare a run with itself; this test compares the
//! tree with a fixed reference written by an earlier revision. Most
//! lines of `tests/data/golden_digests.txt` hold the FNV-1a 64 digest of
//! one single-epoch `mx-store/2` file: one per dataset for
//! `ScenarioConfig::small` seeds {7, 42} at snapshots {0, 4, 8}, plus one
//! world run under the chaos gate's fault plan with DNS faults on. The
//! `serve` lines hold the length, digest, statuses and close reason of
//! each connection's response bytes in one replay over the small seed-7
//! Alexa store. A refactor that claims "same behaviour" (the `Name`
//! representation, the worldgen memo, the fault-coin key, the serve
//! write path) must leave every line unchanged.
//!
//! On a mismatch the failure message prints every computed line, so a
//! reviewed, intended output change can update the data file by hand.

use mx_analysis::observe::observe_world;
use mx_analysis::store::StudyStoreExt;
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mx_infer::{result_rows, Pipeline};
use mx_net::{DnsFaults, FaultPlan, SmtpFaults};
use mx_serve::transport::Segment;
use mx_serve::{ClientConn, Server, ServerConfig, Trace};
use mx_store::{StoreReader, StoreWriter};

const GOLDEN: &str = "tests/data/golden_digests.txt";
const SEEDS: &[u64] = &[7, 42];
const SNAPSHOTS: &[usize] = &[0, 4, 8];
const CHAOS_RATE: f64 = 0.3;

/// The fault plan of `tests/chaos_gate.rs` at total fault mass `rate`.
fn chaos_plan(rate: f64, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.seed = seed;
    plan.scan_failure_rate = rate / 2.0;
    plan.dns = DnsFaults {
        servfail_rate: rate / 6.0,
        timeout_rate: rate / 6.0,
        truncation_rate: rate / 12.0,
    };
    plan.smtp = SmtpFaults {
        drop_after_banner_rate: rate / 8.0,
        ehlo_tarpit_rate: rate / 8.0,
        tls_handshake_rate: rate / 8.0,
        garbled_banner_rate: rate / 8.0,
    };
    plan
}

/// One line per active dataset of snapshot `k`: `<tag> <dataset> <len> <fnv64>`.
fn digest_lines(study: &Study, k: usize, plan: Option<FaultPlan>, tag: &str) -> Vec<String> {
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let companies = company_map();
    let mut world = study.world_at(k);
    if let Some(plan) = plan {
        world.net.set_faults(plan);
    }
    let data = observe_world(&world);
    data.per_dataset
        .iter()
        .map(|(dataset, obs)| {
            let result = pipeline.run(obs);
            let mut writer = StoreWriter::new();
            writer
                .add_epoch(
                    &world.date.ym_label(),
                    result_rows(&result, &companies),
                    &obs.acquisition,
                )
                .expect("add epoch");
            let bytes = writer.finish();
            format!(
                "{tag} {} {} {:016x}",
                dataset.label(),
                bytes.len(),
                mx_cert::fnv1a(&bytes)
            )
        })
        .collect()
}

fn all_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for &seed in SEEDS {
        let study = Study::generate(ScenarioConfig::small(seed));
        for &k in SNAPSHOTS {
            lines.extend(digest_lines(
                &study,
                k,
                None,
                &format!("small seed={seed} snapshot={k}"),
            ));
        }
        if seed == SEEDS[0] {
            let k = SNAPSHOTS[SNAPSHOTS.len() - 1];
            let tag = format!("chaos rate={CHAOS_RATE} seed={seed} snapshot={k}");
            lines.extend(digest_lines(
                &study,
                k,
                Some(chaos_plan(CHAOS_RATE, seed)),
                &tag,
            ));
        }
    }
    lines
}

/// The committed golden lines that `keep` selects.
fn golden_lines(keep: impl Fn(&str) -> bool) -> Vec<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let text = std::fs::read_to_string(&path).expect("read golden digests");
    text.lines()
        .filter(|l| !l.is_empty() && keep(l))
        .map(str::to_string)
        .collect()
}

#[test]
fn store_digests_match_the_committed_golden_file() {
    let got = all_lines();
    let want = golden_lines(|l| !l.starts_with("serve "));
    assert!(
        got == want,
        "store digests drifted from {GOLDEN}; computed lines:\n{}",
        got.join("\n")
    );
}

const SERVE_SEED: u64 = 7;

/// Tight limits so one replay exercises every write path: two worker
/// slots plus two queue seats shed a six-request burst, and a cap of
/// two open connections refuses a third.
const SERVE_CONFIG: ServerConfig = ServerConfig {
    workers: 2,
    queue_capacity: 2,
    max_conns: 2,
    read_deadline_ms: 100,
    idle_deadline_ms: 250,
    service_ms: 10,
    retry_after_secs: 1,
};

fn get(target: &str, extra: &str) -> String {
    format!("GET {target} HTTP/1.1\r\n{extra}\r\n")
}

fn head(target: &str, extra: &str) -> String {
    format!("HEAD {target} HTTP/1.1\r\n{extra}\r\n")
}

/// A connection sending each `(at_ms, requests)` burst as one segment,
/// so the requests of a burst pipeline.
fn conn(id: u64, bursts: &[(u64, &[String])]) -> ClientConn {
    ClientConn {
        id,
        opened_at_ms: bursts.first().map_or(0, |b| b.0),
        segments: bursts
            .iter()
            .map(|(at_ms, reqs)| Segment {
                at_ms: *at_ms,
                bytes: reqs.concat().into_bytes(),
            })
            .collect(),
    }
}

/// The replay: out-of-order pipelined completion, JSON- and row-cache
/// hits, HEAD, `If-None-Match` -> 304, a shed burst and a refused
/// connection, all in one trace.
fn serve_trace(reader: &StoreReader) -> Trace {
    let last = reader.epoch_count().saturating_sub(1);
    let mut domain = String::new();
    reader
        .for_each_row(last, |name, _| {
            if domain.is_empty() {
                domain = name.to_string();
            }
            Ok(())
        })
        .expect("scan last epoch");
    let tag = mx_serve::etag_value(mx_serve::store_etag(reader));
    let close = "Connection: close\r\n";
    let missing = "no-such-domain.test";
    Trace::new()
        .with(conn(
            0,
            &[
                // A worker-bound miss, then a serial /healthz that is
                // ready first and must wait for it.
                (
                    0,
                    &[
                        get("/market?epoch=0", ""),
                        get("/healthz", ""),
                        head("/healthz", ""),
                    ],
                ),
                // A JSON-cache hit, a lookup miss and a 404 miss.
                (
                    30,
                    &[
                        get("/market?epoch=0", ""),
                        get(&format!("/lookup?domain={domain}"), ""),
                        get(&format!("/lookup?domain={missing}"), ""),
                    ],
                ),
                // Row-cache hits under new JSON keys, then a 304.
                (
                    60,
                    &[
                        get(&format!("/lookup?domain={domain}&epoch={last}"), ""),
                        get(&format!("/lookup?epoch={last}&domain={missing}"), ""),
                        get(
                            "/market?epoch=0",
                            &format!("If-None-Match: {tag}\r\n{close}"),
                        ),
                    ],
                ),
            ],
        ))
        // An in-flight miss, then a JSON-cache hit and a HEAD hit that
        // are ready at once but flush after it.
        .with(conn(
            1,
            &[(
                15,
                &[
                    get(&format!("/churn?from=0&to={last}"), ""),
                    get("/market?epoch=0", ""),
                    head("/market?epoch=0", close),
                ],
            )],
        ))
        // Six uncached requests at one instant: two are shed with 503.
        .with(conn(
            2,
            &[(
                40,
                &[
                    get("/market?epoch=1", ""),
                    get("/market?epoch=2", ""),
                    get("/market?epoch=3", ""),
                    get("/market?epoch=4", ""),
                    get("/market?epoch=5", ""),
                    get("/churn?from=0&to=1", close),
                ],
            )],
        ))
        // Arrives while two connections are open: refused at the cap.
        .with(conn(3, &[(41, &[get("/healthz", close)])]))
}

/// One line per transcript: `serve conn=<id> <len> <fnv64> <statuses> <close>`,
/// then one line of run totals.
fn serve_lines() -> Vec<String> {
    let study = Study::generate(ScenarioConfig::small(SERVE_SEED));
    let store = study
        .write_store(
            Dataset::Alexa,
            &Pipeline::priority_based(provider_knowledge(10)),
            &company_map(),
        )
        .expect("serialize study");
    let reader = StoreReader::open(&store).expect("open store");
    let report = Server::new(&reader, SERVE_CONFIG).run(&serve_trace(&reader));
    let mut lines: Vec<String> = report
        .transcripts
        .iter()
        .map(|t| {
            let bytes = t.bytes();
            let statuses: Vec<String> = t.statuses.iter().map(u16::to_string).collect();
            format!(
                "serve seed={SERVE_SEED} conn={} {} {:016x} {} {:?}",
                t.id,
                bytes.len(),
                mx_cert::fnv1a(&bytes),
                statuses.join(","),
                t.close
            )
        })
        .collect();
    lines.push(format!(
        "serve seed={SERVE_SEED} accepted={} served={} errored={} shed={} refused={}",
        report.accepted, report.served, report.errored, report.shed, report.conns_refused
    ));
    lines
}

#[test]
fn serve_transcripts_match_the_committed_golden_file() {
    let got = serve_lines();
    let want = golden_lines(|l| l.starts_with("serve "));
    assert!(
        got == want,
        "serve transcripts drifted from {GOLDEN}; computed lines:\n{}",
        got.join("\n")
    );
}
