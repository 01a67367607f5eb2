//! `serve-mixed`: a scripted mixed-endpoint trace replayed through
//! `Server::run` over a multi-epoch study-scale Alexa store.
//!
//! The endpoint mix is the one `bench_pipeline --serve` replays: three
//! lookups in eight, mixed with `/market`, `/churn`, `/series`,
//! `/providers/{p}/domains` and `/healthz`. Lookup keys follow a
//! Zipf-like popularity over the ~12k domains of the last epoch (far
//! more than the 512-entry row cache holds). Arrivals follow a
//! fixed sim-time schedule (open loop in sim time: one connection every
//! 4 ms, eight requests 4 ms apart, 2 requests/ms against 4 service
//! slots of 1 ms), so nothing is shed or evicted; host wall time
//! measures the processing cost.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

use mx_analysis::observe::observe_world;
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mx_infer::{result_rows, Pipeline};
use mx_obs::names;
use mx_rng::SmallRng;
use mx_serve::router::Endpoint;
use mx_serve::{ClientConn, Parsed, RequestParser, ServeState, Server, ServerConfig, Trace};
use mx_store::{StoreReader, StoreWriter};

use crate::prof::Recorder;
use crate::{alloc, median, percentile, Run};

/// Snapshots stored as epochs: first, middle and last of the study.
const EPOCHS: [usize; 3] = [0, 4, 8];
const REQS_PER_CONN: usize = 8;
const CONN_EVERY_MS: u64 = 4;
const GAP_MS: u64 = 4;
const REQUESTS: usize = 8192;

const CONFIG: ServerConfig = ServerConfig {
    workers: 4,
    queue_capacity: 1024,
    max_conns: 1024,
    read_deadline_ms: 100,
    idle_deadline_ms: 250,
    service_ms: 1,
    retry_after_secs: 1,
};

/// The Alexa dataset's store over [`EPOCHS`].
fn build_store(seed: u64) -> Vec<u8> {
    let study = Study::generate(ScenarioConfig::study(seed));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let companies = company_map();
    let mut w = StoreWriter::new();
    for k in EPOCHS {
        let mut world = study.world_at(k);
        world.targets.retain(|(ds, _)| *ds == Dataset::Alexa);
        let data = observe_world(&world);
        let obs = data
            .dataset(Dataset::Alexa)
            .expect("alexa is measured at every snapshot");
        let result = pipeline.run(obs);
        w.add_epoch(
            &world.date.ym_label(),
            result_rows(&result, &companies),
            &obs.acquisition,
        )
        .expect("unique rows encode");
    }
    w.finish()
}

/// Zipf exponent of lookup-key popularity. Breslau et al., "Web Caching
/// and Zipf-like Distributions: Evidence and Implications" (INFOCOM
/// 1999), measured 0.64–0.83 on web proxy traces; this takes 0.8.
const ZIPF_ALPHA: f64 = 0.8;

/// The request targets of the trace, in send order. The endpoint mix is
/// `bench_pipeline --serve`'s, request for request: in every eight,
/// three lookups at the last epoch, then `/market` (epochs cycled),
/// `/churn` first to last, the first provider's domains at the last
/// epoch, a two-credit `/series` and `/healthz`. Only the lookup keys
/// differ: the seed shuffles the domains of the last epoch into a
/// popularity order and the key of each lookup is drawn Zipf-like over
/// it, so the 512-row cache both hits and misses.
fn targets(seed: u64, reader: &StoreReader<'_>, total: usize) -> Vec<String> {
    let epochs = reader.epoch_count();
    let last = epochs - 1;
    let mut names: Vec<String> = Vec::new();
    reader
        .for_each_row(last, |name, _| {
            names.push(name.to_string());
            Ok(())
        })
        .expect("the last epoch iterates");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e);
    rng.shuffle(&mut names);
    // Cumulative popularity of rank r (0-based): sum of 1/(k+1)^alpha.
    let mut cdf: Vec<f64> = Vec::with_capacity(names.len());
    let mut acc = 0.0;
    for r in 0..names.len() {
        acc += ((r + 1) as f64).powf(-ZIPF_ALPHA);
        cdf.push(acc);
    }
    let provider = reader
        .providers()
        .first()
        .map(|p| p.replace(' ', "%20"))
        .expect("a study store names providers");
    (0..total)
        .map(|i| match i % 8 {
            0..=2 => {
                let u = rng.gen_f64() * acc;
                let r = cdf.partition_point(|&c| c < u).min(names.len() - 1);
                format!("/lookup?domain={}&epoch={last}", names[r])
            }
            3 => format!("/market?epoch={}", i % epochs),
            4 => format!("/churn?from=0&to={last}"),
            5 => format!("/providers/{provider}/domains?epoch={last}"),
            6 => "/series?credit=Google&credit=Microsoft".to_string(),
            _ => "/healthz".to_string(),
        })
        .collect()
}

fn request_bytes(targets: &[String]) -> Vec<Vec<u8>> {
    targets
        .chunks(REQS_PER_CONN)
        .flat_map(|conn| {
            conn.iter().enumerate().map(|(i, t)| {
                let close = if i + 1 == conn.len() {
                    "Connection: close\r\n"
                } else {
                    ""
                };
                format!("GET {t} HTTP/1.1\r\nHost: mx\r\n{close}\r\n").into_bytes()
            })
        })
        .collect()
}

fn trace_of(reqs: &[Vec<u8>]) -> Trace {
    let mut trace = Trace::new();
    for (c, conn) in reqs.chunks(REQS_PER_CONN).enumerate() {
        let parts: Vec<&[u8]> = conn.iter().map(Vec::as_slice).collect();
        let at = c as u64 * CONN_EVERY_MS;
        trace = trace.with(ClientConn::scripted(c as u64, at, GAP_MS, &parts));
    }
    trace
}

/// Length and SipHash of the response bytes: the replays are compared by
/// digest, so no copy of the reference stays resident while one runs.
fn digest(bytes: &[u8]) -> (u64, u64) {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    (bytes.len() as u64, h.finish())
}

fn endpoint_label(path: &str) -> Option<&'static str> {
    match Endpoint::of(path) {
        Endpoint::Lookup => Some("lookup"),
        Endpoint::Market => Some("market"),
        Endpoint::Churn => Some("churn"),
        Endpoint::Series => Some("series"),
        Endpoint::Providers => Some("providers"),
        _ => None,
    }
}

pub fn run(run: &mut Run) {
    let width = run.width;
    let seed = run.seed;
    let mut setups = Vec::new();
    let mut store = Vec::new();
    for i in 0..3 {
        let t = Instant::now();
        let bytes = mx_par::install(width, || build_store(seed));
        setups.push(t.elapsed().as_secs_f64());
        if i > 0 {
            run.check("store builds are byte-identical", bytes == store);
        }
        store = bytes;
    }
    run.sample("setup_s", &setups);
    run.e2e.insert("setup_s", median(&mut setups));
    let reader = StoreReader::open(&store).expect("a freshly built store opens");
    let targets = targets(seed, &reader, REQUESTS);
    let reqs = request_bytes(&targets);
    let trace = trace_of(&reqs);
    let total = reqs.len() as u64;
    let scale = format!("serve: study-scale alexa store, snapshots {EPOCHS:?}, {total} requests");
    run.stamp.push(("scale", scale));
    run.stamp.push(("store_bytes", store.len().to_string()));

    // Reference replay at width 1.
    let baseline = mx_par::install(1, || Server::new(&reader, CONFIG).run(&trace));
    let reference = digest(&baseline.all_bytes());
    run.check(
        "width-1 replay reconciles, serves every request, sheds and evicts none",
        baseline.reconciles()
            && baseline.dropped_without_response == 0
            && baseline.accepted == total
            && baseline.served == total
            && baseline.shed == 0
            && baseline.evicted == 0,
    );
    drop(baseline);

    let mut times = Vec::new();
    let mut served = 0;
    let mut rec = Recorder::new();
    let mut first_counts: Option<[u64; 4]> = None;
    run.repeat(5, |run| {
        // Traced runs keep the first replay untraced, as the overhead
        // baseline.
        let traced = run.trace && !times.is_empty();
        let mut server = Server::new(&reader, CONFIG);
        if traced {
            alloc::enable();
        }
        let live0 = alloc::live();
        alloc::reset_peak();
        if traced {
            mx_obs::reset();
            mx_obs::set_enabled(true);
            rec.open("serve.run");
        }
        let (rep, secs) = run.measure(|| mx_par::install(width, || server.run(&trace)));
        if traced {
            rec.close();
            mx_obs::set_enabled(false);
        } else {
            times.push(secs);
        }
        served = rep.served;
        run.attempted += rep.accepted;
        run.failed += rep.accepted - rep.served.min(rep.accepted);
        run.check(
            "response bytes equal the width-1 replay; reconciles; nothing dropped",
            digest(&rep.all_bytes()) == reference
                && rep.reconciles()
                && rep.dropped_without_response == 0,
        );
        if traced {
            let q = mx_obs::metrics::counter_value;
            let counts = [
                rep.served,
                q(names::SERVE_CACHE_ROW_HITS),
                q(names::SERVE_CACHE_JSON_HITS),
                reference.0,
            ];
            let ratio_row = q(names::SERVE_CACHE_ROW_HITS) as f64
                / (q(names::SERVE_CACHE_ROW_HITS) + q(names::SERVE_CACHE_ROW_MISSES)).max(1) as f64;
            let ratio_json = q(names::SERVE_CACHE_JSON_HITS) as f64
                / (q(names::SERVE_CACHE_JSON_HITS) + q(names::SERVE_CACHE_JSON_MISSES)).max(1)
                    as f64;
            match &first_counts {
                None => first_counts = Some(counts),
                Some(c) => run.check("deterministic counts repeat between replays", *c == counts),
            }
            run.layer.insert(
                "alloc.peak_live_mb",
                (alloc::peak() - live0).max(0) as f64 / 1e6,
            );
            run.layer.insert("serve.row_cache_hit_ratio", ratio_row);
            run.layer.insert("serve.json_cache_hit_ratio", ratio_json);
        }
    });
    alloc::disable();
    run.sample("serve.run_s", &times);
    let run_s = median(&mut times);

    if !run.trace {
        run.e2e.insert("items_per_s", served as f64 / run_s);
        run.alias("serve.reqs_per_s", served as f64 / run_s, "1/s");
        run.alias("serve.run_s", run_s, "s");
        return;
    }

    let n = rec.spans().len().max(1) as f64;
    let t = rec.totals_named("serve.run");
    run.layer.insert("serve.run_s", t.wall / n);
    run.layer.insert("serve.run_cpu_s", t.cpu / n);
    run.layer
        .insert("serve.run_busy", t.cpu / (t.wall * width as f64).max(1e-9));
    run.layer
        .insert("serve.run_alloc_mb", t.alloc_bytes as f64 / 1e6 / n);
    run.layer.insert("serve.reqs_per_s", served as f64 / run_s);
    run.layer.insert("serve.requests", served as f64);
    run.layer.insert("trace_overhead_s", t.wall / n - run_s);
    // One layer timed from outside: `Server::run` is the whole workload.
    run.layer.insert("residual_s", 0.0);
    if let Some(c) = first_counts {
        run.counts.extend([
            ("serve.served", c[0]),
            ("serve.row_cache_hits", c[1]),
            ("serve.json_cache_hits", c[2]),
            ("serve.response_bytes", c[3]),
        ]);
    }

    // Layer replays over the same requests, one call at a time.
    let mut parse_us = Vec::new();
    let mut parsed = Vec::new();
    for r in &reqs {
        let t = Instant::now();
        let mut p = RequestParser::new();
        let got = p.push(r).and_then(|()| p.try_next());
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        match got {
            Ok(Parsed::Request(req)) => parsed.push(req),
            _ => run.check("every scripted request parses", false),
        }
    }
    let state = ServeState::new(&reader);
    let mut handle_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut lookup_us = Vec::new();
    for req in &parsed {
        let Some(label) = endpoint_label(&req.path) else {
            continue;
        };
        let t = Instant::now();
        let h = state.handle(req);
        handle_us
            .entry(label)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(h);
        if label == "lookup" {
            let domain = req.param("domain").unwrap_or("");
            let epoch = req.param("epoch").and_then(|e| e.parse().ok()).unwrap_or(0);
            let t = Instant::now();
            let row = reader.lookup(domain, epoch);
            lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            run.check("store lookups succeed", row.is_ok());
        }
    }
    run.layer
        .insert("serve.parse_us.p50", percentile(&mut parse_us, 50.0));
    run.layer
        .insert("serve.parse_us.p99", percentile(&mut parse_us, 99.0));
    for (label, mut v) in handle_us {
        run.layer.insert(
            &format!("serve.handle_us.{label}.p50"),
            percentile(&mut v, 50.0),
        );
        run.layer.insert(
            &format!("serve.handle_us.{label}.p99"),
            percentile(&mut v, 99.0),
        );
    }
    run.layer
        .insert("store.lookup_us.p50", percentile(&mut lookup_us, 50.0));
    run.layer
        .insert("store.lookup_us.p99", percentile(&mut lookup_us, 99.0));
    run.chrome = Some(rec);
}
