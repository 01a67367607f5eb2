//! `study-snapshot`: the paper's whole measurement path for the last
//! snapshot at study scale — `Study::generate` → `world_at` →
//! `observe_world` (DNS, port-25 scan, prefix2as + certificate join) →
//! the five inference stages per dataset → `result_rows` + `StoreWriter`.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Instant;

use mx_analysis::observe::{observe_world, SnapshotData};
use mx_corpus::{company_map, provider_knowledge, ScenarioConfig, Study, World, SNAPSHOT_DATES};
use mx_dns::Name;
use mx_infer::{
    certgroup, domainid, ipid, misid, mxid, result_rows, CompanyMap, InferenceResult, MxAssignment,
    ObservationSet, Pipeline, ProviderKnowledge, Strategy,
};
use mx_net::{openintel, Missed, Scanner};
use mx_obs::names;
use mx_psl::PublicSuffixList;
use mx_store::StoreWriter;

use crate::prof::{self, Recorder};
use crate::{alloc, dns_metrics, median, Metrics, Run, TIMED_LAYERS};

const LAST: usize = SNAPSHOT_DATES.len() - 1;

/// Everything a pass needs besides the seed.
struct Ctx {
    pipeline: Pipeline,
    companies: CompanyMap,
    psl: PublicSuffixList,
    knowledge: ProviderKnowledge,
}

fn setup() -> Ctx {
    Ctx {
        pipeline: Pipeline::priority_based(provider_knowledge(10)),
        companies: company_map(),
        psl: PublicSuffixList::builtin(),
        knowledge: provider_knowledge(10),
    }
}

/// What one pass produced.
struct PassOut {
    /// The three per-dataset stores, concatenated in dataset order.
    stores: Vec<u8>,
    /// Domains written to a store.
    rows: u64,
    /// Domains whose DNS acquisition ran out of retries.
    dns_failed: u64,
    /// Domains with a lookup answered NXDOMAIN (dangling MX targets).
    dns_unresolved: u64,
}

fn write_store(
    ctx: &Ctx,
    world: &World,
    obs: &ObservationSet,
    result: &InferenceResult,
) -> Vec<u8> {
    let mut w = StoreWriter::new();
    w.add_epoch(
        &world.date.ym_label(),
        result_rows(result, &ctx.companies),
        &obs.acquisition,
    )
    .expect("one epoch of unique rows always encodes");
    w.finish()
}

/// Domains whose DNS acquisition exhausted its retry budget. A lookup
/// that fails without retries is an authoritative answer (the world's
/// dangling MX targets answer NXDOMAIN): measured data, not a failure.
fn dns_failed(obs: &ObservationSet) -> u64 {
    obs.acquisition
        .domains
        .values()
        .filter(|a| a.exhausted && a.retries > 0)
        .count() as u64
}

fn dns_unresolved(obs: &ObservationSet) -> u64 {
    obs.acquisition
        .domains
        .values()
        .filter(|a| a.exhausted && a.retries == 0)
        .count() as u64
}

/// One untraced pass.
fn pass(ctx: &Ctx, seed: u64) -> PassOut {
    let study = Study::generate(ScenarioConfig::study(seed));
    let world = study.world_at(LAST);
    let data = observe_world(&world);
    let mut out = PassOut {
        stores: Vec::new(),
        rows: 0,
        dns_failed: 0,
        dns_unresolved: 0,
    };
    for (_, obs) in &data.per_dataset {
        let result = ctx.pipeline.run(obs);
        out.stores.extend(write_store(ctx, &world, obs, &result));
        out.rows += obs.domains.len() as u64;
        out.dns_failed += dns_failed(obs);
        out.dns_unresolved += dns_unresolved(obs);
    }
    out
}

/// `Pipeline::run` for the priority-based strategy, stage by stage
/// through the stages' public entry points, each under its own span.
fn staged_infer(ctx: &Ctx, obs: &ObservationSet, rec: &mut Recorder) -> InferenceResult {
    rec.open("infer");
    let psl = &ctx.psl;
    let cert_groups = rec.time("infer.certgroup", || certgroup::preprocess(obs, psl));
    let ip_ids = rec.time("infer.ipid", || {
        ipid::compute_ip_ids(obs, &cert_groups, psl)
    });
    let mut mx_assignments: HashMap<Name, MxAssignment> = rec.time("infer.mxid", || {
        let mut distinct = Vec::new();
        let mut seen = HashSet::new();
        for d in &obs.domains {
            for t in d.mx.targets() {
                if seen.insert(&t.exchange) {
                    distinct.push(t);
                }
            }
        }
        mx_par::par_map(&distinct, |t| {
            let (provider, source) = mxid::assign_mx_id(&t.exchange, &t.addrs, &ip_ids, psl);
            let a = MxAssignment {
                exchange: t.exchange.clone(),
                provider,
                source,
                addrs: t.addrs.clone(),
                corrected: false,
            };
            (t.exchange.clone(), a)
        })
        .into_iter()
        .collect()
    });
    let misid = rec.time("infer.misid", || {
        misid::check(&mut mx_assignments, obs, &ctx.knowledge, psl)
    });
    let domains = rec.time("infer.domainid", || {
        mx_par::par_map(&obs.domains, |d| {
            (
                d.domain.clone(),
                domainid::assign_domain(d, &mx_assignments, obs),
            )
        })
        .into_iter()
        .collect()
    });
    rec.close();
    InferenceResult {
        strategy: Strategy::PriorityBased,
        domains,
        mx_assignments,
        cert_groups,
        misid,
    }
}

/// Field-by-field equality of two results (`CertGroups` has no
/// `PartialEq`; everything it feeds is compared).
fn same(a: &InferenceResult, b: &InferenceResult) -> bool {
    a.domains == b.domains
        && a.mx_assignments == b.mx_assignments
        && a.misid.examined == b.misid.examined
        && a.misid.corrections == b.misid.corrections
}

/// Deterministic counts of one traced pass; must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    dns_queries: u64,
    dns_cache_hits: u64,
    dns_retries: u64,
    dns_unresolved: u64,
    scan_ips: u64,
    scan_attempts: u64,
    store_bytes: u64,
    rows: u64,
}

/// One traced pass: the same path as [`pass`] with a span per layer,
/// obs counters on, inference replayed stage by stage (and checked
/// against `Pipeline::run`), then an untimed-in-the-pass replay of the
/// DNS fan-out and the scan that `observe_world` ran inside.
fn traced_pass(ctx: &Ctx, seed: u64, rec: &mut Recorder) -> (PassOut, Counts, usize, usize, bool) {
    mx_obs::reset();
    mx_obs::set_enabled(true);
    let root = rec.open("study.pass");
    let study = rec.time("corpus.generate", || {
        Study::generate(ScenarioConfig::study(seed))
    });
    let world = rec.time("corpus.world_at", || study.world_at(LAST));
    let data: SnapshotData = rec.time("analysis.observe", || observe_world(&world));
    let mut out = PassOut {
        stores: Vec::new(),
        rows: 0,
        dns_failed: 0,
        dns_unresolved: 0,
    };
    let mut results = Vec::new();
    for (_, obs) in &data.per_dataset {
        let result = staged_infer(ctx, obs, rec);
        let bytes = rec.time("store.write", || write_store(ctx, &world, obs, &result));
        out.stores.extend(bytes);
        out.rows += obs.domains.len() as u64;
        out.dns_failed += dns_failed(obs);
        out.dns_unresolved += dns_unresolved(obs);
        results.push(result);
    }
    rec.close();
    mx_obs::set_enabled(false);
    let q = mx_obs::metrics::counter_value;
    let mut counts = Counts {
        dns_queries: q(names::DNS_QUERIES),
        dns_cache_hits: q(names::DNS_CACHE_HITS) + q(names::DNS_CACHE_NEGATIVE_HITS),
        dns_retries: q(names::DNS_RETRIES),
        dns_unresolved: out.dns_unresolved,
        scan_ips: 0,
        scan_attempts: 0,
        store_bytes: out.stores.len() as u64,
        rows: out.rows,
    };

    // The replay: the resolve fan-out and the scan as observe_world runs
    // them, with obs on as it was there (the counters are already read).
    mx_obs::set_enabled(true);
    let replay = rec.open("replay");
    let dns = rec.time("net.resolve", || {
        mx_par::par_map(&world.targets, |(_, names)| {
            openintel::measure(&world.net, names)
        })
    });
    let mut ips: Vec<Ipv4Addr> = dns.iter().flat_map(|s| s.all_mx_ips()).collect();
    ips.sort();
    ips.dedup();
    let scan = rec.time("net.scan", || {
        Scanner::new().scan(&world.net, &ips, world.snapshot as u64)
    });
    rec.close();
    mx_obs::set_enabled(false);
    counts.scan_ips = ips.len() as u64;
    counts.scan_attempts = scan
        .results
        .values()
        .map(|o| u64::from(o.attempts))
        .sum::<u64>()
        + scan
            .missed
            .values()
            .map(|m| match m {
                Missed::Exhausted { attempts } => u64::from(*attempts),
                _ => 0,
            })
            .sum::<u64>();

    // Untimed check: the staged replay equals `Pipeline::run`.
    let replay_ok = data
        .per_dataset
        .iter()
        .zip(&results)
        .all(|((_, obs), r)| same(&ctx.pipeline.run(obs), r));
    (out, counts, root, replay, replay_ok)
}

pub fn run(run: &mut Run) {
    let width = run.width;
    // Set-up: the pass context and a warm-up pass at the measured width
    // whose stores every later pass must reproduce, twice (the stores
    // must repeat too). Width-1 timings of the pass were bimodal on a
    // 2-vCPU host (by the core the one thread lands on), so set-up runs
    // at the measured width and the width-1 check runs untimed.
    let mut setups = Vec::new();
    let mut built: Option<(Ctx, PassOut)> = None;
    for _ in 0..2 {
        let t = Instant::now();
        let ctx = setup();
        let reference = mx_par::install(width, || pass(&ctx, run.seed));
        setups.push(t.elapsed().as_secs_f64());
        if let Some((_, first)) = &built {
            run.check(
                "study store bytes identical across passes and widths",
                first.stores == reference.stores,
            );
        }
        built = Some((ctx, reference));
    }
    let (ctx, reference) = built.expect("set up at least once");
    run.sample("setup_s", &setups);
    run.e2e.insert("setup_s", median(&mut setups));
    let serial = mx_par::install(1, || pass(&ctx, run.seed));
    run.check(
        "study store bytes identical across passes and widths",
        serial.stores == reference.stores,
    );
    let domains = reference.rows;
    let c = ScenarioConfig::study(run.seed);
    let scale = format!(
        "study: {} alexa + {} com + {} gov, snapshot {LAST}",
        c.alexa_size, c.com_size, c.gov_size
    );
    run.stamp.push(("scale", scale));
    run.stamp.push(("domains", domains.to_string()));

    if !run.trace {
        let mut times = Vec::new();
        let seed = run.seed;
        run.repeat(3, |run| {
            let (out, secs) = run.measure(|| mx_par::install(width, || pass(&ctx, seed)));
            times.push(secs);
            run.attempted += out.rows;
            run.failed += out.dns_failed;
            run.check(
                "study store bytes identical across passes and widths",
                out.stores == reference.stores,
            );
        });
        run.sample("study.pass_s", &times);
        let work = median(&mut times);
        run.e2e.insert("items_per_s", domains as f64 / work);
        run.alias("study.domains_per_s", domains as f64 / work, "1/s");
        run.alias("study.pass_s", work, "s");
        return;
    }

    // Traced run: one untraced pass for the overhead baseline, then
    // traced passes until the time is up.
    let t = Instant::now();
    let out = mx_par::install(width, || pass(&ctx, run.seed));
    let untraced = t.elapsed().as_secs_f64();
    run.check(
        "study store bytes identical across passes and widths",
        out.stores == reference.stores,
    );

    let mut per: HashMap<String, Vec<f64>> = HashMap::new();
    let mut first_counts: Option<Counts> = None;
    let mut rec = Recorder::new();
    alloc::enable();
    run.repeat(2, |run| {
        let live0 = alloc::live();
        alloc::reset_peak();
        let (out, counts, root, replay, replay_ok) =
            mx_par::install(width, || traced_pass(&ctx, run.seed, &mut rec));
        let peak = (alloc::peak() - live0).max(0) as f64 / 1e6;
        run.attempted += out.rows;
        run.failed += out.dns_failed;
        run.check(
            "study store bytes identical across passes and widths",
            out.stores == reference.stores,
        );
        run.check("staged inference replay == Pipeline::run", replay_ok);
        match &first_counts {
            None => first_counts = Some(counts.clone()),
            Some(c) => run.check("deterministic counts repeat between passes", *c == counts),
        }
        let mut m = Metrics::new();
        layer_metrics(&rec, root, replay, width, &mut m);
        let wall = rec.spans()[root].wall();
        m.insert("residual_s", wall - rec.children_wall(root));
        m.insert("trace_overhead_s", wall - untraced);
        m.insert("alloc.peak_live_mb", peak);
        m.insert("study.domains_per_s", counts.rows as f64 / wall);
        m.insert("study.pass_s", wall);
        dns_metrics(
            &mut m,
            counts.dns_queries,
            counts.dns_cache_hits,
            counts.dns_retries,
        );
        m.insert("dns.unresolved_domains", counts.dns_unresolved as f64);
        m.insert("net.scan_ips", counts.scan_ips as f64);
        m.insert(
            "scan.attempts_per_ip",
            counts.scan_attempts as f64 / counts.scan_ips.max(1) as f64,
        );
        m.insert("store.bytes", counts.store_bytes as f64);
        m.insert(
            "store.bytes_per_row",
            counts.store_bytes as f64 / counts.rows.max(1) as f64,
        );
        for (k, v) in m {
            per.entry(k).or_default().push(v);
        }
    });
    alloc::disable();
    for (k, mut v) in per {
        run.layer.insert(&k, median(&mut v));
    }
    if let Some(c) = first_counts {
        run.counts.extend([
            ("dns.queries", c.dns_queries),
            ("dns.cache_hits", c.dns_cache_hits),
            ("dns.retries", c.dns_retries),
            ("dns.unresolved_domains", c.dns_unresolved),
            ("net.scan_ips", c.scan_ips),
            ("net.scan_attempts", c.scan_attempts),
            ("store.bytes", c.store_bytes),
            ("study.rows", c.rows),
        ]);
    }
    // The fan-out cap: resolution runs one serial resolver per dataset,
    // so it cannot beat total / largest-dataset domains.
    let total = (c.alexa_size + c.com_size + c.gov_size) as f64;
    let largest = c.alexa_size.max(c.com_size).max(c.gov_size) as f64;
    run.layer.insert(
        "net.resolve_fanout_cap",
        (total / largest).min(width as f64),
    );
    run.chrome = Some(rec);
}

/// Wall, CPU, busy share and allocation of every layer of one pass.
fn layer_metrics(rec: &Recorder, root: usize, replay: usize, width: usize, m: &mut Metrics) {
    let mut t = rec.totals_under(root);
    t.extend(rec.totals_under(replay));
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    let (obs, res, scan) = (get("analysis.observe"), get("net.resolve"), get("net.scan"));
    let join = prof::Totals {
        wall: (obs.wall - res.wall - scan.wall).max(0.0),
        cpu: (obs.cpu - res.cpu - scan.cpu).clamp(
            0.0,
            (obs.wall - res.wall - scan.wall).max(0.0) * width as f64,
        ),
        alloc_bytes: obs
            .alloc_bytes
            .saturating_sub(res.alloc_bytes + scan.alloc_bytes),
    };
    for &layer in TIMED_LAYERS
        .iter()
        .filter(|l| !l.starts_with("delta.") && !l.starts_with("serve."))
    {
        let x = if layer == "analysis.join" {
            join
        } else {
            get(layer)
        };
        m.insert(&format!("{layer}_s"), x.wall);
        m.insert(&format!("{layer}_cpu_s"), x.cpu);
        m.insert(
            &format!("{layer}_busy"),
            x.cpu / (x.wall * width as f64).max(1e-9),
        );
        m.insert(&format!("{layer}_alloc_mb"), x.alloc_bytes as f64 / 1e6);
    }
}
