//! `delta-churn`: incremental measurement with `mx-delta`. A 32768-domain
//! world at 5% churn per batch; each repetition sets up a fresh
//! `Reconciler` (seeded state, event log, base store) and appends a
//! fixed number of epochs with `Reconciler::apply_batch`. Batches grow
//! with the epoch index, so the figure is always taken over the same
//! batch count.

use std::time::Instant;

use mx_delta::{
    full_recompute, generate_events, BatchStats, Event, EventStreamConfig, Reconciler, WorldState,
};
use mx_obs::names;

use crate::prof::Recorder;
use crate::{alloc, dns_metrics, median, Metrics, Run};

const DOMAINS: usize = 32 * 1024;
const CHURN: f64 = 0.05;
const BATCHES: usize = 4;
const ADDS_PER_BATCH: usize = 8;

/// A reconciler holding its base epoch, plus the event log to append.
struct Setup {
    reconciler: Reconciler,
    log: Vec<Vec<Event>>,
    base_bytes: usize,
}

fn events(seed: u64) -> (WorldState, Vec<Vec<Event>>) {
    let initial = WorldState::seeded(seed, DOMAINS);
    let cfg = EventStreamConfig {
        seed,
        batches: BATCHES,
        churn: CHURN,
        adds_per_batch: ADDS_PER_BATCH,
    };
    let log = generate_events(&initial, &cfg);
    (initial, log)
}

fn setup(seed: u64) -> Setup {
    let (initial, log) = events(seed);
    let mut reconciler = Reconciler::new(initial);
    let base = reconciler
        .base_store()
        .expect("the base epoch of a seeded world encodes");
    Setup {
        reconciler,
        log,
        base_bytes: base.len(),
    }
}

/// Apply every batch, each under a `delta.batch` span when traced.
/// Returns the final store, per-batch stats and the number of events in
/// batches `apply_batch` rejected.
fn append(s: &mut Setup, mut rec: Option<&mut Recorder>) -> (Vec<u8>, Vec<BatchStats>, u64) {
    let mut store = Vec::new();
    let mut stats = Vec::new();
    let mut rejected = 0;
    for batch in &s.log {
        if let Some(r) = rec.as_deref_mut() {
            r.open("delta.batch");
        }
        match s.reconciler.apply_batch(batch) {
            Ok((bytes, st)) => {
                store = bytes;
                stats.push(st);
            }
            Err(_) => rejected += batch.len() as u64,
        }
        if let Some(r) = rec.as_deref_mut() {
            r.close();
        }
    }
    (store, stats, rejected)
}

pub fn run(run: &mut Run) {
    let width = run.width;
    let seed = run.seed;
    let (initial, log) = events(seed);
    let n_events: u64 = log.iter().map(|b| b.len() as u64).sum();
    let scale = format!(
        "delta: {DOMAINS} domains, churn {CHURN}, {BATCHES} batches, {ADDS_PER_BATCH} adds/batch"
    );
    run.stamp.push(("scale", scale));
    run.stamp.push(("events", n_events.to_string()));

    // Untimed oracle, once per invocation.
    let oracle = mx_par::install(width, || full_recompute(&initial, &log)).expect("full recompute");

    let mut setups = Vec::new();
    let mut appends = Vec::new();
    let mut per: std::collections::HashMap<String, Vec<f64>> = Default::default();
    let mut first_counts: Option<Vec<(&'static str, u64)>> = None;
    let mut rec = Recorder::new();
    run.repeat(if run.trace { 3 } else { 5 }, |run| {
        let t = Instant::now();
        let mut s = mx_par::install(width, || setup(seed));
        setups.push(t.elapsed().as_secs_f64());
        run.attempted += n_events;

        // Untraced: every repetition. Traced: the first repetition runs
        // untraced as the overhead baseline.
        if !run.trace || appends.is_empty() {
            let ((store, _, rejected), secs) =
                run.measure(|| mx_par::install(width, || append(&mut s, None)));
            appends.push(secs);
            run.failed += rejected;
            run.check("delta store == full_recompute", store == oracle);
            return;
        }

        alloc::enable();
        mx_obs::reset();
        mx_obs::set_enabled(true);
        let live0 = alloc::live();
        alloc::reset_peak();
        let root = rec.open("delta.epochs");
        let (store, stats, rejected) = mx_par::install(width, || append(&mut s, Some(&mut rec)));
        let wall = rec.close();
        mx_obs::set_enabled(false);
        let peak = (alloc::peak() - live0).max(0) as f64 / 1e6;
        run.failed += rejected;
        run.check("delta store == full_recompute", store == oracle);

        let q = mx_obs::metrics::counter_value;
        let sum = |f: fn(&BatchStats) -> u64| stats.iter().map(f).sum::<u64>();
        let counts: Vec<(&'static str, u64)> = vec![
            ("dns.queries", q(names::DNS_QUERIES)),
            (
                "dns.cache_hits",
                q(names::DNS_CACHE_HITS) + q(names::DNS_CACHE_NEGATIVE_HITS),
            ),
            ("dns.retries", q(names::DNS_RETRIES)),
            ("delta.dirty_domains", sum(|s| s.dirty_domains)),
            ("delta.reresolved", sum(|s| s.reresolved)),
            ("delta.rescanned_ips", sum(|s| s.rescanned_ips)),
            ("delta.reuse_hits", sum(|s| s.reuse_hits)),
            ("delta.population", sum(|s| s.population)),
            ("delta.mx_reassigned", sum(|s| s.mx_reassigned)),
            (
                "delta.domains_reattributed",
                sum(|s| s.domains_reattributed),
            ),
            ("store.bytes", store.len() as u64),
        ];
        let c = |name: &str| {
            counts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        let mut m = Metrics::new();
        let t = rec.totals_under(root);
        let b = t.get("delta.batch").copied().unwrap_or_default();
        m.insert("delta.batch_s", b.wall);
        m.insert("delta.batch_cpu_s", b.cpu);
        m.insert(
            "delta.batch_busy",
            b.cpu / (b.wall * width as f64).max(1e-9),
        );
        m.insert("delta.batch_alloc_mb", b.alloc_bytes as f64 / 1e6);
        m.insert("delta.epoch_append_s", b.wall / BATCHES as f64);
        m.insert("residual_s", wall - rec.children_wall(root));
        m.insert("trace_overhead_s", (wall - appends[0]) / BATCHES as f64);
        m.insert("alloc.peak_live_mb", peak);
        dns_metrics(
            &mut m,
            c("dns.queries"),
            c("dns.cache_hits"),
            c("dns.retries"),
        );
        for name in [
            "delta.dirty_domains",
            "delta.reresolved",
            "delta.rescanned_ips",
            "delta.mx_reassigned",
            "delta.domains_reattributed",
            "store.bytes",
        ] {
            m.insert(name, c(name) as f64);
        }
        m.insert(
            "delta.reuse_ratio",
            c("delta.reuse_hits") as f64 / c("delta.population").max(1) as f64,
        );
        m.insert(
            "delta.epoch_bytes",
            (store.len() - s.base_bytes.min(store.len())) as f64 / BATCHES as f64,
        );
        for (k, v) in m {
            per.entry(k).or_default().push(v);
        }
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) => run.check(
                "deterministic counts repeat between repetitions",
                *first == counts,
            ),
        }
    });
    alloc::disable();

    run.sample("setup_s", &setups);
    run.e2e.insert("setup_s", median(&mut setups));
    if run.trace {
        for (k, mut v) in per {
            run.layer.insert(&k, median(&mut v));
        }
        run.counts.extend(first_counts.unwrap_or_default());
        run.chrome = Some(rec);
        return;
    }
    run.sample("append_s", &appends);
    let per_rep = median(&mut appends);
    run.e2e.insert("items_per_s", n_events as f64 / per_rep);
    run.alias("delta.epoch_append_s", per_rep / BATCHES as f64, "s");
    run.alias("delta.events_per_s", n_events as f64 / per_rep, "1/s");
}
