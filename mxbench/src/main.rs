//! `mxbench`: one benchmark for the mxmap measurement path, from
//! worldgen to store to serving, timed end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path mxbench/Cargo.toml -- \
//!     --workload <study-snapshot|delta-churn|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs at `mx_par` width = available parallelism, builds
//! its inputs from `--seed`, measures
//! for `--seconds`, checks its outputs, and prints a human-readable
//! report followed by one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! With `--trace 0` (tracing, obs and allocation counting off) the
//! metrics are the end-to-end ones, named alike on every workload:
//!
//! | metric        | study-snapshot              | delta-churn                | serve-mixed                |
//! |---------------|-----------------------------|----------------------------|----------------------------|
//! | `setup_s`     | context + warm-up pass      | seed + events + base store | 3-epoch store build        |
//! | `items_per_s` | domains generated to stored | events applied per second  | requests served per second |
//! | `peak_rss_mb` | peak RSS of one pass        | peak RSS of the appends    | peak RSS of one replay     |
//!
//! Each is the median of the samples taken in the run (set-up is done
//! two or more times). The peak RSS of a measured call is the process's
//! `VmHWM` after it, reset just before it, with the heap that set-up
//! freed handed back to the kernel once before the measured calls, so
//! set-up and the untimed checks do not count. The workload-specific names (`study.pass_s`,
//! `delta.epoch_append_s`, `serve.reqs_per_s`, ...) are printed as
//! aliases of the same measurement.
//!
//! `failed / attempted` is the workload's failed fraction. With
//! `--trace 1` the metrics are the per-layer ones (wall seconds, CPU
//! seconds, busy share and allocated MB per layer, plus counts); a
//! layer a workload does not run reads 0. The traced run also writes
//! its spans as a Chrome trace and a stamped report under
//! `mxbench/out/`.

mod alloc;
mod delta;
mod prof;
mod serve;
mod study;

use std::collections::BTreeMap;
use std::time::Instant;

use prof::{json_str, Recorder};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics: name and unit, printed by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Layers timed by a span from outside; each gets `_s` (wall), `_cpu_s`
/// (process CPU), `_busy` (CPU / (wall × width)) and `_alloc_mb`.
const TIMED_LAYERS: &[&str] = &[
    "corpus.generate",
    "corpus.world_at",
    "analysis.observe",
    "net.resolve",
    "net.scan",
    "analysis.join",
    "infer",
    "infer.certgroup",
    "infer.ipid",
    "infer.mxid",
    "infer.misid",
    "infer.domainid",
    "store.write",
    "delta.batch",
    "serve.run",
];

/// Per-layer metrics of the traced run: name and unit.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for l in TIMED_LAYERS {
        v.push((format!("{l}_s"), "s"));
        v.push((format!("{l}_cpu_s"), "s"));
        v.push((format!("{l}_busy"), "ratio"));
        v.push((format!("{l}_alloc_mb"), "MB"));
    }
    let rest: &[(&str, &'static str)] = &[
        ("study.domains_per_s", "1/s"),
        ("study.pass_s", "s"),
        ("delta.epoch_append_s", "s"),
        ("serve.reqs_per_s", "1/s"),
        ("failed_frac", "ratio"),
        ("residual_s", "s"),
        ("trace_overhead_s", "s"),
        ("alloc.peak_live_mb", "MB"),
        ("net.resolve_fanout_cap", "x"),
        ("dns.queries", "count"),
        ("dns.cache_hit_ratio", "ratio"),
        ("dns.retries", "count"),
        ("dns.unresolved_domains", "count"),
        ("net.scan_ips", "count"),
        ("scan.attempts_per_ip", "count"),
        ("store.bytes", "bytes"),
        ("store.bytes_per_row", "bytes"),
        ("delta.dirty_domains", "count"),
        ("delta.reresolved", "count"),
        ("delta.rescanned_ips", "count"),
        ("delta.reuse_ratio", "ratio"),
        ("delta.mx_reassigned", "count"),
        ("delta.domains_reattributed", "count"),
        ("delta.epoch_bytes", "bytes"),
        ("serve.requests", "count"),
        ("serve.parse_us.p50", "us"),
        ("serve.parse_us.p99", "us"),
        ("serve.handle_us.lookup.p50", "us"),
        ("serve.handle_us.lookup.p99", "us"),
        ("serve.handle_us.market.p50", "us"),
        ("serve.handle_us.market.p99", "us"),
        ("serve.handle_us.churn.p50", "us"),
        ("serve.handle_us.churn.p99", "us"),
        ("serve.handle_us.series.p50", "us"),
        ("serve.handle_us.series.p99", "us"),
        ("serve.handle_us.providers.p50", "us"),
        ("serve.handle_us.providers.p99", "us"),
        ("store.lookup_us.p50", "us"),
        ("store.lookup_us.p99", "us"),
        ("serve.row_cache_hit_ratio", "ratio"),
        ("serve.json_cache_hit_ratio", "ratio"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Named values.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn insert(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

impl IntoIterator for Metrics {
    type Item = (String, f64);
    type IntoIter = std::collections::btree_map::IntoIter<String, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// The state of one benchmark invocation, filled in by a workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub width: usize,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Workload-specific names for the end-to-end figures, printed
    /// alongside the generic ones.
    aliases: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: description → (passed, failed).
    checks: BTreeMap<&'static str, (u64, u64)>,
    /// Deterministic counts, printed apart from timings.
    pub counts: Vec<(&'static str, u64)>,
    pub stamp: Vec<(&'static str, String)>,
    /// Raw samples behind a median, printed with the report.
    samples: Vec<(&'static str, Vec<f64>)>,
    /// Peak RSS in MB of each [`Run::measure`]d call.
    rss_mb: Vec<f64>,
    /// Whether every reset of the peak RSS took effect.
    rss_reset: bool,
    pub chrome: Option<Recorder>,
}

impl Run {
    /// Record an output check; a mismatch fails the run and counts as
    /// a failed operation.
    pub fn check(&mut self, what: &'static str, ok: bool) {
        let e = self.checks.entry(what).or_default();
        if ok {
            e.0 += 1;
        } else {
            e.1 += 1;
            self.failed += 1;
        }
    }

    /// Call `f` until `--seconds` have passed, and at least `min` times.
    /// Set-up is over by then, so its free heap goes back to the kernel.
    pub fn repeat(&mut self, min: usize, mut f: impl FnMut(&mut Run)) {
        prof::trim_heap();
        let t0 = Instant::now();
        let mut n = 0;
        while n < min || t0.elapsed().as_secs_f64() < self.seconds {
            f(self);
            n += 1;
        }
        self.stamp.push(("measured_reps", n.to_string()));
    }

    /// Run `f`, one measured call: returns its result and wall seconds,
    /// and keeps the process's peak RSS during the call.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.rss_reset &= prof::reset_peak_rss();
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.rss_mb.push(prof::peak_rss_mb());
        (r, secs)
    }

    /// Keep the samples a metric's median is taken over.
    pub fn sample(&mut self, name: &'static str, v: &[f64]) {
        self.samples.push((name, v.to_vec()));
    }

    pub fn alias(&mut self, name: &'static str, v: f64, unit: &'static str) {
        self.aliases.push((name, v, unit));
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.values().all(|&(_, bad)| bad == 0)
    }
}

/// The DNS counters of one traced pass as metrics. The hit ratio is
/// cache answers over cache answers plus first-try transport queries.
pub fn dns_metrics(m: &mut Metrics, queries: u64, cache_hits: u64, retries: u64) {
    let first_tries = queries.saturating_sub(retries);
    m.insert("dns.queries", queries as f64);
    m.insert("dns.retries", retries as f64);
    m.insert(
        "dns.cache_hit_ratio",
        cache_hits as f64 / (cache_hits + first_tries).max(1) as f64,
    );
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentile `p` (0..=100) of a sample, nearest rank.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The git revision of the checkout, read from `.git` when present.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mxbench: {e}");
            std::process::exit(2);
        }
    };
    mx_obs::set_enabled(false);
    mx_obs::set_trace_enabled(false);
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        width: mx_par::available_parallelism(),
        e2e: Metrics::new(),
        layer: Metrics::new(),
        aliases: Vec::new(),
        attempted: 0,
        failed: 0,
        checks: BTreeMap::new(),
        counts: Vec::new(),
        stamp: vec![
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("seconds", args.seconds.to_string()),
            ("nproc", mx_par::available_parallelism().to_string()),
            ("mx_par_width", mx_par::available_parallelism().to_string()),
            ("git_revision", git_revision()),
        ],
        samples: Vec::new(),
        rss_mb: Vec::new(),
        rss_reset: true,
        chrome: None,
    };
    let wall = Instant::now();
    match args.workload.as_str() {
        "study-snapshot" => study::run(&mut run),
        "delta-churn" => delta::run(&mut run),
        "serve-mixed" => serve::run(&mut run),
        other => {
            eprintln!("mxbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    run.stamp
        .push(("wall_s", format!("{:.3}", wall.elapsed().as_secs_f64())));
    if !run.trace {
        let mut rss = std::mem::take(&mut run.rss_mb);
        run.sample("peak_rss_mb", &rss);
        run.e2e.insert("peak_rss_mb", median(&mut rss));
        let reset = if run.rss_reset { "ok" } else { "failed" };
        run.stamp.push(("peak_rss_reset", reset.to_string()));
    }
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    if run.trace {
        run.layer.insert("failed_frac", failed_frac);
    }
    report(&run, &args.workload, failed_frac);
}

/// The traced run's layers as a table: wall, CPU, busy share, allocated
/// MB and share of the workload's wall time (child layers are indented
/// and included in their parent's row).
fn layer_table(run: &Run) -> String {
    let get = |n: &str| run.layer.get(n).unwrap_or(0.0);
    let wall = ["study.pass_s", "delta.batch_s", "serve.run_s"]
        .map(get)
        .into_iter()
        .fold(0.0, f64::max);
    let mut out = format!(
        "layer {:<22} {:>9} {:>9} {:>6} {:>10} {:>7}\n",
        "name", "wall_s", "cpu_s", "busy", "alloc_mb", "share"
    );
    for l in TIMED_LAYERS {
        let w = get(&format!("{l}_s"));
        if w == 0.0 {
            continue;
        }
        let child = l.starts_with("infer.")
            || *l == "net.resolve"
            || *l == "net.scan"
            || *l == "analysis.join";
        let name = if child {
            format!("  {l}")
        } else {
            l.to_string()
        };
        out.push_str(&format!(
            "layer {name:<22} {w:>9.4} {:>9.3} {:>6.2} {:>10.1} {:>6.1}%\n",
            get(&format!("{l}_cpu_s")),
            get(&format!("{l}_busy")),
            get(&format!("{l}_alloc_mb")),
            100.0 * w / wall.max(1e-9)
        ));
    }
    let r = get("residual_s");
    out.push_str(&format!(
        "layer {:<22} {r:>9.4} {:>9} {:>6} {:>10} {:>6.1}%\n",
        "residual",
        "",
        "",
        "",
        100.0 * r / wall.max(1e-9)
    ));
    out
}

/// Print the human-readable report, write the stamped files, and print
/// the JSON result as the last line.
fn report(run: &Run, workload: &str, failed_frac: f64) {
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if run.trace {
        let table = per_layer();
        for name in run.layer.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "per-layer metric {name} missing from the table"
            );
        }
        for (name, unit) in table {
            let v = run.layer.get(&name).unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        for &(name, unit) in END_TO_END {
            let v = run
                .e2e
                .get(name)
                .unwrap_or_else(|| panic!("end-to-end metric {name} not measured"));
            metrics.push((name.to_string(), v, unit));
        }
    }
    let correct = run.correct();

    let mut human = String::new();
    human.push_str("# mxbench\n");
    for (k, v) in &run.stamp {
        human.push_str(&format!("stamp {k} = {v}\n"));
    }
    for (what, (ok, bad)) in &run.checks {
        let verdict = if *bad == 0 { "ok" } else { "MISMATCH" };
        human.push_str(&format!(
            "check {verdict:8} {what} ({ok} passed, {bad} failed)\n"
        ));
    }
    human.push_str(&format!(
        "result correct={correct} attempted={} failed={} failed_frac={failed_frac}\n",
        run.attempted, run.failed
    ));
    for (name, v) in &run.samples {
        let list: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        human.push_str(&format!(
            "samples {name} n={} [{}]\n",
            v.len(),
            list.join(" ")
        ));
    }
    for (k, v) in &run.counts {
        human.push_str(&format!("count {k} = {v}\n"));
    }
    for (name, v, unit) in &run.aliases {
        human.push_str(&format!("metric {name} = {v:.6} {unit}\n"));
    }
    if run.trace {
        human.push_str(&layer_table(run));
    }
    for (name, v, unit) in &metrics {
        human.push_str(&format!("metric {name} = {v:.6} {unit}\n"));
    }
    print!("{human}");

    let dir = std::path::Path::new("mxbench/out");
    if std::fs::create_dir_all(dir).is_ok() {
        let stem = format!("{workload}-seed{}-trace{}", run.seed, u8::from(run.trace));
        let _ = std::fs::write(dir.join(format!("{stem}.txt")), &human);
        if let Some(rec) = &run.chrome {
            let meta: Vec<(&str, String)> =
                run.stamp.iter().map(|(k, v)| (*k, v.clone())).collect();
            let _ = std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                rec.chrome_trace(&meta),
            );
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
}
