//! Request routing and endpoint handlers.
//!
//! Everything here runs on parsed-but-still-hostile input: paths and
//! query parameters are attacker-controlled strings, so this file is
//! in the mx-lint `untrusted` scope — no panicking constructs, no
//! direct indexing, every invalid parameter a 4xx. Handlers are pure
//! functions of `(store, request)`: they take no locks, read no
//! clocks, and return rendered bytes, which is what lets the server
//! run them on any number of `mx-par` workers and still replay
//! byte-identically.

use crate::http::{Method, Request};
use crate::render::{json_arr, json_f64, json_str, Response};
use mx_analysis::churn::ChurnCategory;
use mx_analysis::store::{churn_from_store, domains_of_provider, market_share_at};
use mx_obs::trace::Fnv1a;
use mx_store::{StoreError, StoreReader};

/// Maximum domains rendered in a `/providers/{p}/domains` answer; the
/// full count is always reported.
pub const MAX_DOMAINS_RENDER: usize = 1000;
/// Maximum names per category rendered in a diff sample.
pub const MAX_DIFF_SAMPLE: usize = 50;
/// Maximum credits a single `/series` request may track.
pub const MAX_SERIES_CREDITS: usize = 8;

/// Which endpoint a request resolved to, for per-endpoint latency
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/lookup` — single-domain row.
    Lookup,
    /// `/market` — company market shares at an epoch.
    Market,
    /// `/series` — per-epoch weight/share series for tracked credits.
    Series,
    /// `/churn` — the Figure-7 flow matrix between two epochs.
    Churn,
    /// `/providers/{name}/domains` — postings list.
    Providers,
    /// `/epochs/{a}..{b}/diff` — row-level diff summary.
    Diff,
    /// `/healthz` — liveness; bypasses admission control.
    Healthz,
    /// `/metrics` — live deterministic snapshot (Prometheus text or
    /// JSON); answered from the serial loop.
    Metrics,
    /// `/debug/trace` — the deterministic trace-event tail; answered
    /// from the serial loop.
    DebugTrace,
    /// `/debug/attribution` — critical-path attribution over the stage
    /// tree; answered from the serial loop.
    DebugAttribution,
    /// Anything else (answered 404).
    Other,
}

impl Endpoint {
    /// Classify a decoded request path.
    pub fn of(path: &str) -> Endpoint {
        if path == "/healthz" {
            Endpoint::Healthz
        } else if path == "/metrics" {
            Endpoint::Metrics
        } else if path == "/debug/trace" {
            Endpoint::DebugTrace
        } else if path == "/debug/attribution" {
            Endpoint::DebugAttribution
        } else if path == "/lookup" {
            Endpoint::Lookup
        } else if path == "/market" {
            Endpoint::Market
        } else if path == "/series" {
            Endpoint::Series
        } else if path == "/churn" {
            Endpoint::Churn
        } else if path.starts_with("/providers/") && path.ends_with("/domains") {
            Endpoint::Providers
        } else if path.starts_with("/epochs/") && path.ends_with("/diff") {
            Endpoint::Diff
        } else {
            Endpoint::Other
        }
    }

    /// The obs histogram this endpoint's service latency lands in.
    pub fn latency_metric(self) -> &'static str {
        match self {
            Endpoint::Lookup => mx_obs::names::SERVE_LATENCY_LOOKUP,
            Endpoint::Market => mx_obs::names::SERVE_LATENCY_MARKET,
            Endpoint::Series => mx_obs::names::SERVE_LATENCY_SERIES,
            Endpoint::Churn => mx_obs::names::SERVE_LATENCY_CHURN,
            Endpoint::Providers => mx_obs::names::SERVE_LATENCY_PROVIDERS,
            Endpoint::Diff => mx_obs::names::SERVE_LATENCY_DIFF,
            Endpoint::Metrics | Endpoint::DebugTrace | Endpoint::DebugAttribution => {
                mx_obs::names::SERVE_LATENCY_DEBUG
            }
            Endpoint::Healthz | Endpoint::Other => mx_obs::names::SERVE_LATENCY_HEALTHZ,
        }
    }

    /// Endpoints that read the live observability registries and must
    /// therefore be answered in the serial loop (like `/healthz`), and
    /// never from either cache — their bodies change between requests.
    pub fn is_introspection(self) -> bool {
        matches!(
            self,
            Endpoint::Metrics | Endpoint::DebugTrace | Endpoint::DebugAttribution
        )
    }
}

/// The result of handling one request: the response plus an optional
/// hot-row cache entry the server's serial loop should remember.
#[derive(Debug, Clone)]
pub struct Handled {
    /// The rendered response.
    pub response: Response,
    /// `(key, fragment)` for the row cache, produced by `/lookup`.
    pub row_fragment: Option<(String, String)>,
}

impl Handled {
    fn plain(response: Response) -> Handled {
        Handled {
            response,
            row_fragment: None,
        }
    }
}

/// Shared read-only serving state: the open store.
#[derive(Debug, Clone, Copy)]
pub struct ServeState<'a> {
    /// The snapshot store every endpoint answers from.
    pub reader: &'a StoreReader<'a>,
    /// Strong validator fingerprint of the store, computed once at
    /// construction from the digest sections (see [`store_etag`]).
    pub etag: u64,
}

impl<'a> ServeState<'a> {
    /// Serving state over an open reader.
    pub fn new(reader: &'a StoreReader<'a>) -> Self {
        let etag = store_etag(reader);
        ServeState { reader, etag }
    }

    /// Does this request's `If-None-Match` revalidate the current
    /// store etag? Only data-plane endpoints are conditional (the
    /// cacheable set of [`json_cache_key`]); introspection bodies
    /// change between requests and never carry a validator. Weak
    /// comparison per RFC 7232: a `W/` prefix is ignored and `*`
    /// matches any current representation.
    pub fn revalidates(&self, req: &Request) -> bool {
        if json_cache_key(req).is_none() {
            return false;
        }
        let Some(header) = req.header("if-none-match") else {
            return false;
        };
        let current = crate::render::etag_value(self.etag);
        header
            .split(',')
            .map(str::trim)
            .any(|t| t == "*" || t.strip_prefix("W/").unwrap_or(t) == current)
    }

    /// Dispatch a parsed request to its endpoint handler. Total: every
    /// path and parameter combination yields a response.
    pub fn handle(&self, req: &Request) -> Handled {
        // Conditional fast path: a client holding the current etag is
        // told "nothing changed" without rendering anything. The store
        // is immutable while open, so one fingerprint covers every
        // cacheable representation.
        if self.revalidates(req) {
            return Handled::plain(Response::not_modified(self.etag));
        }
        let mut handled = self.dispatch(req);
        if handled.response.status == 200 && json_cache_key(req).is_some() {
            handled.response.etag = Some(self.etag);
        }
        handled
    }

    fn dispatch(&self, req: &Request) -> Handled {
        match Endpoint::of(&req.path) {
            Endpoint::Healthz => Handled::plain(self.healthz()),
            Endpoint::Metrics => Handled::plain(metrics(req)),
            Endpoint::DebugTrace => Handled::plain(debug_trace(req)),
            Endpoint::DebugAttribution => Handled::plain(debug_attribution()),
            Endpoint::Lookup => self.lookup(req),
            Endpoint::Market => Handled::plain(self.market(req)),
            Endpoint::Series => Handled::plain(self.series(req)),
            Endpoint::Churn => Handled::plain(self.churn(req)),
            Endpoint::Providers => Handled::plain(self.providers(req)),
            Endpoint::Diff => Handled::plain(self.diff(req)),
            Endpoint::Other => Handled::plain(Response::error(404, "no such endpoint")),
        }
    }

    /// `/healthz`: liveness plus store shape. Cheap by design — the
    /// server answers it from the serial loop even while saturated.
    pub fn healthz(&self) -> Response {
        let body = format!(
            "{{\"status\":\"ok\",\"epochs\":{},\"providers\":{},\"companies\":{}}}",
            self.reader.epoch_count(),
            self.reader.providers().len(),
            self.reader.companies().len(),
        );
        Response::ok(body)
    }

    /// Resolve the `epoch` parameter (default: the latest epoch).
    fn epoch_param(&self, req: &Request, name: &str) -> Result<usize, Response> {
        let epochs = self.reader.epoch_count();
        match req.param(name) {
            None => Ok(epochs.saturating_sub(1)),
            Some(s) => match parse_usize(s) {
                None => Err(Response::error(400, "bad epoch parameter")),
                Some(e) if e >= epochs => Err(Response::error(404, "unknown epoch")),
                Some(e) => Ok(e),
            },
        }
    }

    fn lookup(&self, req: &Request) -> Handled {
        let Some(domain) = req.param("domain") else {
            return Handled::plain(Response::error(400, "missing domain parameter"));
        };
        if domain.is_empty() || domain.len() > 255 {
            return Handled::plain(Response::error(400, "bad domain parameter"));
        }
        let epoch = match self.epoch_param(req, "epoch") {
            Ok(e) => e,
            Err(resp) => return Handled::plain(resp),
        };
        let fragment = match self.reader.lookup(domain, epoch) {
            Err(e) => return Handled::plain(store_error(&e)),
            Ok(None) => "null".to_string(),
            Ok(Some(row)) => render_row(&row),
        };
        let response = lookup_response(domain, epoch, &fragment);
        Handled {
            response,
            row_fragment: Some((row_cache_key(domain, epoch), fragment)),
        }
    }

    fn market(&self, req: &Request) -> Response {
        let epoch = match self.epoch_param(req, "epoch") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let top = match req.param("top") {
            None => usize::MAX,
            Some(s) => match parse_usize(s) {
                Some(n) if n > 0 => n,
                _ => return Response::error(400, "bad top parameter"),
            },
        };
        let shares = match market_share_at(self.reader, epoch) {
            Ok(s) => s,
            Err(e) => return store_error(&e),
        };
        let rows = json_arr(shares.rows.iter().take(top).map(|r| {
            format!(
                "{{\"company\":{},\"weight\":{},\"share\":{}}}",
                json_str(&r.company),
                json_f64(r.weight),
                json_f64(r.share),
            )
        }));
        Response::ok(format!(
            "{{\"epoch\":{},\"total_domains\":{},\"rows\":{}}}",
            epoch, shares.total_domains, rows
        ))
    }

    fn series(&self, req: &Request) -> Response {
        let credits: Vec<&str> = req
            .query
            .iter()
            .filter(|(k, _)| k == "credit")
            .map(|(_, v)| v.as_str())
            .collect();
        if credits.is_empty() {
            return Response::error(400, "missing credit parameter");
        }
        if credits.len() > MAX_SERIES_CREDITS {
            return Response::error(400, "too many credits");
        }
        let epochs = self.reader.epoch_count();
        let mut dates: Vec<String> = Vec::new();
        let mut points: Vec<Vec<String>> = credits.iter().map(|_| Vec::new()).collect();
        for epoch in 0..epochs {
            let label = self.reader.label(epoch).unwrap_or("?").to_string();
            let shares = match market_share_at(self.reader, epoch) {
                Ok(s) => s,
                Err(e) => return store_error(&e),
            };
            for (credit, series) in credits.iter().zip(points.iter_mut()) {
                let row = shares.rows.iter().find(|r| &r.company == credit);
                series.push(format!(
                    "{{\"date\":{},\"weight\":{},\"share\":{}}}",
                    json_str(&label),
                    json_f64(row.map(|r| r.weight).unwrap_or(0.0)),
                    json_f64(row.map(|r| r.share).unwrap_or(0.0)),
                ));
            }
            dates.push(json_str(&label));
        }
        let series = json_arr(credits.iter().zip(points).map(|(credit, pts)| {
            format!(
                "{{\"credit\":{},\"points\":{}}}",
                json_str(credit),
                json_arr(pts)
            )
        }));
        Response::ok(format!(
            "{{\"dates\":{},\"series\":{}}}",
            json_arr(dates),
            series
        ))
    }

    fn churn(&self, req: &Request) -> Response {
        let from = match self.epoch_param(req, "from") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let to = match self.epoch_param(req, "to") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let matrix = match churn_from_store(self.reader, from, to) {
            Ok(m) => m,
            Err(e) => return store_error(&e),
        };
        let labels = json_arr(
            ChurnCategory::ALL
                .iter()
                .map(|c| json_str(c.label())),
        );
        let rows = json_arr(ChurnCategory::ALL.iter().map(|a| {
            json_arr(
                ChurnCategory::ALL
                    .iter()
                    .map(|b| matrix.flow(*a, *b).to_string()),
            )
        }));
        Response::ok(format!(
            "{{\"from\":{},\"to\":{},\"total\":{},\"labels\":{},\"matrix\":{}}}",
            from, to, matrix.total, labels, rows
        ))
    }

    fn providers(&self, req: &Request) -> Response {
        let name = req
            .path
            .strip_prefix("/providers/")
            .and_then(|r| r.strip_suffix("/domains"))
            .unwrap_or_default();
        if name.is_empty() || name.contains('/') {
            return Response::error(400, "bad provider name");
        }
        let epoch = match self.epoch_param(req, "epoch") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let domains = match domains_of_provider(self.reader, name, epoch) {
            Ok(d) => d,
            Err(e) => return store_error(&e),
        };
        let count = domains.len();
        let listed = json_arr(
            domains
                .iter()
                .take(MAX_DOMAINS_RENDER)
                .map(|d| json_str(d)),
        );
        Response::ok(format!(
            "{{\"provider\":{},\"epoch\":{},\"count\":{},\"truncated\":{},\"domains\":{}}}",
            json_str(name),
            epoch,
            count,
            count > MAX_DOMAINS_RENDER,
            listed
        ))
    }

    fn diff(&self, req: &Request) -> Response {
        let spec = req
            .path
            .strip_prefix("/epochs/")
            .and_then(|r| r.strip_suffix("/diff"))
            .unwrap_or_default();
        let Some((a, b)) = spec.split_once("..") else {
            return Response::error(400, "bad epoch range");
        };
        let epochs = self.reader.epoch_count();
        let (Some(from), Some(to)) = (parse_usize(a), parse_usize(b)) else {
            return Response::error(400, "bad epoch range");
        };
        if from >= epochs || to >= epochs {
            return Response::error(404, "unknown epoch");
        }
        let mut added = 0usize;
        let mut removed = 0usize;
        let mut changed = 0usize;
        let mut sample_added: Vec<String> = Vec::new();
        let mut sample_removed: Vec<String> = Vec::new();
        let mut sample_changed: Vec<String> = Vec::new();
        let walk = self.reader.diff(from, to, |name, before, after| {
            match (before, after) {
                (None, Some(_)) => {
                    added = added.saturating_add(1);
                    if sample_added.len() < MAX_DIFF_SAMPLE {
                        sample_added.push(json_str(name));
                    }
                }
                (Some(_), None) => {
                    removed = removed.saturating_add(1);
                    if sample_removed.len() < MAX_DIFF_SAMPLE {
                        sample_removed.push(json_str(name));
                    }
                }
                _ => {
                    changed = changed.saturating_add(1);
                    if sample_changed.len() < MAX_DIFF_SAMPLE {
                        sample_changed.push(json_str(name));
                    }
                }
            }
            Ok(())
        });
        if let Err(e) = walk {
            return store_error(&e);
        }
        Response::ok(format!(
            "{{\"from\":{from},\"to\":{to},\"added\":{added},\"removed\":{removed},\
             \"changed\":{changed},\"sample\":{{\"added\":{},\"removed\":{},\"changed\":{}}}}}",
            json_arr(sample_added),
            json_arr(sample_removed),
            json_arr(sample_changed),
        ))
    }
}

/// Default event count for `/debug/trace` when `last` is absent.
pub const DEFAULT_TRACE_TAIL: usize = 256;
/// Hard cap on the `/debug/trace?last=N` parameter.
pub const MAX_TRACE_TAIL: usize = 4096;

/// `/metrics`: the live observability snapshot, rendered from the
/// deterministic (stable-only) view so the body depends only on what
/// the serial loop has recorded — never on cache state or thread
/// interleaving. `?format=json` selects the `mx-obs/1` JSON form;
/// the default (or `format=prometheus`/`text`) is the Prometheus text
/// exposition.
fn metrics(req: &Request) -> Response {
    match req.param("format") {
        None | Some("prometheus") | Some("text") => {
            Response::text(mx_obs::export::Snapshot::capture().prometheus_text())
        }
        Some("json") => Response::ok(mx_obs::export::Snapshot::capture().deterministic_json()),
        Some(_) => Response::error(400, "bad format parameter"),
    }
}

/// `/debug/trace?last=N`: the tail of the deterministic trace export
/// (stable events only, canonical order).
fn debug_trace(req: &Request) -> Response {
    let last = match req.param("last") {
        None => DEFAULT_TRACE_TAIL,
        Some(s) => match parse_usize(s) {
            Some(n) if n > 0 && n <= MAX_TRACE_TAIL => n,
            _ => return Response::error(400, "bad last parameter"),
        },
    };
    let snap = mx_obs::trace::TraceSnapshot::capture();
    Response::ok(snap.deterministic_json_last(Some(last)))
}

/// `/debug/attribution`: inclusive/exclusive per-stage time, serial
/// fraction and critical path, deterministic (sim-derived) form.
fn debug_attribution() -> Response {
    Response::ok(mx_obs::attrib::Attribution::capture().deterministic_json())
}

/// A strong validator fingerprint for an open store, derived from the
/// digest sections: epoch count, labels, kinds and entry counts, plus
/// every digest record `(doc, flags, credit)`. Two stores that answer
/// any cacheable endpoint differently differ in some digest record (the
/// digest mirrors the resolved rows), so their etags differ; appending
/// an epoch always changes the fingerprint.
pub fn store_etag(reader: &StoreReader<'_>) -> u64 {
    let epochs = reader.epoch_count();
    let mut h = Fnv1a::new().feed_u64(epochs as u64);
    for epoch in 0..epochs {
        let base = matches!(reader.epoch_kind(epoch), Some(mx_store::EpochKind::Base));
        h = h
            .feed(reader.label(epoch).unwrap_or("").as_bytes())
            .feed(&[0, base as u8])
            .feed(&reader.entry_count(epoch).unwrap_or(0).to_be_bytes());
        for row in reader.digest_rows(epoch).into_iter().flatten() {
            h = h
                .feed_u64(row.doc as u64)
                .feed(&[row.has_smtp as u8, row.self_hosted as u8])
                .feed(row.credit.unwrap_or("").as_bytes())
                .feed(&[0]);
        }
    }
    h.digest64()
}

/// Build the `/lookup` response from a rendered row fragment — the one
/// entry point both the live path and the hot-row cache path share, so
/// their bytes cannot diverge.
pub fn lookup_response(domain: &str, epoch: usize, fragment: &str) -> Response {
    if fragment == "null" {
        return Response::error(404, "unknown domain");
    }
    Response::ok(format!(
        "{{\"domain\":{},\"epoch\":{},\"row\":{}}}",
        json_str(domain),
        epoch,
        fragment
    ))
}

/// Hot-row cache key for one `(domain, epoch)` lookup.
pub fn row_cache_key(domain: &str, epoch: usize) -> String {
    format!("{domain}@{epoch}")
}

/// The row-cache probe for a request, when it is a well-formed lookup:
/// `(key, domain, epoch)`.
pub fn row_cache_probe(state: &ServeState<'_>, req: &Request) -> Option<(String, String, usize)> {
    if Endpoint::of(&req.path) != Endpoint::Lookup {
        return None;
    }
    let domain = req.param("domain")?;
    if domain.is_empty() || domain.len() > 255 {
        return None;
    }
    let epochs = state.reader.epoch_count();
    let epoch = match req.param("epoch") {
        None => epochs.saturating_sub(1),
        Some(s) => parse_usize(s).filter(|e| *e < epochs)?,
    };
    Some((row_cache_key(domain, epoch), domain.to_string(), epoch))
}

/// Rendered-JSON cache key: the normalized request target. `None` for
/// requests that must not be served from cache (`/healthz` stays live,
/// unknown endpoints are cheap 404s, and the `/metrics` + `/debug/*`
/// introspection bodies change between requests).
pub fn json_cache_key(req: &Request) -> Option<String> {
    match Endpoint::of(&req.path) {
        Endpoint::Healthz
        | Endpoint::Metrics
        | Endpoint::DebugTrace
        | Endpoint::DebugAttribution
        | Endpoint::Other => None,
        _ => {
            let mut key = req.path.clone();
            for (k, v) in &req.query {
                key.push('&');
                key.push_str(k);
                key.push('=');
                key.push_str(v);
            }
            Some(key)
        }
    }
}

/// Render one store row as a JSON fragment (the hot-row cache value).
pub fn render_row(row: &mx_store::Row<'_>) -> String {
    let shares = json_arr(row.shares().map(|s| {
        let company = match s.company {
            Some(c) => json_str(c),
            None => "null".to_string(),
        };
        format!(
            "{{\"provider\":{},\"company\":{},\"weight\":{}}}",
            json_str(s.provider),
            company,
            json_f64(s.weight),
        )
    }));
    let dominant = match row.dominant() {
        Some(s) => json_str(s.provider),
        None => "null".to_string(),
    };
    format!(
        "{{\"has_smtp\":{},\"dominant\":{},\"shares\":{}}}",
        row.has_smtp(),
        dominant,
        shares
    )
}

/// Should this request's successful response land in the JSON cache?
/// (Only 200s are cached; errors are cheap to re-render.)
pub fn cacheable(resp: &Response) -> bool {
    resp.status == 200
}

/// Is this a HEAD request (body rendered for length, then omitted)?
pub fn head_only(req: &Request) -> bool {
    req.method == Method::Head
}

/// Strict bounded decimal parse for path/query numbers.
fn parse_usize(s: &str) -> Option<usize> {
    if s.is_empty() || s.len() > 6 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse::<usize>().ok()
}

/// Map a store-layer failure to a response: epoch misses are client
/// errors, anything else is a 500 (and counts as `errored` in the
/// reconciliation identity, never a dropped connection).
fn store_error(e: &StoreError) -> Response {
    match e {
        StoreError::EpochOutOfRange { .. } => Response::error(404, "unknown epoch"),
        _ => Response::error(500, "store error"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification() {
        assert_eq!(Endpoint::of("/healthz"), Endpoint::Healthz);
        assert_eq!(Endpoint::of("/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::of("/debug/trace"), Endpoint::DebugTrace);
        assert_eq!(Endpoint::of("/debug/attribution"), Endpoint::DebugAttribution);
        assert_eq!(Endpoint::of("/debug/nope"), Endpoint::Other);
        assert_eq!(Endpoint::of("/lookup"), Endpoint::Lookup);
        assert_eq!(Endpoint::of("/providers/google/domains"), Endpoint::Providers);
        assert_eq!(Endpoint::of("/epochs/0..2/diff"), Endpoint::Diff);
        assert_eq!(Endpoint::of("/nope"), Endpoint::Other);
        assert_eq!(Endpoint::of("/providers//x"), Endpoint::Other);
    }

    #[test]
    fn parse_usize_bounds() {
        assert_eq!(parse_usize("0"), Some(0));
        assert_eq!(parse_usize("123456"), Some(123_456));
        assert_eq!(parse_usize("1234567"), None);
        assert_eq!(parse_usize(""), None);
        assert_eq!(parse_usize("-1"), None);
        assert_eq!(parse_usize("1x"), None);
    }

    #[test]
    fn lookup_response_paths_share_bytes() {
        let live = lookup_response("a.com", 2, "{\"has_smtp\":true}");
        let cached = lookup_response("a.com", 2, "{\"has_smtp\":true}");
        assert_eq!(live, cached);
        assert_eq!(lookup_response("a.com", 0, "null").status, 404);
    }
}
