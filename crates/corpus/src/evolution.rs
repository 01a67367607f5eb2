//! The longitudinal churn model.
//!
//! Each domain receives a provider assignment per snapshot. Composition at
//! every snapshot must match the calibrated distribution (Figure 6's
//! curves), while individual domains change provider rarely and
//! *directionally* (Figure 7: shrinking categories feed the growing ones,
//! e.g. self-hosted domains moving to Google/Microsoft).
//!
//! The model is a **minimal-churn Markov coupling**: the initial snapshot
//! samples each domain from its (domain-specific, modulated) distribution;
//! at each subsequent snapshot a domain whose current category *shrank*
//! leaves it with probability `1 - w_new/w_old` and lands on a category
//! with *growing* share, chosen proportionally to the growth. Expected
//! composition therefore tracks the calibrated distribution exactly while
//! per-step churn equals the total share movement — and the flows are
//! directional (shrinking self-hosting feeds growing Google/Microsoft),
//! exactly the Sankey structure of Figure 7. A small per-step redraw
//! probability adds the bidirectional gross churn visible in the paper.

use std::collections::HashMap;

use mx_cert::Fnv1a;

use crate::catalog::{ServiceKind, CATALOG};
use crate::domains::{Dataset, DomainRecord};
use crate::shares::{self, RankStratum, ShareKey};

/// Per-step probability that a domain redraws its quantile (gross churn on
/// top of the directional net flows).
const REDRAW_RATE: f64 = 0.015;

/// Fraction of self-hosted domains that run on rented VPSes with
/// hosting-company hostnames/certificates (§3.2.4's hard case).
const VPS_FRACTION: f64 = 0.08;

/// Fraction of self-hosted domains forging a big provider's banner
/// ("very rare" per §3.1.3).
const FAKE_FRACTION: f64 = 0.01;

/// Who provides mail for a domain at one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderChoice {
    /// A catalog company (index into [`CATALOG`]).
    Company(usize),
    /// A small long-tail provider.
    Small(u16),
    /// Genuinely self-hosted on own infrastructure.
    SelfHosted,
    /// Self-hosted on a VPS rented from a catalog web-hosting company.
    VpsSelfHosted(usize),
    /// Self-hosted, forging the banner/EHLO identity of a catalog company.
    FakeClaim(usize),
    /// MX points at infrastructure with no SMTP service.
    NoMail,
    /// MX name does not resolve.
    Dangling,
}

/// How the domain's MX record is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MxStyle {
    /// The provider is named in the MX (`aspmx.l.google.com`).
    Named,
    /// A host under the customer's own domain resolves to provider IPs
    /// (the `mailhost.gsipartners.com` case).
    CustomHost,
    /// The web-hosting default `mx.<domain>` pointing at shared hosting
    /// infrastructure.
    WebDefault,
}

/// TLS posture of a self-hosted/small-provider server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertQuality {
    /// Valid CA-signed certificate under the operator's own name.
    ValidCa,
    /// Self-signed certificate (not browser-trusted).
    SelfSigned,
    /// No STARTTLS at all.
    None,
}

/// A domain's full assignment at one snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Who provides mail.
    pub choice: ProviderChoice,
    /// How the MX record is written.
    pub style: MxStyle,
    /// TLS posture (consulted for self-hosted/small servers).
    pub cert: CertQuality,
    /// Banner carries no usable FQDN (`localhost`, `IP-1-2-3-4`).
    pub banner_junk: bool,
}

/// Per-snapshot assignments for a population.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Which corpus the timeline covers.
    pub dataset: Dataset,
    /// `assignments[snapshot][domain_index]`.
    pub assignments: Vec<Vec<Assignment>>,
    /// Number of small long-tail providers backing `Small(_)` choices.
    pub small_provider_count: u16,
}

impl Timeline {
    /// The assignment of domain `i` at snapshot `k`.
    pub fn at(&self, snapshot: usize, domain_idx: usize) -> &Assignment {
        &self.assignments[snapshot][domain_idx]
    }

    /// Number of snapshots covered.
    pub fn snapshots(&self) -> usize {
        self.assignments.len()
    }
}

/// Deterministic uniform in [0,1) keyed by strings/ints.
///
/// FNV-1a mixes its *low* bits well but leaves the high bits weak on short
/// inputs, so the raw hash is passed through a splitmix64 finalizer before
/// taking the top 53 bits.
fn uniform(seed: u64, domain: &str, salt: &str, extra: u64) -> f64 {
    let h = Fnv1a::new()
        .feed_u64(seed)
        .feed(domain.as_bytes())
        .feed(&[0])
        .feed(salt.as_bytes())
        .feed_u64(extra)
        .digest64();
    (mix64(h) >> 11) as f64 / (1u64 << 53) as f64
}

/// splitmix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The modulated provider distribution for one domain at time `t`. It
/// reads only the domain's [`DistClass`].
fn domain_distribution(d: &DomainRecord, base: &[(ShareKey, f64)]) -> Vec<(ShareKey, f64)> {
    let mut out: Vec<(ShareKey, f64)> = base
        .iter()
        .map(|&(key, w)| {
            let mut m = 1.0;
            if let Some(cc) = d.cctld {
                m *= shares::cctld_multiplier(cc, &key);
            }
            if let Some(rank) = d.rank {
                m *= shares::rank_multiplier(RankStratum::of(rank), &key);
            }
            (key, w * m)
        })
        .collect();
    let total: f64 = out.iter().map(|(_, w)| w).sum();
    for (_, w) in &mut out {
        *w /= total;
    }
    out
}

/// The only inputs [`domain_distribution`] reads from a domain: its ccTLD
/// and rank stratum.
type DistClass = (Option<&'static str>, Option<RankStratum>);

/// A population grouped by [`DistClass`], so each distribution is
/// computed once per class rather than once per domain. The per-class
/// result is the very `Vec` the per-domain call would return, so every
/// `f64` downstream is bit-identical.
struct DistClasses<'d> {
    /// Class index of each domain, in population order.
    of_domain: Vec<usize>,
    /// One representative domain per class, in first-appearance order.
    reps: Vec<&'d DomainRecord>,
}

impl<'d> DistClasses<'d> {
    fn new(domains: &'d [DomainRecord]) -> Self {
        let mut index: HashMap<DistClass, usize> = HashMap::new();
        let mut reps = Vec::new();
        let of_domain = domains
            .iter()
            .map(|d| {
                *index.entry((d.cctld, d.rank.map(RankStratum::of))).or_insert_with(|| {
                    reps.push(d);
                    reps.len() - 1
                })
            })
            .collect();
        DistClasses { of_domain, reps }
    }

    /// Every class's distribution under `base`, indexed by class.
    fn distributions(&self, base: &[(ShareKey, f64)]) -> Vec<Vec<(ShareKey, f64)>> {
        self.reps.iter().map(|d| domain_distribution(d, base)).collect()
    }
}

/// Compute base shares such that the *population mean* of the modulated
/// per-domain distributions equals the calibrated target at time `t`.
///
/// The ccTLD and rank multipliers redistribute preference across
/// sub-populations, but after per-domain renormalisation their aggregate
/// effect would drift off the calibration (e.g. the .ru-heavy tail would
/// inflate Yandex's total). A few rounds of iterative proportional
/// fitting pin the aggregates back to the target while preserving the
/// relative sub-population contrasts.
fn calibrated_base(classes: &DistClasses<'_>, dataset: Dataset, t: f64) -> Vec<(ShareKey, f64)> {
    let target = shares::distribution(dataset, t);
    let mut base = target.clone();
    // Expectation over a bounded sample is plenty accurate and keeps the
    // fit cheap for very large populations.
    let step = (classes.of_domain.len() / 4000).max(1);
    for _ in 0..8 {
        let dists = classes.distributions(&base);
        let mut expected = vec![0.0f64; base.len()];
        let mut count = 0usize;
        for &class in classes.of_domain.iter().step_by(step) {
            for (i, (_, w)) in dists[class].iter().enumerate() {
                expected[i] += w;
            }
            count += 1;
        }
        let mut total = 0.0;
        for (i, (_, w)) in base.iter_mut().enumerate() {
            let exp = expected[i] / count as f64;
            let tgt = target[i].1;
            if exp > 1e-12 {
                *w *= (tgt / exp).clamp(0.2, 5.0);
            }
            total += *w;
        }
        for (_, w) in &mut base {
            *w /= total;
        }
    }
    base
}

/// Catalog index of a company name (panics on calibration typos, which
/// `shares` tests already reject).
fn company_index(name: &str) -> usize {
    CATALOG
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown company {name}"))
}

/// Web-hosting companies that rent VPSes (targets for `VpsSelfHosted`).
fn vps_hosts() -> Vec<usize> {
    CATALOG
        .iter()
        .enumerate()
        .filter(|(_, c)| c.rents_vps)
        .map(|(i, _)| i)
        .collect()
}

/// Zipf-like pick over `k` small providers.
fn zipf_pick(u: f64, k: u16) -> u16 {
    // Weights 1/(i+1)^1.1; invert the CDF by linear scan (k is small).
    let s = 1.1;
    let total: f64 = (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(s)).sum();
    let mut acc = 0.0;
    for i in 0..k {
        acc += 1.0 / ((i + 1) as f64).powf(s) / total;
        if u < acc {
            return i;
        }
    }
    k - 1
}

/// Expand a share key into a concrete [`ProviderChoice`] using persistent
/// per-domain randomness.
fn expand_choice(key: ShareKey, seed: u64, name: &str, small_count: u16) -> ProviderChoice {
    match key {
        ShareKey::Company(c) => ProviderChoice::Company(company_index(c)),
        ShareKey::SelfHosted => {
            let u = uniform(seed, name, "selfmode", 0);
            if u < FAKE_FRACTION {
                ProviderChoice::FakeClaim(company_index("Google"))
            } else if u < FAKE_FRACTION + VPS_FRACTION {
                let hosts = vps_hosts();
                let pick = (uniform(seed, name, "vpshost", 0) * hosts.len() as f64) as usize;
                ProviderChoice::VpsSelfHosted(hosts[pick.min(hosts.len() - 1)])
            } else {
                ProviderChoice::SelfHosted
            }
        }
        ShareKey::SmallProviders => {
            let u = uniform(seed, name, "small", 0);
            ProviderChoice::Small(zipf_pick(u, small_count))
        }
        ShareKey::NoMail => ProviderChoice::NoMail,
        ShareKey::Dangling => ProviderChoice::Dangling,
    }
}

/// Derive the stable style/cert attributes for a (domain, choice) pair.
fn attributes(seed: u64, name: &str, choice: ProviderChoice) -> Assignment {
    let u_style = uniform(seed, name, "style", choice_tag(choice));
    let u_cert = uniform(seed, name, "cert", choice_tag(choice));
    let u_banner = uniform(seed, name, "banner", choice_tag(choice));
    let (style, cert, banner_junk) = match choice {
        ProviderChoice::Company(i) => {
            let c = &CATALOG[i];
            match c.kind {
                ServiceKind::WebHosting => {
                    let style = if u_style < 0.70 {
                        MxStyle::WebDefault
                    } else if u_style < 0.95 {
                        MxStyle::Named
                    } else {
                        MxStyle::CustomHost
                    };
                    (style, CertQuality::ValidCa, false)
                }
                ServiceKind::GovAgency => (MxStyle::Named, CertQuality::ValidCa, false),
                _ => {
                    let style = if u_style < 0.92 {
                        MxStyle::Named
                    } else {
                        MxStyle::CustomHost
                    };
                    (style, CertQuality::ValidCa, false)
                }
            }
        }
        ProviderChoice::Small(_) => {
            let style = if u_style < 0.80 {
                MxStyle::Named
            } else {
                MxStyle::CustomHost
            };
            let cert = if u_cert < 0.55 {
                CertQuality::ValidCa
            } else if u_cert < 0.8 {
                CertQuality::SelfSigned
            } else {
                CertQuality::None
            };
            (style, cert, u_banner < 0.08)
        }
        ProviderChoice::SelfHosted => {
            let cert = if u_cert < 0.30 {
                CertQuality::ValidCa
            } else if u_cert < 0.70 {
                CertQuality::SelfSigned
            } else {
                CertQuality::None
            };
            (MxStyle::CustomHost, cert, u_banner < 0.25)
        }
        ProviderChoice::VpsSelfHosted(_) => {
            // The VPS presents a CA-signed certificate under the *hosting
            // company's* domain — that is what makes the case hard.
            (MxStyle::CustomHost, CertQuality::ValidCa, false)
        }
        ProviderChoice::FakeClaim(_) => (MxStyle::CustomHost, CertQuality::None, false),
        ProviderChoice::NoMail | ProviderChoice::Dangling => {
            (MxStyle::CustomHost, CertQuality::None, false)
        }
    };
    Assignment {
        choice,
        style,
        cert,
        banner_junk,
    }
}

fn choice_tag(c: ProviderChoice) -> u64 {
    match c {
        ProviderChoice::Company(i) => 1000 + i as u64,
        ProviderChoice::Small(i) => 2000 + i as u64,
        ProviderChoice::SelfHosted => 1,
        ProviderChoice::VpsSelfHosted(i) => 3000 + i as u64,
        ProviderChoice::FakeClaim(i) => 4000 + i as u64,
        ProviderChoice::NoMail => 2,
        ProviderChoice::Dangling => 3,
    }
}

/// Number of small long-tail providers for a population of `n` domains.
pub fn small_provider_count(n: usize) -> u16 {
    ((n / 40).clamp(20, 400)) as u16
}

/// Sample a key from a distribution by inverse CDF.
fn sample_key(dist: &[(ShareKey, f64)], u: f64) -> ShareKey {
    let mut acc = 0.0;
    for (key, w) in dist {
        acc += w;
        if u < acc {
            return *key;
        }
    }
    dist.last().expect("non-empty").0
}

/// Sample a destination among keys with growing share, proportional to
/// the growth.
fn sample_growth(old: &[(ShareKey, f64)], new: &[(ShareKey, f64)], u: f64) -> ShareKey {
    debug_assert_eq!(old.len(), new.len());
    let growth: Vec<(ShareKey, f64)> = old
        .iter()
        .zip(new)
        .filter_map(|((k, wo), (k2, wn))| {
            debug_assert_eq!(k, k2);
            (wn > wo).then_some((*k, wn - wo))
        })
        .collect();
    let total: f64 = growth.iter().map(|(_, g)| g).sum();
    if total <= 0.0 {
        // No growth anywhere (static step): stay via fresh sample.
        return sample_key(new, u);
    }
    let mut x = u * total;
    for (k, g) in &growth {
        x -= g;
        if x <= 0.0 {
            return *k;
        }
    }
    growth.last().expect("non-empty").0
}

/// Build the full timeline for a population across snapshot times
/// `ts` (each in `[0, 1]` study time).
pub fn build_timeline(
    domains: &[DomainRecord],
    ts: &[f64],
    seed: u64,
) -> Timeline {
    assert!(!ts.is_empty());
    let dataset = domains.first().map(|d| d.dataset).unwrap_or(Dataset::Alexa);
    let small_count = small_provider_count(domains.len());
    let mut assignments: Vec<Vec<Assignment>> = Vec::with_capacity(ts.len());
    let mut current_keys: Vec<ShareKey> = Vec::with_capacity(domains.len());

    // Calibrated base shares per snapshot time, and each distribution
    // class's modulated shares under them.
    let classes = DistClasses::new(domains);
    let dists: Vec<Vec<Vec<(ShareKey, f64)>>> = ts
        .iter()
        .map(|&t| classes.distributions(&calibrated_base(&classes, dataset, t)))
        .collect();
    let names: Vec<String> = domains.iter().map(|d| d.name.to_dotted()).collect();

    for k in 0..ts.len() {
        let mut snapshot = Vec::with_capacity(domains.len());
        for (i, name) in names.iter().enumerate() {
            let name = name.as_str();
            let class = classes.of_domain[i];
            let key = if k == 0 {
                let u = uniform(seed, name, "init", 0);
                let key = sample_key(&dists[0][class], u);
                current_keys.push(key);
                key
            } else {
                let old_dist = &dists[k - 1][class];
                let new_dist = &dists[k][class];
                let cur = current_keys[i];
                let next = if uniform(seed, name, "redraw", k as u64) < REDRAW_RATE {
                    sample_key(new_dist, uniform(seed, name, "redrawdest", k as u64))
                } else {
                    let w_old = old_dist
                        .iter()
                        .find(|(kk, _)| *kk == cur)
                        .map(|(_, w)| *w)
                        .unwrap_or(0.0);
                    let w_new = new_dist
                        .iter()
                        .find(|(kk, _)| *kk == cur)
                        .map(|(_, w)| *w)
                        .unwrap_or(0.0);
                    let leave_p = if w_old > 0.0 && w_new < w_old {
                        1.0 - w_new / w_old
                    } else {
                        0.0
                    };
                    if uniform(seed, name, "leave", k as u64) < leave_p {
                        sample_growth(
                            old_dist,
                            new_dist,
                            uniform(seed, name, "dest", k as u64),
                        )
                    } else {
                        cur
                    }
                };
                current_keys[i] = next;
                next
            };
            let choice = expand_choice(key, seed, name, small_count);
            snapshot.push(attributes(seed, name, choice));
        }
        assignments.push(snapshot);
    }
    Timeline {
        dataset,
        assignments,
        small_provider_count: small_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains;

    fn count_company(tl: &Timeline, snapshot: usize, name: &str) -> usize {
        let idx = company_index(name);
        tl.assignments[snapshot]
            .iter()
            .filter(|a| a.choice == ProviderChoice::Company(idx))
            .count()
    }

    fn count_self(tl: &Timeline, snapshot: usize) -> usize {
        tl.assignments[snapshot]
            .iter()
            .filter(|a| {
                matches!(
                    a.choice,
                    ProviderChoice::SelfHosted
                        | ProviderChoice::VpsSelfHosted(_)
                        | ProviderChoice::FakeClaim(_)
                )
            })
            .count()
    }

    #[test]
    fn composition_tracks_calibration() {
        let pop = domains::alexa(6000, 5);
        let ts: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let tl = build_timeline(&pop.domains, &ts, 5);
        let n = pop.len() as f64;
        // Google ~26.2% at t=0, ~28.5% at t=1 (within sampling noise;
        // ccTLD modulation shifts the aggregate slightly).
        let g0 = count_company(&tl, 0, "Google") as f64 / n * 100.0;
        let g8 = count_company(&tl, 8, "Google") as f64 / n * 100.0;
        assert!((20.0..32.0).contains(&g0), "google 2017 {g0:.1}%");
        assert!(g8 > g0 + 0.5, "google must grow: {g0:.1} -> {g8:.1}");
        // Self-hosted shrinks.
        let s0 = count_self(&tl, 0) as f64 / n * 100.0;
        let s8 = count_self(&tl, 8) as f64 / n * 100.0;
        assert!(s0 > s8 + 1.5, "self-hosted must shrink: {s0:.1} -> {s8:.1}");
    }

    #[test]
    fn churn_is_rare_and_directional() {
        let pop = domains::alexa(4000, 6);
        let ts: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let tl = build_timeline(&pop.domains, &ts, 6);
        let mut switches = 0;
        for i in 0..pop.len() {
            for k in 1..9 {
                if tl.at(k, i).choice != tl.at(k - 1, i).choice {
                    switches += 1;
                }
            }
        }
        let per_step = switches as f64 / (pop.len() as f64 * 8.0);
        assert!(
            per_step < 0.08,
            "churn per half-year too high: {per_step:.3}"
        );
        assert!(per_step > 0.005, "some churn must occur: {per_step:.4}");
        // Directional: of domains self-hosted in 2017 that switched by
        // 2021, a healthy share lands on Google/Microsoft (Figure 7).
        let google = company_index("Google");
        let microsoft = company_index("Microsoft");
        let mut left_self = 0;
        let mut to_big_two = 0;
        for i in 0..pop.len() {
            if tl.at(0, i).choice == ProviderChoice::SelfHosted
                && tl.at(8, i).choice != ProviderChoice::SelfHosted
            {
                left_self += 1;
                if matches!(tl.at(8, i).choice, ProviderChoice::Company(c) if c == google || c == microsoft)
                {
                    to_big_two += 1;
                }
            }
        }
        assert!(left_self > 0);
        assert!(
            to_big_two as f64 / left_self as f64 > 0.25,
            "{to_big_two}/{left_self} ex-self-hosted went to Google/Microsoft"
        );
    }

    #[test]
    fn cctld_bias_manifests() {
        let pop = domains::alexa(8000, 7);
        let tl = build_timeline(&pop.domains, &[1.0], 7);
        let yandex = company_index("Yandex");
        let tencent = company_index("Tencent");
        let mut ru_yandex = 0;
        let mut ru_total = 0;
        let mut non_ru_yandex = 0;
        let mut non_ru_total = 0;
        let mut cn_tencent = 0;
        let mut cn_total = 0;
        for (i, d) in pop.domains.iter().enumerate() {
            let a = tl.at(0, i);
            match d.cctld {
                Some("ru") => {
                    ru_total += 1;
                    if a.choice == ProviderChoice::Company(yandex) {
                        ru_yandex += 1;
                    }
                }
                Some("cn") => {
                    cn_total += 1;
                    if a.choice == ProviderChoice::Company(tencent) {
                        cn_tencent += 1;
                    }
                }
                _ => {
                    non_ru_total += 1;
                    if a.choice == ProviderChoice::Company(yandex) {
                        non_ru_yandex += 1;
                    }
                }
            }
        }
        let ru_rate = ru_yandex as f64 / ru_total as f64;
        let non_ru_rate = non_ru_yandex as f64 / non_ru_total.max(1) as f64;
        assert!(
            ru_rate > 5.0 * non_ru_rate.max(0.001),
            "yandex .ru {ru_rate:.3} vs elsewhere {non_ru_rate:.3}"
        );
        assert!(
            cn_tencent as f64 / cn_total as f64 > 0.10,
            "tencent under .cn: {cn_tencent}/{cn_total}"
        );
    }

    #[test]
    fn special_modes_present() {
        let pop = domains::alexa(8000, 8);
        let tl = build_timeline(&pop.domains, &[0.0], 8);
        let vps = tl.assignments[0]
            .iter()
            .filter(|a| matches!(a.choice, ProviderChoice::VpsSelfHosted(_)))
            .count();
        let fake = tl.assignments[0]
            .iter()
            .filter(|a| matches!(a.choice, ProviderChoice::FakeClaim(_)))
            .count();
        let nomail = tl.assignments[0]
            .iter()
            .filter(|a| a.choice == ProviderChoice::NoMail)
            .count();
        let dangling = tl.assignments[0]
            .iter()
            .filter(|a| a.choice == ProviderChoice::Dangling)
            .count();
        assert!(vps > 10, "vps mode present: {vps}");
        assert!(fake >= 1, "fake-claim mode present: {fake}");
        assert!(nomail > 100, "no-mail mode present: {nomail}");
        assert!(dangling > 50, "dangling mode present: {dangling}");
    }

    #[test]
    fn deterministic() {
        let pop = domains::gov(500, 9);
        let ts = [0.0, 0.5, 1.0];
        let a = build_timeline(&pop.domains, &ts, 9);
        let b = build_timeline(&pop.domains, &ts, 9);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn attributes_stable_per_provider() {
        let pop = domains::com(2000, 10);
        let ts: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let tl = build_timeline(&pop.domains, &ts, 10);
        for i in 0..pop.len() {
            for k in 1..9 {
                let (prev, cur) = (tl.at(k - 1, i), tl.at(k, i));
                if prev.choice == cur.choice {
                    assert_eq!(prev, cur, "attributes changed without a provider change");
                }
            }
        }
    }

    #[test]
    fn zipf_pick_monotone_head_heavy() {
        let k = 50;
        let mut counts = vec![0usize; k as usize];
        for i in 0..10_000 {
            let u = (i as f64 + 0.5) / 10_000.0;
            counts[zipf_pick(u, k) as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
