//! Seeded model test: `Name` (one wire-form buffer) against a test-local
//! `Vec<String>` reference model — the representation `Name` used to
//! have. Every operation must agree with the model: `Eq`/`Ord`/`Hash`,
//! `parent`/`child`/`join`, wildcards, label-aligned `is_subdomain_of`,
//! `Display`/`Debug`, and the wire codec, whose compressed output must be
//! byte-identical to the model's dotted-suffix compression table.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use mx_dns::{Name, WireReader, WireWriter};
use mx_rng::SmallRng;

const CASES: u64 = 400;

/// Reference model: lower-cased labels, left to right.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Model(Vec<String>);

impl Model {
    fn of(name: &Name) -> Model {
        Model(name.labels().map(str::to_string).collect())
    }

    fn cmp(&self, other: &Model) -> Ordering {
        self.0.iter().rev().cmp(other.0.iter().rev())
    }

    fn parent(&self) -> Option<Model> {
        self.0.split_first().map(|(_, rest)| Model(rest.to_vec()))
    }

    fn child(&self, label: &str) -> Model {
        let mut v = vec![label.to_ascii_lowercase()];
        v.extend(self.0.iter().cloned());
        Model(v)
    }

    fn join(&self, suffix: &Model) -> Model {
        Model(self.0.iter().chain(&suffix.0).cloned().collect())
    }

    fn is_subdomain_of(&self, other: &Model) -> bool {
        other.0.len() <= self.0.len()
            && self
                .0
                .iter()
                .rev()
                .zip(other.0.iter().rev())
                .all(|(a, b)| a == b)
    }

    fn dotted(&self) -> String {
        if self.0.is_empty() {
            ".".to_string()
        } else {
            self.0.join(".")
        }
    }

    fn wire_len(&self) -> usize {
        1 + self.0.iter().map(|l| l.len() + 1).sum::<usize>()
    }
}

mod derived {
    /// The former `Name` layout, for its derived `Debug` output.
    #[derive(Debug)]
    #[allow(dead_code)] // read only through the derived `Debug`
    pub struct Name {
        pub labels: Vec<String>,
    }
}

/// Labels from a small pool, so names share suffixes, collide, and
/// straddle label boundaries (`badexample` vs `example`).
fn gen_label(rng: &mut SmallRng) -> String {
    const POOL: &[&str] = &[
        "a",
        "b",
        "ab",
        "ba",
        "com",
        "Com",
        "example",
        "badexample",
        "EXAMPLE",
        "mx1",
        "x-1",
        "_dmarc",
        "*",
        "z",
    ];
    (*rng.choose(POOL).unwrap()).to_string()
}

/// A random name, checked against the model built straight from the
/// generated labels (so `Model::of` is itself under test).
fn gen_name(rng: &mut SmallRng) -> Name {
    let n = rng.gen_range(0..5usize);
    let labels: Vec<String> = (0..n).map(|_| gen_label(rng)).collect();
    let name = Name::parse(&labels.join(".")).expect("pool labels are valid");
    let model = Model(labels.iter().map(|l| l.to_ascii_lowercase()).collect());
    assert_eq!(Model::of(&name), model, "labels of {name}");
    name
}

fn hash_of(name: &Name) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// The former encoder: compression keyed by the dotted suffix string.
fn model_encode(names: &[Model]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut table: HashMap<String, u16> = HashMap::new();
    for m in names {
        let mut rest: &[String] = &m.0;
        let mut pointed = false;
        while let Some((label, tail)) = rest.split_first() {
            let suffix = rest.join(".");
            if let Some(&off) = table.get(&suffix) {
                buf.extend_from_slice(&(0xC000 | off).to_be_bytes());
                pointed = true;
                break;
            }
            table.insert(suffix, buf.len() as u16);
            buf.push(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
            rest = tail;
        }
        if !pointed {
            buf.push(0);
        }
    }
    buf
}

fn check_single(name: &Name, ctx: &str) {
    let m = Model::of(name);
    assert_eq!(name.to_string(), m.dotted(), "{ctx}: display");
    assert_eq!(name.to_dotted(), m.dotted(), "{ctx}: to_dotted");
    let derived = derived::Name {
        labels: m.0.clone(),
    };
    assert_eq!(format!("{name:?}"), format!("{derived:?}"), "{ctx}: debug");
    assert_eq!(
        format!("{name:#?}"),
        format!("{derived:#?}"),
        "{ctx}: pretty debug"
    );
    assert_eq!(name.label_count(), m.0.len(), "{ctx}: label_count");
    assert_eq!(name.wire_len(), m.wire_len(), "{ctx}: wire_len");
    assert_eq!(name.is_root(), m.0.is_empty(), "{ctx}: is_root");
    assert_eq!(
        name.first_label(),
        m.0.first().map(String::as_str),
        "{ctx}: first_label"
    );
    assert_eq!(
        name.parent().map(|p| Model::of(&p)),
        m.parent(),
        "{ctx}: parent"
    );
    assert_eq!(
        Name::parse(&name.to_string()).as_ref(),
        Ok(name),
        "{ctx}: reparse"
    );
    for label in ["NEW", "*", "a"] {
        let c = name.child(label).expect("short names take a child");
        assert_eq!(Model::of(&c), m.child(label), "{ctx}: child {label}");
        assert!(c.is_strict_subdomain_of(name), "{ctx}: child below parent");
    }
    assert_eq!(
        name.is_wildcard(),
        m.0.first().is_some_and(|l| l == "*"),
        "{ctx}: is_wildcard"
    );
    let wild = name.to_wildcard().map(|w| Model::of(&w));
    assert_eq!(wild, m.parent().map(|p| p.child("*")), "{ctx}: to_wildcard");
}

fn check_pair(x: &Name, y: &Name, ctx: &str) {
    let (mx, my) = (Model::of(x), Model::of(y));
    assert_eq!(x == y, mx == my, "{ctx}: eq");
    assert_eq!(x.cmp(y), mx.cmp(&my), "{ctx}: cmp {x} vs {y}");
    assert_eq!(x.partial_cmp(y), Some(mx.cmp(&my)), "{ctx}: partial_cmp");
    if x == y {
        assert_eq!(hash_of(x), hash_of(y), "{ctx}: hash agrees with eq");
    }
    assert_eq!(
        x.is_subdomain_of(y),
        mx.is_subdomain_of(&my),
        "{ctx}: {x} under {y}"
    );
    assert_eq!(
        x.is_strict_subdomain_of(y),
        mx.is_subdomain_of(&my) && mx != my,
        "{ctx}: strict {x} under {y}"
    );
    let joined = x.join(y).expect("short names join");
    assert_eq!(Model::of(&joined), mx.join(&my), "{ctx}: join");
}

#[test]
fn name_agrees_with_the_vec_of_strings_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x4E41_4D45 ^ case);
        let names: Vec<Name> = (0..8).map(|_| gen_name(&mut rng)).collect();
        let ctx = format!("case {case}");
        for x in &names {
            check_single(x, &ctx);
            for y in &names {
                check_pair(x, y, &ctx);
            }
        }
        // Sorting agrees with the model's canonical order.
        let mut sorted = names.clone();
        sorted.sort();
        let mut models: Vec<Model> = names.iter().map(Model::of).collect();
        models.sort_by(Model::cmp);
        let got: Vec<Model> = sorted.iter().map(Model::of).collect();
        assert_eq!(got, models, "{ctx}: sort order");
    }
}

#[test]
fn subdomain_test_respects_label_boundaries() {
    let p = |s: &str| Name::parse(s).unwrap();
    assert!(!p("badexample.com").is_subdomain_of(&p("example.com")));
    assert!(!p("xa.b").is_subdomain_of(&p("a.b")));
    assert!(p("x.example.com").is_subdomain_of(&p("example.com")));
    assert!(p("example.com").is_subdomain_of(&Name::root()));
    assert!(!Name::root().is_subdomain_of(&p("com")));
}

#[test]
fn codec_round_trips_and_compresses_like_the_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC0DE_C000 ^ case);
        let names: Vec<Name> = (0..rng.gen_range(1..7usize))
            .map(|_| gen_name(&mut rng))
            .collect();
        let mut w = WireWriter::new();
        for n in &names {
            w.put_name(n).unwrap();
        }
        let bytes = w.into_bytes();
        let models: Vec<Model> = names.iter().map(Model::of).collect();
        assert_eq!(
            bytes,
            model_encode(&models),
            "case {case}: compressed bytes"
        );
        let mut r = WireReader::new(&bytes);
        for n in &names {
            assert_eq!(&r.get_name().unwrap(), n, "case {case}: decode(encode(x))");
        }
        assert_eq!(r.remaining(), 0, "case {case}: trailing bytes");
    }
}
