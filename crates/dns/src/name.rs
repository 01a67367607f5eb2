//! Domain names with RFC 1035 semantics.

use std::fmt;
use std::str::FromStr;


/// Maximum length of a single label, in bytes (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire, in bytes, including length octets
/// and the root label (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Errors constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (e.g. `a..b`).
    EmptyLabel,
    /// A label exceeded [`MAX_LABEL_LEN`] bytes.
    LabelTooLong(String),
    /// The whole name exceeded [`MAX_NAME_LEN`] wire bytes.
    NameTooLong,
    /// A label contained a byte we do not accept (whitespace, control,
    /// non-ASCII or a dot inside a label).
    BadByte(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {l:?}"),
            NameError::NameTooLong => write!(f, "name exceeds 255 wire bytes"),
            NameError::BadByte(b) => write!(f, "invalid byte {b:#04x} in name"),
        }
    }
}

impl std::error::Error for NameError {}

/// Most labels a name can hold: every label costs at least two wire
/// bytes (length octet + one byte) and the root octet takes one more.
const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;

/// A fully-qualified domain name.
///
/// Stored as one lower-cased wire-form buffer (DNS comparisons are
/// case-insensitive per RFC 4343): a length octet then the label bytes
/// for each label, left to right, without the terminating root octet;
/// the root name is the empty buffer. Length octets are below 64, so the
/// buffer is valid UTF-8 and labels borrow out of it as `&str`. Clone,
/// `parent`, `child` and `join` each allocate once; hashing and equality
/// run over the buffer. `Name` implements `Ord` by the canonical
/// right-to-left label order so that related names sort near each other.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    wire: String,
}

/// Borrowing iterator over a name's labels, left to right.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (label, rest) = split_label(self.rest)?;
        self.rest = rest;
        Some(label)
    }
}

/// Split the first label off a wire-form buffer: `(label, rest)`.
fn split_label(wire: &str) -> Option<(&str, &str)> {
    let len = usize::from(*wire.as_bytes().first()?);
    let label = wire.get(1..=len)?;
    let rest = wire.get(len + 1..)?;
    Some((label, rest))
}

/// Append one label (length octet, then the bytes lower-cased). The
/// caller has checked `label.len() <= MAX_LABEL_LEN`.
pub(crate) fn push_label(wire: &mut String, label: &str) {
    let len = u8::try_from(label.len()).unwrap_or(u8::MAX);
    wire.push(char::from(len));
    wire.extend(label.chars().map(|c| c.to_ascii_lowercase()));
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name {
            wire: String::new(),
        }
    }

    /// Parse a dotted name. Accepts an optional trailing dot; `"."` and `""`
    /// both denote the root. Underscores and hyphens are accepted anywhere
    /// (measurement reality: `_dmarc`, hosts with leading digits, etc.).
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        let mut wire = String::with_capacity(s.len().saturating_add(1).min(MAX_NAME_LEN));
        for raw in s.split('.') {
            if raw.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if raw.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(raw.to_string()));
            }
            for &b in raw.as_bytes() {
                let ok = b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*';
                if !ok {
                    return Err(NameError::BadByte(b));
                }
            }
            push_label(&mut wire, raw);
        }
        Self::from_wire(wire)
    }

    /// Wrap a wire-form buffer whose labels are already validated and
    /// lower-cased (used by the wire decoder), checking the total length.
    pub(crate) fn from_wire(wire: String) -> Result<Self, NameError> {
        if wire.len() >= MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(Name { wire })
    }

    /// The wire form without the root octet: a length octet then the
    /// label bytes for each label.
    pub(crate) fn wire_bytes(&self) -> &[u8] {
        self.wire.as_bytes()
    }

    /// The labels, left to right (`www`, `example`, `com`).
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// Number of labels; 0 for the root.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Is this the root name?
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Wire-format length in bytes (length octets + label bytes + root 0).
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// The parent name (one label removed from the left); `None` at root.
    pub fn parent(&self) -> Option<Name> {
        let (_, rest) = split_label(&self.wire)?;
        Some(Name {
            wire: rest.to_string(),
        })
    }

    /// Prepend `label`, returning the child name.
    pub fn child(&self, label: &str) -> Result<Name, NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.to_ascii_lowercase()));
        }
        let mut wire = String::with_capacity(MAX_NAME_LEN.min(label.len() + 1 + self.wire.len()));
        push_label(&mut wire, label);
        wire.push_str(&self.wire);
        Self::from_wire(wire)
    }

    /// Join two names: `self` becomes the leftmost part (`mail` + `foo.com`
    /// = `mail.foo.com`).
    pub fn join(&self, suffix: &Name) -> Result<Name, NameError> {
        let mut wire = String::with_capacity(MAX_NAME_LEN.min(self.wire.len() + suffix.wire.len()));
        wire.push_str(&self.wire);
        wire.push_str(&suffix.wire);
        Self::from_wire(wire)
    }

    /// True if `self` equals `other` or is a descendant of it. The root is
    /// an ancestor of everything.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.suffix_offset(other).is_some()
    }

    /// Byte offset of `other` inside `self` when `other` is a
    /// label-aligned suffix of `self` (`self` equals or descends from
    /// `other`): the suffix bytes must match *and* start on one of
    /// `self`'s label boundaries, so `badexample.com` is not below
    /// `example.com`.
    pub(crate) fn suffix_offset(&self, other: &Name) -> Option<usize> {
        let target = self.wire.len().checked_sub(other.wire.len())?;
        if !self.wire.ends_with(other.wire.as_str()) {
            return None;
        }
        let mut pos = 0;
        while pos < target {
            pos += 1 + usize::from(*self.wire.as_bytes().get(pos)?);
        }
        (pos == target).then_some(target)
    }

    /// Strict-descendant test: subdomain but not equal.
    pub fn is_strict_subdomain_of(&self, other: &Name) -> bool {
        self.wire.len() > other.wire.len() && self.is_subdomain_of(other)
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&str> {
        split_label(&self.wire).map(|(label, _)| label)
    }

    /// Replace the leftmost label with `*` (used for wildcard synthesis).
    pub fn to_wildcard(&self) -> Option<Name> {
        let (_, rest) = split_label(&self.wire)?;
        let mut wire = String::with_capacity(MAX_NAME_LEN.min(rest.len() + 2));
        push_label(&mut wire, "*");
        wire.push_str(rest);
        Some(Name { wire })
    }

    /// Is the leftmost label `*`?
    pub fn is_wildcard(&self) -> bool {
        self.first_label() == Some("*")
    }

    /// Dotted string without trailing dot; `.` for the root.
    pub fn to_dotted(&self) -> String {
        self.to_string()
    }

    /// Overwrite `out` with the suffix of `self` that starts at wire
    /// offset `offset` (a label boundary), reusing `out`'s buffer: the
    /// allocation-free way to probe a name-keyed map with each ancestor.
    pub(crate) fn set_to_suffix_of(out: &mut Name, of: &Name, offset: usize) {
        out.wire.clear();
        out.wire.reserve(MAX_NAME_LEN.min(of.wire.len()));
        out.wire.push_str(of.wire.get(offset..).unwrap_or(""));
    }

    /// Wire offsets of the label boundaries from the name itself up to
    /// (excluding) the root: `www.example.com` yields 0, 4, 12.
    pub(crate) fn suffix_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || {
            let len = usize::from(*self.wire.as_bytes().get(pos)?);
            let here = pos;
            pos += 1 + len;
            Some(here)
        })
    }

    /// Start offsets of each label's length octet, left to right, into
    /// `out`; returns how many there are.
    fn label_starts(&self, out: &mut [u8; MAX_LABELS]) -> usize {
        let mut n = 0;
        for (slot, off) in out.iter_mut().zip(self.suffix_offsets()) {
            *slot = u8::try_from(off).unwrap_or(u8::MAX);
            n += 1;
        }
        n
    }

    /// The label whose length octet sits at `start`.
    fn label_at(&self, start: u8) -> &[u8] {
        self.wire
            .get(usize::from(start)..)
            .and_then(split_label)
            .map_or(&[], |(label, _)| label.as_bytes())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(label)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    /// Prints `Name { labels: ["www", "example", "com"] }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<&str> = self.labels().collect();
        f.debug_struct("Name").field("labels", &labels).finish()
    }
}

impl FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Canonical DNS order: compare labels right to left.
        if self.wire == other.wire {
            return std::cmp::Ordering::Equal;
        }
        let mut a = [0u8; MAX_LABELS];
        let mut b = [0u8; MAX_LABELS];
        let na = self.label_starts(&mut a);
        let nb = other.label_starts(&mut b);
        let pairs = a.iter().take(na).rev().zip(b.iter().take(nb).rev());
        for (&sa, &sb) in pairs {
            match self.label_at(sa).cmp(other.label_at(sb)) {
                std::cmp::Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        na.cmp(&nb)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Convenience: `name!("example.com")`-style construction in tests and
/// generators; panics on invalid input.
// lint:allow-next-fn(R1): literal-construction macro; panicking on a bad compile-time literal is the contract
#[macro_export]
macro_rules! dns_name {
    ($s:expr) => {
        $crate::Name::parse($s).expect("valid DNS name literal")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = Name::parse("WWW.Example.COM.").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.label_count(), 3);
        assert_eq!(Name::parse(".").unwrap(), Name::root());
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
        assert!(matches!(
            Name::parse(&format!("{}.com", "x".repeat(64))),
            Err(NameError::LabelTooLong(_))
        ));
        assert!(matches!(Name::parse("a b.com"), Err(NameError::BadByte(_))));
        let long = vec!["abcdefgh"; 32].join("."); // 32*9 + 1 > 255
        assert_eq!(Name::parse(&long), Err(NameError::NameTooLong));
    }

    #[test]
    fn case_insensitive_eq() {
        assert_eq!(
            Name::parse("MX.Google.COM").unwrap(),
            Name::parse("mx.google.com").unwrap()
        );
    }

    #[test]
    fn hierarchy() {
        let n = dns_name!("mail.example.com");
        assert_eq!(n.parent().unwrap(), dns_name!("example.com"));
        assert!(n.is_subdomain_of(&dns_name!("example.com")));
        assert!(n.is_subdomain_of(&dns_name!("com")));
        assert!(n.is_subdomain_of(&Name::root()));
        assert!(n.is_subdomain_of(&n));
        assert!(!n.is_strict_subdomain_of(&n));
        assert!(!dns_name!("example.com").is_subdomain_of(&n));
        assert!(!dns_name!("badexample.com").is_subdomain_of(&dns_name!("example.com")));
    }

    #[test]
    fn child_and_join() {
        let base = dns_name!("example.com");
        assert_eq!(base.child("mx1").unwrap(), dns_name!("mx1.example.com"));
        assert_eq!(
            dns_name!("a.b").join(&dns_name!("c.d")).unwrap(),
            dns_name!("a.b.c.d")
        );
    }

    #[test]
    fn wildcards() {
        let n = dns_name!("host.example.com");
        assert_eq!(n.to_wildcard().unwrap(), dns_name!("*.example.com"));
        assert!(dns_name!("*.example.com").is_wildcard());
        assert!(!n.is_wildcard());
    }

    #[test]
    fn ordering_groups_siblings() {
        let mut v = vec![
            dns_name!("b.example.com"),
            dns_name!("example.org"),
            dns_name!("a.example.com"),
            dns_name!("example.com"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                dns_name!("example.com"),
                dns_name!("a.example.com"),
                dns_name!("b.example.com"),
                dns_name!("example.org"),
            ]
        );
    }

    #[test]
    fn wire_len() {
        assert_eq!(Name::root().wire_len(), 1);
        assert_eq!(dns_name!("com").wire_len(), 5);
        assert_eq!(dns_name!("example.com").wire_len(), 13);
    }
}
