//! Deterministic two-tier response caching.
//!
//! Tier one ([`RowCache`]) holds rendered per-domain lookup fragments;
//! tier two ([`JsonCache`]) holds whole rendered response bodies keyed
//! by the normalized request target. Both are ordinary LRUs with one
//! unusual promise: **eviction is deterministic**. Recency is a logical
//! tick incremented per access — never a wall-clock — and ties cannot
//! occur because ticks are unique, so the same access sequence always
//! leaves the same cache state. The server only touches the caches
//! from its serial admission loop, which makes the access sequence
//! itself thread-count invariant; this file is in the mx-lint
//! `deterministic` scope to keep host-clock and hash-order reads out.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Capacity of the hot-row tier (rendered lookup rows).
pub const MAX_ROW_CACHE: usize = 512;
/// Capacity of the rendered-JSON tier (whole response bodies).
pub const MAX_JSON_CACHE: usize = 128;

/// An LRU with deterministic, tick-ordered eviction.
#[derive(Debug)]
pub struct Lru<V> {
    cap: usize,
    tick: u64,
    map: BTreeMap<String, (u64, V)>,
    order: BTreeMap<u64, String>,
}

impl<V: Clone> Lru<V> {
    /// An empty cache evicting beyond `cap` entries.
    pub fn new(cap: usize) -> Self {
        Lru {
            cap: cap.max(1),
            tick: 0,
            map: BTreeMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, refreshing its recency on a hit. The value is
    /// cloned out, so a tier holding `Arc`s hands out shared bodies.
    pub fn get(&mut self, key: &str) -> Option<V> {
        let tick = self.next_tick();
        match self.map.get_mut(key) {
            None => None,
            Some((at, v)) => {
                // Move the key's own `String` to the new tick: a hit
                // allocates nothing.
                let owned = self.order.remove(at).unwrap_or_else(|| key.to_string());
                *at = tick;
                self.order.insert(tick, owned);
                Some(v.clone())
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, key: String, value: V) {
        let tick = self.next_tick();
        if let Some((old, _)) = self.map.get(&key) {
            self.order.remove(old);
        } else if self.map.len() >= self.cap {
            // Oldest tick = least recently used; ticks are unique so
            // the victim is unambiguous.
            if let Some((&oldest, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&oldest) {
                    self.map.remove(&victim);
                }
            }
        }
        self.order.insert(tick, key.clone());
        self.map.insert(key, (tick, value));
    }

    fn next_tick(&mut self) -> u64 {
        self.tick = self.tick.wrapping_add(1);
        self.tick
    }
}

/// The hot-row tier: rendered JSON fragments for single-domain
/// lookups, keyed `domain@epoch`.
pub type RowCache = Lru<String>;

/// The rendered-body tier: whole JSON response bodies keyed by the
/// normalized request target. Bodies are shared with the responses
/// that write them, so a hit or an insert is a refcount bump.
pub type JsonCache = Lru<Arc<[u8]>>;

/// Both cache tiers plus hit/miss accounting, owned by the server's
/// serial loop.
#[derive(Debug)]
pub struct Caches {
    /// Tier one: rendered lookup rows.
    pub rows: RowCache,
    /// Tier two: rendered response bodies.
    pub json: JsonCache,
}

impl Default for Caches {
    fn default() -> Self {
        Caches {
            rows: Lru::new(MAX_ROW_CACHE),
            json: Lru::new(MAX_JSON_CACHE),
        }
    }
}

impl Caches {
    /// Fresh caches at the configured capacities.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut c: Lru<u32> = Lru::new(2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.get("a"), Some(1)); // refresh a
        c.insert("c".into(), 3); // evicts b, not a
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: Lru<u32> = Lru::new(2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        c.insert("a".into(), 9);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a"), Some(9));
        assert_eq!(c.get("b"), Some(2));
    }

    #[test]
    fn eviction_is_deterministic() {
        // The same access sequence leaves the same state, every time.
        let run = || {
            let mut c: Lru<u32> = Lru::new(3);
            let mut log = Vec::new();
            for i in 0..40u32 {
                let k = format!("k{}", i % 7);
                if let Some(v) = c.get(&k) {
                    log.push((k.clone(), v));
                }
                c.insert(k, i);
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_capacity_clamped() {
        let mut c: Lru<u32> = Lru::new(0);
        c.insert("a".into(), 1);
        assert_eq!(c.get("a"), Some(1));
    }
}
