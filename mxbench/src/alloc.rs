//! A counting global allocator.
//!
//! Off by default: every allocation then pays one relaxed atomic load on
//! top of the system allocator. When switched on (the traced run only)
//! it counts bytes allocated and live bytes in per-thread shards, each
//! on its own cache line, so threads do not contend on one counter. The
//! live-byte peak is folded in whenever a thread has allocated another
//! [`PEAK_GRAIN`] bytes, so it is exact to within that grain per thread.
//! All atomics are relaxed: these are statistics that publish no other
//! data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator plus optional byte accounting.
pub struct Counting;

const SHARDS: usize = 16;
/// Bytes a thread allocates between two folds of the live-byte peak.
const PEAK_GRAIN: u64 = 256 * 1024;

#[repr(align(128))]
struct Shard {
    allocated: AtomicU64,
    live: AtomicI64,
    since_fold: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // only used to initialise SHARD
const EMPTY: Shard = Shard {
    allocated: AtomicU64::new(0),
    live: AtomicI64::new(0),
    since_fold: AtomicU64::new(0),
};

static ON: AtomicBool = AtomicBool::new(false);
static SHARD: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates or registers anything.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let i = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    &SHARD[i]
}

fn size_of(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

fn on_alloc(size: usize) {
    let s = shard();
    let n = size_of(size);
    s.allocated.fetch_add(n.unsigned_abs(), Relaxed);
    s.live.fetch_add(n, Relaxed);
    if s.since_fold.fetch_add(n.unsigned_abs(), Relaxed) >= PEAK_GRAIN {
        s.since_fold.store(0, Relaxed);
        PEAK.fetch_max(live(), Relaxed);
    }
}

fn on_free(size: usize) {
    shard().live.fetch_sub(size_of(size), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the accounting only
// touches atomics and a const-initialised thread-local, and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            on_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Relaxed) && !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Start counting. Live bytes restart at zero, so the peak is the peak
/// of bytes allocated since this call and not yet freed (frees of older
/// blocks can take the live level below zero).
pub fn enable() {
    for s in &SHARD {
        s.live.store(0, Relaxed);
    }
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting.
pub fn disable() {
    ON.store(false, Relaxed);
}

/// Bytes allocated while counting was on.
pub fn allocated() -> u64 {
    SHARD.iter().map(|s| s.allocated.load(Relaxed)).sum()
}

/// Live bytes now, relative to the level at [`enable`].
pub fn live() -> i64 {
    SHARD.iter().map(|s| s.live.load(Relaxed)).sum()
}

/// Restart the live-byte peak from the current live level.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

/// Highest live level since the last [`reset_peak`] or [`enable`].
pub fn peak() -> i64 {
    PEAK.fetch_max(live(), Relaxed).max(live())
}
