//! A counting global allocator — live heap bytes, their peak, and the
//! allocation count — and the process's resident-set peak, CPU time and
//! page faults. The allocator measures memory deterministically, where
//! the resident-set high-water mark swings with page reuse and zero pages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Forwards every call to [`System`] and counts bytes on the way.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so `Relaxed`
// suffices.
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting only
// touches atomics and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Peak live heap since the process started, in MB.
#[must_use]
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / f64::from(1 << 20)
}

/// Allocations (including reallocations) since the process started.
#[must_use]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The resident-set high-water mark (`VmHWM`) in MB; never reset.
#[must_use]
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Field `i` of `/proc/self/stat`, counted from the state field (0),
/// because the command name before it may hold spaces.
fn proc_stat(i: usize) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after
        .split_whitespace()
        .nth(i)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// User plus system CPU seconds this process has used.
#[must_use]
pub fn cpu_seconds() -> f64 {
    (proc_stat(11) + proc_stat(12)) / CLOCK_TICKS_PER_SECOND
}

/// Minor page faults this process has taken.
#[must_use]
pub fn minor_faults() -> u64 {
    proc_stat(7) as u64
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;
