//! Global counting allocator for heap telemetry.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps four global
//! tallies: allocation calls, bytes requested, bytes currently live, and
//! the high-water mark of live bytes. Binaries opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: netaware_obs::alloc::CountingAlloc = netaware_obs::alloc::CountingAlloc;
//! ```
//!
//! When no binary installs it every counter reads zero, so library code
//! (the profiler above all) can sample [`snapshot`] unconditionally: the
//! deltas just collapse to zero. The counters are process-global and
//! deliberately *not* part of any deterministic artifact — allocation
//! counts depend on thread scheduling (rayon workers grow their pools
//! lazily) and on the allocator itself, so the profile tree's `allocs`
//! and `alloc_bytes` are host observations, like its `wall_ns`.

#![expect(
    clippy::disallowed_types,
    reason = "audited: the process-wide allocation tallies are commutative adds, read only at \
              snapshot points and kept out of every deterministic artifact"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting wrapper around [`System`]. Zero-sized; install with
/// `#[global_allocator]`.
pub struct CountingAlloc;

#[inline]
fn on_alloc(bytes: u64) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(bytes: u64) {
    // `fetch_sub` would wrap if a dealloc ever outran the installs —
    // impossible for a `#[global_allocator]` (it sees the whole process
    // lifetime), but saturate defensively anyway.
    let mut live = LIVE_BYTES.load(Ordering::Relaxed);
    loop {
        let next = live.saturating_sub(bytes);
        match LIVE_BYTES.compare_exchange_weak(live, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => live = seen,
        }
    }
}

// SAFETY: defers every allocation verbatim to `System`; the bookkeeping
// is side-effect-only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Point-in-time view of the global allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Cumulative allocation calls since process start.
    pub allocs: u64,
    /// Cumulative bytes requested since process start.
    pub bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes (since start or last
    /// [`reset_peak`]).
    pub peak_bytes: u64,
}

/// Reads all four counters (zeros when [`CountingAlloc`] is not the
/// process allocator).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Whether the counting allocator appears to be installed (a process
/// that has made it past `main` has certainly allocated).
pub fn is_counting() -> bool {
    ALLOC_CALLS.load(Ordering::Relaxed) != 0
}

/// Restarts the peak tracker from the current live size, so a phase can
/// measure its own high-water mark.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counters
    // move only when the bookkeeping functions are fed directly. One
    // test (not several) because the tallies are process-global.
    #[test]
    fn bookkeeping_tracks_live_peak_and_saturates() {
        let before = snapshot();
        on_alloc(1024);
        on_alloc(512);
        on_dealloc(512);
        let after = snapshot();
        assert_eq!(after.allocs, before.allocs + 2);
        assert_eq!(after.bytes, before.bytes + 1536);
        assert!(after.peak_bytes >= before.live_bytes + 1536);
        assert_eq!(after.live_bytes, before.live_bytes + 1024);

        // A dealloc larger than everything live saturates at zero
        // instead of wrapping.
        on_dealloc(u64::MAX);
        assert_eq!(snapshot().live_bytes, 0);
    }
}
