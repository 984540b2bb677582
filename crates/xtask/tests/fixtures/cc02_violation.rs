//! CC02 fixture: relaxed atomic orderings outside audited metrics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed fetch-add: updates may reorder across threads.
pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

/// Acquire-release swap is still not sequentially consistent.
pub fn swap(counter: &AtomicU64, value: u64) -> u64 {
    counter.swap(value, Ordering::AcqRel)
}
