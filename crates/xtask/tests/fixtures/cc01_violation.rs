//! CC01 fixture: bare thread/lock primitives outside the audited modules.

use std::sync::Mutex;

/// Shared tally guarded by a bare lock.
pub struct Tally {
    /// Current totals.
    totals: Mutex<Vec<u64>>,
}

/// Spawns a worker thread directly.
pub fn spawn_worker() {
    std::thread::spawn(|| {});
}
