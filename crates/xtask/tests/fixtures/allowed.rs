//! Fixture for the waiver ledger: one allow that waives a real site,
//! one stale allow that waives nothing.

pub fn sanctioned() {
    // audit: allow(thread-discipline, fixture exercises the waiver path)
    std::thread::spawn(|| {});
}

// audit: allow(metrics-discipline, stale — this waives nothing)
pub fn clean() {}
