//! Fixture: `#[cfg(not(test))]` code is compiled into every non-test
//! build, so the rules must see it; only items whose predicate requires
//! `test` are skipped.

use std::sync::atomic::AtomicU64;

// Fires: a production global behind a negated `test`.
#[cfg(not(test))]
static HITS: AtomicU64 = AtomicU64::new(0);

impl Store {
    // Fires: the guard is still live across backend I/O.
    #[cfg(not(test))]
    pub fn held_across_io(&self, key: u32) -> usize {
        let guard = self.units.read();
        self.backend.get(key).len() + guard.len()
    }
}

// Quiet: `test` is required, whatever else is.
#[cfg(all(test, not(feature = "off")))]
static TEST_HITS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
mod tests {
    static MORE_TEST_HITS: AtomicU64 = AtomicU64::new(0);

    fn held(&self, key: u32) -> usize {
        let guard = self.units.read();
        self.backend.get(key).len() + guard.len()
    }
}
