//! Cooperative shutdown signalling.
//!
//! The workspace forbids `unsafe`, so there is no signal handler; the
//! flag is triggered programmatically (`Server::shutdown`, tests).
//! Every server loop polls it between short blocking operations, so a
//! trigger propagates within one poll tick.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A clonable one-way latch: once triggered, it stays triggered.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    triggered: Arc<AtomicBool>,
}

impl ShutdownFlag {
    /// Creates an untriggered flag.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the latch. Idempotent.
    pub fn trigger(&self) {
        self.triggered.store(true, Ordering::Release);
    }

    /// True once [`trigger`](Self::trigger) ran on this flag or a clone.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        self.triggered.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_is_sticky_and_shared_by_clones() {
        let flag = ShutdownFlag::new();
        let clone = flag.clone();
        assert!(!clone.is_triggered());
        flag.trigger();
        flag.trigger(); // idempotent
        assert!(flag.is_triggered() && clone.is_triggered());
    }
}
