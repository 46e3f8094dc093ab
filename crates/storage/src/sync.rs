//! Poison-recovering wrappers over [`std::sync`] locks.
//!
//! A poisoned lock only means some thread panicked while holding it.
//! Every structure guarded here (unit maps, failure tables, query logs)
//! is valid after any prefix of its mutations, so recovering the guard
//! is always sound — and it keeps panic paths out of library code,
//! which the workspace clippy lints (`unwrap_used`, `expect_used`,
//! `panic`) forbid. What the wrappers cannot stop — a guard held across
//! backend I/O or a pool submission, or locks taken out of order — is
//! `cargo xtask lint`'s `lock-discipline` rule.

#![cfg_attr(test, allow(clippy::disallowed_methods))]
use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// An [`std::sync::RwLock`] whose accessors recover from poisoning
/// instead of panicking.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An [`std::sync::Mutex`] whose accessor recovers from poisoning
/// instead of panicking.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquires the mutex.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_recover() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let r = std::sync::Arc::new(RwLock::new(2u32));
        let (mc, rc) = (m.clone(), r.clone());
        let _ = std::thread::spawn(move || {
            let _g1 = mc.lock();
            let _g2 = rc.write();
            panic!("poison both");
        })
        .join();
        assert_eq!(*m.lock(), 1);
        assert_eq!(*r.read(), 2);
        *r.write() = 3;
        assert_eq!(*r.read(), 3);
    }

    /// A panic after a partial mutation must leave that prefix visible:
    /// the wrappers promise prefix-validity, not rollback.
    #[test]
    fn partial_mutation_before_poison_is_preserved() {
        let m = std::sync::Arc::new(Mutex::new(Vec::<u32>::new()));
        let mc = m.clone();
        let _ = std::thread::spawn(move || {
            let mut g = mc.lock();
            g.push(1);
            g.push(2);
            panic!("poison mid-update");
        })
        .join();
        assert_eq!(*m.lock(), vec![1, 2]);
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
    }

    /// After recovery the lock must still coordinate normally across
    /// threads — poisoning is a one-time event, not a sticky failure.
    #[test]
    fn recovered_locks_remain_usable_across_threads() {
        let r = std::sync::Arc::new(RwLock::new(0u32));
        let rc = r.clone();
        let _ = std::thread::spawn(move || {
            let _g = rc.write();
            panic!("poison");
        })
        .join();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rc = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        *rc.write() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().is_ok());
        }
        assert_eq!(*r.read(), 400);
    }

    /// Readers recover too, and a poisoned `RwLock` still admits
    /// concurrent shared readers afterwards.
    #[test]
    fn poisoned_rwlock_still_allows_concurrent_readers() {
        let r = std::sync::Arc::new(RwLock::new(7u32));
        let rc = r.clone();
        let _ = std::thread::spawn(move || {
            let _g = rc.write();
            panic!("poison");
        })
        .join();
        let g1 = r.read();
        let g2 = r.read();
        assert_eq!(*g1 + *g2, 14);
    }

    #[test]
    fn default_constructs_empty_values() {
        let m: Mutex<Vec<u8>> = Mutex::default();
        let r: RwLock<u32> = RwLock::default();
        assert!(m.lock().is_empty());
        assert_eq!(*r.read(), 0);
    }
}
