//! Property tests for storage backends.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use blot_storage::{Backend, MemBackend, UnitKey};
use proptest::prelude::*;
use std::collections::HashMap;

/// Abstract operations against a backend.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8, Vec<u8>),
    Get(u8, u8),
    Delete(u8, u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4, 0u8..8, prop::collection::vec(any::<u8>(), 0..50))
                .prop_map(|(r, p, b)| Op::Put(r, p, b)),
            (0u8..4, 0u8..8).prop_map(|(r, p)| Op::Get(r, p)),
            (0u8..4, 0u8..8).prop_map(|(r, p)| Op::Delete(r, p)),
        ],
        0..60,
    )
}

proptest! {
    #[test]
    fn mem_backend_behaves_like_a_map(ops in arb_ops()) {
        let backend = MemBackend::new();
        let mut model: HashMap<UnitKey, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(r, p, bytes) => {
                    let key = UnitKey { replica: r.into(), partition: p.into() };
                    backend.put(key, bytes.clone()).unwrap();
                    model.insert(key, bytes);
                }
                Op::Get(r, p) => {
                    let key = UnitKey { replica: r.into(), partition: p.into() };
                    match (backend.get(key), model.get(&key)) {
                        (Ok(a), Some(b)) => prop_assert_eq!(&a, b),
                        (Err(_), None) => {}
                        (got, want) => prop_assert!(
                            false,
                            "mismatch at {key}: backend {:?} vs model {:?}",
                            got.map(|v| v.len()),
                            want.map(Vec::len)
                        ),
                    }
                }
                Op::Delete(r, p) => {
                    let key = UnitKey { replica: r.into(), partition: p.into() };
                    backend.delete(key).unwrap();
                    model.remove(&key);
                }
            }
            // Aggregates always agree.
            prop_assert_eq!(backend.list().len(), model.len());
            prop_assert_eq!(
                backend.total_bytes(),
                model.values().map(|v| v.len() as u64).sum::<u64>()
            );
        }
        // Listing is sorted and complete.
        let mut keys: Vec<UnitKey> = model.keys().copied().collect();
        keys.sort_unstable();
        prop_assert_eq!(backend.list(), keys);
    }
}
