//! A deduplicated put copies nothing: the content store takes the id from
//! the borrowed bytes and returns on a hit before converting them into its
//! shared buffer. Measured with a per-thread counting allocator, as in the
//! workspace's `tests/chain_streaming.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sp_store::{ContentStore, ObjectId};

/// Forwards to the system allocator, counting the bytes this thread
/// allocates. (The default `realloc` goes through `alloc`, so a buffer
/// that grows is counted at each new size.)
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; the bookkeeping only touches a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while thread locals are torn down.
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MB: usize = 1 << 20;

/// Bytes this thread allocates while `f` runs.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let value = f();
    (value, ALLOCATED.with(Cell::get) - before)
}

fn payload() -> Vec<u8> {
    (0..MB).map(|i| (i % 251) as u8).collect()
}

#[test]
fn a_second_put_of_the_same_bytes_copies_nothing() {
    let store = ContentStore::new();
    let id = store.put(payload());
    let again = payload();
    let (second, bytes) = allocated_during(|| store.put(again));
    assert_eq!(second, id);
    assert!(
        bytes < MB as u64,
        "a deduplicated 1 MB put allocated {bytes} bytes"
    );
    let stats = store.stats();
    assert_eq!((stats.inserted, stats.deduplicated), (1, 1));
    assert_eq!(stats.bytes, MB as u64);
}

#[test]
fn a_second_prehashed_put_copies_nothing() {
    let store = ContentStore::new();
    let bytes = payload();
    let id = ObjectId::for_bytes(&bytes);
    store.put_prehashed(id, bytes);
    let again = payload();
    let (second, allocated) = allocated_during(|| store.put_prehashed(id, again));
    assert_eq!(second, id);
    assert!(
        allocated < MB as u64,
        "a deduplicated 1 MB prehashed put allocated {allocated} bytes"
    );
    assert_eq!(store.stats().deduplicated, 1);
}
