//! A memo-served run retains its results, not copies of its names. The
//! Figure-3 grid (zeus/h1/hermes × the five paper images, scale 0.3, memo
//! on) runs pass after pass through one `CampaignScheduler`, as a
//! long-lived deployment does every night, and a global live-byte
//! counting allocator measures the heap each run leaves behind in the
//! ledger and the common storage's name map.
//!
//! This is the only test in its binary: the allocator counts every
//! thread, so another test running beside it would be measured too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use sp_system::core::{CampaignConfig, CampaignOptions, CampaignScheduler, RunConfig, SpSystem};

/// Forwards to the system allocator, keeping a process-wide count of the
/// bytes currently allocated.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; the bookkeeping is one atomic add and
// never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Retained heap a memo-served run may leave behind.
const BYTES_PER_RUN: i64 = 24 * 1024;
const PRIMING_PASSES: usize = 5;
const MEASURED_PASSES: usize = 100;

#[test]
fn a_memo_served_run_retains_at_most_its_budget() {
    let system = SpSystem::new();
    let images: Vec<_> = sp_system::env::catalog::paper_images()
        .into_iter()
        .map(|spec| system.register_image(spec).unwrap())
        .collect();
    let experiments = sp_system::experiments::hera_experiments();
    for def in &experiments {
        system.register_experiment(def.clone()).unwrap();
    }
    let config = CampaignConfig {
        experiments: experiments.iter().map(|def| def.name.clone()).collect(),
        images,
        repetitions: 1,
        run: RunConfig {
            seed: 1,
            scale: 0.3,
            threads: 1,
            description: String::new(),
            memoize: true,
        },
        interval_secs: 86_400,
        options: CampaignOptions {
            memoize: true,
            image_parallel: false,
        },
    };
    let runs_per_pass = config.total_runs() as i64;
    let mut scheduler = CampaignScheduler::new(&system, 2);
    let mut pass = || {
        scheduler.submit(config.clone()).unwrap();
        let report = scheduler.execute().unwrap().pop().unwrap();
        assert!(!report.cancelled && report.completed_repetitions == 1);
    };
    for _ in 0..PRIMING_PASSES {
        pass();
    }
    let before = LIVE.load(Ordering::SeqCst);
    for _ in 0..MEASURED_PASSES {
        pass();
    }
    let per_run = (LIVE.load(Ordering::SeqCst) - before) / (MEASURED_PASSES as i64 * runs_per_pass);
    let passes = (PRIMING_PASSES + MEASURED_PASSES) as i64;
    assert_eq!(system.ledger().run_count() as i64, passes * runs_per_pass);
    assert!(
        per_run <= BYTES_PER_RUN,
        "a memo-served run retained {per_run} B of heap (budget {BYTES_PER_RUN} B)"
    );
}
