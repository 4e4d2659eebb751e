//! Heap discipline of the out-of-core path.
//!
//! A page commit encodes the bucket into one reused image buffer, the disk
//! stores that image once for both slots of the page, and a fault decodes
//! straight from the stored image, so a paged iteration allocates per page
//! fault about one decoded bucket and one stored image — not the
//! half-dozen image copies a copy-per-step page path makes. This binary
//! counts every allocation and every live heap byte the process holds and
//! checks two things:
//!
//! - **budget:** the extra allocations of a 20-iteration paged run over a
//!   10-iteration one, per extra page fault, stay at most 4;
//! - **no leak:** consecutive paged runs with checkpoints and audits hand
//!   back every byte they allocate.
//!
//! Both phases run in sequence inside one test, because the counters are
//! process-global: no other test may allocate while they measure.

use ic2mpi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are relaxed atomics that never affect the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Hands back one precomputed partition, so the measured window holds the
/// platform run only.
struct Fixed(Partition);

impl StaticPartitioner for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn partition(&self, _graph: &Graph, _nparts: usize) -> Partition {
        self.0.clone()
    }
}

#[test]
fn paged_runs_allocate_little_per_page_fault_and_leak_nothing() {
    allocations_per_page_fault_stay_within_budget();
    consecutive_paged_runs_return_every_heap_byte();
}

fn allocations_per_page_fault_stay_within_budget() {
    let graph = ic2_graph::generators::hex_grid_n(4096);
    let program = AvgProgram::fine();
    let nprocs = 4;
    let fixed = Fixed(Metis::default().partition(&graph, nprocs));
    let measure = |iterations: u32| {
        let cfg = RunConfig::new(nprocs, iterations)
            .with_hash_buckets(60)
            .with_paging(15, EvictionPolicy::Sieve);
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = run(&graph, &program, &fixed, || NoBalancer, &cfg);
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(report.final_data.len(), graph.num_nodes());
        (spent, report.page_faults)
    };
    let (short, short_faults) = measure(10);
    let (long, long_faults) = measure(20);
    let extra_faults = long_faults - short_faults;
    assert!(
        extra_faults > 1000,
        "the run must page: {extra_faults} extra faults"
    );
    let per_fault = long.saturating_sub(short) as f64 / extra_faults as f64;
    assert!(
        per_fault <= 4.0,
        "{per_fault:.2} allocations per extra page fault (10 iters: {short} allocations, \
         {short_faults} faults; 20 iters: {long}, {long_faults}); budget 4"
    );
}

fn consecutive_paged_runs_return_every_heap_byte() {
    let graph = ic2_graph::generators::hex_grid_n(4096);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let fixed = Fixed(Metis::default().partition(&graph, nprocs));
    let cfg = RunConfig::new(nprocs, 4)
        .with_hash_buckets(40)
        .with_paging(10, EvictionPolicy::Sieve)
        .with_checkpointing(2)
        .with_state_audit(2);
    let start = LIVE_BYTES.load(Ordering::Relaxed);
    for round in 1..=5 {
        let report = run(&graph, &program, &fixed, || NoBalancer, &cfg);
        assert!(report.page_faults > 0, "the run must page");
        drop(report);
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        assert_eq!(
            live - start,
            0,
            "round {round}: {} heap bytes still live after the run",
            live - start
        );
    }
}
