//! Heap-allocation budget of the iteration loop.
//!
//! The compute pass reads node data through position hints and reuses one
//! neighbour buffer per list, so a plain BSP iteration allocates per
//! *message* (payloads, buffers, receive plans), never per *node*. This
//! binary counts every allocation the process makes and compares a
//! 10-iteration run with a 20-iteration run of the same configuration: the
//! extra allocations per extra iteration must stay far below one per node.
//!
//! The test lives in its own binary because the counting allocator is
//! process-global: no other test may allocate while it measures.

use ic2mpi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic that never affects the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
fn bsp_iterations_allocate_per_message_not_per_node() {
    let graph = ic2_graph::generators::hex_grid_n(4096);
    let program = AvgProgram::fine();
    let nprocs = 4;
    let fixed = Fixed(Metis::default().partition(&graph, nprocs));
    let allocations = |iterations: u32| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = run(
            &graph,
            &program,
            &fixed,
            || NoBalancer,
            &RunConfig::new(nprocs, iterations),
        );
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(report.final_data.len(), graph.num_nodes());
        spent
    };
    let short = allocations(10);
    let long = allocations(20);
    let per_iteration = long.saturating_sub(short) / 10;
    let budget = graph.num_nodes() as u64 / 8;
    assert!(
        per_iteration < budget,
        "{per_iteration} allocations per extra iteration (10 iters: {short}, \
         20 iters: {long}); budget {budget} = num_nodes / 8"
    );
}
