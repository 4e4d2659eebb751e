//! Shared workload construction for every experiment: the Section-5
//! parameters, centralised so tables and figures agree.

use ic2_battlefield::{BattlefieldProgram, Scenario};
use ic2_graph::Graph;
use ic2mpi::prelude::*;

/// Processor counts the thesis sweeps.
pub const PROCS: [usize; 5] = [1, 2, 4, 8, 16];

/// Iteration counts of the hex/random execution-time tables.
pub const TABLE_ITERS: [u32; 3] = [10, 15, 20];

/// Simulation steps of the battlefield tables.
pub const BF_STEPS: [u32; 3] = [5, 15, 25];

/// Seeds for the "five different graphs" the thesis averages random-graph
/// results over.
pub const RANDOM_SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

/// A static partitioner that hands back a partition computed once up
/// front, so experiments that run one graph under many configurations pay
/// for the partitioner once instead of once per row.
pub struct Precomputed(pub Partition);

impl StaticPartitioner for Precomputed {
    fn name(&self) -> &'static str {
        "precomputed"
    }

    fn partition(&self, graph: &Graph, nparts: usize) -> Partition {
        assert_eq!(
            graph.num_nodes(),
            self.0.len(),
            "partition is for another graph"
        );
        assert_eq!(
            nparts,
            self.0.num_parts(),
            "partition is for another rank count"
        );
        self.0.clone()
    }
}

/// A hex-grid workload of the thesis's sizes (32/64/96 nodes).
pub fn hex(n: usize) -> Graph {
    ic2_graph::generators::hex_grid_n(n)
}

/// One of the random-graph workloads.
pub fn random(n: usize, seed: u64) -> Graph {
    ic2_graph::generators::thesis_random_graph(n, seed)
}

/// The battlefield program on the thesis's 32×32 terrain.
pub fn battlefield() -> BattlefieldProgram {
    BattlefieldProgram::new(&Scenario::thesis())
}

/// A workload with a tunable fraction of *churning* nodes, built for the
/// delta-exchange experiment: a churner increments its value every
/// iteration (always dirty), every other node holds its value (always
/// clean after the initial sync). Which nodes churn is a deterministic
/// hash of the node id, so the dirty set is stable across runs and modes.
#[derive(Debug, Clone, Copy)]
pub struct ChurnProgram {
    /// Percentage (0–100) of nodes that change every iteration.
    pub churn_pct: u64,
}

impl ChurnProgram {
    fn is_churner(&self, node: ic2_graph::NodeId) -> bool {
        // splitmix64 finalizer: decorrelates the id from the grid layout.
        let mut z = node as u64 ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 100 < self.churn_pct
    }
}

impl NodeProgram for ChurnProgram {
    type Data = i64;
    fn init(&self, node: ic2_graph::NodeId, _graph: &Graph) -> i64 {
        node as i64 + 1
    }
    fn compute(
        &self,
        node: ic2_graph::NodeId,
        own: &i64,
        _neighbors: &[NeighborData<'_, i64>],
        _ctx: &ComputeCtx,
    ) -> i64 {
        if self.is_churner(node) {
            *own + 1
        } else {
            *own
        }
    }
}

/// Baseline static run configuration (virtual-time Origin-2000 model).
pub fn static_cfg(procs: usize, iters: u32) -> RunConfig {
    RunConfig::new(procs, iters)
}

/// The dynamic-balancing bundle used for the static-vs-dynamic figures:
/// balancer invoked every 10 steps as in the thesis, with the §7
/// extensions this reproduction needed to make migration effective
/// (mid-window trigger phase, multi-task batches, load-aware migrant
/// selection) — see EXPERIMENTS.md for the full discussion.
pub fn dynamic_cfg(procs: usize, iters: u32) -> RunConfig {
    RunConfig::new(procs, iters)
        .with_balancing(10)
        .with_balance_offset(5)
        .with_migration_batch(12)
        .with_migrant_policy(MigrantPolicy::LoadAware)
}

/// The dynamic balancer the figures use.
pub fn figure_balancer() -> Diffusion {
    Diffusion { threshold: 0.10 }
}

/// Run the platform like [`ic2mpi::run`], but report configuration
/// mistakes as the typed [`PlatformError`] on stderr and exit 2 instead of
/// unwinding with a panic backtrace. Every experiment goes through this
/// wrapper so `repro` fails cleanly on bad configurations.
pub fn run_reported<P, S, B, F>(
    graph: &Graph,
    program: &P,
    partitioner: &S,
    make_balancer: F,
    cfg: &RunConfig,
) -> RunReport<P::Data>
where
    P: NodeProgram,
    S: ic2_partition::StaticPartitioner + ?Sized,
    B: DynamicBalancer,
    F: Fn() -> B + Sync,
{
    try_run(graph, program, partitioner, make_balancer, cfg).unwrap_or_else(|e| {
        eprintln!("error: {e:?}: {e}");
        std::process::exit(2);
    })
}

/// Run a static AvgProgram workload and return total execution time.
pub fn run_static(graph: &Graph, program: &AvgProgram, procs: usize, iters: u32) -> f64 {
    run_reported(
        graph,
        program,
        &Metis::default(),
        || NoBalancer,
        &static_cfg(procs, iters),
    )
    .total_time
}

/// Average a closure over the five random-graph seeds.
pub fn mean_over_seeds(n: usize, mut f: impl FnMut(&Graph) -> f64) -> f64 {
    let total: f64 = RANDOM_SEEDS.iter().map(|&s| f(&random(n, s))).sum();
    total / RANDOM_SEEDS.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes_match_thesis() {
        assert_eq!(hex(32).num_nodes(), 32);
        assert_eq!(hex(96).num_nodes(), 96);
        assert_eq!(random(64, 0).num_nodes(), 64);
        assert_eq!(battlefield().terrain().num_nodes(), 1024);
    }

    #[test]
    fn dynamic_cfg_enables_balancing() {
        let c = dynamic_cfg(8, 25);
        assert_eq!(c.balance_every, Some(10));
        assert!(c.migration_batch > 1);
    }
}
