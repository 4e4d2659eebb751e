//! The three benchmark workloads and the precomputed-partition adapter.
//!
//! * `hex_bsp` — the thesis's generic hex-grid workload scaled up: plain
//!   BSP, Figure-8 exchange, no balancing. Host time goes to the iteration
//!   loop (compute, pack/encode, transport, unpack/promote).
//! * `battlefield_dynamic` — the battlefield simulator with diffusion
//!   balancing and delta exchange: load imbalance forms as the armies
//!   close, so it is the only workload that migrates tasks.
//! * `hex_out_of_core` — a large hex grid under paging, checkpoints and
//!   state audits: set-up is dominated by Metis, the run by pager I/O,
//!   checkpoint staging and audit folds.
//!
//! The seed feeds the battlefield scenario. The hex workloads are fixed
//! lattices with no random input, so their answers, virtual times and
//! counts are the same for every seed; only host time varies.

use crate::measure::{bench, Opts, Outcome, Workload};
use ic2_balance::NoBalancer;
use ic2_battlefield::{BattlefieldProgram, Scenario};
use ic2_graph::generators::hex_grid_n;
use ic2_graph::{Graph, Partition};
use ic2_partition::metis::Metis;
use ic2_partition::StaticPartitioner;
use ic2mpi::{AvgProgram, EvictionPolicy, RunConfig};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["hex_bsp", "battlefield_dynamic", "hex_out_of_core"];

/// Run the named workload, one of [`NAMES`].
pub fn run(name: &str, opts: &Opts) -> Outcome {
    let metis = Metis::default();
    match name {
        "hex_bsp" => bench(
            opts,
            Workload {
                generate: || (hex_grid_n(32_768), AvgProgram::fine()),
                partitioner: metis,
                cfg: RunConfig::new(8, 600),
                make_balancer: || NoBalancer,
            },
        ),
        "battlefield_dynamic" => {
            let scenario = Scenario {
                rows: 128,
                cols: 128,
                deployment_depth: 24,
                max_units_per_cell: 3,
                seed: opts.seed,
            };
            bench(
                opts,
                Workload {
                    generate: || {
                        let program = BattlefieldProgram::new(&scenario);
                        (program.terrain(), program)
                    },
                    partitioner: metis,
                    cfg: ic2_bench::workloads::dynamic_cfg(8, 50).with_delta_exchange(),
                    make_balancer: ic2_bench::workloads::figure_balancer,
                },
            )
        }
        "hex_out_of_core" => bench(
            opts,
            Workload {
                generate: || (hex_grid_n(262_144), AvgProgram::fine()),
                partitioner: metis,
                // 500 buckets, not 512: 512 matches the grid's row stride,
                // so neighbouring rows would share pages and barely fault.
                cfg: RunConfig::new(16, 3)
                    .with_hash_buckets(500)
                    .with_paging(125, EvictionPolicy::Sieve)
                    .with_checkpointing(2)
                    .with_state_audit(2),
                make_balancer: || NoBalancer,
            },
        ),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

/// A static partitioner that hands back a partition computed earlier, so
/// the timed `try_run` does no partitioning and set-up time and run time
/// cover disjoint work.
pub struct Precomputed<'a>(pub &'a Partition);

impl StaticPartitioner for Precomputed<'_> {
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
