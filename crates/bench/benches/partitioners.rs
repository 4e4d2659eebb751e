//! Partitioner throughput on thesis-scale and larger graphs.

use ic2_bench::harness::{bench, header};
use ic2_graph::generators;
use ic2_partition::bands::{RectangularBand, RowBand};
use ic2_partition::graycode::GrayCodeBf;
use ic2_partition::metis::Metis;
use ic2_partition::pagrid::PaGrid;
use ic2_partition::StaticPartitioner;
use std::hint::black_box;

fn bench_partitioners() {
    let battlefield = generators::hex_grid(32, 32);
    let big_random = generators::random_connected(1024, 4.0, 10, 7);
    let hex64 = generators::hex_grid_n(64);
    let hex32k = generators::hex_grid_n(32_768);
    let hex262k = generators::hex_grid_n(262_144);

    header("partition");
    bench("metis_hex64_k8", 20, || {
        Metis::default().partition(black_box(&hex64), 8)
    });
    bench("metis_battlefield_k16", 20, || {
        Metis::default().partition(black_box(&battlefield), 16)
    });
    bench("metis_random1024_k16", 20, || {
        Metis::default().partition(black_box(&big_random), 16)
    });
    // The benchmark workloads' graphs: hex_bsp's and hex_out_of_core's.
    bench("metis_hex32k_k8", 5, || {
        Metis::default().partition(black_box(&hex32k), 8)
    });
    bench("metis_hex262k_k16", 3, || {
        Metis::default().partition(black_box(&hex262k), 16)
    });
    bench("pagrid_battlefield_k16", 20, || {
        PaGrid::default().partition(black_box(&battlefield), 16)
    });
    bench("rowband_battlefield_k16", 20, || {
        RowBand.partition(black_box(&battlefield), 16)
    });
    bench("rect_battlefield_k16", 20, || {
        RectangularBand.partition(black_box(&battlefield), 16)
    });
    bench("graycode_battlefield_k16", 20, || {
        GrayCodeBf.partition(black_box(&battlefield), 16)
    });
}

fn bench_generators() {
    header("generate");
    bench("hex_grid_32x32", 100, || generators::hex_grid(32, 32));
    bench("random_1024_deg4", 100, || {
        generators::random_connected(1024, 4.0, 10, 7)
    });
}

fn main() {
    bench_partitioners();
    bench_generators();
}
