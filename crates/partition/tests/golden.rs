//! Golden partitions: `Metis::default().partition` must return exactly the
//! recorded assignment for every case below.
//!
//! Each partition is pinned by a 64-bit FNV-1a hash over its assignment
//! (one step per node, folding in the part id). Performance work on the
//! partitioner must keep every hash unchanged: thesis tables, PaGrid
//! results (which start from Metis) and every virtual time in the BENCH
//! snapshots depend on the exact mapping, and benchmark runs show that
//! even a change of Metis seed moves virtual time by several percent.
//!
//! The 262 144-node case takes seconds in release and far longer in debug,
//! so it is `#[ignore]`d; run it with
//! `cargo test --release -p ic2-partition --test golden -- --include-ignored`.

use ic2_graph::generators::{hex_grid, hex_grid_n, thesis_random_graph, torus};
use ic2_graph::{Graph, GraphBuilder, Partition};
use ic2_partition::metis::Metis;
use ic2_partition::StaticPartitioner;

/// FNV-1a over the assignment, one multiply per element.
fn fnv1a(part: &Partition) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in part.as_slice() {
        h ^= u64::from(p);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(name: &str, graph: &Graph, k: usize, expected: u64) {
    let part = Metis::default().partition(graph, k);
    let got = fnv1a(&part);
    assert_eq!(
        got, expected,
        "{name} k={k}: partition hash {got:016x}, expected {expected:016x}"
    );
}

/// A hex grid whose edge weights sit just above 2⁴⁰, so FM gains exceed
/// the range of a 32-bit key. The small per-edge variation keeps ties
/// rare, so the heavy-edge matching and gain order both matter.
fn heavy_hex(rows: usize, cols: usize) -> Graph {
    let base = hex_grid(rows, cols);
    let mut b = GraphBuilder::new(base.num_nodes());
    for (u, v, _) in base.edges() {
        b.weighted_edge(u, v, (1 << 40) + i64::from((u * 7 + v * 13) % 97));
    }
    b.build()
}

/// The weighted path from the Metis unit tests: heavy end vertices.
fn weighted_path() -> Graph {
    let mut b = GraphBuilder::new(6);
    for i in 0..5u32 {
        b.edge(i, i + 1);
    }
    b.vertex_weights(vec![10, 1, 1, 1, 1, 10]);
    b.build()
}

const KS: [usize; 5] = [2, 3, 4, 8, 16];

#[test]
fn hex_32k_k8() {
    check(
        "hex_grid_n(32768)",
        &hex_grid_n(32_768),
        8,
        0x83ae_a5c4_82a7_0519,
    );
}

#[test]
fn battlefield_terrain_k8() {
    check("hex 128x128", &hex_grid(128, 128), 8, 0x6bbf_fe3c_1b86_d2be);
}

#[test]
#[ignore = "262k nodes: run in release with --include-ignored"]
fn hex_262k_k16() {
    check(
        "hex_grid_n(262144)",
        &hex_grid_n(262_144),
        16,
        0x1860_a858_76bc_c0a0,
    );
}

#[test]
fn thesis_random_graphs() {
    for (s, row) in GOLDEN_RANDOM.iter().enumerate() {
        let g = thesis_random_graph(64, s as u64);
        for (&k, &h) in KS.iter().zip(row) {
            check(&format!("thesis_random_graph(64, {s})"), &g, k, h);
        }
    }
}

#[test]
fn hex_grids() {
    for (&(rows, cols), row) in [(32, 32), (120, 120), (8, 9)].iter().zip(&GOLDEN_HEX) {
        let g = hex_grid(rows, cols);
        for (&k, &h) in KS.iter().zip(row) {
            check(&format!("hex {rows}x{cols}"), &g, k, h);
        }
    }
}

#[test]
fn small_and_special_graphs() {
    check("hex 2x2", &hex_grid(2, 2), 4, GOLDEN_HEX_2X2_K4);
    let t = torus(8, 8);
    for (&k, &h) in [2, 4, 7].iter().zip(&GOLDEN_TORUS) {
        check("torus 8x8", &t, k, h);
    }
    check("weighted path", &weighted_path(), 2, GOLDEN_WEIGHTED_PATH);
}

#[test]
fn edge_weights_near_2_pow_40() {
    let g = heavy_hex(24, 24);
    for (&k, &h) in KS.iter().zip(&GOLDEN_HEAVY) {
        check("heavy hex 24x24", &g, k, h);
    }
}

const GOLDEN_RANDOM: [[u64; 5]; 6] = [
    [
        0xe5848a1b05c62520,
        0xa3a9c22f016b6e83,
        0x96625aa40f469fac,
        0x32c926ceec4b719a,
        0x47a3f790591c39a3,
    ],
    [
        0x6dcf5e82af2d08d5,
        0x1936adcbd3e46d0e,
        0x8ae9a291e7d07c43,
        0x5e0bf029d2d73f6a,
        0x1518dc03539d84ea,
    ],
    [
        0x4515ed7af2fc2451,
        0xeedba31dc8003d6d,
        0x6c0e9c2f681818b4,
        0x27fb0ca4ee247631,
        0x09cc500a37d644f9,
    ],
    [
        0xe3463db9f6118e9f,
        0x3563f95bd4a5fe73,
        0xec14ea2d80d1ad9a,
        0x180beeef54bb7d6b,
        0x70e8b5d2cf1d5c89,
    ],
    [
        0x08d7027a090f6365,
        0xb5f16cf8c8a1056d,
        0xa597a0ffa50b8806,
        0xc587346c7aee8eec,
        0x569285df6c88e75d,
    ],
    [
        0x2b9e7744bf319ff5,
        0xf46a0918d9af878e,
        0xfc8e884d8d7377de,
        0x8fa94f6672f0ed43,
        0x2d75dd89813bb998,
    ],
];

/// Rows: hex 32x32, 120x120, 8x9.
const GOLDEN_HEX: [[u64; 5]; 3] = [
    [
        0x4ebb924fa696cecd,
        0x226e313517e8fb21,
        0xe6c21acbdda2f048,
        0x09829fa3b683ee1c,
        0xa3344169c57d6b55,
    ],
    [
        0x004ae9de6050e8db,
        0xb9565f6402d43475,
        0x9d3b6bad7aa9c3b2,
        0xf9040a2021d34b22,
        0x41b8a70e76cd33d3,
    ],
    [
        0xe9b821556d6dc839,
        0x51c5160bf8262be1,
        0x526c434fcb85ee81,
        0xe0fba2100ed46515,
        0x8dac7b14294a0876,
    ],
];

const GOLDEN_HEX_2X2_K4: u64 = 0x3bcf197f93fb31c3;

/// k = 2, 4, 7.
const GOLDEN_TORUS: [u64; 3] = [0x0b7b897083a0b785, 0xead6636330a66a65, 0xdbeb1aedef1e2171];

const GOLDEN_WEIGHTED_PATH: u64 = 0x6802cfe962c558d6;

const GOLDEN_HEAVY: [u64; 5] = [
    0x23fdf39df35dd632,
    0x9eee206a141230f6,
    0xdbf8a6002982b1e6,
    0xb41e57403cabd57f,
    0xf09a75a01bfcf5ea,
];
