//! Golden virtual clocks for the per-rank engine.
//!
//! Each case runs one small fixed-seed configuration and pins:
//!
//! * `total_time.to_bits()`;
//! * a 64-bit FNV-1a hash of `final_data` and of every surviving rank's
//!   phase-timer bits (in `Phase::ALL` order);
//! * every run-report counter except `peak_mailbox_depth`, which depends on
//!   how far ahead host threads happened to run.
//!
//! Four traced cases also pin FNV-1a hashes of the rendered
//! `chrome_trace_json` and `timeline_json` files.
//!
//! The cases cover every control-plane path and hook the engine has: plain
//! BSP under both exchange modes, delta exchange, hybrid elision, periodic
//! and emergency balancing, cooperative kills under message faults, bounded
//! mailboxes, crash rollback with replicas, audits with memory rot, paging
//! with disk faults, and partitions that degrade and heal. Refactors of the
//! engine must leave every value here unchanged; a deliberate behaviour
//! change must re-record the affected lines and say why.
//!
//! Fault plans use fixed seeds (never `CHAOS_SEED`): the values are only
//! meaningful for the exact schedule they were recorded from.

use ic2mpi::prelude::*;
use ic2mpi::{chrome_trace_json, timeline_json, Phase, RunReport};
use mpisim::{DiskFault, FaultPlan, NetModel};
use std::time::Duration;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a sequence of 64-bit words, one multiply per word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over bytes (for rendered trace files).
fn fnv1a_bytes(s: &str) -> u64 {
    fnv1a(s.bytes().map(u64::from))
}

fn world(plan: FaultPlan) -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000())
        .with_watchdog(Duration::from_secs(30))
        .with_faults(plan)
}

fn clean_world() -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(30))
}

fn hex(n: usize) -> Graph {
    ic2_graph::generators::hex_grid_n(n)
}

fn run_avg<B: DynamicBalancer>(
    graph: &Graph,
    cfg: &RunConfig,
    balancer: impl Fn() -> B + Sync,
) -> RunReport<i64> {
    let program = AvgProgram::fine();
    let report = run(graph, &program, &Metis::default(), balancer, cfg);
    // Hybrid elision reaches the same fixed point, not the same
    // intermediate values, so only BSP cases are held to the oracle here.
    if cfg.execution == ExecutionPolicy::Bsp {
        let oracle = ic2mpi::seq::run_sequential(graph, &program, cfg.iterations);
        assert_eq!(
            report.final_data, oracle,
            "BSP golden cases are oracle-exact"
        );
    }
    report
}

/// Virtual end time of the fault-free run of the same shape: fault times
/// below are fractions of it, so they land mid-run.
fn clean_total(graph: &Graph, nprocs: usize, iterations: u32) -> f64 {
    run_avg(
        graph,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
        || NoBalancer,
    )
    .total_time
}

/// One canonical line per report: every pinned value, in a fixed order.
fn fingerprint(r: &RunReport<i64>) -> String {
    let data = fnv1a(r.final_data.iter().map(|&d| d as u64));
    let timers = fnv1a(
        r.timers
            .iter()
            .flat_map(|t| Phase::ALL.iter().map(move |&p| t.get(p).to_bits())),
    );
    let owner = fnv1a(r.final_owner.iter().map(|&o| u64::from(o)));
    format!(
        "total={:016x} data={data:016x} timers={timers:016x} owner={owner:016x} \
        \
         migrations={} died={:?} evacuated={} emergency={} skipped={} \
        ckpt_bytes={} \
         rollbacks={} replayed={} credit_stalls={} \
        clamps={} delta_sent={} delta_skipped={} \
         quiescent={} \
        inner={} elided={} degraded={} rejoins={} rejoin_bytes={} suspected={} \
        \
         mem_corrupt={} mismatches={} resyncs={} bad_replicas={} \
        repairs={} page_faults={} \
         evicted={} disk_retries={} torn={} \
        recovered={} faults={:?}",
        r.total_time.to_bits(),
        r.migrations,
        r.ranks_died,
        r.evacuated,
        r.emergency_balances,
        r.skipped_migrations,
        r.checkpoint_bytes,
        r.rollbacks,
        r.iterations_replayed,
        r.credit_stalls,
        r.negative_clamps,
        r.delta_entries_sent,
        r.delta_entries_skipped,
        r.quiescent_iterations,
        r.inner_iterations,
        r.barriers_elided,
        r.degraded_iterations,
        r.rejoins,
        r.rejoin_bytes,
        r.suspected_peak,
        r.memory_corruptions,
        r.audit_mismatches,
        r.shadow_resyncs,
        r.bad_replicas,
        r.repairs,
        r.page_faults,
        r.pages_evicted,
        r.disk_retries,
        r.torn_writes_detected,
        r.pages_recovered,
        r.faults,
    )
}

/// Hashes of the two rendered trace files.
fn trace_fingerprint(r: &RunReport<i64>) -> String {
    let traces = r.trace.as_deref().expect("traced case");
    format!(
        "chrome={:016x} timeline={:016x}",
        fnv1a_bytes(&chrome_trace_json(traces)),
        fnv1a_bytes(&timeline_json(traces))
    )
}

/// Every rank's memory rots at rate `p`.
fn rot_everyone(mut plan: FaultPlan, nprocs: usize, p: f64) -> FaultPlan {
    for r in 0..nprocs {
        plan = plan.with_memory_corrupt(r, p);
    }
    plan
}

fn plain_postcomm() -> RunReport<i64> {
    run_avg(
        &hex(64),
        &RunConfig::new(4, 10).with_world(clean_world()),
        || NoBalancer,
    )
}

fn plain_overlap(tracing: bool) -> RunReport<i64> {
    let mut cfg = RunConfig::new(8, 10)
        .with_exchange(ExchangeMode::Overlap)
        .with_world(clean_world());
    if tracing {
        cfg = cfg.with_tracing();
    }
    run_avg(&hex(64), &cfg, || NoBalancer)
}

fn delta_hybrid(tracing: bool) -> RunReport<i64> {
    let mut cfg = RunConfig::new(8, 12)
        .with_delta_exchange()
        .with_hybrid(3)
        .with_world(clean_world());
    if tracing {
        cfg = cfg.with_tracing();
    }
    run_avg(&hex(64), &cfg, || NoBalancer)
}

fn balance_straggler() -> RunReport<i64> {
    let cfg = RunConfig::new(8, 20)
        .with_balancing(5)
        .with_straggler_detection(2.0, 2)
        .with_world(world(FaultPlan::new(3).with_straggler(1, 4.0)))
        .with_validation();
    run_avg(&hex(64), &cfg, CentralizedHeuristic::default)
}

fn kill_with_message_faults() -> RunReport<i64> {
    let graph = hex(64);
    let at = clean_total(&graph, 8, 16) * 0.4;
    let plan = FaultPlan::new(5)
        .with_drop(0.1)
        .with_dup(0.1)
        .with_reorder(0.1)
        .with_kill(2, at);
    let cfg = RunConfig::new(8, 16)
        .with_balancing(5)
        .with_world(world(plan))
        .with_validation();
    run_avg(&graph, &cfg, || CentralizedHeuristic { threshold: 0.05 })
}

fn capacity_two_delta() -> RunReport<i64> {
    let cfg = RunConfig::new(8, 10)
        .with_delta_exchange()
        .with_world(clean_world().with_mailbox_capacity(2));
    run_avg(&hex(64), &cfg, || NoBalancer)
}

fn crash_rollback_replicated() -> RunReport<i64> {
    let graph = hex(64);
    let at = clean_total(&graph, 8, 12) * 0.55;
    let cfg = RunConfig::new(8, 12)
        .with_checkpointing(3)
        .with_replication(2)
        .with_world(world(FaultPlan::new(9).with_crash(3, at)))
        .with_validation();
    run_avg(&graph, &cfg, || NoBalancer)
}

fn audit_rot_crash() -> RunReport<i64> {
    let graph = hex(64);
    let at = clean_total(&graph, 8, 12) * 0.55;
    let plan = rot_everyone(FaultPlan::new(71), 8, 0.01).with_crash(3, at);
    let cfg = RunConfig::new(8, 12)
        .with_checkpointing(3)
        .with_state_audit(1)
        .with_replication(3)
        .with_world(world(plan))
        .with_validation();
    run_avg(&graph, &cfg, || NoBalancer)
}

fn paging_disk_audit(tracing: bool, crash: bool) -> RunReport<i64> {
    let graph = hex(64);
    let mut plan = FaultPlan::new(101);
    for r in 0..8 {
        plan = plan
            .with_disk_fault(r, DiskFault::TransientError, 0.1)
            .with_disk_fault(r, DiskFault::TornWrite, 0.05);
    }
    if crash {
        plan = plan.with_crash(3, clean_total(&graph, 8, 10) * 0.55);
    }
    let mut cfg = RunConfig::new(8, 10)
        .with_paging(6, EvictionPolicy::Sieve)
        .with_state_audit(2)
        .with_checkpointing(2)
        .with_world(world(plan))
        .with_validation();
    if tracing {
        cfg = cfg.with_tracing();
    }
    run_avg(&graph, &cfg, || NoBalancer)
}

fn hybrid_crash() -> RunReport<i64> {
    let graph = hex(64);
    let at = clean_total(&graph, 8, 12) * 0.5;
    let cfg = RunConfig::new(8, 12)
        .with_hybrid(3)
        .with_checkpointing(4)
        .with_world(world(FaultPlan::new(47).with_crash(3, at)))
        .with_validation();
    run_avg(&graph, &cfg, || NoBalancer)
}

fn partition_heal_delta(tracing: bool) -> RunReport<i64> {
    let graph = hex(64);
    let clean = clean_total(&graph, 4, 12);
    let plan = FaultPlan::new(53)
        .with_partition(vec![vec![0, 1, 2], vec![3]], clean * 0.3, clean * 0.6)
        .with_detect_timeout(5e-4);
    let mut cfg = RunConfig::new(4, 12)
        .with_checkpointing(3)
        .with_delta_exchange()
        .with_partition_tolerance()
        .with_world(world(plan))
        .with_validation();
    if tracing {
        cfg = cfg.with_tracing();
    }
    run_avg(&graph, &cfg, || NoBalancer)
}

fn partition_crash_audit_rot() -> RunReport<i64> {
    let graph = hex(64);
    let clean = clean_total(&graph, 8, 12);
    let plan = rot_everyone(FaultPlan::new(59), 8, 0.005)
        .with_partition(
            vec![vec![0, 1, 2, 3, 4], vec![5, 6, 7]],
            clean * 0.3,
            clean * 0.55,
        )
        .with_crash(2, clean * 0.8)
        .with_detect_timeout(5e-4);
    let cfg = RunConfig::new(8, 12)
        .with_checkpointing(3)
        .with_state_audit(1)
        .with_replication(2)
        .with_partition_tolerance()
        .with_world(world(plan))
        .with_validation();
    run_avg(&graph, &cfg, || NoBalancer)
}

type Case = (&'static str, fn() -> String, &'static str);

const CASES: &[Case] = &[
    (
        "plain_postcomm",
        || fingerprint(&plain_postcomm()),
        "total=3facf3d54f524dc7 data=2ca382f49b03b8dc timers=e8637ed2a5df3ff5 \
        owner=e7a29350a98895ed migrations=0 died=[] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=0 rollbacks=0 replayed=0 credit_stalls=0 clamps=0 \
        delta_sent=340 delta_skipped=0 quiescent=0 inner=0 elided=0 degraded=0 \
        rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 mismatches=0 \
        resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "plain_overlap",
        || fingerprint(&plain_overlap(false)),
        "total=3fa0b6b02ad596b7 data=2ca382f49b03b8dc timers=ca4bfd4d85adcf4c \
        owner=a8c29b4522427a4d migrations=0 died=[] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=0 rollbacks=0 replayed=0 credit_stalls=0 clamps=0 \
        delta_sent=700 delta_skipped=0 quiescent=0 inner=0 elided=0 degraded=0 \
        rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 mismatches=0 \
        resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "delta_hybrid3",
        || fingerprint(&delta_hybrid(false)),
        "total=3fa12de08df4cad4 data=fd4ca546381b4bda timers=6db0dffc991e8b22 \
        owner=a8c29b4522427a4d migrations=0 died=[] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=0 rollbacks=0 replayed=0 credit_stalls=0 clamps=0 \
        delta_sent=210 delta_skipped=0 quiescent=0 inner=9 elided=9 degraded=0 \
        rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 mismatches=0 \
        resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "balance_straggler",
        || fingerprint(&balance_straggler()),
        "total=3fc5174c8900d608 data=e287eacb18284225 timers=274b964060f4b1ca \
        owner=f040ec04cd838fd2 migrations=5 died=[] evacuated=0 emergency=3 \
        skipped=0 ckpt_bytes=0 rollbacks=0 replayed=0 credit_stalls=0 clamps=0 \
        delta_sent=1441 delta_skipped=0 quiescent=0 inner=0 elided=0 degraded=0 \
        rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 mismatches=0 \
        resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "kill_drop_dup_reorder",
        || fingerprint(&kill_with_message_faults()),
        "total=3fbb4095dccb9d80 data=dbf664eb522d889f timers=3c3318e74cab3572 \
        owner=22c8089b8e2339ce migrations=1 died=[2] evacuated=8 emergency=0 \
        skipped=0 ckpt_bytes=0 rollbacks=0 replayed=0 credit_stalls=0 clamps=0 \
        delta_sent=1023 delta_skipped=0 quiescent=0 inner=0 elided=0 degraded=0 \
        rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 mismatches=0 \
        resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 46, \
        delayed: 0, duplicated: 44, reordered: 45, retries: 46, escalations: 0, \
        stale_discarded: 44, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "capacity2_delta",
        || fingerprint(&capacity_two_delta()),
        "total=3fa09534c1390120 data=2ca382f49b03b8dc timers=79d554b40ae4df4d \
        owner=a8c29b4522427a4d migrations=0 died=[] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=0 rollbacks=0 replayed=0 credit_stalls=100 clamps=0 \
        delta_sent=417 delta_skipped=283 quiescent=0 inner=0 elided=0 degraded=0 \
        rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 mismatches=0 \
        resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "crash_rollback_r2",
        || fingerprint(&crash_rollback_replicated()),
        "total=3faf44dc30a08f7b data=a4b07f18e6647c9e timers=7152ee9262ecc116 \
        owner=f1df465880ac9d51 migrations=0 died=[3] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=8584 rollbacks=1 replayed=3 credit_stalls=0 \
        clamps=0 delta_sent=1101 delta_skipped=0 quiescent=0 inner=0 elided=0 \
        degraded=0 rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 \
        mismatches=0 resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "audit1_rot_crash",
        || fingerprint(&audit_rot_crash()),
        "total=3fc3ea3d64d42e80 data=a4b07f18e6647c9e timers=5ec3427bf1cd5696 \
        owner=f1df465880ac9d51 migrations=0 died=[3] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=26028 rollbacks=11 replayed=18 credit_stalls=0 \
        clamps=0 delta_sent=2300 delta_skipped=0 quiescent=0 inner=0 elided=0 \
        degraded=0 rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=140 \
        mismatches=38 resyncs=12 bad_replicas=61 repairs=32 page_faults=0 \
        evicted=0 disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: \
        0, delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 2, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 140, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "paging_disk_audit2_ckpt2",
        || fingerprint(&paging_disk_audit(false, false)),
        "total=3fd9f7344f120c03 data=2ca382f49b03b8dc timers=b5f483fc753b40b9 \
        owner=a8c29b4522427a4d migrations=0 died=[] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=20976 rollbacks=0 replayed=0 credit_stalls=0 \
        clamps=0 delta_sent=700 delta_skipped=0 quiescent=0 inner=0 elided=0 \
        degraded=0 rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 \
        mismatches=0 resyncs=0 bad_replicas=0 repairs=0 page_faults=7961 \
        evicted=7961 disk_retries=2179 torn=120 recovered=0 faults=FaultStats { \
        dropped: 0, delayed: 0, duplicated: 0, reordered: 0, retries: 0, \
        escalations: 0, stale_discarded: 0, crash_timeouts: 0, corrupted: 0, \
        truncated: 0, corruptions_detected: 0, retransmits: 0, nacks: 0, \
        partition_cuts: 0, link_dropped: 0, partition_timeouts: 0, \
        memory_corruptions: 0, disk_transient_errors: 1950, disk_torn_writes: \
        229, disk_read_rots: 0, disk_full_rejections: 0 }",
    ),
    (
        "hybrid_crash",
        || fingerprint(&hybrid_crash()),
        "total=3fae73a16265d0d3 data=8924d47a67e13419 timers=08d04f1bb14526c8 \
        owner=f1df465880ac9d51 migrations=0 died=[3] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=6812 rollbacks=1 replayed=4 credit_stalls=0 \
        clamps=0 delta_sent=288 delta_skipped=0 quiescent=0 inner=12 elided=12 \
        degraded=0 rejoins=0 rejoin_bytes=0 suspected=0 mem_corrupt=0 \
        mismatches=0 resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 2, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 0, \
        link_dropped: 0, partition_timeouts: 0, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "partition_heal_delta",
        || fingerprint(&partition_heal_delta(false)),
        "total=3fb876246be77c46 data=a4b07f18e6647c9e timers=db5ba1872d60261f \
        owner=e7a29350a98895ed migrations=0 died=[] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=6040 rollbacks=1 replayed=4 credit_stalls=0 \
        clamps=0 delta_sent=286 delta_skipped=228 quiescent=0 inner=0 elided=0 \
        degraded=3 rejoins=1 rejoin_bytes=308 suspected=1 mem_corrupt=0 \
        mismatches=0 resyncs=0 bad_replicas=0 repairs=0 page_faults=0 evicted=0 \
        disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: 0, \
        delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 0, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 6, \
        link_dropped: 0, partition_timeouts: 18, memory_corruptions: 0, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
    (
        "partition_crash_audit_rot",
        || fingerprint(&partition_crash_audit_rot()),
        "total=3fc9581b4a0860f8 data=a4b07f18e6647c9e timers=855e989d957191c4 \
        owner=470745a7264a770c migrations=0 died=[2] evacuated=0 emergency=0 \
        skipped=0 ckpt_bytes=32316 rollbacks=17 replayed=27 credit_stalls=0 \
        clamps=0 delta_sent=2307 delta_skipped=0 quiescent=0 inner=0 elided=0 \
        degraded=2 rejoins=1 rejoin_bytes=660 suspected=3 mem_corrupt=78 \
        mismatches=33 resyncs=11 bad_replicas=29 repairs=32 page_faults=0 \
        evicted=0 disk_retries=0 torn=0 recovered=0 faults=FaultStats { dropped: \
        0, delayed: 0, duplicated: 0, reordered: 0, retries: 0, escalations: 0, \
        stale_discarded: 0, crash_timeouts: 4, corrupted: 0, truncated: 0, \
        corruptions_detected: 0, retransmits: 0, nacks: 0, partition_cuts: 11, \
        link_dropped: 0, partition_timeouts: 27, memory_corruptions: 78, \
        disk_transient_errors: 0, disk_torn_writes: 0, disk_read_rots: 0, \
        disk_full_rejections: 0 }",
    ),
];

const TRACED: &[Case] = &[
    (
        "trace_plain_delta_hybrid",
        || trace_fingerprint(&delta_hybrid(true)),
        "chrome=b7bc9fd1c959dca1 timeline=7d4fa6c1a0cd1a85",
    ),
    (
        "trace_plain_overlap",
        || trace_fingerprint(&plain_overlap(true)),
        "chrome=154d4283824045aa timeline=4ab35178a5030edc",
    ),
    (
        "trace_crash_audit_paging",
        || trace_fingerprint(&paging_disk_audit(true, true)),
        "chrome=f67a351478c80cc9 timeline=9db64382bf33050d",
    ),
    (
        "trace_partition_heal",
        || trace_fingerprint(&partition_heal_delta(true)),
        "chrome=6974ef518b457d5f timeline=ca16f22cdf4e9ca4",
    ),
];

/// Run every case and report all mismatches at once (with the values a
/// re-recording would paste in), rather than stopping at the first.
fn check(cases: &[Case]) {
    let mut bad = Vec::new();
    for &(name, f, expected) in cases {
        let got = f();
        if got != expected {
            bad.push(format!("{name}:\n  got      {got}\n  expected {expected}"));
        }
    }
    assert!(bad.is_empty(), "golden mismatches:\n{}", bad.join("\n"));
}

#[test]
fn engine_virtual_clocks_are_pinned() {
    check(CASES);
}

#[test]
fn engine_traces_are_pinned() {
    check(TRACED);
}
