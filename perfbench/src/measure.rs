//! Measuring one workload: timed set-ups, timed platform runs gated on
//! the sequential oracle and on determinism, and one traced pass that
//! records host spans around each public call and reads the platform's
//! virtual-time timeline.

use crate::workloads::Precomputed;
use ic2_balance::DynamicBalancer;
use ic2_graph::{metrics, Graph, Partition};
use ic2_partition::StaticPartitioner;
use ic2mpi::{seq, timeline_json, try_run, NodeProgram, NodeStore, Phase, RunConfig, RunReport};
use mpisim::PayloadMetrics;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per invocation: at least this many...
const MIN_SETUPS: usize = 3;
/// ...and more while they have taken less than this many host seconds...
const SETUP_BUDGET_S: f64 = 2.0;
/// ...up to this many.
const MAX_SETUPS: usize = 15;
/// Timed platform runs per invocation, at least; more while `--seconds`
/// has not elapsed.
const MIN_RUNS: usize = 3;

/// Command-line options shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One workload: how to build its inputs and how to run them.
pub struct Workload<G, S, F> {
    /// Generates the application graph and node program.
    pub generate: G,
    /// The static partitioner `setup_s` times.
    pub partitioner: S,
    /// The platform configuration every timed run uses.
    pub cfg: RunConfig,
    /// Constructs each rank's dynamic balancer.
    pub make_balancer: F,
}

/// A named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one invocation measured.
pub struct Outcome {
    /// Platform runs attempted (timed runs plus the traced run).
    pub attempted: u64,
    /// Runs that errored, panicked, disagreed with the oracle or drifted
    /// from the first run's deterministic counters.
    pub failed: u64,
    /// Every gate violation, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (only with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Human-readable report lines (host spans, per-rank virtual phases).
    pub notes: Vec<String>,
}

/// One platform run's raw observations.
struct Sample<D> {
    run_s: f64,
    peak_rss_mib: f64,
    payload: PayloadMetrics,
    report: RunReport<D>,
}

/// Measure a workload: see the crate docs for the protocol.
pub fn bench<P, G, S, B, F>(opts: &Opts, w: Workload<G, S, F>) -> Outcome
where
    P: NodeProgram,
    G: Fn() -> (Graph, P),
    S: StaticPartitioner,
    B: DynamicBalancer,
    F: Fn() -> B + Sync,
{
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        notes: Vec::new(),
    };
    let nprocs = w.cfg.nprocs;

    // ---- Set-up: generate + partition, several times --------------------
    let (mut gen_s, mut metis_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut inputs: Option<(Graph, P, Partition)> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        let previous = inputs.take().map(|(_, _, p)| p);
        let t0 = Instant::now();
        let (graph, program) = black_box((w.generate)());
        let t1 = Instant::now();
        let partition = black_box(w.partitioner.partition(&graph, nprocs));
        let t2 = Instant::now();
        gen_s.push((t1 - t0).as_secs_f64());
        metis_s.push((t2 - t1).as_secs_f64());
        setup_s.push((t2 - t0).as_secs_f64());
        if previous.is_some_and(|p| p != partition) {
            out.problems
                .push("determinism: partition differs between set-ups".into());
        }
        inputs = Some((graph, program, partition));
    }
    let (graph, program, partition) = inputs.expect("at least one set-up ran");

    // ---- Oracle, outside every timed span --------------------------------
    let oracle = seq::run_sequential(&graph, &program, w.cfg.iterations);
    let seq_cost = seq::sequential_cost(&graph, &program, w.cfg.iterations);
    let updates =
        graph.num_nodes() as f64 * f64::from(w.cfg.iterations) * f64::from(program.phases());

    // ---- Timed runs -------------------------------------------------------
    let mut run_s = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<(Sample<P::Data>, Fingerprint)> = None;
    let started = Instant::now();
    while (out.attempted as usize) < MIN_RUNS || started.elapsed().as_secs_f64() < opts.seconds {
        out.attempted += 1;
        let verdict = execute(&graph, &program, &partition, &w.make_balancer, &w.cfg)
            .and_then(|s| check(&s.report, &partition, &oracle).map(|()| s))
            .and_then(|s| {
                let print = fingerprint(&s.report, &s.payload);
                match first
                    .as_ref()
                    .and_then(|(_, reference)| drift(reference, &print))
                {
                    Some(d) => Err(d),
                    None => Ok((s, print)),
                }
            });
        match verdict {
            Ok((s, print)) => {
                run_s.push(s.run_s);
                rss.push(s.peak_rss_mib);
                first.get_or_insert((s, print));
            }
            Err(e) => {
                // Fail fast: one wrong answer already fails the invocation.
                out.failed += 1;
                out.problems.push(format!("run {}: {e}", out.attempted));
                break;
            }
        }
    }
    out.notes.push(format!("timed runs: {}", fmt_list(&run_s)));
    out.notes.push(format!("peak RSS:   {}", fmt_list(&rss)));
    out.notes
        .push(format!("set-ups:    {}", fmt_list(&setup_s)));
    let Some((sample, reference)) = first else {
        return out;
    };
    let report = &sample.report;
    let run_median = median(&run_s);
    out.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("run_s", run_median, "s"),
        metric("node_updates_per_s", updates / run_median, "1/s"),
        metric("virtual_s", report.total_time, "vs"),
        metric("virtual_speedup", seq_cost / report.total_time, "x"),
        // The first run's peak: later runs start on heap the allocator kept
        // from earlier ones (even after a trim), so their marks creep up.
        metric("peak_rss_mib", rss[0], "MiB"),
    ];
    if !opts.trace {
        return out;
    }

    // ---- Traced pass ------------------------------------------------------
    let mut spans = Spans::new();
    let root = spans.open("traced_run", None);
    let (graph, program) = spans.time("generate", root, || (w.generate)());
    let traced_partition = spans.time("partition", root, || {
        w.partitioner.partition(&graph, nprocs)
    });
    if traced_partition != partition {
        out.problems
            .push("traced pass: partition differs from the timed set-ups".into());
    }
    let mut stores: Vec<NodeStore<P::Data>> = spans.time("store_build", root, || {
        (0..nprocs as u32)
            .map(|r| NodeStore::build(&graph, &partition, r, &program, w.cfg.hash_buckets))
            .collect()
    });
    let stored_nodes: usize = stores.iter().map(NodeStore::stored_count).sum();
    spans.time("rebuild_lists", root, || {
        for store in &mut stores {
            store.rebuild_lists(&graph);
        }
    });
    drop(black_box(stores));
    let traced_cfg = w.cfg.clone().with_tracing();
    out.attempted += 1;
    let traced = spans.time("try_run", root, || {
        execute(&graph, &program, &partition, &w.make_balancer, &traced_cfg)
    });
    let traced = traced.and_then(|s| {
        spans.time("oracle_check", root, || {
            check(&s.report, &partition, &oracle)
        })?;
        match drift(&reference, &fingerprint(&s.report, &s.payload)) {
            Some(d) => Err(format!("traced vs untraced: {d}")),
            None => Ok(s),
        }
    });
    spans.close(root);
    out.notes.extend(spans.render());
    let traced = match traced {
        Ok(s) => s,
        Err(e) => {
            out.failed += 1;
            out.problems.push(format!("traced run: {e}"));
            return out;
        }
    };
    let timeline = timeline_json(traced.report.trace.as_deref().unwrap_or_default());
    let (imbalance_ratio, per_rank) = timeline_stats(&timeline, nprocs);
    out.notes.push(
        "rank  compute_vs  comm_vs  integrity_vs  balance_vs   (virtual s, from timeline)".into(),
    );
    for (r, [compute, comm, integrity, balance]) in per_rank.iter().enumerate() {
        out.notes.push(format!(
            "{r:>4}  {compute:>10.6}  {comm:>7.6}  {integrity:>12.6}  {balance:>10.6}"
        ));
    }

    let mean = report.mean_timers();
    let sum = |f: fn(&mpisim::CommStats) -> u64| report.comm.iter().map(f).sum::<u64>() as f64;
    let delta_total = (report.delta_entries_sent + report.delta_entries_skipped) as f64;
    out.per_layer = vec![
        metric("graph.gen_s", median(&gen_s), "s"),
        metric("graph.nodes", graph.num_nodes() as f64, "count"),
        metric("graph.edges", graph.num_edges() as f64, "count"),
        metric("partition.metis_s", median(&metis_s), "s"),
        metric(
            "partition.edge_cut",
            metrics::edge_cut(&graph, &partition) as f64,
            "count",
        ),
        metric(
            "partition.imbalance",
            metrics::imbalance(&graph, &partition),
            "ratio",
        ),
        metric(
            "partition.comm_volume",
            metrics::comm_volume(&graph, &partition) as f64,
            "count",
        ),
        metric("store.build_s", spans.duration("store_build"), "s"),
        metric("store.stored_nodes", stored_nodes as f64, "count"),
        metric(
            "store.rebuild_lists_s",
            spans.duration("rebuild_lists"),
            "s",
        ),
        metric("exchange.compute_vs", mean.get(Phase::Compute), "vs"),
        metric(
            "exchange.compute_overhead_vs",
            mean.get(Phase::ComputationOverhead),
            "vs",
        ),
        metric(
            "exchange.comm_overhead_vs",
            mean.get(Phase::CommunicationOverhead),
            "vs",
        ),
        metric(
            "exchange.communicate_vs",
            mean.get(Phase::Communicate),
            "vs",
        ),
        metric("exchange.init_vs", mean.get(Phase::Initialization), "vs"),
        metric(
            "exchange.delta_sent",
            report.delta_entries_sent as f64,
            "count",
        ),
        metric(
            "exchange.delta_skipped",
            report.delta_entries_skipped as f64,
            "count",
        ),
        metric(
            "exchange.delta_skip_ratio",
            if delta_total > 0.0 {
                report.delta_entries_skipped as f64 / delta_total
            } else {
                0.0
            },
            "ratio",
        ),
        metric("exchange.imbalance_ratio", imbalance_ratio, "ratio"),
        metric("mpisim.msgs", sum(|c| c.msgs_sent), "count"),
        metric("mpisim.bytes", sum(|c| c.bytes_sent), "B"),
        metric("mpisim.barriers", sum(|c| c.barriers), "count"),
        metric(
            "mpisim.peak_mailbox_depth",
            report.peak_mailbox_depth as f64,
            "count",
        ),
        metric(
            "mpisim.payload_allocs",
            sample.payload.allocs as f64,
            "count",
        ),
        metric(
            "mpisim.payload_alloc_bytes",
            sample.payload.alloc_bytes as f64,
            "B",
        ),
        metric(
            "mpisim.payload_shared_clones",
            sample.payload.shared_clones as f64,
            "count",
        ),
        metric("migrate.migrations", report.migrations as f64, "count"),
        metric("migrate.skipped", report.skipped_migrations as f64, "count"),
        metric("migrate.balance_vs", mean.get(Phase::LoadBalancing), "vs"),
        metric("paging.page_faults", report.page_faults as f64, "count"),
        metric("paging.pages_evicted", report.pages_evicted as f64, "count"),
        metric("paging.disk_retries", report.disk_retries as f64, "count"),
        metric("paging.storage_vs", mean.get(Phase::Storage), "vs"),
        metric(
            "paging.faults_per_update",
            report.page_faults as f64 / updates,
            "1/update",
        ),
        metric("checkpoint.bytes", report.checkpoint_bytes as f64, "B"),
        metric(
            "checkpoint.checkpoint_vs",
            mean.get(Phase::Checkpoint),
            "vs",
        ),
        metric("audit.integrity_vs", mean.get(Phase::Integrity), "vs"),
        metric("audit.mismatches", report.audit_mismatches as f64, "count"),
        metric(
            "trace.overhead_frac",
            traced.run_s / run_median - 1.0,
            "ratio",
        ),
    ];
    out
}

/// Run the platform once on the precomputed partition, timing only
/// `try_run`. Process-global state is reset first: the payload counters,
/// and the peak-RSS high-water mark so memory held by the oracle or by
/// earlier runs does not carry over.
fn execute<P, B, F>(
    graph: &Graph,
    program: &P,
    partition: &Partition,
    make_balancer: &F,
    cfg: &RunConfig,
) -> Result<Sample<P::Data>, String>
where
    P: NodeProgram,
    B: DynamicBalancer,
    F: Fn() -> B + Sync,
{
    mpisim::reset_payload_metrics();
    reset_peak_rss();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        try_run(graph, program, &Precomputed(partition), make_balancer, cfg)
    }));
    let run_s = start.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib();
    let payload = mpisim::payload_metrics();
    match result {
        Ok(Ok(report)) => Ok(Sample {
            run_s,
            peak_rss_mib,
            payload,
            report: black_box(report),
        }),
        Ok(Err(e)) => Err(format!("try_run returned an error: {e}")),
        Err(_) => Err("try_run panicked".into()),
    }
}

/// The oracle gate: the run started from the timed partition and its
/// answer equals the sequential executor's exactly, with no clamped
/// timers and no audit mismatches.
fn check<D: PartialEq>(
    report: &RunReport<D>,
    partition: &Partition,
    oracle: &[D],
) -> Result<(), String> {
    if report.initial_partition != *partition {
        return Err("initial_partition differs from the timed partition".into());
    }
    if report.final_data.len() != oracle.len() {
        return Err(format!(
            "final_data has {} nodes, oracle {}",
            report.final_data.len(),
            oracle.len()
        ));
    }
    if let Some(v) = report
        .final_data
        .iter()
        .zip(oracle)
        .position(|(a, b)| a != b)
    {
        return Err(format!("final_data differs from the oracle at node {v}"));
    }
    if report.negative_clamps != 0 {
        return Err(format!("{} negative timer clamps", report.negative_clamps));
    }
    if report.audit_mismatches != 0 {
        return Err(format!("{} audit mismatches", report.audit_mismatches));
    }
    Ok(())
}

/// Named quantities, floats as their bit patterns.
type Fingerprint = Vec<(&'static str, u64)>;

/// Every quantity that must repeat bit-for-bit across runs of one
/// workload: virtual time (total and per phase) and every count. The
/// mailbox peak is left out: it depends on how far host threads ran ahead
/// of each other.
fn fingerprint<D>(r: &RunReport<D>, payload: &PayloadMetrics) -> Fingerprint {
    let sum = |f: fn(&mpisim::CommStats) -> u64| r.comm.iter().map(f).sum::<u64>();
    let mut print = vec![
        ("virtual_s", r.total_time.to_bits()),
        ("mpisim.msgs", sum(|c| c.msgs_sent)),
        ("mpisim.bytes", sum(|c| c.bytes_sent)),
        ("mpisim.barriers", sum(|c| c.barriers)),
        ("mpisim.payload_allocs", payload.allocs),
        ("mpisim.payload_alloc_bytes", payload.alloc_bytes),
        ("mpisim.payload_shared_clones", payload.shared_clones),
        ("migrate.migrations", r.migrations as u64),
        ("migrate.skipped", r.skipped_migrations as u64),
        ("exchange.delta_sent", r.delta_entries_sent),
        ("exchange.delta_skipped", r.delta_entries_skipped),
        ("paging.page_faults", r.page_faults),
        ("paging.pages_evicted", r.pages_evicted),
        ("paging.disk_retries", r.disk_retries),
        ("checkpoint.bytes", r.checkpoint_bytes),
        ("audit.mismatches", r.audit_mismatches),
    ];
    let mean = r.mean_timers();
    print.extend(
        Phase::ALL
            .iter()
            .map(|&p| (p.label(), mean.get(p).to_bits())),
    );
    print
}

fn drift(reference: &Fingerprint, print: &Fingerprint) -> Option<String> {
    reference
        .iter()
        .zip(print)
        .find(|(a, b)| a != b)
        .map(|((name, a), (_, b))| format!("determinism: {name} drifted ({a} then {b})"))
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn fmt_list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Return freed heap to the kernel, then reset its peak-RSS mark (VmHWM)
/// to the current RSS, so the next peak covers live data plus what the
/// next run allocates, not heap that earlier runs or the oracle freed but
/// the allocator kept. Linux only; elsewhere the peak covers the whole
/// process.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time; it only releases free heap pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last reset, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median cross-rank imbalance over iterations, and per-rank virtual
/// seconds summed over iterations as `[compute, comm, integrity,
/// balance]`, read back from [`timeline_json`].
fn timeline_stats(timeline: &str, nprocs: usize) -> (f64, Vec<[f64; 4]>) {
    let number = |s: &str| -> f64 {
        let end = s.find([',', '}', ']']).unwrap_or(s.len());
        s[..end].trim().parse().unwrap_or(0.0)
    };
    let imbalances: Vec<f64> = timeline
        .split("\"imbalance\":")
        .skip(1)
        .map(number)
        .collect();
    let mut per_rank = vec![[0.0; 4]; nprocs];
    for obj in timeline.split("{\"rank\":").skip(1) {
        let obj = &obj[..obj.find('}').unwrap_or(obj.len())];
        let rank = number(obj) as usize;
        let Some(slot) = per_rank.get_mut(rank) else {
            continue;
        };
        for (i, key) in [
            "\"compute\":",
            "\"comm\":",
            "\"integrity\":",
            "\"balance\":",
        ]
        .iter()
        .enumerate()
        {
            if let Some(at) = obj.find(key) {
                slot[i] += number(&obj[at + key.len()..]);
            }
        }
    }
    let imbalance = if imbalances.is_empty() {
        1.0
    } else {
        median(&imbalances)
    };
    (imbalance, per_rank)
}

/// Host-time spans recorded from the benchmark around each call into a
/// layer; kept in memory and rendered when the pass ends.
struct Spans {
    origin: Instant,
    list: Vec<(&'static str, Option<usize>, f64, f64)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.list.push((name, parent, now, now));
        self.list.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.list[id].3 = self.origin.elapsed().as_secs_f64();
    }

    fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let r = black_box(f());
        self.close(id);
        r
    }

    fn duration(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.3 - s.2)
            .sum()
    }

    /// One line per span: name, parent, start, duration and self time
    /// (duration minus the part its children cover), in milliseconds.
    fn render(&self) -> Vec<String> {
        let mut lines =
            vec!["span                parent         start_ms      dur_ms     self_ms".to_string()];
        for (id, &(name, parent, start, end)) in self.list.iter().enumerate() {
            let children: f64 = self
                .list
                .iter()
                .filter(|s| s.1 == Some(id))
                .map(|s| s.3 - s.2)
                .sum();
            let parent = parent.map_or("-", |p| self.list[p].0);
            lines.push(format!(
                "{name:<18}  {parent:<12} {:>10.3}  {:>10.3}  {:>10.3}",
                start * 1e3,
                (end - start) * 1e3,
                (end - start - children) * 1e3
            ));
        }
        lines
    }
}
