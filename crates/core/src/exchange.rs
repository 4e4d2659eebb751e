//! The computation & communication phase (thesis §4.2, Figures 8 and 8a).

use crate::costs::CostModel;
use crate::paging::Pager;
use crate::program::{ComputeCtx, NeighborData, NodeProgram};
use crate::store::{NodeList, NodeStore};
use crate::timers::{Phase, PhaseTimers};
use mpisim::{ArgValue, CtlSlot, CtlVerdict, Envelope, Rank, RetryPolicy};
use std::time::{Duration, Instant};

/// Message tag for shadow-buffer exchange.
pub const TAG_SHADOW: u32 = 1;

/// Per-iteration delta-exchange accounting, summed by the driver across
/// iterations and ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Shadow entries packed into outgoing buffers.
    pub entries_sent: u64,
    /// Shadow entries suppressed because the node's value did not change
    /// (only ever non-zero in delta mode).
    pub entries_skipped: u64,
    /// Peripheral nodes whose value changed this iteration — the quantity
    /// piggybacked on the control exchange; a global sum of zero means the
    /// boundary is quiescent (only tracked in delta mode).
    pub changed_nodes: u64,
}

impl DeltaStats {
    /// Accumulate another iteration's counts.
    pub fn absorb(&mut self, other: DeltaStats) {
        self.entries_sent += other.entries_sent;
        self.entries_skipped += other.entries_skipped;
        self.changed_nodes += other.changed_nodes;
    }
}

/// What one [`step`] observed: this rank's delta accounting, plus whether
/// any awaited sender was confirmed dead and whether any send or receive
/// crossed an active partition. Both flags are local observations; the
/// caller's control plane turns them into an agreed decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// This rank's delta accounting for the round.
    pub delta: DeltaStats,
    /// Some awaited sender had crashed; its stale shadows stood in.
    pub saw_death: bool,
    /// Some frame crossed a partition cut; stale shadows stood in.
    pub saw_cut: bool,
}

/// Per-destination shadow-update buffers (the thesis's array of buffer
/// arrays, one per neighbouring processor).
type ShadowBuffers<D> = Vec<Vec<(u32, D)>>;

/// How computation and communication are sequenced each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// The basic prototype (Figure 8): update internal nodes, update
    /// peripheral nodes while packing buffers, then `MPI_Isend` /
    /// `MPI_Recv` all shadow buffers.
    #[default]
    PostComm,
    /// The overlapped variant (Figure 8a): peripheral nodes first, dispatch
    /// sends, compute internal nodes while the communication is in flight,
    /// then receive and unpack (the thesis's `MPI_Irecv` + `MPI_Wait`:
    /// each receive is charged when it completes, after the compute).
    Overlap,
}

/// Run one compute + communicate round.
///
/// [`ExchangeMode::PostComm`] computes internal nodes, then peripheral
/// nodes (packing as each is updated), then sends and receives.
/// [`ExchangeMode::Overlap`] computes peripheral nodes first, sends, and
/// computes internal nodes while the shadows travel; only then does it
/// receive. Both modes charge every receive at the moment it is consumed
/// (`max(clock, arrival) + recv_overhead`), so compute done after the
/// sends genuinely overlaps communication.
///
/// Receives are crash- and partition-aware. The *never-skip* rule: a
/// receive whose sender has died, or that consumes a partition tombstone,
/// keeps the stale shadow value from the previous round, and the rank runs
/// the rest of its schedule unchanged. Every survivor thus executes the
/// identical sequence of collectives, which is what keeps the failure
/// detector's verdicts aligned; the control plane discards the garbage
/// round by rollback. `frozen` marks ranks the membership layer currently
/// suspects: no buffer is sent to them, and each expected receive from one
/// is replaced by one `detect_timeout` charge in canonical order.
///
/// The round ends with the promote sweep and storage charge; the caller
/// closes it with its control plane's synchronisation. `comp_time_out`
/// accumulates the execution time the load balancer samples (node
/// computation plus its overhead).
#[allow(clippy::too_many_arguments)]
pub fn step<P: NodeProgram>(
    rank: &Rank,
    program: &P,
    store: &mut NodeStore<P::Data>,
    ctx: &ComputeCtx,
    mode: ExchangeMode,
    costs: &CostModel,
    timers: &mut PhaseTimers,
    comp_time_out: &mut f64,
    delta: bool,
    frozen: &[bool],
) -> StepOutcome {
    let comp_t0 = rank.wtime();
    // Delta packing is suspended for one iteration after any structural
    // change (migration, evacuation, restore, genesis): every receiver's
    // retained shadows must be refreshed before dirtiness means anything.
    let delta_active = delta && !store.needs_resync;
    let mut stats = DeltaStats::default();
    let mut buffers: ShadowBuffers<P::Data> = vec![Vec::new(); store.nprocs];
    for (p, buf) in buffers.iter_mut().enumerate() {
        if store.send_counts[p] > 0 {
            buf.reserve(store.send_counts[p]);
        }
    }
    let overlap = mode == ExchangeMode::Overlap;
    let mut compute = |store: &mut NodeStore<P::Data>,
                       peripheral: bool,
                       buffers: Option<&mut ShadowBuffers<P::Data>>,
                       timers: &mut PhaseTimers| {
        let list = if peripheral {
            &store.peripheral
        } else {
            &store.internal
        };
        compute_list(
            rank,
            program,
            list,
            &mut store.table,
            &mut store.node_load,
            &mut store.pager,
            ctx,
            costs,
            timers,
            buffers,
            delta,
            delta_active,
            &mut stats,
            None,
        );
    };
    if !overlap {
        compute(store, false, None, timers);
    }
    compute(store, true, Some(&mut buffers), timers);
    let mut sent = None;
    if overlap {
        // Figure 8a: the peripheral shadows travel while internal nodes
        // compute.
        sent = Some(send_shadows(rank, store, &buffers, timers, frozen));
        compute(store, false, None, timers);
    }
    *comp_time_out += rank.wtime() - comp_t0;
    rank.trace_span("Compute", "phase", comp_t0, &[]);
    let (ex, send_cut) =
        sent.unwrap_or_else(|| send_shadows(rank, store, &buffers, timers, frozen));
    let (saw_death, recv_cut) = collect_shadows(rank, store, ex, timers, costs, frozen);
    // This iteration shipped a full pack if delta packing was suspended;
    // either way receivers are now current, so the latch can drop.
    store.needs_resync = false;

    // End of iteration: promote every staged value (the thesis's
    // `data = most_recent_data` sweep) and charge the storage I/O. The
    // synchronisation that closes `CommunicateShadows` is the caller's.
    let t0 = rank.wtime();
    promote_and_note(rank, store, costs);
    timers.add(Phase::ComputationOverhead, rank.wtime() - t0);
    drain_storage(rank, store, timers);
    if delta {
        rank.trace_instant(
            "delta_skipped",
            "delta",
            &[
                ("iter", ArgValue::U64(ctx.iter as u64)),
                ("sent", ArgValue::U64(stats.entries_sent)),
                ("skipped", ArgValue::U64(stats.entries_skipped)),
            ],
        );
    }
    StepOutcome {
        delta: stats,
        saw_death,
        saw_cut: send_cut || recv_cut,
    }
}

/// One fully local compute pass over the interior (`peripheral` false)
/// or the boundary list, for a single phase: nothing is packed, nothing
/// travels, and no barrier or control exchange closes it. This is a
/// hybrid *inner* round when run over the interior — interior nodes have
/// no remote readers by construction, the whole point of
/// [`crate::ExecutionPolicy::Hybrid`] — and one step of the boundary
/// catch-up ([`catch_up_boundary`]) over the boundary. Compute, overhead,
/// promote, and storage costs are charged exactly as a BSP round charges
/// them for the same list; only the synchronisation cost is elided.
/// `track_changes` flips to `true` if any staged value differs from the
/// node's current one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn local_pass<P: NodeProgram>(
    rank: &Rank,
    program: &P,
    store: &mut NodeStore<P::Data>,
    ctx: &ComputeCtx,
    peripheral: bool,
    costs: &CostModel,
    timers: &mut PhaseTimers,
    comp_time_out: &mut f64,
    track_changes: Option<&mut bool>,
) {
    let comp_t0 = rank.wtime();
    let list = if peripheral {
        &store.peripheral
    } else {
        &store.internal
    };
    compute_list(
        rank,
        program,
        list,
        &mut store.table,
        &mut store.node_load,
        &mut store.pager,
        ctx,
        costs,
        timers,
        None,
        false,
        false,
        &mut DeltaStats::default(),
        track_changes,
    );
    *comp_time_out += rank.wtime() - comp_t0;
    rank.trace_span("Compute", "phase", comp_t0, &[]);
    let t0 = rank.wtime();
    let charged = list.len();
    promote_counted(rank, store, costs, charged);
    timers.add(Phase::ComputationOverhead, rank.wtime() - t0);
    drain_storage(rank, store, timers);
}

/// Replay the boundary (peripheral) compute passes for the `missed`
/// barrier-elided rounds immediately preceding global iteration
/// `global_iter`, oldest first, so by the time the global round's full
/// exchange runs every node has been computed exactly as many times as
/// plain BSP would have computed it. Nothing is packed or sent here — the
/// global round's own exchange ships the final boundary values.
///
/// Returns whether any replayed pass changed a boundary value. If so, the
/// retained remote shadows skipped `missed` refreshes and are stale, so
/// the caller must force a full repack (`needs_resync`) before delta
/// packing may trust dirtiness again.
#[allow(clippy::too_many_arguments)]
pub(crate) fn catch_up_boundary<P: NodeProgram>(
    rank: &Rank,
    program: &P,
    store: &mut NodeStore<P::Data>,
    global_iter: u32,
    missed: u32,
    phases: u32,
    me: u32,
    num_nodes: usize,
    costs: &CostModel,
    timers: &mut PhaseTimers,
    comp_time_out: &mut f64,
) -> bool {
    let mut changed = false;
    for back in (1..=missed).rev() {
        let j = global_iter - back;
        for phase in 0..phases {
            let ctx = ComputeCtx {
                iter: j,
                phase,
                rank: me,
                num_nodes,
            };
            local_pass(
                rank,
                program,
                store,
                &ctx,
                true,
                costs,
                timers,
                comp_time_out,
                Some(&mut changed),
            );
        }
    }
    changed
}

/// Update every node in `list`: build the node+neighbours list, invoke the
/// application node function, stage the result, and (for peripherals) pack
/// the update into the outgoing buffers.
///
/// Table reads and the staging write go through the position hints the
/// list resolved at its last rebuild (checked on every use, see
/// [`crate::hashtab`]), and one neighbour buffer serves the whole list, so
/// the pass makes no heap allocation per node.
///
/// Dirty tracking happens at the pack site: a node is dirty iff the value
/// it just computed differs from its current value — exactly the value
/// every receiver's retained shadow holds, by induction from the last full
/// sync. With `delta_active`, clean nodes are not packed (and their
/// `per_shadow_pack` cost is not charged); receivers keep the retained
/// shadow, which equals what a full exchange would have delivered.
///
/// In paged mode each node's bucket and its neighbours' buckets are faulted
/// in first; a node whose entry (or any neighbour entry) is missing after
/// that sits on a page that lost every copy — it is *skipped*, because the
/// pager's damage latch already guarantees this iteration is discarded by
/// rollback. Non-paged mode has no excuse for missing data: that is corrupt
/// platform state, surfaced as the typed
/// [`crate::PlatformError::InternalInvariant`] rather than a bare panic.
///
/// `track_changes` (used by the hybrid engine's boundary catch-up) flips to
/// `true` if any staged value differs from the node's current one — the
/// signal that retained remote shadows have gone stale across an elided
/// stretch and the next exchange must full-pack.
#[allow(clippy::too_many_arguments)]
fn compute_list<P: NodeProgram>(
    rank: &Rank,
    program: &P,
    list: &NodeList,
    table: &mut crate::hashtab::NodeTable<P::Data>,
    node_load: &mut [f64],
    pager: &mut Option<Pager>,
    ctx: &ComputeCtx,
    costs: &CostModel,
    timers: &mut PhaseTimers,
    mut buffers: Option<&mut ShadowBuffers<P::Data>>,
    delta: bool,
    delta_active: bool,
    stats: &mut DeltaStats,
    mut track_changes: Option<&mut bool>,
) {
    let paged = pager.is_some();
    // The neighbour buffer borrows the table, which each node's staging
    // write then mutates: the emptied buffer is handed back between nodes
    // with its borrow lifetime erased (same allocation, no references).
    let mut spare: Vec<NeighborData<'static, P::Data>> = Vec::new();
    let mut pages: Vec<usize> = Vec::new();
    for node in list {
        if let Some(pager) = pager.as_mut() {
            pages.clear();
            pages.push(table.bucket_index(node.id));
            pages.extend(node.neighbors.iter().map(|&w| table.bucket_index(w)));
            pages.sort_unstable();
            pages.dedup();
            pager.ensure(table, &pages);
        }
        // Computation overhead: form the list of the node and its
        // neighbours to hand to the node function.
        let t0 = rank.wtime();
        rank.advance(costs.per_list_item * (node.neighbors.len() + 1) as f64);
        let own = match table.get_at(node.id, node.pos) {
            Some(d) => d,
            None if paged => continue,
            None => crate::error::invariant_violated(
                ctx.rank,
                format!("no data for owned node {} at compute", node.id),
            ),
        };
        let mut neighbors = recycle(std::mem::take(&mut spare));
        let mut incomplete = false;
        for (&w, &hint) in node.neighbors.iter().zip(node.neighbor_pos) {
            match table.get_at(w, hint) {
                Some(data) => neighbors.push(NeighborData { id: w, data }),
                None if paged => {
                    incomplete = true;
                    break;
                }
                None => crate::error::invariant_violated(
                    ctx.rank,
                    format!("no data for neighbour {w} of owned node {}", node.id),
                ),
            }
        }
        if incomplete {
            spare = recycle(neighbors);
            continue;
        }
        let t1 = rank.wtime();
        timers.add(Phase::ComputationOverhead, t1 - t0);

        // The node computation itself, with its grain charged.
        rank.advance(program.cost(node.id, own, ctx));
        let next = program.compute(node.id, own, &neighbors, ctx);
        spare = recycle(neighbors);
        let t2 = rank.wtime();
        timers.add(Phase::Compute, t2 - t1);
        node_load[node.id as usize] += t2 - t1;
        if let Some(flag) = track_changes.as_deref_mut() {
            if next != *own {
                *flag = true;
            }
        }

        // Stage the update; pack it for every processor holding this node
        // as a shadow.
        rank.advance(costs.per_node_update);
        if let Some(buffers) = buffers.as_deref_mut() {
            let t3 = rank.wtime();
            timers.add(Phase::ComputationOverhead, t3 - t2);
            let changed = !delta || next != *own;
            if delta && changed {
                stats.changed_nodes += 1;
            }
            if changed || !delta_active {
                rank.advance(costs.per_shadow_pack * node.shadow_for.len() as f64);
                for &p in node.shadow_for {
                    buffers[p as usize].push((node.id, next.clone()));
                }
                stats.entries_sent += node.shadow_for.len() as u64;
            } else {
                stats.entries_skipped += node.shadow_for.len() as u64;
            }
            timers.add(Phase::CommunicationOverhead, rank.wtime() - t3);
        } else {
            timers.add(Phase::ComputationOverhead, rank.wtime() - t2);
        }
        table.set_pending_at(node.id, node.pos, next);
        if let Some(pager) = pager.as_mut() {
            pager.note_staged(table.bucket_index(node.id));
        }
    }
}

/// Empty `v` and retype it to any borrow lifetime, keeping its allocation:
/// the in-place `collect` reuses the buffer of an element type with the
/// same layout, and an empty vector holds no reference that could outlive
/// its borrow.
fn recycle<'b, D>(mut v: Vec<NeighborData<'_, D>>) -> Vec<NeighborData<'b, D>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// Fetch the installed pager on a code path only reachable in paged mode.
/// The impossible `None` is corrupt platform state, surfaced as the typed
/// [`crate::PlatformError::InternalInvariant`] instead of a bare panic.
fn pager_mut(rank_id: u32, pager: &mut Option<Pager>) -> &mut Pager {
    match pager.as_mut() {
        Some(p) => p,
        None => crate::error::invariant_violated(
            rank_id,
            "paged code path reached with no pager installed".into(),
        ),
    }
}

/// End-of-iteration promote sweep (the thesis's `data = most_recent_data`),
/// keeping the audit digest in step with every promoted value — one
/// `audit_per_entry` charge each when audits are on, nothing otherwise.
/// Paged mode promotes page by page through the pager's staged set, so
/// each staged page is resident exactly once.
fn promote_and_note<D: mpisim::Wire + Clone>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    costs: &CostModel,
) {
    let count = store.owned_count();
    promote_counted(rank, store, costs, count);
}

/// [`promote_and_note`] with an explicit `per_node_update` charge count.
///
/// The hybrid engine splits one BSP iteration's promote sweep across an
/// inner round (interior nodes) and a boundary catch-up pass (peripheral
/// nodes); each charges exactly its own list's length, so the two halves
/// sum to the `owned_count` charge a plain BSP iteration pays — compute
/// cost parity by construction, with only the barrier/control cost elided.
pub(crate) fn promote_counted<D: mpisim::Wire + Clone>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    costs: &CostModel,
    charged_nodes: usize,
) {
    rank.advance(costs.per_node_update * charged_nodes as f64);
    if store.pager.is_some() {
        let rank_id = store.rank;
        let NodeStore {
            pager,
            table,
            audit,
            ..
        } = store;
        let pager = pager_mut(rank_id, pager);
        match audit.as_mut() {
            Some(audit) => {
                let promoted = pager.promote(table, |id, d| {
                    audit.record(id, crate::audit::entry_hash(id, d));
                });
                rank.advance(costs.audit_per_entry * promoted as f64);
            }
            None => {
                pager.promote(table, |_, _| {});
            }
        }
        return;
    }
    match store.audit.as_mut() {
        Some(audit) => {
            let promoted = store.table.promote_all_with(|id, d| {
                audit.record(id, crate::audit::entry_hash(id, d));
            });
            rank.advance(costs.audit_per_entry * promoted as f64);
        }
        None => {
            store.table.promote_all();
        }
    }
}

/// Charge the pager's accumulated virtual I/O + backoff seconds to the
/// clock under [`Phase::Storage`]. Called at deterministic points (end of
/// each iteration's compute/communicate, after bulk phases) so paged runs
/// stay bit-identically reproducible; a no-op in non-paged mode.
pub(crate) fn drain_storage<D>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    timers: &mut PhaseTimers,
) -> f64 {
    let s = store.take_storage_seconds();
    if s > 0.0 {
        rank.advance(s);
        timers.add(Phase::Storage, s);
    }
    s
}

/// Is rank `p` suspected by the membership layer (`frozen` may be empty)?
fn is_frozen(frozen: &[bool], p: usize) -> bool {
    frozen.get(p).copied().unwrap_or(false)
}

/// In-flight state of a shadow exchange between its send and receive
/// halves. Under bounded mailboxes it holds the frames physically drained
/// while a send waited for credit, not yet charged or unpacked, in a dense
/// slot per sender rank.
struct InFlight {
    bounded: bool,
    frames: Vec<Option<Envelope>>,
    deadline: Instant,
}

/// The send half of a shadow exchange: send every non-empty buffer to its
/// neighbouring processor, in ascending destination order.
///
/// Shadow buffers travel reliably: a receiver that never gets its buffer
/// would deadlock the whole BSP round, so under fault injection each lost
/// send is retransmitted (charging the ack timeout to virtual time) and the
/// final attempt is escalated through. Without faults this is the thesis's
/// plain buffered `MPI_Isend`. Retry and NACK-backoff time is attributed to
/// the integrity phase, the rest to communicate.
///
/// Under bounded mailboxes only the *head* send may wait for a credit, and
/// while it waits the rank drains shadow frames already addressed to it —
/// charge-free, the receive cost is applied canonically in
/// [`bounded_collect`]. Sends keep the canonical order, so the sequence of
/// virtual-time charges is bit-identical to the unbounded schedule, and
/// the mutual draining makes the send-all-then-receive-all round
/// deadlock-free at any capacity ≥ 1.
///
/// Sends to `frozen` (suspected) ranks are skipped outright. Also returns
/// whether any send hit an active partition cut — the only way an
/// escalated reliable send can fail.
fn send_shadows<D: mpisim::Wire>(
    rank: &Rank,
    store: &NodeStore<D>,
    buffers: &[Vec<(u32, D)>],
    timers: &mut PhaseTimers,
    frozen: &[bool],
) -> (InFlight, bool) {
    let t0 = rank.wtime();
    let r0 = rank.retry_seconds();
    let bounded = rank.config().mailbox_capacity.is_some();
    let mut frames: Vec<Option<Envelope>> = Vec::new();
    if bounded {
        frames.resize_with(rank.size(), || None);
    }
    let deadline = Instant::now() + rank.config().watchdog;
    let mut saw_cut = false;
    for (p, buf) in buffers.iter().enumerate() {
        if store.send_counts[p] == 0 || is_frozen(frozen, p) {
            continue;
        }
        // Delta packing may suppress entries, but never adds any; the
        // (possibly empty) buffer is still sent so the message schedule —
        // and thus every receive pattern — is identical with delta on or
        // off.
        debug_assert!(buf.len() <= store.send_counts[p]);
        let delivered = if bounded {
            // No stall accounting here: whether this head send physically
            // waits depends on host scheduling. Credit stalls are tallied
            // at their canonical resolution point by the receiver, in
            // [`bounded_collect`].
            loop {
                if rank.offer_credit(p) {
                    break rank.send_reliable_granted(p, TAG_SHADOW, buf, RetryPolicy::Escalate);
                }
                if let Some(env) = rank.drain_one(None, TAG_SHADOW) {
                    let src = env.src;
                    frames[src] = Some(env);
                } else if Instant::now() >= deadline {
                    rank.deadlock_panic("bounded shadow exchange (send phase)");
                } else {
                    rank.wait_incoming(Duration::from_millis(2));
                }
            }
        } else {
            rank.send_reliable(p, TAG_SHADOW, buf, RetryPolicy::Escalate)
        };
        saw_cut |= !delivered;
    }
    let spent = rank.retry_seconds() - r0;
    // No call-site clamp: PhaseTimers::add clamps *and counts* genuinely
    // negative windows, so a sign-flipped measurement surfaces in
    // `RunReport::negative_clamps` instead of silently vanishing.
    timers.add(Phase::Integrity, spent);
    timers.add(Phase::Communicate, rank.wtime() - t0 - spent);
    if spent > 0.0 {
        rank.trace_span("Integrity", "phase", rank.wtime() - spent, &[]);
    }
    rank.trace_span("Communicate", "phase", t0, &[]);
    (
        InFlight {
            bounded,
            frames,
            deadline,
        },
        saw_cut,
    )
}

/// The receive half of a shadow exchange: receive and unpack one buffer
/// from every neighbouring processor, charged in canonical `recv_procs`
/// order. A receive from a crashed sender, or one that consumes a
/// partition tombstone, pays the detection timeout and leaves the stale
/// shadows standing; a `frozen` peer is not waited for at all and pays one
/// `detect_timeout` instead. Returns `(saw_death, saw_cut)`: whether any
/// awaited sender was dead, and whether any frame was a partition
/// tombstone.
fn collect_shadows<D: mpisim::Wire + Clone>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    ex: InFlight,
    timers: &mut PhaseTimers,
    costs: &CostModel,
    frozen: &[bool],
) -> (bool, bool) {
    if ex.bounded {
        return bounded_collect(rank, store, ex, timers, costs, frozen);
    }
    let mut saw_death = false;
    let mut saw_cut = false;
    let recv_t0 = rank.wtime();
    for p in store.recv_procs() {
        let t0 = rank.wtime();
        if is_frozen(frozen, p as usize) {
            // A suspected peer sends nothing while the partition is open;
            // pay the detection cost in canonical order and let its
            // retained stale shadows stand in.
            rank.charge_partition_timeout();
            timers.add(Phase::Communicate, rank.wtime() - t0);
            continue;
        }
        match rank.try_recv::<Vec<(u32, D)>>(p as usize, TAG_SHADOW) {
            Ok(msg) => {
                timers.add(Phase::Communicate, rank.wtime() - t0);
                unpack(rank, store, msg, timers, costs);
            }
            Err(mpisim::Died(peer)) => {
                // Stale shadow values stand in either way; the dead flag
                // disambiguates a confirmed death from a partition
                // tombstone (peer alive but unreachable).
                timers.add(Phase::Communicate, rank.wtime() - t0);
                if rank.peer_dead(peer) {
                    saw_death = true;
                } else {
                    saw_cut = true;
                }
            }
        }
    }
    rank.trace_span("Communicate", "phase", recv_t0, &[]);
    (saw_death, saw_cut)
}

/// The bounded-mailbox receive schedule: collect the remaining expected
/// frames (in whatever order they arrive), then charge and unpack them in
/// the canonical `recv_procs` order — reproducing the unbounded schedule's
/// virtual clocks exactly.
///
/// A missing sender whose dead flag was observed *before* an empty drain
/// pass is definitively never coming (deliveries happen-before the flag;
/// same reasoning as [`Rank::try_recv`]); it is charged the detect timeout
/// in canonical order and its stale shadow values stand in, mirroring the
/// unbounded path. `frozen` (suspected) peers are not waited for at all —
/// each is charged one `detect_timeout` in canonical order.
fn bounded_collect<D: mpisim::Wire + Clone>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    ex: InFlight,
    timers: &mut PhaseTimers,
    costs: &CostModel,
    frozen: &[bool],
) -> (bool, bool) {
    let InFlight {
        mut frames,
        deadline,
        ..
    } = ex;
    let is_frozen = |p: usize| is_frozen(frozen, p);
    let expected: Vec<usize> = store.recv_procs().iter().map(|&p| p as usize).collect();
    let mut dead_peers: Vec<usize> = Vec::new();
    loop {
        let missing: Vec<usize> = expected
            .iter()
            .copied()
            .filter(|&p| frames[p].is_none() && !dead_peers.contains(&p) && !is_frozen(p))
            .collect();
        if missing.is_empty() {
            break;
        }
        // Snapshot dead flags *before* draining: a flag set now plus an
        // empty drain below proves the peer's frame was never sent.
        let flagged: Vec<usize> = missing
            .iter()
            .copied()
            .filter(|&p| rank.peer_dead(p))
            .collect();
        let mut got = false;
        while let Some(env) = rank.drain_one(None, TAG_SHADOW) {
            let src = env.src;
            frames[src] = Some(env);
            got = true;
        }
        let mut newly_dead = false;
        for p in flagged {
            if frames[p].is_none() && !dead_peers.contains(&p) {
                dead_peers.push(p);
                newly_dead = true;
            }
        }
        if got || newly_dead {
            continue;
        }
        if Instant::now() >= deadline {
            rank.deadlock_panic("bounded shadow exchange (receive phase)");
        }
        rank.wait_incoming(Duration::from_millis(2));
    }
    // Canonical credit-stall accounting (receiver side). With capacity C
    // and F data frames actually present this round, the last
    // `max(0, F - C)` senders in canonical order must have waited for a
    // mailbox slot, whatever the host interleaving looked like; sender
    // `present[C + j]`'s credit resolves exactly when the j-th present
    // frame is absorbed and frees its slot. Counting there makes the stall
    // tally — and its trace instants — a pure function of the
    // deterministic message schedule, byte-identical at every capacity.
    // (Partition tombstones bypass capacity, so cut frames don't count.)
    let (capacity, present): (usize, Vec<usize>) = match rank.config().mailbox_capacity {
        Some(cap) => (
            cap,
            expected
                .iter()
                .copied()
                .filter(|&p| !is_frozen(p) && matches!(&frames[p], Some(env) if !env.cut))
                .collect(),
        ),
        None => (0, Vec::new()),
    };
    let mut absorbed = 0usize;
    let mut saw_death = false;
    let mut saw_cut = false;
    let recv_t0 = rank.wtime();
    for p in expected {
        let t0 = rank.wtime();
        if is_frozen(p) {
            // Suspected peer: nothing was waited for; pay the detection
            // cost in canonical order, stale shadows stand in.
            rank.charge_partition_timeout();
            timers.add(Phase::Communicate, rank.wtime() - t0);
            continue;
        }
        match frames[p].take() {
            Some(env) if env.cut => {
                // Partition tombstone: the peer is alive but unreachable;
                // same stale-shadow stand-in, same detection cost.
                rank.charge_partition_timeout();
                timers.add(Phase::Communicate, rank.wtime() - t0);
                saw_cut = true;
            }
            Some(env) => {
                let msg: Vec<(u32, D)> = rank.absorb(env);
                if let Some(&stalled_sender) = present.get(capacity + absorbed) {
                    rank.count_credit_stall(stalled_sender);
                }
                absorbed += 1;
                timers.add(Phase::Communicate, rank.wtime() - t0);
                unpack(rank, store, msg, timers, costs);
            }
            None => {
                // Dead sender: charge the detect timeout the blocking path
                // would have paid; stale shadow values stand in.
                rank.charge_crash_timeout();
                timers.add(Phase::Communicate, rank.wtime() - t0);
                saw_death = true;
            }
        }
    }
    rank.trace_span("Communicate", "phase", recv_t0, &[]);
    (saw_death, saw_cut)
}

/// Apply one received shadow buffer to the data-node table. Paged mode
/// faults each shadow's bucket in first and skips entries whose page lost
/// every copy (the damage latch already dooms the iteration to rollback).
fn unpack<D: mpisim::Wire + Clone>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    msg: Vec<(u32, D)>,
    timers: &mut PhaseTimers,
    costs: &CostModel,
) {
    let t0 = rank.wtime();
    rank.advance(costs.per_shadow_unpack * msg.len() as f64);
    if store.audit.is_some() {
        rank.advance(costs.audit_per_entry * msg.len() as f64);
    }
    let paged = store.pager.is_some();
    for (id, data) in msg {
        if paged {
            let b = store.table.bucket_index(id);
            let (pager, table) = (pager_mut(store.rank, &mut store.pager), &mut store.table);
            pager.ensure(table, &[b]);
            if !store.table.contains(id) {
                continue;
            }
            store.audit_note(id, &data);
            store.table.set_current(id, data);
            pager_mut(store.rank, &mut store.pager).note_write(b);
        } else {
            store.audit_note(id, &data);
            store.table.set_current(id, data);
        }
    }
    timers.add(Phase::CommunicationOverhead, rank.wtime() - t0);
}

/// A dedicated shadow-repair exchange: every rank repacks *all* of its
/// peripheral nodes' current values and ships them to their shadow holders
/// through the regular exchange machinery (bounded or unbounded, so it is
/// safe at any mailbox capacity), and receivers overwrite their retained
/// shadows — through [`NodeStore::audit_note`], restoring the digest.
///
/// This is the targeted repair an audit boundary triggers when only
/// *shadow* copies are damaged and the audit interval is 1 (no compute has
/// read the damaged value yet): strictly cheaper than a rollback, one
/// exchange round charged to the clock like any other.
///
/// The round closes with a control exchange where a plain step closes with
/// a barrier (identical virtual-time cost). Each rank's word is 1 iff one
/// of its receives found a dead sender or crossed a partition cut, so a
/// repair that failed anywhere is visible to every rank in the returned
/// verdict and all of them react together. (Without it a fast rank could
/// also run ahead into the next iteration's exchange while a slow peer is
/// still collecting repair frames — and the bounded drain schedule keys
/// in-flight frames by source rank, so the run-ahead frame would overwrite
/// the unconsumed repair frame and deadlock the round, the exact hazard
/// tests/runahead_repro.rs pins.)
pub(crate) fn resync_shadows<D>(
    rank: &Rank,
    store: &mut NodeStore<D>,
    costs: &CostModel,
    timers: &mut PhaseTimers,
    frozen: &[bool],
) -> CtlVerdict
where
    D: mpisim::Wire + Clone,
{
    let t0 = rank.wtime();
    let paged = store.pager.is_some();
    let mut buffers: ShadowBuffers<D> = vec![Vec::new(); store.nprocs];
    for node in &store.peripheral {
        if paged {
            let b = store.table.bucket_index(node.id);
            let (pager, table) = (pager_mut(store.rank, &mut store.pager), &mut store.table);
            pager.ensure(table, &[b]);
        }
        let cur = match store.table.get(node.id) {
            Some(d) => d,
            // Damaged page: nothing to repack; the damage latch forces a
            // rollback that supersedes this repair anyway.
            None if paged => continue,
            None => crate::error::invariant_violated(
                store.rank,
                format!(
                    "no data for owned peripheral node {} at shadow resync",
                    node.id
                ),
            ),
        };
        rank.advance(costs.per_shadow_pack * node.shadow_for.len() as f64);
        for &p in node.shadow_for {
            buffers[p as usize].push((node.id, cur.clone()));
        }
    }
    timers.add(Phase::CommunicationOverhead, rank.wtime() - t0);

    let (ex, send_cut) = send_shadows(rank, store, &buffers, timers, frozen);
    let (saw_death, recv_cut) = collect_shadows(rank, store, ex, timers, costs, frozen);
    // A full pack just went out: every receiver's retained shadows are
    // current again, so delta packing may resume.
    store.needs_resync = false;

    drain_storage(rank, store, timers);
    let t0 = rank.wtime();
    let verdict = rank.ctl_exchange(CtlSlot {
        word: u64::from(saw_death || send_cut || recv_cut),
        ..CtlSlot::default()
    });
    timers.add(Phase::Communicate, rank.wtime() - t0);
    verdict
}
