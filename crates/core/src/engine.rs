//! The per-rank engine: the platform's one flow of control (thesis
//! Figure 6 — initialise, compute/communicate, periodic balance, gather)
//! for every run.
//!
//! Every rank runs [`run_rank`] under [`mpisim::World::run_fallible`]. The
//! loop is the same on both control planes ([`ControlPlane`]); what
//! differs is how a round is closed and how ranks agree:
//!
//! * **Plain** (the thesis's platform): each compute phase closes with a
//!   barrier — a control exchange carrying the changed-node count under
//!   delta exchange — kill announcements and straggler samples travel by
//!   `allgather`, balancing uses the tree-collective
//!   [`migrate::balance_round`], and the run ends with a barrier and a
//!   tree `gather`. There is no iteration-end verdict.
//! * **Tolerant**: each compute phase closes with a barrier and the
//!   iteration with one control exchange whose verdict carries the failure
//!   detector's dead and suspected sets, the changed-node count, kill
//!   announcements, straggler samples, and the cut and page-damage flags.
//!   On top of it sit coordinated checkpoints and rollback
//!   ([`crate::checkpoint`]), the membership protocol
//!   ([`crate::membership`]), state audits ([`crate::audit`]) and the
//!   out-of-core pager ([`crate::paging`]).
//!
//! The hook points the two planes share, in loop order: iteration start
//! (degraded/parked state, tracing), the inner-round check of hybrid
//! elision, boundary catch-up, the shadow exchange ([`exchange::step`]),
//! the iteration-end agreement, cooperative kills, balancing and emergency
//! balancing, the memory-rot sweep and audit, the checkpoint, and the
//! end-of-run gather. The hooks a plane has no use for are no-ops there:
//! no pager, no audit interval, no memory faults and no frozen ranks.

use crate::checkpoint::{
    any_word, first_damaged, has_new_crash, Checkpoint, Counters, UnrecoverableStateSignal,
    DAMAGE_FLAG, MAX_DISK_FAILURES, TAG_GATHER,
};
use crate::driver::{elided_before, is_global_round, ControlPlane, RankOutcome, RunConfig};
use crate::exchange::{self, DeltaStats};
use crate::imbalance::StragglerDetector;
use crate::membership::CUT_FLAG;
use crate::migrate;
use crate::program::{ComputeCtx, NodeProgram};
use crate::store::NodeStore;
use crate::timers::{Phase, PhaseTimers};
use crate::{audit, error};
use ic2_balance::DynamicBalancer;
use ic2_graph::{Graph, Partition};
use mpisim::trace::ITERATION_SPAN;
use mpisim::{ArgValue, CtlSlot, CtlVerdict, Died, Rank, RetryPolicy};

/// Run-level tallies one rank accumulates. Unlike [`Counters`], rollback
/// never rewinds these: like the fault counters they count what physically
/// happened, so replayed iterations count again.
///
/// Mismatch, bad-replica, delta and rejoin-byte counts are per-rank
/// observations and sum in the report; the rest are agreed decisions
/// (every live rank increments together), so the designated copy is
/// canonical.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub(crate) rollbacks: u32,
    pub(crate) iterations_replayed: u32,
    pub(crate) checkpoint_bytes: u64,
    pub(crate) delta: DeltaStats,
    pub(crate) quiescent_iterations: u32,
    pub(crate) inner_iterations: u32,
    pub(crate) barriers_elided: u64,
    pub(crate) degraded_iterations: u32,
    pub(crate) rejoins: u32,
    pub(crate) rejoin_bytes: u64,
    pub(crate) suspected_peak: u32,
    pub(crate) audit_mismatches: u64,
    pub(crate) shadow_resyncs: u32,
    pub(crate) bad_replicas: u64,
    pub(crate) repairs: u32,
}

/// Per-iteration trace bookkeeping for the metrics timeline. Constructed
/// only when tracing is on (`None` otherwise), snapshotting the phase
/// timers and the rank-local send/receive counters at the iteration start;
/// [`IterTracer::finish`] emits the `iteration` span with the deltas.
///
/// Every field is rank-local and clock- or program-order-driven, so the
/// emitted span is byte-reproducible across same-seed runs. (The
/// *instantaneous* mailbox depth is deliberately absent: it depends on how
/// far ahead other host threads ran, so it lives only in the run-level
/// `peak_mailbox_depth` counter.)
struct IterTracer {
    timers_before: PhaseTimers,
    sent_before: u64,
    recv_before: u64,
    start: f64,
}

impl IterTracer {
    fn begin(rank: &Rank, timers: &PhaseTimers) -> Option<IterTracer> {
        if !rank.trace_enabled() {
            return None;
        }
        let s = rank.stats();
        Some(IterTracer {
            timers_before: timers.clone(),
            sent_before: s.msgs_sent,
            recv_before: s.msgs_recv,
            start: rank.wtime(),
        })
    }

    fn finish(self, rank: &Rank, iter: u32, timers: &PhaseTimers) {
        let s = rank.stats();
        let delta = |p: Phase| timers.get(p) - self.timers_before.get(p);
        rank.trace_span(
            ITERATION_SPAN,
            "iter",
            self.start,
            &[
                ("iter", ArgValue::U64(iter as u64)),
                (
                    "compute",
                    ArgValue::F64(delta(Phase::Compute) + delta(Phase::ComputationOverhead)),
                ),
                (
                    "comm",
                    ArgValue::F64(delta(Phase::Communicate) + delta(Phase::CommunicationOverhead)),
                ),
                ("integrity", ArgValue::F64(delta(Phase::Integrity))),
                ("balance", ArgValue::F64(delta(Phase::LoadBalancing))),
                ("sent", ArgValue::U64(s.msgs_sent - self.sent_before)),
                ("recv", ArgValue::U64(s.msgs_recv - self.recv_before)),
            ],
        );
    }
}

/// One rank's whole state. The recovery and membership layers add their
/// methods in [`crate::checkpoint`] and [`crate::membership`].
pub(crate) struct Engine<'a, P: NodeProgram, B> {
    pub(crate) rank: &'a Rank,
    pub(crate) graph: &'a Graph,
    pub(crate) program: &'a P,
    pub(crate) cfg: &'a RunConfig,
    pub(crate) balancer: B,
    /// Whether the run is on [`ControlPlane::Tolerant`].
    pub(crate) tolerant: bool,
    pub(crate) me: u32,
    pub(crate) timers: PhaseTimers,
    pub(crate) store: NodeStore<P::Data>,
    /// The last committed checkpoint (genesis until the first commit).
    pub(crate) ckpt: Checkpoint<P::Data>,
    /// Replicated counters a rollback rewinds with the node data.
    pub(crate) counters: Counters,
    /// Ranks that died cooperatively (killed and evacuated) or crashed. A
    /// dead rank keeps running the loop as a zombie — owning zero nodes,
    /// every phase degenerates to the collectives — so barriers and
    /// broadcasts stay aligned across the world.
    pub(crate) dead: Vec<bool>,
    /// Ranks the failure detector has confirmed crashed (permanent).
    pub(crate) crashed: Vec<bool>,
    /// The agreed suspected set governing the *next* iteration —
    /// replicated, because every rank copies it out of the same
    /// bit-identical verdict.
    pub(crate) frozen: Vec<bool>,
    pub(crate) ranks_died: Vec<u32>,
    /// Straggler detector. Its state is replicated (fed the same samples
    /// everywhere) but not checkpointed: a rollback resets it identically
    /// everywhere and replay re-feeds it.
    detector: Option<StragglerDetector>,
    pub(crate) tally: Tally,
    /// Consecutive boundaries poisoned by page damage (replicated: counted
    /// from the agreed verdict words, reset on every clean boundary). Each
    /// strike rolls back and replays with fresh disk-fault decisions;
    /// [`MAX_DISK_FAILURES`] in a row means some page is gone for good.
    disk_failures: u32,
    /// The corruption sweep's epoch is a monotonic pass counter, *never*
    /// rolled back: replay after a repair makes fresh decisions, so a run
    /// is not doomed to re-corrupt identically and converges.
    mem_epoch: u64,
}

/// The SPMD body of every run. A crashed rank unwinds out of it, and
/// [`mpisim::World::run_fallible`] turns that into a `None` outcome.
pub(crate) fn run_rank<P, B>(
    rank: &Rank,
    graph: &Graph,
    program: &P,
    partition: &Partition,
    balancer: B,
    cfg: &RunConfig,
) -> RankOutcome<P::Data>
where
    P: NodeProgram,
    B: DynamicBalancer,
{
    let mut e = Engine::init(rank, graph, program, partition, balancer, cfg);
    let mut iter: u32 = 1;
    let (total, gathered) = loop {
        while iter <= cfg.iterations {
            iter = e.iteration(iter);
        }
        match e.finish(iter) {
            Ok(done) => break done,
            Err(resume) => iter = resume,
        }
    };
    // Past the closing synchronisation every live rank's deliveries have
    // landed: reconcile lingering stale/damaged frames into the fault
    // counters before the final snapshot (else the totals depend on host
    // scheduling).
    rank.reconcile_faults();
    let pager = e.store.pager.as_ref();
    RankOutcome {
        total,
        timers: e.timers,
        comm: rank.stats(),
        counters: e.counters,
        ranks_died: e.ranks_died,
        gathered,
        owner: e.store.owner.clone(),
        tally: e.tally,
        pages: pager.map(|p| p.counters()).unwrap_or_default(),
        disk: pager.map(|p| p.disk_counters()).unwrap_or_default(),
    }
}

/// A rank's end time and, on the designated rank, the gathered data.
type Finished<D> = (f64, Option<Vec<(u32, D)>>);

fn straggler_detector(cfg: &RunConfig) -> Option<StragglerDetector> {
    cfg.straggler.map(|(t, p)| StragglerDetector::new(t, p))
}

impl<'a, P, B> Engine<'a, P, B>
where
    P: NodeProgram,
    B: DynamicBalancer,
{
    /// The initialization phase: build the store, seed the audit digests,
    /// install the pager, and synchronise.
    fn init(
        rank: &'a Rank,
        graph: &'a Graph,
        program: &'a P,
        partition: &Partition,
        balancer: B,
        cfg: &'a RunConfig,
    ) -> Self {
        let me = rank.rank() as u32;
        let nprocs = cfg.nprocs;
        let mut timers = PhaseTimers::new();
        let t0 = rank.wtime();
        let mut store = NodeStore::build(graph, partition, me, program, cfg.hash_buckets);
        rank.advance(cfg.costs.init_per_node * store.stored_count() as f64);
        if cfg.audit_every.is_some() {
            store.enable_audit();
            rank.advance(cfg.costs.audit_per_entry * store.stored_count() as f64);
        }
        timers.add(Phase::Initialization, rank.wtime() - t0);
        rank.trace_span("Initialization", "phase", t0, &[]);
        // Out-of-core mode: install the pager *after* the audit digests
        // seeded (they need the whole table) and spill down to the buffer
        // budget — the spilled pages get their first verified disk commit
        // here.
        if let Some(pc) = &cfg.paging {
            store.enable_paging(pc, &cfg.world.faults, &cfg.costs);
            exchange::drain_storage(rank, &mut store, &mut timers);
        }
        let tolerant = ControlPlane::of(cfg) == ControlPlane::Tolerant;
        // Only the tolerant plane ever rolls back to genesis; the plain
        // plane keeps an empty one instead of a per-rank owner-map copy.
        let genesis_owner = if tolerant {
            partition.as_slice().to_vec()
        } else {
            Vec::new()
        };
        let ckpt = Checkpoint::genesis(genesis_owner, nprocs, balancer.checkpoint_state());
        let e = Engine {
            rank,
            graph,
            program,
            cfg,
            balancer,
            tolerant,
            me,
            timers,
            store,
            ckpt,
            counters: Counters::default(),
            dead: vec![false; nprocs],
            crashed: vec![false; nprocs],
            frozen: vec![false; nprocs],
            ranks_died: Vec::new(),
            detector: straggler_detector(cfg),
            tally: Tally::default(),
            disk_failures: 0,
            mem_epoch: 0,
        };
        e.validate("init");
        rank.barrier();
        e
    }

    /// With [`RunConfig::validate`], check every store invariant and panic
    /// naming the step (`what`) that broke one.
    pub(crate) fn validate(&self, what: &str) {
        if self.cfg.validate {
            self.store
                .validate(self.graph)
                .unwrap_or_else(|e| panic!("rank {}: {what} invariant: {e}", self.me));
        }
    }

    /// Run iteration `iter` and return the next iteration to run: `iter +
    /// 1`, or the iteration after the checkpoint a rollback rewound to.
    /// Aborted iterations drop their tracer unfinished: no iteration span
    /// is emitted for work a rollback discards — the rollback instant marks
    /// it instead — nor for degraded iterations, which the heal discards.
    fn iteration(&mut self, iter: u32) -> u32 {
        let (rank, cfg, me) = (self.rank, self.cfg, self.me);
        let degraded = self.frozen.iter().any(|&f| f);
        let parked = degraded && self.frozen[me as usize];
        rank.set_parked(parked);
        if degraded {
            self.tally.degraded_iterations += 1;
        }
        let tracer = if degraded {
            None
        } else {
            IterTracer::begin(rank, &self.timers)
        };
        let mut comp_this_iter = 0.0;
        let num_nodes = self.graph.num_nodes();
        let ctx = |phase| ComputeCtx {
            iter,
            phase,
            rank: me,
            num_nodes,
        };

        // ---- Inner (barrier-elided) rounds -----------------------------
        // Interior nodes only, fully local: no exchange, no barrier, no
        // control cost, and no detection point — crashes, damage latches,
        // kills, balancing and audit verdicts all wait for the next global
        // round. The schedule is a pure function of `iter`, so every rank,
        // and every replay after a rollback, elides the identical rounds.
        // While degraded every round is global: suspicion can only be
        // refreshed at a control exchange, and the parked minority must
        // keep mirroring the majority's collective footprint. The at-rest
        // corruption sweep still runs every round.
        if !degraded && !is_global_round(iter, cfg) {
            for phase in 0..self.program.phases() {
                exchange::local_pass(
                    rank,
                    self.program,
                    &mut self.store,
                    &ctx(phase),
                    false,
                    &cfg.costs,
                    &mut self.timers,
                    &mut comp_this_iter,
                    None,
                );
                self.tally.barriers_elided += 1;
            }
            self.tally.inner_iterations += 1;
            self.counters.comp_since_balance += comp_this_iter;
            self.sweep_memory();
            if let Some(tracer) = tracer {
                tracer.finish(rank, iter, &self.timers);
            }
            return iter + 1;
        }

        // ---- Global round ----------------------------------------------
        let mut changed_this_iter = 0u64;
        let mut saw_cut = false;
        // The plain plane's per-phase verdicts judge quiescence; the
        // tolerant plane's iteration-end verdict overrides this below.
        let mut quiescent = cfg.delta_exchange;
        if parked {
            // Park: mirror the majority's collective footprint — one
            // barrier per phase plus the boundary exchange below — without
            // touching any replicated state. The timeout charge keeps the
            // virtual clock moving even when *no* group has quorum and
            // every rank parks.
            rank.charge_partition_timeout();
            for _ in 0..self.program.phases() {
                rank.barrier();
            }
        } else {
            // First replay the boundary passes the elided rounds skipped,
            // so every node's compute count matches plain BSP; if any
            // boundary value moved, retained remote shadows are stale and
            // the exchange below must full-pack. Degraded rounds are all
            // global (nothing was elided since the onset verdict, which
            // fell on a pure-schedule global round), and the whole degraded
            // stretch is discarded at heal anyway.
            let missed = if degraded {
                0
            } else {
                elided_before(iter, cfg)
            };
            if missed > 0
                && exchange::catch_up_boundary(
                    rank,
                    self.program,
                    &mut self.store,
                    iter,
                    missed,
                    self.program.phases(),
                    me,
                    num_nodes,
                    &cfg.costs,
                    &mut self.timers,
                    &mut comp_this_iter,
                )
            {
                self.store.needs_resync = true;
            }
            for phase in 0..self.program.phases() {
                let out = exchange::step(
                    rank,
                    self.program,
                    &mut self.store,
                    &ctx(phase),
                    cfg.exchange,
                    &cfg.costs,
                    &mut self.timers,
                    &mut comp_this_iter,
                    cfg.delta_exchange,
                    &self.frozen,
                );
                self.tally.delta.absorb(out.delta);
                changed_this_iter += out.delta.changed_nodes;
                saw_cut |= out.saw_cut;
                // Close the phase. On the tolerant plane deaths and cuts
                // surface in the iteration-end verdict. On the plain plane
                // they cannot happen (crash and partition plans select the
                // tolerant plane), and under delta exchange the barrier
                // becomes a control exchange — identical virtual-time cost
                // — carrying this rank's changed-node count, so every rank
                // learns the agreed global total and can observe
                // quiescence.
                debug_assert!(self.tolerant || !(out.saw_death || out.saw_cut));
                let t0 = rank.wtime();
                if !self.tolerant && cfg.delta_exchange {
                    let verdict = rank.ctl_exchange(CtlSlot {
                        word: out.delta.changed_nodes,
                        load: 0.0,
                        flag: false,
                    });
                    let global: u64 = (0..rank.size()).filter_map(|r| verdict.word(r)).sum();
                    quiescent &= global == 0;
                } else {
                    rank.barrier();
                }
                self.timers.add(Phase::Communicate, rank.wtime() - t0);
            }
            self.counters.comp_since_balance += comp_this_iter;
        }

        // ---- Iteration-end agreement (tolerant plane) ------------------
        // A rank whose virtual clock passed its kill time announces the
        // failure at the boundary (shadow copies are in sync here).
        // Announcements are suspended while degraded (processing them would
        // mutate state the heal rollback must rewind); a kill whose time
        // passed mid-partition is announced at the first post-heal
        // boundary instead.
        let i_died = !degraded
            && !self.dead[me as usize]
            && cfg
                .world
                .faults
                .kill_time(me as usize)
                .is_some_and(|t| rank.wtime() >= t);
        let verdict = if self.tolerant {
            // One control exchange carries everything the boundary needs:
            // the failure detector's verdict, each rank's compute time
            // (straggler sample), cooperative kill announcements, and in
            // the word the changed-node count plus the cut flag (a frame
            // crossed a partition) and the pager's damage latch (a lost
            // page served a hole). Both flags are 0 without partitions and
            // paging, so the word is then just the count.
            let verdict = rank.ctl_exchange(CtlSlot {
                word: changed_this_iter
                    | (u64::from(saw_cut) * CUT_FLAG)
                    | (u64::from(self.store.disk_damaged()) * DAMAGE_FLAG),
                load: comp_this_iter,
                flag: i_died,
            });
            if let Some(next) = self.judge_boundary(&verdict, iter, degraded) {
                return next;
            }
            let global: u64 = (0..cfg.nprocs)
                .filter_map(|r| verdict.word(r))
                .map(|w| w & !(CUT_FLAG | DAMAGE_FLAG))
                .sum();
            quiescent = cfg.delta_exchange && global == 0;
            Some(verdict)
        } else {
            None
        };
        if quiescent {
            self.tally.quiescent_iterations += 1;
        }

        // ---- Cooperative fail-stop -------------------------------------
        // Announced through the verdict's flags, or by allgather on the
        // plain plane; the dead rank's tasks are evacuated to survivors.
        if cfg.world.faults.has_kills() {
            let announced: Vec<bool> = match &verdict {
                Some(v) => (0..cfg.nprocs).map(|r| v.flag(r) == Some(true)).collect(),
                None => rank.allgather(&i_died),
            };
            self.evacuate(&announced);
        }

        // ---- Periodic load balancing -----------------------------------
        let mut balanced_this_iter = false;
        if iter >= cfg.balance_offset.max(1)
            && migrate::is_balance_iteration(iter - cfg.balance_offset, cfg.balance_every)
        {
            if self.balance(false).is_err() {
                return self.recover(iter);
            }
            balanced_this_iter = true;
        }

        // ---- Straggler detection ---------------------------------------
        // Fed the same samples everywhere (from the verdict, or by one
        // allgather), the strike counter is replicated: every rank reaches
        // the identical fire/hold decision.
        if self.detector.is_some() {
            let loads: Vec<f64> = match &verdict {
                Some(v) => (0..cfg.nprocs).map(|r| v.load(r).unwrap_or(0.0)).collect(),
                None => rank.allgather(&comp_this_iter),
            };
            let alive: Vec<f64> = loads
                .iter()
                .zip(&self.dead)
                .filter(|&(_, &d)| !d)
                .map(|(&t, _)| t)
                .collect();
            let max = alive.iter().cloned().fold(0.0f64, f64::max);
            let mean = alive.iter().sum::<f64>() / alive.len().max(1) as f64;
            let fire = self.detector.as_mut().is_some_and(|d| d.observe(max, mean));
            if fire && !balanced_this_iter && self.balance(true).is_err() {
                return self.recover(iter);
            }
        }

        // ---- Silent-corruption sweep & state audit ---------------------
        // The sweep over live at-rest state runs at the boundary, after the
        // iteration's writes, and the audit runs before any checkpoint, so
        // a snapshot can never baseline corrupt state.
        self.sweep_memory();
        if let Some(next) = self.audit(iter) {
            return next;
        }

        // ---- Coordinated checkpoint ------------------------------------
        if self.tolerant && iter.is_multiple_of(cfg.checkpoint_every) {
            match self.take_checkpoint(true, iter) {
                Ok(c) => self.ckpt = c,
                // Partition onset mid-checkpoint: the staged snapshot is
                // gone, but the iteration itself completed — go degraded
                // on the previous committed checkpoint.
                Err(v) if v.any_suspected() => {
                    self.note_suspicion(&v);
                    self.degrade(&v);
                    return iter + 1;
                }
                Err(_) => return self.recover(iter),
            }
        }
        if let Some(tracer) = tracer {
            tracer.finish(rank, iter, &self.timers);
        }
        iter + 1
    }

    /// Judge the tolerant plane's iteration-end verdict. `None` means the
    /// boundary is healthy and the iteration carries on; otherwise the
    /// returned iteration is where the loop resumes.
    fn judge_boundary(&mut self, verdict: &CtlVerdict, iter: u32, degraded: bool) -> Option<u32> {
        self.note_suspicion(verdict);
        if degraded || verdict.any_suspected() {
            // A crash verdict received while degraded only marks the rank:
            // rolling back across an active cut would stall on unreachable
            // buddies, so the heal rollback adopts its nodes instead.
            if degraded && !verdict.any_suspected() {
                self.mark_crashed(verdict);
                return Some(self.heal_rejoin(iter));
            }
            self.degrade(verdict);
            return Some(iter + 1);
        }
        if has_new_crash(verdict, &self.crashed) {
            return Some(self.recover(iter));
        }
        if any_word(verdict, DAMAGE_FLAG) {
            return Some(self.disk_strike(verdict, iter, true));
        }
        if any_word(verdict, CUT_FLAG) {
            // A blip too short to span a detection boundary: frames were
            // lost but nobody is suspected any more, so a plain rollback
            // discards the damaged iteration.
            self.rank.trace_instant("blip_rollback", "membership", &[]);
            return Some(self.recover(iter));
        }
        self.disk_failures = 0;
        None
    }

    /// One more agreement round poisoned by page damage: repair it by
    /// rollback + replay (with fresh disk-fault decisions), or — after
    /// [`MAX_DISK_FAILURES`] in a row — raise the identical
    /// [`UnrecoverableStateSignal`] on every survivor rather than ship a
    /// wrong answer. `completed` is the last iteration the rollback
    /// discards; `traced` marks the strike in the trace (the end-of-run
    /// agreement leaves it unmarked). Returns the resume iteration.
    fn disk_strike(&mut self, verdict: &CtlVerdict, completed: u32, traced: bool) -> u32 {
        self.disk_failures += 1;
        if traced {
            self.rank.trace_instant(
                "disk_damage",
                "storage",
                &[
                    ("iter", ArgValue::U64(completed as u64)),
                    ("strikes", ArgValue::U64(self.disk_failures as u64)),
                ],
            );
        }
        if self.disk_failures >= MAX_DISK_FAILURES {
            let victim = first_damaged(verdict).expect("damage verdict names a damaged rank");
            std::panic::panic_any(UnrecoverableStateSignal { rank: victim });
        }
        self.tally.repairs += 1;
        self.recover(completed)
    }

    /// One rollback: account the replay (`completed` = iterations whose
    /// work the rewind discards), rewind to the last committed checkpoint,
    /// and return the iteration to resume from.
    pub(crate) fn recover(&mut self, completed: u32) -> u32 {
        self.tally.iterations_replayed += completed - self.ckpt.iter;
        self.tally.rollbacks += 1;
        self.roll_back();
        self.detector = straggler_detector(self.cfg);
        self.ckpt.iter + 1
    }

    /// The fault plan's silent at-rest bit flips, one sweep per call.
    fn sweep_memory(&mut self) {
        if self.cfg.world.faults.has_memory_corruption() {
            audit::inject_memory_faults(self.rank, &mut self.store, self.mem_epoch);
            self.mem_epoch += 1;
        }
    }

    /// Mark every rank `announced` (and not already dead) as killed and
    /// evacuate its tasks to the survivors.
    fn evacuate(&mut self, announced: &[bool]) {
        let newly: Vec<u32> = (0..self.cfg.nprocs as u32)
            .filter(|&r| announced[r as usize] && !self.dead[r as usize])
            .collect();
        if newly.is_empty() {
            return;
        }
        for &d in &newly {
            self.dead[d as usize] = true;
            self.ranks_died.push(d);
        }
        // Evacuation is whole-table surgery: page everything in for it,
        // conservatively re-dirty, and spill back after.
        self.store.bulk_begin();
        for &d in &newly {
            self.counters.evacuated += migrate::evacuate_rank(
                self.rank,
                self.graph,
                &mut self.store,
                d,
                &self.dead,
                &self.cfg.costs,
                &mut self.timers,
            );
        }
        self.store.bulk_end();
        exchange::drain_storage(self.rank, &mut self.store, &mut self.timers);
        self.counters.comp_since_balance = 0.0;
        self.store.reset_loads();
        self.validate("post-evacuation");
    }

    /// One balancing round (`emergency`: fired by the straggler detector).
    /// `Err` means the tolerant plane's round saw a new crash and the
    /// caller must roll back.
    fn balance(&mut self, emergency: bool) -> Result<(), ()> {
        let (rank, cfg) = (self.rank, self.cfg);
        // Migration mutates buckets behind the pager's back: whole-table
        // phase (the Err path skips the spill — the rollback it triggers
        // resets the pager wholesale).
        self.store.bulk_begin();
        let out = if self.tolerant {
            migrate::balance_round_crash(
                rank,
                self.graph,
                &mut self.store,
                &mut self.balancer,
                self.counters.comp_since_balance,
                cfg.migration_batch,
                cfg.migrant_policy,
                &self.dead,
                &self.crashed,
                &cfg.costs,
                &mut self.timers,
            )?
        } else {
            migrate::balance_round(
                rank,
                self.graph,
                &mut self.store,
                &mut self.balancer,
                self.counters.comp_since_balance,
                cfg.migration_batch,
                cfg.migrant_policy,
                &self.dead,
                &cfg.costs,
                &mut self.timers,
            )
        };
        self.store.bulk_end();
        exchange::drain_storage(rank, &mut self.store, &mut self.timers);
        self.counters.migrations += out.migrated;
        self.counters.skipped += out.skipped;
        if emergency {
            self.counters.emergency_balances += 1;
        }
        self.counters.comp_since_balance = 0.0;
        self.store.reset_loads();
        self.validate(if emergency {
            "post-emergency-balance"
        } else {
            "post-migration"
        });
        Ok(())
    }

    /// The state audit, when one is due at iteration `iter` (every
    /// `audit_every` iterations, before every checkpoint, and at the last
    /// iteration). Each rank recomputes its owned and shadow digests and
    /// the verdicts ride one control exchange. `Some(next)` means the
    /// boundary ended in a repair rollback or went degraded.
    fn audit(&mut self, iter: u32) -> Option<u32> {
        let (rank, cfg) = (self.rank, self.cfg);
        let ka = cfg.audit_every?;
        if !(iter.is_multiple_of(ka)
            || iter.is_multiple_of(cfg.checkpoint_every)
            || iter == cfg.iterations)
        {
            return None;
        }
        // The audit digests the whole partition: page it in, and spill
        // back (read-only) before the verdict round. A page lost here
        // leaves its entries missing, which the verify counts as
        // mismatches — at-rest disk rot that defeated every copy surfaces
        // as owner-region damage and rolls back like memory rot.
        self.store.bulk_begin();
        let t0 = rank.wtime();
        let outcome = self.store.audit_verify();
        rank.advance(cfg.costs.audit_per_entry * outcome.checked as f64);
        self.store.bulk_end_clean();
        let storage_io = exchange::drain_storage(rank, &mut self.store, &mut self.timers);
        // One collective agrees the boundary's verdict: bit 0 of the word
        // = owner-region damage somewhere on this rank, bit 1 =
        // shadow-region damage.
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(outcome.owned_mismatches > 0)
                | (u64::from(outcome.shadow_mismatches > 0) << 1),
            load: 0.0,
            flag: false,
        });
        self.timers
            .add(Phase::Integrity, rank.wtime() - t0 - storage_io);
        self.note_suspicion(&verdict);
        self.tally.audit_mismatches += outcome.owned_mismatches + outcome.shadow_mismatches;
        rank.trace_instant(
            "audit",
            "integrity",
            &[
                ("iter", ArgValue::U64(iter as u64)),
                ("checked", ArgValue::U64(outcome.checked as u64)),
                ("root", ArgValue::U64(outcome.owned_root)),
            ],
        );
        if outcome.bad() {
            rank.trace_instant(
                "audit_mismatch",
                "integrity",
                &[
                    ("iter", ArgValue::U64(iter as u64)),
                    ("owned", ArgValue::U64(outcome.owned_mismatches)),
                    ("shadow", ArgValue::U64(outcome.shadow_mismatches)),
                ],
            );
        }
        if verdict.any_suspected() {
            // Partition onset at the audit boundary: even a bad verdict
            // cannot be repaired across an active cut — go degraded; the
            // heal rollback replays (and thereby repairs) this stretch.
            self.degrade(&verdict);
            return Some(iter + 1);
        }
        if has_new_crash(&verdict, &self.crashed) {
            return Some(self.recover(iter));
        }
        let any_shadow = any_word(&verdict, 2);
        if any_word(&verdict, 1) || (any_shadow && ka > 1) {
            // Owner-region damage — or shadow damage that compute may
            // already have read, when audits are sparser than every
            // iteration — poisons results: the only sound repair is
            // rollback + replay from the last verified snapshot.
            self.tally.repairs += 1;
            return Some(self.recover(iter));
        }
        if any_shadow {
            // Shadow-only damage caught the very boundary it appeared
            // (audits every iteration): nothing has read it yet, so a
            // targeted resync from the owners — who re-note every shadow
            // hash — repairs it at a fraction of a rollback's cost.
            let verdict = exchange::resync_shadows(
                rank,
                &mut self.store,
                &cfg.costs,
                &mut self.timers,
                &self.frozen,
            );
            self.tally.shadow_resyncs += 1;
            self.tally.repairs += 1;
            rank.trace_instant(
                "shadow_resync",
                "integrity",
                &[("iter", ArgValue::U64(iter as u64))],
            );
            self.note_suspicion(&verdict);
            if verdict.any_suspected() {
                self.degrade(&verdict);
                return Some(iter + 1);
            }
            // A repair that lost a frame anywhere (dead sender or cut)
            // left stale shadows somewhere: everyone rolls back together.
            if has_new_crash(&verdict, &self.crashed) || any_word(&verdict, 1) {
                return Some(self.recover(iter));
            }
        }
        None
    }

    /// This rank's owned node data, for the final gather.
    fn owned_data(&self) -> Vec<(u32, P::Data)> {
        let store = &self.store;
        store
            .internal
            .iter()
            .chain(store.peripheral.iter())
            .map(|node| {
                let data = store.table.get(node.id).unwrap_or_else(|| {
                    error::invariant_violated(
                        self.me,
                        format!("no data for owned node {} at gather", node.id),
                    )
                });
                (node.id, data.clone())
            })
            .collect()
    }

    /// The end of the run: agree the iterations are done and gather the
    /// final data at the designated rank. Returns the rank's end time and,
    /// on the designated rank, every node's data; `Err(resume)` sends the
    /// loop back to iteration `resume` (a rollback or a degraded tail).
    fn finish(&mut self, iter: u32) -> Result<Finished<P::Data>, u32> {
        let rank = self.rank;
        // ---- Degraded past the end of the iteration space --------------
        // The run must not finish degraded: the majority's post-partition
        // results are provisional and the minority never computed the tail
        // at all. Every rank parks until the partition heals, then the
        // heal rollback replays the tail for real.
        if self.frozen.iter().any(|&f| f) {
            rank.set_parked(true);
            loop {
                self.tally.degraded_iterations += 1;
                rank.charge_partition_timeout();
                let verdict = rank.ctl_exchange(CtlSlot::default());
                self.note_suspicion(&verdict);
                self.mark_crashed(&verdict);
                if !verdict.any_suspected() {
                    return Err(self.heal_rejoin(iter - 1));
                }
                self.frozen.copy_from_slice(&verdict.suspected);
            }
        }

        if !self.tolerant {
            rank.barrier();
            let total = rank.wtime();
            let gathered = rank
                .gather(0, &self.owned_data())
                .map(|per_rank| per_rank.into_iter().flatten().collect());
            return Ok((total, gathered));
        }

        // ---- Crash- and partition-tolerant final gather ----------------
        // Survivors agree the iterations are done, ship their owned data
        // point-to-point to the lowest live rank, and agree once more that
        // nobody died (or was cut off) during the gather. A death at any
        // point here rolls back and re-runs the tail of the computation.
        // Fault every page in *before* the pre-gather agreement: its word
        // carries the damage latch, so a page lost during this final sweep
        // rolls back and replays instead of shipping garbage — the gather
        // below may then assume every owned entry is present.
        self.store.bulk_begin();
        exchange::drain_storage(rank, &mut self.store, &mut self.timers);
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(self.store.disk_damaged()) * DAMAGE_FLAG,
            load: 0.0,
            flag: false,
        });
        self.judge_gather(&verdict, iter)?;
        if any_word(&verdict, DAMAGE_FLAG) {
            return Err(self.disk_strike(&verdict, iter - 1, false));
        }
        let designated = (0..self.cfg.nprocs)
            .find(|&r| !self.crashed[r])
            .expect("at least one rank survives");
        let owned = self.owned_data();
        let mut gathered = None;
        let mut gather_cut = false;
        if rank.rank() == designated {
            let mut all = owned;
            match crate::checkpoint::gather_chunks(rank, &self.crashed, &mut all) {
                Ok(()) => gathered = Some(all),
                Err(Died(p)) => gather_cut = !rank.peer_dead(p),
            }
        } else {
            gather_cut = !rank.send_reliable(designated, TAG_GATHER, &owned, RetryPolicy::Escalate);
        }
        // The closing verdict piggybacks whether anyone's gather hit a
        // cut, so a blip that severed the gather (but left nobody suspected
        // by resolution time) still re-runs the tail instead of breaking
        // with a torn result.
        let verdict = rank.ctl_exchange(CtlSlot {
            word: u64::from(gather_cut),
            ..CtlSlot::default()
        });
        self.judge_gather(&verdict, iter)?;
        if any_word(&verdict, 1) {
            return Err(self.recover(iter - 1));
        }
        Ok((rank.wtime(), gathered))
    }

    /// Judge an end-of-run verdict: a partition onset sends every rank
    /// back to park (the tail is replayed at heal); a new crash rolls back
    /// and re-runs the tail.
    fn judge_gather(&mut self, verdict: &CtlVerdict, iter: u32) -> Result<(), u32> {
        self.note_suspicion(verdict);
        if verdict.any_suspected() {
            self.degrade(verdict);
            return Err(iter);
        }
        if has_new_crash(verdict, &self.crashed) {
            return Err(self.recover(iter - 1));
        }
        Ok(())
    }
}
