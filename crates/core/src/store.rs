//! Per-rank node state: the initialization phase (thesis §4.1) and the
//! bookkeeping every later phase reads.

use crate::audit::{entry_hash, AuditState};
use crate::costs::CostModel;
use crate::error::{PlatformError, StoreViolation};
use crate::hashtab::{NodeTable, NO_HINT};
use crate::paging::{PageConfig, Pager};
use crate::program::NodeProgram;
use ic2_graph::{Graph, NodeId, Partition};
use mpisim::{DiskTiming, FaultPlan, Wire};

/// Node information maintained per owned node (the thesis's `own_node`
/// struct, Figure 7): identity, neighbourhood, and which processors hold
/// this node as a shadow — a view into one row of a [`NodeList`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalNode<'a> {
    /// Global node id.
    pub id: NodeId,
    /// Position hint of the node's own table entry (see
    /// [`crate::hashtab`]).
    pub pos: u32,
    /// Global ids of the node's neighbours (the `neighboring_nodes[]`
    /// array).
    pub neighbors: &'a [NodeId],
    /// Position hints of the neighbours' table entries, parallel to
    /// `neighbors`.
    pub neighbor_pos: &'a [u32],
    /// Distinct remote processors owning at least one neighbour — the
    /// processors for which this node is a shadow (`shadow_for_procs[]`).
    /// Empty iff the node is internal.
    pub shadow_for: &'a [u32],
}

impl LocalNode<'_> {
    /// Internal nodes have every neighbour on their own processor.
    pub fn is_internal(&self) -> bool {
        self.shadow_for.is_empty()
    }
}

/// One of the store's owned-node lists, laid out flat: parallel per-node
/// columns plus two CSR arrays (neighbour ids with their table position
/// hints, and `shadow_for` processors), so a rebuild makes a handful of
/// allocations rather than one per node, and the compute pass walks
/// contiguous memory. Rows are read as [`LocalNode`] views.
#[derive(Debug, Clone, Default)]
pub struct NodeList {
    ids: Vec<NodeId>,
    pos: Vec<u32>,
    /// Row `i`'s neighbours are `adj[adj_start[i]..adj_start[i + 1]]`.
    adj_start: Vec<u32>,
    adj: Vec<NodeId>,
    adj_pos: Vec<u32>,
    /// Row `i`'s shadow holders are
    /// `shadow_for[shadow_start[i]..shadow_start[i + 1]]`.
    shadow_start: Vec<u32>,
    shadow_for: Vec<u32>,
}

impl NodeList {
    /// Number of nodes in the list.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub(crate) fn get(&self, i: usize) -> LocalNode<'_> {
        let (a0, a1) = (self.adj_start[i] as usize, self.adj_start[i + 1] as usize);
        let (s0, s1) = (
            self.shadow_start[i] as usize,
            self.shadow_start[i + 1] as usize,
        );
        LocalNode {
            id: self.ids[i],
            pos: self.pos[i],
            neighbors: &self.adj[a0..a1],
            neighbor_pos: &self.adj_pos[a0..a1],
            shadow_for: &self.shadow_for[s0..s1],
        }
    }

    /// The rows in list order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            list: self,
            next: 0,
        }
    }

    fn columns_mut(&mut self) -> [&mut Vec<u32>; 7] {
        [
            &mut self.ids,
            &mut self.pos,
            &mut self.adj_start,
            &mut self.adj,
            &mut self.adj_pos,
            &mut self.shadow_start,
            &mut self.shadow_for,
        ]
    }

    /// Empty the list and size every column for exactly `rows` rows with
    /// `adj` neighbours and `shadows` shadow holders in total: the rebuild
    /// then grows no column and leaves no slack behind.
    fn reset(&mut self, rows: usize, adj: usize, shadows: usize) {
        let sizes = [rows, rows, rows + 1, adj, adj, rows + 1, shadows];
        for (col, n) in self.columns_mut().into_iter().zip(sizes) {
            col.clear();
            col.reserve_exact(n);
            col.shrink_to(n);
        }
        self.adj_start.push(0);
        self.shadow_start.push(0);
    }

    /// Append node `id` (table position hint `pos`) with its neighbours
    /// `(id, hint)` and its `shadow_for` processors.
    fn push(
        &mut self,
        id: NodeId,
        pos: u32,
        neighbors: impl Iterator<Item = (NodeId, u32)>,
        shadow_for: &[u32],
    ) {
        self.ids.push(id);
        self.pos.push(pos);
        for (w, hint) in neighbors {
            self.adj.push(w);
            self.adj_pos.push(hint);
        }
        let end = |len: usize| u32::try_from(len).expect("a rank's list fits u32 offsets");
        self.adj_start.push(end(self.adj.len()));
        self.shadow_for.extend_from_slice(shadow_for);
        self.shadow_start.push(end(self.shadow_for.len()));
    }
}

/// Iterator over a [`NodeList`]'s rows.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    list: &'a NodeList,
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = LocalNode<'a>;
    fn next(&mut self) -> Option<LocalNode<'a>> {
        let i = self.next;
        (i < self.list.len()).then(|| {
            self.next += 1;
            self.list.get(i)
        })
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a NodeList {
    type Item = LocalNode<'a>;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Everything one rank keeps in local memory: the internal and peripheral
/// node lists, the data-node table (owned + shadow data) behind its hash
/// table, the replicated owner map (the thesis's `output_arr`), and the
/// communication-buffer plan.
#[derive(Debug, Clone)]
pub struct NodeStore<D> {
    /// This processor's rank.
    pub rank: u32,
    /// World size.
    pub nprocs: usize,
    /// Owned nodes with every neighbour local. Under
    /// [`crate::ExecutionPolicy::Hybrid`] this is the *interior* set the
    /// barrier-elided inner rounds advance on their own: no internal
    /// node's neighbourhood crosses a rank boundary, so their updates need
    /// no exchange until the next global round.
    pub internal: NodeList,
    /// Owned nodes with at least one remote neighbour — the *boundary*
    /// set. Hybrid execution defers their compute passes to the next
    /// global round's catch-up, which replays the elided iterations for
    /// exactly these nodes before the full exchange.
    pub peripheral: NodeList,
    /// Data for owned nodes *and* shadow nodes.
    pub table: NodeTable<D>,
    /// Global node → owning processor, replicated on every rank and kept
    /// in sync through migration broadcasts.
    pub owner: Vec<u32>,
    /// `send_counts[p]`: number of shadow entries this rank sends
    /// processor `p` each iteration (the thesis's
    /// `buffer_size_for_communication`).
    pub send_counts: Vec<usize>,
    /// Measured compute seconds per owned node since the last balancing
    /// round — the per-node load the load-aware migrant policy consults.
    /// Dense, indexed by global node id (entries for nodes this rank does
    /// not own stay 0.0): the per-node hot path pays an array index, not a
    /// hash.
    pub node_load: Vec<f64>,
    /// Delta-exchange resync latch: while set, the next shadow exchange
    /// must pack *every* peripheral node regardless of dirtiness, because
    /// some receiver's retained shadow values can no longer be assumed
    /// current. Set whenever ownership or table contents change outside
    /// the normal iteration flow (initial build, migration, evacuation,
    /// checkpoint restore) and cleared once a full pack has gone out.
    pub needs_resync: bool,
    /// Incremental state-audit digests (`RunConfig::with_state_audit`),
    /// `None` unless audits are enabled. Maintained through
    /// [`Self::audit_note`] at every legitimate write; deliberately *not*
    /// updated by injected memory corruption, which is how an audit
    /// boundary detects it.
    pub(crate) audit: Option<AuditState>,
    /// Out-of-core paging engine (`RunConfig::with_paging`), `None` when
    /// the whole table lives in RAM. When present, at most its budget of
    /// hash buckets is resident; the rest are checksummed pages on the
    /// rank's virtual disk.
    pub(crate) pager: Option<Pager>,
}

impl<D: Clone> NodeStore<D> {
    /// The initialization phase: build every data structure from the
    /// application graph, the static partition, and the program's initial
    /// node data. Returns the store plus the number of locally stored
    /// entries (owned + shadows), which the driver charges init cost for.
    pub fn build<P>(
        graph: &Graph,
        partition: &Partition,
        rank: u32,
        program: &P,
        hash_buckets: usize,
    ) -> Self
    where
        P: NodeProgram<Data = D>,
        D: Clone,
    {
        assert_eq!(
            graph.num_nodes(),
            partition.len(),
            "partition must cover the graph"
        );
        let nprocs = partition.num_parts();
        let owner: Vec<u32> = partition.as_slice().to_vec();
        let mut store = NodeStore {
            rank,
            nprocs,
            internal: NodeList::default(),
            peripheral: NodeList::default(),
            table: NodeTable::new(hash_buckets),
            owner,
            send_counts: vec![0; nprocs],
            node_load: vec![0.0; graph.num_nodes()],
            needs_resync: true,
            audit: None,
            pager: None,
        };
        // Owned node data...
        for v in graph.nodes() {
            if store.owner[v as usize] == rank {
                store.table.insert(v, program.init(v, graph));
            }
        }
        // ...then shadow data for remote neighbours of owned nodes
        // (InsertShadowsIntoHashTable).
        for v in graph.nodes() {
            if store.owner[v as usize] != rank {
                continue;
            }
            for &w in graph.neighbors(v) {
                if store.owner[w as usize] != rank && !store.table.contains(w) {
                    store.table.insert(w, program.init(w, graph));
                }
            }
        }
        store.rebuild_lists(graph);
        store
    }
}

impl<D> NodeStore<D> {
    /// Whether this rank owns `node`.
    pub fn owns(&self, node: NodeId) -> bool {
        self.owner[node as usize] == self.rank
    }

    /// Number of owned nodes.
    pub fn owned_count(&self) -> usize {
        self.internal.len() + self.peripheral.len()
    }

    /// Locally stored entries (owned + shadows).
    pub fn stored_count(&self) -> usize {
        self.table.len()
    }

    /// Rebuild the internal/peripheral lists, `shadow_for` sets and the
    /// send plan from the owner map — used at initialization and after
    /// task migration (the thesis re-derives `shadow_for_procs[]` and
    /// `buffer_size_for_communication` the same way at the end of
    /// `task_migrate`). Every table insert is followed by a rebuild, so
    /// this is also where each owned node's own and neighbour table
    /// positions are resolved, once, for the compute pass to use as hints.
    pub fn rebuild_lists(&mut self, graph: &Graph) {
        self.send_counts = vec![0; self.nprocs];
        // Boundaries just changed shape: receivers may now hold shadows
        // this rank never refreshed under delta packing, so the next
        // exchange must be a full one.
        self.needs_resync = true;
        let mut shadow_for: Vec<u32> = Vec::new();
        // First pass: size both lists exactly ([internal, peripheral] rows,
        // neighbours and shadow holders).
        let mut sizes = [[0usize; 3]; 2];
        for v in graph.nodes() {
            if self.owner[v as usize] == self.rank {
                self.shadow_owners(graph, v, &mut shadow_for);
                let size = &mut sizes[usize::from(!shadow_for.is_empty())];
                size[0] += 1;
                size[1] += graph.neighbors(v).len();
                size[2] += shadow_for.len();
            }
        }
        let [[rows, adj, shadows], [prows, padj, pshadows]] = sizes;
        self.internal.reset(rows, adj, shadows);
        self.peripheral.reset(prows, padj, pshadows);
        let hint = |id| self.table.position(id).unwrap_or(NO_HINT);
        for v in graph.nodes() {
            if self.owner[v as usize] != self.rank {
                continue;
            }
            self.shadow_owners(graph, v, &mut shadow_for);
            for &p in &shadow_for {
                self.send_counts[p as usize] += 1;
            }
            let list = if shadow_for.is_empty() {
                &mut self.internal
            } else {
                &mut self.peripheral
            };
            let neighbors = graph.neighbors(v);
            list.push(
                v,
                hint(v),
                neighbors.iter().map(|&w| (w, hint(w))),
                &shadow_for,
            );
        }
    }

    /// The distinct remote processors owning a neighbour of `v`, ascending,
    /// into `out`: the processors for which `v` is a shadow.
    fn shadow_owners(&self, graph: &Graph, v: NodeId, out: &mut Vec<u32>) {
        out.clear();
        for &w in graph.neighbors(v) {
            let p = self.owner[w as usize];
            if p != self.rank && !out.contains(&p) {
                out.push(p);
            }
        }
        out.sort_unstable();
    }

    /// Snapshot every locally stored entry — owned nodes *and* shadows —
    /// as `(id, current value)` pairs in ascending id order. Taken at an
    /// iteration boundary (shadows in sync, nothing pending) this is a
    /// complete, self-contained image of the rank's state: together with
    /// the owner map it is everything checkpoint recovery needs, including
    /// the neighbour data a rank adopting these nodes will want as its own
    /// shadows.
    pub fn snapshot_table(&self) -> Vec<(NodeId, D)>
    where
        D: Clone,
    {
        let mut entries: Vec<(NodeId, D)> =
            self.table.iter().map(|(id, d)| (id, d.clone())).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries
    }

    /// Reset this rank's entire state from a checkpoint: install the
    /// restored owner map, repopulate the table from snapshot `entries`
    /// (keeping only what this rank needs under the new ownership — its
    /// owned nodes and their neighbours), and re-derive every list.
    pub fn restore(&mut self, graph: &Graph, owner: Vec<u32>, entries: Vec<(NodeId, D)>)
    where
        D: Clone,
    {
        assert_eq!(owner.len(), graph.num_nodes(), "owner map must cover graph");
        self.owner = owner;
        let mut needed = vec![false; graph.num_nodes()];
        for v in graph.nodes() {
            if self.owner[v as usize] == self.rank {
                needed[v as usize] = true;
                for &w in graph.neighbors(v) {
                    needed[w as usize] = true;
                }
            }
        }
        self.table = crate::hashtab::NodeTable::new(self.table.bucket_count());
        for (id, d) in entries {
            if needed[id as usize] {
                self.table.insert(id, d);
            }
        }
        self.reset_loads();
        self.rebuild_lists(graph);
    }

    /// Distinct shadow node ids this rank stores — remote neighbours of
    /// its owned nodes — ascending. Together with the owned ids this is
    /// the *needed* set: exactly what [`Self::restore`] retains, so audits
    /// over it never trip on stale entries kept after a migration.
    pub(crate) fn shadow_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = Vec::new();
        for node in &self.peripheral {
            for &w in node.neighbors {
                if self.owner[w as usize] != self.rank && !ids.contains(&w) {
                    ids.push(w);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Turn on incremental audit digests, (re)seeding the maintained hash
    /// of every stored entry from its current value. Called at build time
    /// when audits are configured, and again after a checkpoint restore
    /// replaces the table wholesale.
    pub(crate) fn enable_audit(&mut self)
    where
        D: Wire,
    {
        let mut audit = AuditState::new(self.owner.len());
        for (id, d) in self.table.iter() {
            audit.record(id, entry_hash(id, d));
        }
        self.audit = Some(audit);
    }

    /// Record a legitimate write for the audit digest (no-op when audits
    /// are off). Every code path that changes a stored current value —
    /// promote, shadow unpack, migration insert, restore — must pass
    /// through here; injected corruption deliberately does not.
    pub(crate) fn audit_note(&mut self, id: NodeId, data: &D)
    where
        D: Wire,
    {
        if let Some(a) = self.audit.as_mut() {
            a.record(id, entry_hash(id, data));
        }
    }

    /// Recompute every needed entry's hash and compare against the
    /// maintained digest state: the audit-boundary integrity check.
    ///
    /// # Panics
    /// Panics if audits were never enabled.
    pub(crate) fn audit_verify(&self) -> crate::audit::AuditOutcome
    where
        D: Wire,
    {
        let audit = self.audit.as_ref().expect("audit_verify without audit");
        let paged = self.pager.is_some();
        let mut out = crate::audit::AuditOutcome::default();
        for node in self.internal.iter().chain(&self.peripheral) {
            out.checked += 1;
            let d = match self.table.get(node.id) {
                Some(d) => d,
                // Paged mode runs audits with every page faulted in; a
                // missing entry means its page lost every copy — report it
                // as a mismatch so the repair ladder escalates.
                None if paged => {
                    out.owned_mismatches += 1;
                    continue;
                }
                None => panic!("owned data present"),
            };
            let h = entry_hash(node.id, d);
            out.owned_root ^= h;
            if h != audit.hash_of(node.id) {
                out.owned_mismatches += 1;
            }
        }
        for id in self.shadow_ids() {
            out.checked += 1;
            let d = match self.table.get(id) {
                Some(d) => d,
                None if paged => {
                    out.shadow_mismatches += 1;
                    continue;
                }
                None => panic!("shadow data present"),
            };
            let h = entry_hash(id, d);
            if h != audit.hash_of(id) {
                out.shadow_mismatches += 1;
            }
        }
        out
    }

    /// Switch the table to out-of-core paged mode: install a pager over
    /// the hash buckets, then spill down to the configured budget (the
    /// spilled pages get their first verified disk commit here).
    pub(crate) fn enable_paging(&mut self, cfg: &PageConfig, plan: &FaultPlan, costs: &CostModel)
    where
        D: Clone + Wire,
    {
        let timing = DiskTiming {
            seek_seconds: costs.disk_seek,
            byte_seconds: costs.disk_byte,
        };
        let mut pager = Pager::new(
            self.rank as usize,
            self.table.bucket_count(),
            cfg,
            plan.clone(),
            timing,
            costs.disk_retry_backoff,
        );
        pager.spill_to_budget(&mut self.table);
        self.pager = Some(pager);
    }

    /// Whether the pager has latched damage (some page lost every verified
    /// copy) since the last restore. Always false in non-paged mode.
    pub(crate) fn disk_damaged(&self) -> bool {
        self.pager.as_ref().is_some_and(|p| p.damaged())
    }

    /// Drain the pager's accumulated virtual I/O seconds (zero when not
    /// paged); the caller charges them to the clock under
    /// [`crate::timers::Phase::Storage`].
    pub(crate) fn take_storage_seconds(&mut self) -> f64 {
        self.pager.as_mut().map_or(0.0, Pager::take_seconds)
    }

    /// Begin a whole-table phase (snapshot, migration, audit, gather):
    /// fault every page in. The pool runs over budget until
    /// [`Self::bulk_end`] — the documented transient for bulk phases.
    pub(crate) fn bulk_begin(&mut self)
    where
        D: Clone + Wire,
    {
        let NodeStore { pager, table, .. } = self;
        if let Some(p) = pager.as_mut() {
            p.page_in_all(table);
        }
    }

    /// End a whole-table phase: conservatively mark every page dirty (bulk
    /// phases mutate buckets behind the pager's back) and spill back down
    /// to budget.
    pub(crate) fn bulk_end(&mut self)
    where
        D: Clone + Wire,
    {
        let NodeStore { pager, table, .. } = self;
        if let Some(p) = pager.as_mut() {
            p.mark_all_dirty();
            p.spill_to_budget(table);
        }
    }

    /// End a *read-only* whole-table phase (snapshot, audit, gather):
    /// spill back down to budget without marking anything dirty — only
    /// pages that never reached disk get written.
    pub(crate) fn bulk_end_clean(&mut self)
    where
        D: Clone + Wire,
    {
        let NodeStore { pager, table, .. } = self;
        if let Some(p) = pager.as_mut() {
            p.spill_to_budget(table);
        }
    }

    /// Data-presence test that understands paging: an entry counts as
    /// stored if it is in RAM or could be on a non-resident page.
    fn has_entry(&self, id: NodeId) -> bool {
        self.table.contains(id)
            || self
                .pager
                .as_ref()
                .is_some_and(|p| !p.is_resident(self.table.bucket_index(id)))
    }

    /// Zero the per-node load samples (a balancing round consumed them, or
    /// a restore invalidated them). Keeps the dense allocation.
    pub fn reset_loads(&mut self) {
        self.node_load.iter_mut().for_each(|l| *l = 0.0);
    }

    /// Processors this rank must *receive* shadow data from: owners of the
    /// remote neighbours of its owned nodes, ascending.
    pub fn recv_procs(&self) -> Vec<u32> {
        let mut procs: Vec<u32> = Vec::new();
        for node in &self.peripheral {
            for &w in node.neighbors {
                let p = self.owner[w as usize];
                if p != self.rank && !procs.contains(&p) {
                    procs.push(p);
                }
            }
        }
        procs.sort_unstable();
        procs
    }

    /// Processors this rank sends shadow data to, ascending.
    pub fn send_procs(&self) -> Vec<u32> {
        (0..self.nprocs as u32)
            .filter(|&p| self.send_counts[p as usize] > 0)
            .collect()
    }

    /// Check every structural invariant of the store against the graph;
    /// returns the first violation as a typed
    /// [`PlatformError::StoreInvariant`].
    pub fn validate(&self, graph: &Graph) -> Result<(), PlatformError> {
        self.check_invariants(graph)
            .map_err(PlatformError::StoreInvariant)
    }

    fn check_invariants(&self, graph: &Graph) -> Result<(), StoreViolation> {
        // Owner map shape.
        if self.owner.len() != graph.num_nodes() {
            return Err(StoreViolation::OwnerMapLength {
                expected: graph.num_nodes(),
                actual: self.owner.len(),
            });
        }
        // Every owned node in exactly one list, correctly classified.
        let mut owned_seen = std::collections::HashSet::new();
        for (list_name, list, internal) in [
            ("internal", &self.internal, true),
            ("peripheral", &self.peripheral, false),
        ] {
            for node in list {
                if self.owner[node.id as usize] != self.rank {
                    return Err(StoreViolation::NotOwned {
                        list: list_name,
                        node: node.id,
                    });
                }
                if !owned_seen.insert(node.id) {
                    return Err(StoreViolation::ListedTwice { node: node.id });
                }
                if node.neighbors != graph.neighbors(node.id) {
                    return Err(StoreViolation::StaleNeighborList { node: node.id });
                }
                let has_remote = node
                    .neighbors
                    .iter()
                    .any(|&w| self.owner[w as usize] != self.rank);
                if internal && has_remote {
                    return Err(StoreViolation::InternalHasRemoteNeighbor { node: node.id });
                }
                if !internal && !has_remote {
                    return Err(StoreViolation::PeripheralFullyLocal { node: node.id });
                }
                // shadow_for = sorted distinct remote owners.
                let mut expect: Vec<u32> = node
                    .neighbors
                    .iter()
                    .map(|&w| self.owner[w as usize])
                    .filter(|&p| p != self.rank)
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                if node.shadow_for != expect {
                    return Err(StoreViolation::ShadowForMismatch { node: node.id });
                }
            }
        }
        // Every owned node per the owner map is listed.
        for v in graph.nodes() {
            if self.owner[v as usize] == self.rank && !owned_seen.contains(&v) {
                return Err(StoreViolation::UnlistedOwnedNode { node: v });
            }
        }
        // Data present (in RAM, or on a non-resident page in paged mode)
        // for owned nodes and all their neighbours.
        for v in graph.nodes() {
            if self.owner[v as usize] == self.rank {
                if !self.has_entry(v) {
                    return Err(StoreViolation::MissingData { node: v });
                }
                for &w in graph.neighbors(v) {
                    if !self.has_entry(w) {
                        return Err(StoreViolation::MissingNeighborData { node: w, of: v });
                    }
                }
            }
        }
        // Send plan consistent with shadow_for.
        let mut counts = vec![0usize; self.nprocs];
        for node in &self.peripheral {
            for &p in node.shadow_for {
                counts[p as usize] += 1;
            }
        }
        if counts != self.send_counts {
            return Err(StoreViolation::SendPlanMismatch {
                planned: self.send_counts.clone(),
                derived: counts,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::AvgProgram;
    use ic2_graph::generators::hex_grid;
    use ic2_partition::{metis::Metis, StaticPartitioner};

    fn build_stores(k: usize) -> (Graph, Vec<NodeStore<i64>>) {
        build_stores_in(k, 64)
    }

    fn build_stores_in(k: usize, buckets: usize) -> (Graph, Vec<NodeStore<i64>>) {
        let graph = hex_grid(4, 8);
        let part = Metis::default().partition(&graph, k);
        let program = AvgProgram::fine();
        let stores = (0..k as u32)
            .map(|r| NodeStore::build(&graph, &part, r, &program, buckets))
            .collect();
        (graph, stores)
    }

    #[test]
    fn every_store_validates() {
        let (graph, stores) = build_stores(4);
        for s in &stores {
            s.validate(&graph).unwrap();
        }
    }

    #[test]
    fn owned_nodes_cover_graph_exactly_once() {
        let (graph, stores) = build_stores(4);
        let total: usize = stores.iter().map(|s| s.owned_count()).sum();
        assert_eq!(total, graph.num_nodes());
    }

    #[test]
    fn shadow_data_is_present_for_remote_neighbors() {
        let (graph, stores) = build_stores(4);
        for s in &stores {
            for node in &s.peripheral {
                for &w in node.neighbors {
                    assert!(s.table.contains(w), "rank {} missing {w}", s.rank);
                }
            }
            // Shadows make the table strictly larger than the owned set
            // whenever the rank has peripherals.
            if !s.peripheral.is_empty() {
                assert!(s.stored_count() > s.owned_count());
            }
        }
        let _ = graph;
    }

    #[test]
    fn send_and_recv_plans_are_mirror_images() {
        let (_, stores) = build_stores(4);
        for s in &stores {
            for p in s.send_procs() {
                let other = &stores[p as usize];
                assert!(
                    other.recv_procs().contains(&s.rank),
                    "rank {} sends to {p} but {p} does not expect it",
                    s.rank
                );
            }
            for p in s.recv_procs() {
                let other = &stores[p as usize];
                assert!(
                    other.send_procs().contains(&s.rank),
                    "rank {} expects from {p} but {p} does not send",
                    s.rank
                );
            }
        }
    }

    #[test]
    fn single_rank_has_no_peripherals() {
        let (graph, stores) = build_stores(1);
        assert_eq!(stores[0].peripheral.len(), 0);
        assert_eq!(stores[0].internal.len(), graph.num_nodes());
        assert!(stores[0].send_procs().is_empty());
        assert!(stores[0].recv_procs().is_empty());
    }

    #[test]
    fn send_counts_match_comm_volume_metric() {
        let graph = hex_grid(4, 8);
        let part = Metis::default().partition(&graph, 4);
        let program = AvgProgram::fine();
        let total_sends: usize = (0..4u32)
            .map(|r| {
                NodeStore::build(&graph, &part, r, &program, 64)
                    .send_counts
                    .iter()
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(total_sends, ic2_graph::metrics::comm_volume(&graph, &part));
    }

    /// Every row's own and neighbour reads through its hints — exactly as
    /// the compute pass makes them — agree with the plain lookups (missing
    /// entries included), and a hinted staging write lands on the row's own
    /// entry.
    fn assert_hinted_access_is_exact(s: &mut NodeStore<i64>) {
        let lists = [s.internal.clone(), s.peripheral.clone()];
        for n in lists.iter().flat_map(NodeList::iter) {
            let (id, pos) = (n.id, n.pos);
            assert_eq!(s.table.get_at(id, pos), s.table.get(id), "own {id}");
            for (&w, &hint) in n.neighbors.iter().zip(n.neighbor_pos) {
                assert_eq!(s.table.get_at(w, hint), s.table.get(w), "{w} of {id}");
            }
            if s.table.contains(id) {
                let staged = -1 - i64::from(id);
                s.table.set_pending_at(id, pos, staged);
                assert_eq!(s.table.pending(id), Some(&staged));
            }
        }
        // Each staging write hit its own entry: one pending value per
        // stored owned node, none anywhere else.
        let stored = s.internal.iter().chain(&s.peripheral);
        let stored = stored.filter(|n| s.table.contains(n.id)).count();
        assert_eq!(s.table.promote_all(), stored);
        for n in s.internal.iter().chain(&s.peripheral) {
            if let Some(&d) = s.table.get(n.id) {
                assert_eq!(d, -1 - i64::from(n.id));
            }
        }
    }

    #[test]
    fn rebuild_resolves_exact_hints() {
        let (_, mut stores) = build_stores_in(4, 4);
        for s in &mut stores {
            for n in s.internal.iter().chain(&s.peripheral) {
                assert_eq!(s.table.position(n.id), Some(n.pos));
                for (&w, &hint) in n.neighbors.iter().zip(n.neighbor_pos) {
                    assert_eq!(s.table.position(w), Some(hint));
                }
            }
            assert_hinted_access_is_exact(s);
        }
    }

    #[test]
    fn wrong_hints_read_and_stage_the_right_entries() {
        let (_, mut stores) = build_stores_in(4, 4);
        let s = &mut stores[1];
        // Scramble every hint in place, as a corrupted list would.
        for list in [&mut s.internal, &mut s.peripheral] {
            for (i, h) in list.pos.iter_mut().chain(&mut list.adj_pos).enumerate() {
                *h = (*h + 1 + i as u32 % 3) % 4;
            }
        }
        assert_hinted_access_is_exact(s);
    }

    #[test]
    fn stale_hints_after_an_insert_shift_still_read_right() {
        let (graph, mut stores) = build_stores_in(4, 4);
        let s = &mut stores[2];
        // Insert the smallest ids this rank does not store: each lands at
        // the front of its bucket and shifts every hint behind it, and the
        // lists are deliberately not rebuilt.
        let mut inserted = 0;
        for v in graph.nodes() {
            if !s.table.contains(v) {
                s.table.insert(v, 0);
                inserted += 1;
            }
            if inserted == 8 {
                break;
            }
        }
        let stale = s
            .internal
            .iter()
            .chain(&s.peripheral)
            .filter(|n| s.table.position(n.id) != Some(n.pos))
            .count();
        assert!(stale > 0, "the inserts must shift some hinted entry");
        assert_hinted_access_is_exact(s);
    }

    #[test]
    fn stale_hints_after_a_page_round_trip_still_read_right() {
        let (_, mut stores) = build_stores_in(4, 4);
        let s = &mut stores[0];
        let b = s.table.bucket_index(s.peripheral.get(0).id);
        // The page comes back as written: hints stay exact.
        let mut image = Vec::new();
        s.table.encode_bucket(b, &mut image);
        s.table.drop_bucket(b);
        s.table.install_image(b, &image).unwrap();
        assert_hinted_access_is_exact(s);
        // The page comes back from a damaged copy without its first entry:
        // every hint into the page is now one past its entry, and the lost
        // entry must read as missing rather than as its successor.
        let mut page = Vec::<(NodeId, i64, Option<i64>)>::from_bytes(&image).unwrap();
        assert!(page.len() > 1, "test needs a chain");
        page.remove(0);
        s.table.drop_bucket(b);
        s.table.install_image(b, &page.to_bytes()).unwrap();
        assert_hinted_access_is_exact(s);
    }

    #[test]
    fn hints_after_restore_are_fresh_and_old_ones_still_read_right() {
        let (graph, mut stores) = build_stores_in(4, 4);
        let s = &mut stores[3];
        let old = s.clone();
        // Restore under a different owner map: rank 3 adopts rank 0's
        // nodes, so the table gains entries and every bucket shifts.
        let owner: Vec<u32> = s
            .owner
            .iter()
            .map(|&p| if p == 0 { 3 } else { p })
            .collect();
        let entries: Vec<(NodeId, i64)> = graph.nodes().map(|v| (v, i64::from(v) + 1)).collect();
        s.restore(&graph, owner, entries);
        s.validate(&graph).unwrap();
        for n in s.internal.iter().chain(&s.peripheral) {
            assert_eq!(s.table.position(n.id), Some(n.pos), "fresh hint");
        }
        // The pre-restore hints are stale against the new table but still
        // read the right data.
        for n in old.internal.iter().chain(&old.peripheral) {
            assert_eq!(s.table.get_at(n.id, n.pos), s.table.get(n.id));
            for (&w, &hint) in n.neighbors.iter().zip(n.neighbor_pos) {
                assert_eq!(s.table.get_at(w, hint), s.table.get(w));
            }
        }
        assert_hinted_access_is_exact(s);
    }

    #[test]
    fn validate_checks_the_flat_lists() {
        let (graph, stores) = build_stores(4);
        let s = stores.iter().find(|s| !s.peripheral.is_empty()).unwrap();
        let id = s.peripheral.get(0).id;
        let mut bad = s.clone();
        bad.peripheral.adj[0] = bad.peripheral.adj[1];
        assert!(matches!(
            bad.check_invariants(&graph),
            Err(StoreViolation::StaleNeighborList { node }) if node == id
        ));
        let mut bad = s.clone();
        bad.peripheral.shadow_for[0] = s.rank;
        assert!(matches!(
            bad.check_invariants(&graph),
            Err(StoreViolation::ShadowForMismatch { node }) if node == id
        ));
        let mut bad = s.clone();
        let p = s.peripheral.get(0).shadow_for[0] as usize;
        bad.send_counts[p] += 1;
        assert!(matches!(
            bad.check_invariants(&graph),
            Err(StoreViolation::SendPlanMismatch { .. })
        ));
    }

    #[test]
    fn rebuild_after_owner_change_reclassifies() {
        let (graph, mut stores) = build_stores(2);
        // Move every node to rank 0 and rebuild: rank 0 all internal.
        let n = graph.num_nodes();
        for s in &mut stores {
            s.owner = vec![0; n];
            s.rebuild_lists(&graph);
        }
        assert_eq!(stores[0].owned_count(), n);
        assert!(stores[0].peripheral.is_empty());
        assert_eq!(stores[1].owned_count(), 0);
        assert!(stores[1].send_procs().is_empty());
    }
}
