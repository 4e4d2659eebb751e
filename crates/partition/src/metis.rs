//! Multilevel recursive-bisection partitioner in the style of Metis
//! \[KK98\].
//!
//! Every bisection follows the classic multilevel recipe the thesis relies
//! on:
//!
//! 1. **Coarsening** — heavy-edge matching contracts the graph until it is
//!    small;
//! 2. **Initial partitioning** — greedy graph-growing bisection from
//!    several seeds, best cut kept;
//! 3. **Uncoarsening** — the bisection is projected back level by level
//!    with Fiduccia–Mattheyses (FM) refinement at each level.
//!
//! A k-way partition comes from recursive bisection with proportional
//! weight targets: each split induces the subgraph of its nodes and runs
//! the three steps on it from scratch. A greedy k-way boundary pass then
//! moves nodes between adjacent parts. (Real Metis coarsens once and
//! refines k-way at every level; this code does not.)
//!
//! Deterministic in [`Metis::seed`]. Coarse levels and induced subgraphs
//! are emitted directly as sorted CSR, FM orders its moves with packed
//! integer heap keys, and scratch buffers are reused across the whole
//! call; none of this changes a single partition.

use crate::StaticPartitioner;
use ic2_graph::{Graph, NodeId, Partition};
use ic2_rng::SplitMix64;
use std::collections::BinaryHeap;

/// Multilevel recursive-bisection partitioner.
#[derive(Debug, Clone, Copy)]
pub struct Metis {
    /// Seed for matching order and growing seeds.
    pub seed: u64,
    /// Allowed imbalance ε: part loads may reach `(1 + ε) ×` ideal.
    pub imbalance: f64,
    /// Stop coarsening below this many nodes.
    pub coarsen_to: usize,
    /// Seeds tried for the initial growing bisection.
    pub init_tries: usize,
}

impl Default for Metis {
    fn default() -> Self {
        Metis {
            seed: 0x1C2,
            imbalance: 0.05,
            coarsen_to: 48,
            init_tries: 6,
        }
    }
}

impl StaticPartitioner for Metis {
    fn name(&self) -> &'static str {
        "metis"
    }

    fn partition(&self, graph: &Graph, nparts: usize) -> Partition {
        assert!(nparts > 0);
        let n = graph.num_nodes();
        let mut assignment = vec![0u32; n];
        if nparts > 1 && n > 0 {
            // |FM gain| never exceeds the total edge weight, and neither
            // coarsening nor induction raises that total, so this one check
            // picks a gain-key width that is exact for the whole call.
            let total_ewgt: i128 = graph.edges().map(|(_, _, w)| i128::from(w)).sum();
            if total_ewgt <= i128::from(i32::MAX) {
                self.recursive_bisection::<u64>(graph, nparts, &mut assignment);
            } else {
                self.recursive_bisection::<u128>(graph, nparts, &mut assignment);
            }
        }
        let mut part = Partition::new(assignment, nparts);
        self.kway_refine(graph, &mut part);
        part
    }
}

/// Per-call state threaded through the recursion: the random stream, the
/// per-level imbalance budget and every reusable scratch buffer.
struct Workspace<K> {
    rng: SplitMix64,
    eps: f64,
    /// Parent-to-local id map for [`induce`]; all `u32::MAX` between uses.
    local: Vec<u32>,
    fm: FmBuffers<K>,
}

impl Metis {
    fn recursive_bisection<K: GainKey>(
        &self,
        graph: &Graph,
        nparts: usize,
        assignment: &mut [u32],
    ) {
        let nodes: Vec<NodeId> = graph.nodes().collect();
        // Per-level balance windows compound over log2(k) bisection
        // levels, so shrink each level's ε to keep the final k-way
        // imbalance near the configured budget.
        let levels = (nparts as f64).log2().ceil().max(1.0);
        let mut ws = Workspace::<K> {
            rng: SplitMix64::new(self.seed),
            eps: self.imbalance / levels,
            local: vec![u32::MAX; graph.num_nodes()],
            fm: FmBuffers::default(),
        };
        self.split(graph, &nodes, 0, nparts, assignment, &mut ws);
    }

    /// Recursively bisect the subgraph induced by the ascending node list
    /// `nodes` into parts `first_part..first_part + k`.
    fn split<K: GainKey>(
        &self,
        graph: &Graph,
        nodes: &[NodeId],
        first_part: u32,
        k: usize,
        assignment: &mut [u32],
        ws: &mut Workspace<K>,
    ) {
        if k == 1 || nodes.is_empty() {
            for &v in nodes {
                assignment[v as usize] = first_part;
            }
            return;
        }
        let k_left = k / 2;
        let frac = k_left as f64 / k as f64;
        // Each side must receive at least one node per part it will host
        // (when enough nodes exist), or downstream parts end up empty.
        let ml = k_left.min(nodes.len());
        let mr = (k - k_left).min(nodes.len() - ml);
        let sub = induce(graph, nodes, &mut ws.local);
        let side = self.bisect(&sub, frac, ml, mr, ws);
        drop(sub);
        // Both halves stay ascending, as `induce` requires.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (&v, &s) in nodes.iter().zip(&side) {
            if s {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        self.split(graph, &left, first_part, k_left, assignment, ws);
        self.split(
            graph,
            &right,
            first_part + k_left as u32,
            k - k_left,
            assignment,
            ws,
        );
    }

    /// Multilevel bisection: returns `true` for nodes on the "left" side,
    /// whose weight targets `frac` of the total. The left side receives at
    /// least `ml` nodes and the right at least `mr` (hosting floors from the
    /// recursive split).
    fn bisect<K: GainKey>(
        &self,
        graph: &Graph,
        frac: f64,
        ml: usize,
        mr: usize,
        ws: &mut Workspace<K>,
    ) -> Vec<bool> {
        let n = graph.num_nodes();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![ml >= 1];
        }
        if n > self.coarsen_to {
            // Coarsen one level and recurse. Node-count floors only bind on
            // tiny graphs, so the coarse level just needs feasible values.
            let (coarse, map) = coarsen(graph, &mut ws.rng);
            if coarse.num_nodes() < n {
                let cn = coarse.num_nodes();
                let cml = ml.min(cn / 2);
                let cmr = mr.min(cn - cml);
                let coarse_side = self.bisect(&coarse, frac, cml, cmr, ws);
                let mut side: Vec<bool> = map.iter().map(|&c| coarse_side[c as usize]).collect();
                fm_refine(graph, &mut side, frac, ws.eps, ml, mr, &mut ws.fm);
                return side;
            }
            // Matching failed to shrink the graph (e.g. star graphs);
            // fall through to direct initial partitioning.
        }
        let mut best: Option<(i64, f64, Vec<bool>)> = None;
        for _ in 0..self.init_tries.max(1) {
            let mut side = grow_bisection(graph, frac, ml, mr, &mut ws.rng);
            let cut = fm_refine(graph, &mut side, frac, ws.eps, ml, mr, &mut ws.fm);
            let dev = balance_deviation(graph, &side, frac);
            if best
                .as_ref()
                .is_none_or(|(bc, bd, _)| (cut, dev) < (*bc, *bd))
            {
                best = Some((cut, dev, side));
            }
        }
        best.expect("at least one try").2
    }

    /// Greedy k-way boundary refinement: move boundary nodes to adjacent
    /// parts when it reduces the cut without breaking balance.
    ///
    /// Moving `v` from `home` to `p` changes the cut by
    /// `conn[home] - conn[p]`, where `conn[q]` is the weight of `v`'s edges
    /// into part `q`. One sweep over `v`'s adjacency fills `conn`, so each
    /// node costs O(deg) rather than a full gain recount per neighbour.
    /// Candidates are still visited in neighbour order with strict
    /// improvement, which keeps the first-best tie-break.
    fn kway_refine(&self, graph: &Graph, part: &mut Partition) {
        let k = part.num_parts();
        if k < 2 || graph.num_nodes() < 2 {
            return;
        }
        let total = graph.total_vertex_weight();
        let ideal = total as f64 / k as f64;
        let cap = (ideal * (1.0 + self.imbalance)).ceil() as i64;
        let mut loads = part.loads(graph);
        let mut counts = part.counts();
        let mut conn = vec![0i64; k];
        for _pass in 0..4 {
            let mut moved = 0;
            for v in graph.nodes() {
                let home = part.part_of(v);
                // A move must never empty its source part: with k = n every
                // singleton looks tempting to merge, but the mapping must
                // keep all processors occupied.
                if counts[home as usize] <= 1 {
                    continue;
                }
                fill_conn(graph, part, v, &mut conn);
                let vw = graph.vertex_weight(v);
                // Candidate parts: those of v's neighbours.
                let mut best: Option<(i64, u32)> = None;
                for &w in graph.neighbors(v) {
                    let p = part.part_of(w);
                    if p == home {
                        continue;
                    }
                    let gain = conn[home as usize] - conn[p as usize];
                    let fits = loads[p as usize] + vw <= cap
                        || loads[p as usize] + vw < loads[home as usize];
                    if gain < 0 && fits && best.is_none_or(|(bg, _)| gain < bg) {
                        best = Some((gain, p));
                    }
                }
                clear_conn(graph, part, v, &mut conn);
                if let Some((_, p)) = best {
                    loads[home as usize] -= vw;
                    loads[p as usize] += vw;
                    counts[home as usize] -= 1;
                    counts[p as usize] += 1;
                    part.assign(v, p);
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
        // Balancing phase: drain overloaded parts into their least-loaded
        // neighbouring part, choosing the boundary node whose move hurts
        // the cut least. Bisection drift can otherwise accumulate past the
        // configured budget.
        for _pass in 0..6 {
            let mut moved = false;
            for v in graph.nodes() {
                let home = part.part_of(v);
                if loads[home as usize] <= cap || counts[home as usize] <= 1 {
                    continue;
                }
                fill_conn(graph, part, v, &mut conn);
                let vw = graph.vertex_weight(v);
                let mut best: Option<(i64, i64, u32)> = None;
                for &w in graph.neighbors(v) {
                    let p = part.part_of(w);
                    if p == home || loads[p as usize] + vw >= loads[home as usize] {
                        continue;
                    }
                    let gain = conn[home as usize] - conn[p as usize];
                    let key = (gain, loads[p as usize]);
                    if best.is_none_or(|(bg, bl, _)| key < (bg, bl)) {
                        best = Some((gain, loads[p as usize], p));
                    }
                }
                clear_conn(graph, part, v, &mut conn);
                if let Some((_, _, p)) = best {
                    loads[home as usize] -= vw;
                    loads[p as usize] += vw;
                    counts[home as usize] -= 1;
                    counts[p as usize] += 1;
                    part.assign(v, p);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }
}

/// Add the weight of each of `v`'s edges to `conn[part of the far end]`.
fn fill_conn(graph: &Graph, part: &Partition, v: NodeId, conn: &mut [i64]) {
    for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
        conn[part.part_of(w) as usize] += ew;
    }
}

/// Reset the entries [`fill_conn`] touched, leaving `conn` all zero.
fn clear_conn(graph: &Graph, part: &Partition, v: NodeId, conn: &mut [i64]) {
    for &w in graph.neighbors(v) {
        conn[part.part_of(w) as usize] = 0;
    }
}

/// Extract the subgraph induced by the ascending node list `nodes`; local
/// id `i` is `nodes[i]`. `local` is a parent-sized map that must be all
/// `u32::MAX` on entry and is left that way.
///
/// Because `nodes` ascends, the parent-to-local map is monotone and each
/// filtered parent adjacency run stays sorted, so the CSR arrays are
/// emitted directly.
fn induce(graph: &Graph, nodes: &[NodeId], local: &mut [u32]) -> Graph {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
    for (i, &v) in nodes.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let mut xadj = Vec::with_capacity(nodes.len() + 1);
    xadj.push(0);
    let mut adj = Vec::new();
    let mut ewgt = Vec::new();
    for &v in nodes {
        for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
            let lw = local[w as usize];
            if lw != u32::MAX {
                adj.push(lw);
                ewgt.push(ew);
            }
        }
        xadj.push(adj.len());
    }
    let vwgt = nodes.iter().map(|&v| graph.vertex_weight(v)).collect();
    for &v in nodes {
        local[v as usize] = u32::MAX;
    }
    Graph::from_sorted_csr(xadj, adj, ewgt, vwgt)
}

/// One level of heavy-edge matching coarsening. Returns the coarse graph
/// and the fine-to-coarse vertex map.
fn coarsen(graph: &Graph, rng: &mut SplitMix64) -> (Graph, Vec<u32>) {
    let n = graph.num_nodes();
    let mut order: Vec<NodeId> = graph.nodes().collect();
    rng.shuffle(&mut order);
    // A fine vertex is matched once it has a coarse id.
    let mut coarse_id = vec![u32::MAX; n];
    // The fine vertices of each coarse vertex, in coarse-id order (a
    // singleton is recorded as `(v, v)`).
    let mut members: Vec<(NodeId, NodeId)> = Vec::with_capacity(n / 2 + 1);
    for &v in &order {
        if coarse_id[v as usize] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbour.
        let mut best: Option<(i64, NodeId)> = None;
        for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
            if coarse_id[w as usize] == u32::MAX
                && best
                    .is_none_or(|(bw, bn)| (ew, std::cmp::Reverse(w)) > (bw, std::cmp::Reverse(bn)))
            {
                best = Some((ew, w));
            }
        }
        let c = members.len() as u32;
        let w = best.map_or(v, |(_, w)| w);
        coarse_id[v as usize] = c;
        coarse_id[w as usize] = c;
        members.push((v, w));
    }
    // Build the coarse CSR one vertex at a time. `slot[c']` remembers where
    // the current run holds the edge to `c'`, so parallel fine edges merge
    // by adding weights; a slot from an earlier run falls outside the
    // current run's range and is simply overwritten.
    let cn = members.len();
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0);
    let mut adj: Vec<NodeId> = Vec::with_capacity(2 * graph.num_edges());
    let mut ewgt: Vec<i64> = Vec::with_capacity(2 * graph.num_edges());
    let mut vwgt = Vec::with_capacity(cn);
    let mut slot = vec![usize::MAX; cn];
    let mut run: Vec<(NodeId, i64)> = Vec::new();
    for (c, &(a, b)) in members.iter().enumerate() {
        let start = adj.len();
        let pair = [a, b];
        let fine = if a == b { &pair[..1] } else { &pair[..] };
        let mut weight = 0;
        for &u in fine {
            weight += graph.vertex_weight(u);
            for (&w, &ew) in graph.neighbors(u).iter().zip(graph.edge_weights(u)) {
                let cw = coarse_id[w as usize];
                if cw as usize == c {
                    continue;
                }
                let s = slot[cw as usize];
                if (start..adj.len()).contains(&s) {
                    ewgt[s] += ew;
                } else {
                    slot[cw as usize] = adj.len();
                    adj.push(cw);
                    ewgt.push(ew);
                }
            }
        }
        vwgt.push(weight);
        run.clear();
        run.extend(
            adj[start..]
                .iter()
                .copied()
                .zip(ewgt[start..].iter().copied()),
        );
        run.sort_unstable_by_key(|&(w, _)| w);
        for (i, &(w, ew)) in run.iter().enumerate() {
            adj[start + i] = w;
            ewgt[start + i] = ew;
        }
        xadj.push(adj.len());
    }
    (Graph::from_sorted_csr(xadj, adj, ewgt, vwgt), coarse_id)
}

/// Greedy graph-growing bisection: BFS-grow a region from a random seed,
/// always absorbing the frontier vertex with the best cut gain, until the
/// region reaches `frac` of the total weight (respecting the `ml`/`mr`
/// node-count floors).
fn grow_bisection(
    graph: &Graph,
    frac: f64,
    ml: usize,
    mr: usize,
    rng: &mut SplitMix64,
) -> Vec<bool> {
    let n = graph.num_nodes();
    let total = graph.total_vertex_weight();
    let target = (total as f64 * frac).round() as i64;
    let mut side = vec![false; n];
    let mut weight = 0i64;
    let mut count = 0usize;
    let mut frontier: Vec<NodeId> = Vec::new();
    let seed = rng.gen_range(0..n) as NodeId;
    let mut next_seed = seed;
    while (weight < target && count < n - mr) || count < ml {
        let v = if side[next_seed as usize] {
            // Pick the best-gain frontier vertex; gain = (edges into the
            // region) - (edges out), higher absorbs first.
            frontier.retain(|&f| !side[f as usize]);
            match frontier.iter().copied().max_by_key(|&f| {
                let mut gain = 0i64;
                for (&w, &ew) in graph.neighbors(f).iter().zip(graph.edge_weights(f)) {
                    gain += if side[w as usize] { ew } else { -ew };
                }
                (gain, std::cmp::Reverse(f))
            }) {
                Some(f) => f,
                None => {
                    // Disconnected remainder: jump to any unassigned node.
                    match (0..n as NodeId).find(|&v| !side[v as usize]) {
                        Some(v) => v,
                        None => break,
                    }
                }
            }
        } else {
            next_seed
        };
        side[v as usize] = true;
        weight += graph.vertex_weight(v);
        count += 1;
        for &w in graph.neighbors(v) {
            if !side[w as usize] {
                frontier.push(w);
            }
        }
        next_seed = v;
    }
    side
}

fn cut_of(graph: &Graph, side: &[bool]) -> i64 {
    graph
        .edges()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .map(|(_, _, w)| w)
        .sum()
}

fn balance_deviation(graph: &Graph, side: &[bool], frac: f64) -> f64 {
    let total = graph.total_vertex_weight() as f64;
    let left: i64 = graph
        .nodes()
        .filter(|&v| side[v as usize])
        .map(|v| graph.vertex_weight(v))
        .sum();
    (left as f64 - total * frac).abs()
}

/// A max-heap key that orders exactly like `(gain, Reverse(v))`: higher
/// gain first, ties to the lower node id. Packing both into one integer
/// makes every heap comparison a single integer compare.
trait GainKey: Ord + Copy + Default {
    fn pack(gain: i64, v: NodeId) -> Self;
    fn unpack(self) -> (i64, NodeId);
}

/// 8 bytes: the gain as a sign-flipped `i32` above `!v`. Exact only while
/// every |gain| fits in an `i32`, which [`Metis::partition`] guarantees
/// before choosing this width.
impl GainKey for u64 {
    fn pack(gain: i64, v: NodeId) -> u64 {
        debug_assert!(
            i32::try_from(gain).is_ok(),
            "gain {gain} overflows a 32-bit key"
        );
        (u64::from(gain as i32 as u32 ^ (1 << 31)) << 32) | u64::from(!v)
    }
    fn unpack(self) -> (i64, NodeId) {
        (
            i64::from(((self >> 32) as u32 ^ (1 << 31)) as i32),
            !(self as u32),
        )
    }
}

/// 16 bytes: the full `i64` gain, sign-flipped, above `!v`. Exact for any
/// gain.
impl GainKey for u128 {
    fn pack(gain: i64, v: NodeId) -> u128 {
        (u128::from(gain as u64 ^ (1 << 63)) << 32) | u128::from(!v)
    }
    fn unpack(self) -> (i64, NodeId) {
        (((self >> 32) as u64 ^ (1 << 63)) as i64, !(self as u32))
    }
}

/// Scratch buffers for [`fm_refine`], grown on first use and reused by
/// every pass of every call.
#[derive(Default)]
struct FmBuffers<K> {
    gain: Vec<i64>,
    locked: Vec<bool>,
    history: Vec<NodeId>,
    heap: Vec<K>,
    stash: Vec<K>,
}

/// Fiduccia–Mattheyses style 2-way refinement with rollback to the best
/// configuration seen in each pass; returns the final cut. Moves must keep
/// the left side's node count in `[ml, n - mr]` and its weight within the
/// balance window — or strictly improve the weight deviation (so a skewed
/// starting point can be repaired).
///
/// Move selection uses the classic FM gain structure — a lazily-invalidated
/// max-heap keyed `(gain, Reverse(v))`, packed into one integer `K` —
/// maintained incrementally as moves update neighbour gains. Each step
/// therefore costs `O(log n)` amortised rather than the full `O(n)` rescan
/// a naive implementation performs, which is the difference between
/// quadratic and `n log n` passes and what lets refinement handle
/// million-node graphs. The heap pops in exactly the order the full scan
/// maximised, so the move sequence (and thus every partition produced) is
/// bit-identical to the scan's.
#[allow(clippy::too_many_arguments)]
fn fm_refine<K: GainKey>(
    graph: &Graph,
    side: &mut [bool],
    frac: f64,
    eps: f64,
    ml: usize,
    mr: usize,
    buf: &mut FmBuffers<K>,
) -> i64 {
    let n = graph.num_nodes();
    if n < 2 {
        return 0;
    }
    let total = graph.total_vertex_weight();
    let target = total as f64 * frac;
    // Bookmarked (final) states must sit in this tight window...
    let slack = (total as f64 * eps).max(0.5);
    // ...but individual moves may excurse one max-weight vertex beyond it,
    // which classic FM needs to escape local minima (rollback repairs it).
    let max_vw = graph.vertex_weights().iter().copied().max().unwrap_or(1);
    let move_slack = slack.max(max_vw as f64);

    let mut left_weight: i64 = graph
        .nodes()
        .filter(|&v| side[v as usize])
        .map(|v| graph.vertex_weight(v))
        .sum();
    let mut left_count = side.iter().filter(|&&s| s).count();
    // Each pass ends rolled back to its best prefix, whose cut it tracked
    // exactly, so only the first pass needs a scan.
    let mut cut = cut_of(graph, side);
    let FmBuffers {
        gain,
        locked,
        history,
        heap: heap_buf,
        stash,
    } = buf;

    for _pass in 0..8 {
        // gain(v) = cut reduction if v switches sides.
        gain.clear();
        gain.extend(graph.nodes().map(|v| {
            let s = side[v as usize];
            let mut g = 0i64;
            for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                if side[w as usize] != s {
                    g += ew;
                } else {
                    g -= ew;
                }
            }
            g
        }));
        locked.clear();
        locked.resize(n, false);
        history.clear();
        stash.clear();
        let mut cur_cut = cut;
        let mut best_cut = cur_cut;
        let mut best_dev = (left_weight as f64 - target).abs();
        let mut best_len = 0usize;
        let mut cur_weight = left_weight;
        let mut cur_count = left_count;
        // Lazy gain heap: one entry per (gain, vertex) version. An entry is
        // *fresh* iff the vertex is unlocked and the stored gain matches the
        // current gain table; anything else is a superseded version and is
        // skipped at pop (the update that changed the gain pushed a fresh
        // entry). Every unlocked vertex always has a fresh entry somewhere
        // in the heap, so the first fresh pop is the true argmax.
        heap_buf.clear();
        heap_buf.extend(graph.nodes().map(|v| K::pack(gain[v as usize], v)));
        let mut heap = BinaryHeap::from(std::mem::take(heap_buf));

        for _step in 0..n {
            let cur_dev = (cur_weight as f64 - target).abs();
            // Best movable vertex respecting the balance window (or
            // improving an out-of-window deviation). Feasibility depends on
            // the running weight/count, so it is tested at pop time;
            // infeasible-but-fresh entries are stashed and re-pushed after
            // the move, since a later step may admit them. The first fresh
            // feasible pop maximises (gain, Reverse(v)) over exactly the
            // vertices the old full scan considered.
            let mut pick: Option<(i64, NodeId)> = None;
            while let Some(key) = heap.pop() {
                let (g, v) = key.unpack();
                if locked[v as usize] || g != gain[v as usize] {
                    continue;
                }
                let vw = graph.vertex_weight(v);
                let (new_left, new_count) = if side[v as usize] {
                    (cur_weight - vw, cur_count - 1)
                } else {
                    (cur_weight + vw, cur_count + 1)
                };
                let new_dev = (new_left as f64 - target).abs();
                if new_count >= ml
                    && new_count <= n - mr
                    && (new_dev <= move_slack || new_dev < cur_dev)
                {
                    pick = Some((g, v));
                    break;
                }
                stash.push(key);
            }
            let Some((g, v)) = pick else { break };
            // Apply the move.
            let vw = graph.vertex_weight(v);
            if side[v as usize] {
                cur_weight -= vw;
                cur_count -= 1;
            } else {
                cur_weight += vw;
                cur_count += 1;
            }
            side[v as usize] = !side[v as usize];
            locked[v as usize] = true;
            cur_cut -= g;
            history.push(v);
            for (&w, &ew) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                // After v switched: same-side neighbours gain, others lose.
                if side[w as usize] == side[v as usize] {
                    gain[w as usize] -= 2 * ew;
                } else {
                    gain[w as usize] += 2 * ew;
                }
                if !locked[w as usize] {
                    heap.push(K::pack(gain[w as usize], w));
                }
            }
            // Stashed entries whose gain a neighbour update just changed
            // re-enter as stale versions and are skipped later; the rest
            // stay fresh and compete again next step.
            heap.extend(stash.drain(..));
            let dev = (cur_weight as f64 - target).abs();
            // Prefer any in-window cut improvement; when both states are
            // outside the window, prefer the better deviation.
            let in_window = dev <= slack;
            let best_in_window = best_dev <= slack;
            let better = match (in_window, best_in_window) {
                (true, true) => cur_cut < best_cut,
                (true, false) => true,
                (false, false) => dev < best_dev,
                (false, true) => false,
            };
            if better {
                best_cut = cur_cut;
                best_dev = dev;
                best_len = history.len();
            }
        }
        *heap_buf = heap.into_vec();
        // Roll back past the best prefix.
        for &v in history[best_len..].iter().rev() {
            let vw = graph.vertex_weight(v);
            if side[v as usize] {
                cur_weight -= vw;
                cur_count -= 1;
            } else {
                cur_weight += vw;
                cur_count += 1;
            }
            side[v as usize] = !side[v as usize];
        }
        left_weight = cur_weight;
        left_count = cur_count;
        cut = best_cut;
        if best_len == 0 {
            break;
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic2_graph::generators::{hex_grid, thesis_random_graph, torus};
    use ic2_graph::{metrics, GraphBuilder};

    fn check_quality(graph: &Graph, k: usize, max_imbalance: f64) -> i64 {
        let part = Metis::default().partition(graph, k);
        assert_eq!(part.len(), graph.num_nodes());
        let imb = metrics::imbalance(graph, &part);
        assert!(
            imb <= max_imbalance,
            "k={k}: imbalance {imb} > {max_imbalance}, counts {:?}",
            part.counts()
        );
        metrics::edge_cut(graph, &part)
    }

    #[test]
    fn hex_grids_partition_well() {
        for (n, k) in [(32, 2), (32, 4), (64, 4), (64, 8), (96, 8), (96, 16)] {
            let g = ic2_graph::generators::hex_grid_n(n);
            let cut = check_quality(&g, k, 1.26);
            // A k-way split of a hex grid should cut far fewer edges than
            // round-robin interleaving.
            let rr = metrics::edge_cut(&g, &crate::simple::RoundRobin.partition(&g, k));
            assert!(cut * 3 < rr * 2, "n={n} k={k}: cut {cut} vs rr {rr}");
        }
    }

    #[test]
    fn bisection_of_even_path_is_perfect() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7u32 {
            b.edge(i, i + 1);
        }
        let g = b.build();
        let p = Metis::default().partition(&g, 2);
        assert_eq!(metrics::edge_cut(&g, &p), 1);
        assert_eq!(p.counts(), vec![4, 4]);
    }

    #[test]
    fn large_mesh_quality_beats_block() {
        let g = hex_grid(32, 32);
        let metis_cut = check_quality(&g, 16, 1.11);
        let band = metrics::edge_cut(&g, &crate::bands::RowBand.partition(&g, 16));
        assert!(
            metis_cut < band,
            "metis {metis_cut} should beat 16 thin row bands {band}"
        );
    }

    #[test]
    fn random_graphs_stay_balanced() {
        for seed in 0..3 {
            let g = thesis_random_graph(64, seed);
            for k in [2, 4, 8, 16] {
                check_quality(&g, k, 1.3);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = thesis_random_graph(64, 0);
        let a = Metis::default().partition(&g, 8);
        let b = Metis::default().partition(&g, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_can_change_result() {
        let g = thesis_random_graph(64, 0);
        let a = Metis::default().partition(&g, 8);
        let b = Metis {
            seed: 99,
            ..Default::default()
        }
        .partition(&g, 8);
        // Not guaranteed different, but cut quality must hold for both.
        assert!(metrics::imbalance(&g, &b) <= 1.3);
        let _ = a;
    }

    #[test]
    fn k_equal_one_is_trivial() {
        let g = hex_grid(4, 4);
        let p = Metis::default().partition(&g, 1);
        assert!(p.as_slice().iter().all(|&x| x == 0));
    }

    #[test]
    fn k_equal_n_spreads_out() {
        let g = hex_grid(2, 2);
        let p = Metis::default().partition(&g, 4);
        let mut counts = p.counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn odd_k_gets_proportional_targets() {
        let g = hex_grid(8, 9);
        let p = Metis::default().partition(&g, 3);
        let imb = metrics::imbalance(&g, &p);
        assert!(imb <= 1.15, "imbalance {imb}: {:?}", p.counts());
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.edge(i, i + 1);
        }
        b.vertex_weights(vec![10, 1, 1, 1, 1, 10]);
        let g = b.build();
        let p = Metis::default().partition(&g, 2);
        let loads = p.loads(&g);
        assert!((loads[0] - loads[1]).abs() <= 4, "weighted loads {loads:?}");
    }

    #[test]
    fn torus_partitions_are_sane() {
        let g = torus(8, 8);
        let cut = check_quality(&g, 4, 1.11);
        assert!(cut <= 40, "torus cut {cut}");
    }

    #[test]
    fn coarsening_halves_and_preserves_weight() {
        let g = hex_grid(8, 8);
        let mut rng = SplitMix64::new(1);
        let (coarse, map) = coarsen(&g, &mut rng);
        assert!(coarse.num_nodes() < g.num_nodes());
        assert!(coarse.num_nodes() >= g.num_nodes() / 2);
        assert_eq!(coarse.total_vertex_weight(), g.total_vertex_weight());
        assert_eq!(map.len(), g.num_nodes());
        assert!(map.iter().all(|&c| (c as usize) < coarse.num_nodes()));
    }

    #[test]
    fn large_meshes_refine_in_reasonable_time() {
        // 14 400 nodes. With the old full-rescan move selection each FM
        // pass was O(n²) per level and this test did not finish in useful
        // time in debug builds; the lazy gain heap makes it routine.
        let g = hex_grid(120, 120);
        let cut = check_quality(&g, 8, 1.11);
        let rr = metrics::edge_cut(&g, &crate::simple::RoundRobin.partition(&g, 8));
        assert!(cut * 3 < rr, "cut {cut} vs round-robin {rr}");
    }

    /// Both key widths must round-trip and order exactly like the
    /// `(gain, Reverse(v))` tuple they replace.
    fn check_key_order<K: GainKey + std::fmt::Debug>(gains: &[i64]) {
        use std::cmp::Reverse;
        let ids = [0, 1, 2, 77, u32::MAX - 1, u32::MAX];
        let pairs: Vec<(i64, NodeId)> = gains
            .iter()
            .flat_map(|&g| ids.iter().map(move |&v| (g, v)))
            .collect();
        for &(g, v) in &pairs {
            assert_eq!(K::pack(g, v).unpack(), (g, v));
            for &(h, w) in &pairs {
                assert_eq!(
                    K::pack(g, v).cmp(&K::pack(h, w)),
                    (g, Reverse(v)).cmp(&(h, Reverse(w))),
                    "({g},{v}) vs ({h},{w})"
                );
            }
        }
    }

    #[test]
    fn gain_keys_order_like_tuples() {
        let narrow = [
            i64::from(i32::MIN),
            -70_000,
            -2,
            -1,
            0,
            1,
            2,
            6,
            i64::from(i32::MAX),
        ];
        check_key_order::<u64>(&narrow);
        let wide = [
            i64::MIN,
            -(1 << 41),
            i64::from(i32::MIN) - 1,
            0,
            1 << 40,
            i64::MAX,
        ];
        check_key_order::<u128>(&narrow);
        check_key_order::<u128>(&wide);
    }

    #[test]
    fn fm_refine_fixes_a_bad_split() {
        // Two 4-cliques joined by one edge, split the worst way.
        let mut b = GraphBuilder::new(8);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.edge(i, j);
                b.edge(i + 4, j + 4);
            }
        }
        b.edge(3, 4);
        let g = b.build();
        // Interleaved start: cut = everything.
        let mut side = vec![true, false, true, false, true, false, true, false];
        let cut = fm_refine(
            &g,
            &mut side,
            0.5,
            0.05,
            1,
            1,
            &mut FmBuffers::<u64>::default(),
        );
        assert_eq!(cut, 1, "sides {side:?}");
        assert_eq!(cut_of(&g, &side), 1, "sides {side:?}");
    }
}
