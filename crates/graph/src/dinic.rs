//! Dinic's max-flow / min-cut algorithm on real-valued capacities.
//!
//! The Automatic XPro Generator reduces functional-cell partitioning to a
//! standard s-t min-cut (paper §3.2.2); this is the solver behind it. Dinic
//! runs in `O(V²E)` — comfortably polynomial, which is the paper's
//! complexity claim for the generator.
//!
//! A [`FlowNetwork`] keeps its topology and capacities apart from the
//! residual state of a solve: every solve starts from the stored
//! capacities, and [`FlowNetwork::set_capacities`] rewrites them in place.
//! One network therefore serves any number of solves — the generator's
//! λ-sweep builds its network once and only rescales capacities per λ —
//! and the solver's scratch buffers (BFS levels, DFS iterators, the queue)
//! are reused across phases and across solves.
//!
//! **Edge order.** [`FlowNetwork::edges`], [`CutWitness::edges`] and
//! [`FlowNetwork::set_capacities`] all list forward edges grouped by tail
//! node in ascending id, in insertion order within each tail.

/// Identifier of a node in a [`FlowNetwork`].
pub type NodeId = usize;

/// Capacity value treated as unbounded.
pub const INF: f64 = f64::INFINITY;

/// Numerical floor: residual capacities at or below this are exhausted.
const EPS: f64 = 1e-9;

/// One direction of an edge: a forward arc or its paired residual arc.
#[derive(Clone, Debug)]
struct Arc {
    to: NodeId,
    /// Index of the paired arc in `adj[to]`.
    rev: usize,
    /// Stored capacity: the edge's capacity on a forward arc, zero on a
    /// residual arc. A solve never changes it.
    cap: f64,
    /// Residual capacity during (and after) the latest solve.
    res: f64,
    /// Whether this is an original (forward) edge rather than a residual.
    forward: bool,
}

/// A directed flow network with real-valued capacities.
///
/// # Examples
///
/// ```
/// use xpro_graph::dinic::FlowNetwork;
///
/// let mut net = FlowNetwork::new();
/// let s = net.add_node();
/// let a = net.add_node();
/// let t = net.add_node();
/// net.add_edge(s, a, 3.0);
/// net.add_edge(a, t, 2.0);
/// let cut = net.min_cut(s, t);
/// assert_eq!(cut.capacity, 2.0);
/// assert!(cut.source_side[a]);
///
/// // Re-price the edges (in edge order) and solve the same network again.
/// net.set_capacities(&[1.0, 2.0]);
/// assert_eq!(net.max_flow(s, t), 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    adj: Vec<Vec<Arc>>,
    edge_count: usize,
    // Solver scratch, reused across Dinic phases and across solves.
    level: Vec<usize>,
    it: Vec<usize>,
    queue: Vec<NodeId>,
}

/// Result of a min-cut computation.
#[derive(Clone, Debug, PartialEq)]
pub struct MinCut {
    /// Total capacity of the cut (equals the max flow).
    pub capacity: f64,
    /// `source_side[v]` is `true` when `v` is reachable from the source in
    /// the residual graph (i.e., on the source side of the cut).
    pub source_side: Vec<bool>,
}

/// Flow assignment on one original (forward) edge of the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeFlow {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Original capacity of the edge ([`INF`] for unbounded edges).
    pub capacity: f64,
    /// Flow routed through the edge by the max-flow computation.
    pub flow: f64,
}

/// A max-flow/min-cut pair that certifies its own optimality.
///
/// By LP weak duality, *any* feasible s→t flow value is a lower bound on
/// *any* s-t cut capacity — so exhibiting a feasible flow whose value
/// equals a cut's weight proves simultaneously that the flow is maximum
/// and the cut minimum. The witness carries the full per-edge flow
/// assignment so an independent checker can re-verify feasibility
/// (capacity limits, conservation) and the equality without trusting the
/// solver.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CutWitness {
    /// Value of the flow == weight of the cut.
    pub value: f64,
    /// `source_side[v]` is `true` when `v` is on the source side.
    pub source_side: Vec<bool>,
    /// Flow assignment on every original edge, in edge order (see the
    /// [module docs](self)).
    pub edges: Vec<EdgeFlow>,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds `n` nodes, returning the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = self.adj.len();
        for _ in 0..n {
            self.adj.push(Vec::new());
        }
        first
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds a directed edge with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, the endpoints coincide,
    /// or the capacity is negative or NaN.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: f64) {
        assert!(from < self.adj.len(), "`from` out of range");
        assert!(to < self.adj.len(), "`to` out of range");
        assert_ne!(from, to, "self-loops are not allowed");
        assert!(cap >= 0.0, "capacity must be non-negative and not NaN");
        let rev_from = self.adj[to].len();
        let rev_to = self.adj[from].len();
        self.adj[from].push(Arc {
            to,
            rev: rev_from,
            cap,
            res: cap,
            forward: true,
        });
        self.adj[to].push(Arc {
            to: from,
            rev: rev_to,
            cap: 0.0,
            res: 0.0,
            forward: false,
        });
        self.edge_count += 1;
    }

    /// Replaces every edge's capacity, in edge order (see the
    /// [module docs](self)). The topology and the solver's buffers are
    /// kept, so the next solve runs on the same network with new prices.
    ///
    /// # Panics
    ///
    /// Panics if `caps` does not hold one capacity per edge, or a capacity
    /// is negative or NaN.
    pub fn set_capacities(&mut self, caps: &[f64]) {
        assert_eq!(caps.len(), self.edge_count, "one capacity per edge");
        let mut caps = caps.iter();
        for arc in self.adj.iter_mut().flatten().filter(|a| a.forward) {
            let &cap = caps.next().expect("length checked above");
            assert!(cap >= 0.0, "capacity must be non-negative and not NaN");
            arc.cap = cap;
        }
    }

    /// Computes the maximum s→t flow from the stored capacities and
    /// returns its value. The residual state of the solve is kept until
    /// the next one; the capacities are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> f64 {
        assert!(
            s < self.adj.len() && t < self.adj.len(),
            "node out of range"
        );
        assert_ne!(s, t, "source equals sink");
        for arc in self.adj.iter_mut().flatten() {
            arc.res = arc.cap;
        }
        let n = self.adj.len();
        let mut flow = 0.0f64;
        loop {
            // BFS level graph.
            self.level.clear();
            self.level.resize(n, usize::MAX);
            self.level[s] = 0;
            self.queue.clear();
            self.queue.push(s);
            let mut head = 0;
            while let Some(&u) = self.queue.get(head) {
                head += 1;
                for e in &self.adj[u] {
                    if e.res > EPS && self.level[e.to] == usize::MAX {
                        self.level[e.to] = self.level[u] + 1;
                        self.queue.push(e.to);
                    }
                }
            }
            if self.level[t] == usize::MAX {
                break;
            }
            // DFS blocking flow.
            self.it.clear();
            self.it.resize(n, 0);
            loop {
                let pushed = dfs(&mut self.adj, s, t, INF, &self.level, &mut self.it);
                if pushed <= EPS {
                    break;
                }
                if pushed.is_infinite() {
                    // An all-infinite augmenting path: the max flow (and the
                    // min cut) is unbounded. Residuals are no longer
                    // meaningful, so report immediately.
                    return INF;
                }
                flow += pushed;
            }
        }
        flow
    }

    /// Computes the minimum s-t cut.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, either is out of range, or the min cut is
    /// unbounded (every s→t cut crosses an [`INF`] edge).
    pub fn min_cut(&mut self, s: NodeId, t: NodeId) -> MinCut {
        let witness = self.min_cut_with_witness(s, t);
        MinCut {
            capacity: witness.value,
            source_side: witness.source_side,
        }
    }

    /// Computes the minimum s-t cut together with the max-flow witness
    /// that certifies it (see [`CutWitness`]).
    ///
    /// # Panics
    ///
    /// As [`FlowNetwork::min_cut_into`].
    pub fn min_cut_with_witness(&mut self, s: NodeId, t: NodeId) -> CutWitness {
        let mut witness = CutWitness::default();
        self.min_cut_into(s, t, &mut witness);
        witness
    }

    /// Computes the minimum s-t cut and writes its max-flow witness into
    /// `out`, reusing `out`'s buffers.
    ///
    /// The flow on each original edge is recovered from its reverse edge's
    /// residual capacity: reverse residuals start at zero, grow by every
    /// unit pushed forward, and shrink by every unit cancelled — and they
    /// stay finite even on [`INF`] edges.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, either is out of range, or the min cut is
    /// unbounded (every s→t cut crosses an [`INF`] edge).
    pub fn min_cut_into(&mut self, s: NodeId, t: NodeId, out: &mut CutWitness) {
        let value = self.max_flow(s, t);
        assert!(
            value.is_finite(),
            "min cut is unbounded (infinite-capacity path from source to sink)"
        );
        out.value = value;
        let side = &mut out.source_side;
        side.clear();
        side.resize(self.adj.len(), false);
        side[s] = true;
        self.queue.clear();
        self.queue.push(s);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for e in &self.adj[u] {
                if e.res > EPS && !side[e.to] {
                    side[e.to] = true;
                    self.queue.push(e.to);
                }
            }
        }
        debug_assert!(!side[t], "sink reachable after max flow");
        out.edges.clear();
        for (u, adj) in self.adj.iter().enumerate() {
            for e in adj.iter().filter(|e| e.forward) {
                let flow = self.adj[e.to][e.rev].res;
                let capacity = if e.res.is_infinite() {
                    INF
                } else {
                    e.res + flow
                };
                out.edges.push(EdgeFlow {
                    from: u,
                    to: e.to,
                    capacity,
                    flow,
                });
            }
        }
    }

    /// Original forward edges as `(from, to, capacity)` triples, in edge
    /// order (see the [module docs](self)).
    pub fn edges(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (u, adj) in self.adj.iter().enumerate() {
            for e in adj.iter().filter(|e| e.forward) {
                out.push((u, e.to, e.cap));
            }
        }
        out
    }

    /// Sum of original forward-edge capacities crossing a given partition
    /// (`side[u] && !side[v]`). Used by tests to validate cut capacities.
    pub fn cut_value(&self, side: &[bool]) -> f64 {
        let mut total = 0.0;
        for (u, edges) in self.adj.iter().enumerate() {
            for e in edges {
                if e.forward && side[u] && !side[e.to] {
                    total += e.cap;
                }
            }
        }
        total
    }
}

/// One blocking-flow augmentation: pushes up to `limit` from `u` to `t`
/// along the level graph, advancing the per-node arc iterators.
fn dfs(
    adj: &mut [Vec<Arc>],
    u: NodeId,
    t: NodeId,
    limit: f64,
    level: &[usize],
    it: &mut [usize],
) -> f64 {
    if u == t {
        return limit;
    }
    while it[u] < adj[u].len() {
        let (to, res, rev) = {
            let e = &adj[u][it[u]];
            (e.to, e.res, e.rev)
        };
        if res > EPS && level[to] == level[u] + 1 {
            let pushed = dfs(adj, to, t, limit.min(res), level, it);
            if pushed > EPS {
                let fwd = &mut adj[u][it[u]].res;
                if fwd.is_finite() {
                    *fwd -= pushed;
                }
                let back = &mut adj[to][rev].res;
                if back.is_finite() {
                    *back += pushed;
                }
                return pushed;
            }
        }
        it[u] += 1;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, 5.0);
        assert_eq!(net.max_flow(s, t), 5.0);
    }

    #[test]
    fn classic_diamond() {
        // s → a (3), s → b (2), a → t (2), b → t (3), a → b (1).
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 3.0);
        net.add_edge(s, b, 2.0);
        net.add_edge(a, t, 2.0);
        net.add_edge(b, t, 3.0);
        net.add_edge(a, b, 1.0);
        assert_eq!(net.max_flow(s, t), 5.0);
    }

    #[test]
    fn min_cut_separates_source_and_sink() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 10.0);
        net.add_edge(a, t, 1.0);
        let reference = net.clone();
        let cut = net.min_cut(s, t);
        assert_eq!(cut.capacity, 1.0);
        assert!(cut.source_side[s]);
        assert!(cut.source_side[a]);
        assert!(!cut.source_side[t]);
        assert_eq!(reference.cut_value(&cut.source_side), 1.0);
    }

    #[test]
    fn infinite_edges_are_never_cut() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let d = net.add_node();
        let c = net.add_node();
        let t = net.add_node();
        net.add_edge(s, d, 4.0);
        net.add_edge(d, c, INF);
        net.add_edge(c, t, 10.0);
        let cut = net.min_cut(s, t);
        assert_eq!(cut.capacity, 4.0);
        // d and c fall on the sink side together (the ∞ edge binds them).
        assert!(!cut.source_side[d]);
        assert!(!cut.source_side[c]);
    }

    #[test]
    fn fractional_capacities() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 0.25);
        net.add_edge(a, t, 0.75);
        assert!((net.max_flow(s, t) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        let _ = net.add_node();
        assert_eq!(net.max_flow(s, t), 0.0);
        let cut = net.clone().min_cut(s, t);
        assert_eq!(cut.capacity, 0.0);
    }

    #[test]
    fn add_nodes_returns_first_id() {
        let mut net = FlowNetwork::new();
        let first = net.add_nodes(3);
        assert_eq!(first, 0);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn witness_flow_is_feasible_conserved_and_tight() {
        // Diamond with an ∞ edge in the middle: the witness must expose
        // finite flow on the infinite edge and balance at inner nodes.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 3.0);
        net.add_edge(s, b, 2.0);
        net.add_edge(a, b, INF);
        net.add_edge(a, t, 2.0);
        net.add_edge(b, t, 3.0);
        let w = net.min_cut_with_witness(s, t);
        assert_eq!(w.value, 5.0);
        assert_eq!(w.edges.len(), 5);
        for e in &w.edges {
            assert!(e.flow >= 0.0 && e.flow <= e.capacity + 1e-9, "{e:?}");
        }
        // Conservation at a and b: inflow == outflow.
        for node in [a, b] {
            let inflow: f64 = w
                .edges
                .iter()
                .filter(|e| e.to == node)
                .map(|e| e.flow)
                .sum();
            let outflow: f64 = w
                .edges
                .iter()
                .filter(|e| e.from == node)
                .map(|e| e.flow)
                .sum();
            assert!((inflow - outflow).abs() < 1e-9);
        }
        // Net source outflow equals the flow value.
        let out: f64 = w.edges.iter().filter(|e| e.from == s).map(|e| e.flow).sum();
        assert!((out - w.value).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn unbounded_cut_panics() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, INF);
        let _ = net.min_cut(s, t);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        net.add_edge(s, s, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, -1.0);
    }
}
