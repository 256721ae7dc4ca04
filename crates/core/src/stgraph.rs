//! The s-t graph of the Automatic XPro Generator (paper §3.2.2, Fig. 7).
//!
//! Nodes: the front-end sensor `F` (source), the back-end aggregator `B`
//! (sink) and one node per functional cell. A cut separating `F` from `B`
//! prices exactly the sensor-node energy of the induced partition:
//!
//! * each cell connects to `B` with its in-sensor compute energy — cut when
//!   the cell stays on the sensor;
//! * the raw segment is represented by the paper's dummy node `D`: `F → D`
//!   carries the raw upload energy and `D → c` carries ∞ for every cell `c`
//!   reading raw data, so "grouped" cells never split and the upload is
//!   charged once;
//! * every other producer *port* gets the same treatment, generalized to
//!   both directions: a TX gadget charges the transmit energy once when the
//!   producer stays on the sensor while some consumer moves to the
//!   aggregator, and an RX gadget charges the receive energy once for the
//!   reverse situation (paper Fig. 7 draws this as forward/backward edge
//!   pairs for single-consumer links; the gadget form handles shared
//!   outputs without double-charging);
//! * the classification result is pinned to the aggregator through a final
//!   TX gadget on the fusion cell.
//!
//! Every edge weight is `energy + λ·delay-contribution`, where `λ` is the
//! Lagrangian delay price of the delay-constrained generator (§3.2.3):
//! the delay contribution of a compute edge is the cell's sensor latency
//! and that of a transfer edge is the frame air time; `λ = 0` yields the
//! pure §3.2.2 energy min-cut. The topology does not depend on `λ`, so
//! [`StNetwork`] records each edge's `(energy, delay)` pair once per
//! instance and [`ParametricCut`] solves one flow network under any number
//! of `λ` by rewriting its capacities.

use crate::certificate::CutCertificate;
use crate::instance::XProInstance;
use crate::layout::BITS_PER_SAMPLE;
use crate::partition::Partition;
use xpro_graph::dinic::{FlowNetwork, NodeId, INF};
use xpro_wireless::Frame;

/// One edge of the s-t network with its two prices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StEdge {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Energy charged when the edge is cut, in pJ ([`INF`] for the edges
    /// that keep grouped cells together).
    pub energy_pj: f64,
    /// Delay contribution charged when the edge is cut, in seconds.
    pub delay_s: f64,
}

impl StEdge {
    /// The edge's capacity under the delay price `lambda_pj_per_s`:
    /// `energy + λ·delay`.
    pub fn capacity(&self, lambda_pj_per_s: f64) -> f64 {
        self.energy_pj + lambda_pj_per_s * self.delay_s
    }
}

/// The s-t network of one instance, independent of `λ`: node bookkeeping
/// to map a cut back onto cells, and every edge with its `(energy, delay)`
/// pair. It is derived from the instance alone, which makes it the
/// reference a certificate is checked against
/// ([`check_against`](crate::certificate::check_against)).
#[derive(Clone, Debug, PartialEq)]
pub struct StNetwork {
    /// The source node `F` (the sensor front-end).
    pub source: NodeId,
    /// The sink node `B` (the aggregator back-end).
    pub sink: NodeId,
    /// `cell_node[c]` is the network node of functional cell `c`.
    pub cell_node: Vec<NodeId>,
    /// Number of network nodes.
    pub nodes: usize,
    /// Every edge, in the flow network's edge order (grouped by tail node,
    /// in construction order within each tail) — the order of a
    /// [`CutWitness`](xpro_graph::dinic::CutWitness)'s edges.
    pub edges: Vec<StEdge>,
}

impl StNetwork {
    /// Derives the §3.2.2 s-t network (with Fig. 7's dummy node and TX/RX
    /// gadgets) of `instance`.
    ///
    /// The construction is deterministic: nodes and edges are emitted in
    /// graph order, so two derivations from the same instance are
    /// identical — which is what lets the certificate checker re-derive
    /// the capacities independently and compare them edge by edge.
    pub fn new(instance: &XProInstance) -> Self {
        let mut st = Self::in_construction_order(instance);
        st.sort_into_edge_order();
        st
    }

    /// Constructs the network topology and its `(energy, delay)` prices,
    /// with the edges in construction order.
    fn in_construction_order(instance: &XProInstance) -> Self {
        let graph = &instance.built().graph;
        let radio = &instance.config().radio;
        let n = instance.num_cells();

        let mut nodes = 0;
        let mut add_node = || {
            nodes += 1;
            nodes - 1
        };
        let f = add_node();
        let b = add_node();
        let cell_node: Vec<NodeId> = (0..n).map(|_| add_node()).collect();
        let mut edges = Vec::new();
        let mut edge = |from, to, energy_pj, delay_s| {
            edges.push(StEdge {
                from,
                to,
                energy_pj,
                delay_s,
            });
        };
        let frame = |samples: u64, tx: bool| -> (f64, f64) {
            let frame = Frame::for_samples(samples, BITS_PER_SAMPLE);
            let energy = if tx {
                radio.tx_frame_pj(frame)
            } else {
                radio.rx_frame_pj(frame)
            };
            (energy, radio.frame_airtime_s(frame))
        };

        // Compute edges: cell → B.
        for (c, &node) in cell_node.iter().enumerate() {
            edge(
                node,
                b,
                instance.sensor_cost(c).energy_pj,
                instance.sensor_time_s(c),
            );
        }

        // Port gadgets.
        for port in graph.active_ports() {
            let consumers = graph.consumers_of(port);
            match port.producer {
                None => {
                    // The paper's dummy node D for the raw segment.
                    let d = add_node();
                    let (e, s) = frame(instance.segment_len() as u64, true);
                    edge(f, d, e, s);
                    for &c in &consumers {
                        edge(d, cell_node[c], INF, 0.0);
                    }
                }
                Some(u) => {
                    let samples = graph.port_samples(port);
                    // TX gadget: u → t (tx energy), t → consumers (∞).
                    let t = add_node();
                    let (e, s) = frame(samples, true);
                    edge(cell_node[u], t, e, s);
                    for &c in &consumers {
                        edge(t, cell_node[c], INF, 0.0);
                    }
                    // RX gadget: consumers → r (∞), r → u (rx energy).
                    let r = add_node();
                    for &c in &consumers {
                        edge(cell_node[c], r, INF, 0.0);
                    }
                    let (e, s) = frame(samples, false);
                    edge(r, cell_node[u], e, s);
                }
            }
        }

        // Result delivery: fusion → t_res (tx of one value), t_res → B (∞).
        let t_res = add_node();
        let (e, s) = frame(1, true);
        edge(cell_node[graph.result_cell()], t_res, e, s);
        edge(t_res, b, INF, 0.0);

        StNetwork {
            source: f,
            sink: b,
            cell_node,
            nodes,
            edges,
        }
    }

    /// Reorders the edges from construction order into the flow network's
    /// edge order, which is exactly a stable sort by tail node (done as a
    /// counting sort: tails are dense node ids).
    fn sort_into_edge_order(&mut self) {
        let mut next = vec![0usize; self.nodes + 1];
        for e in &self.edges {
            next[e.from + 1] += 1;
        }
        for i in 1..next.len() {
            next[i] += next[i - 1];
        }
        let mut order = vec![0usize; self.edges.len()];
        for (i, e) in self.edges.iter().enumerate() {
            order[next[e.from]] = i;
            next[e.from] += 1;
        }
        self.edges = order.into_iter().map(|i| self.edges[i]).collect();
    }
}

/// Solves the s-t network of one instance under any number of delay
/// prices: the network is built once, and each [`ParametricCut::solve`]
/// only rewrites its capacities (`energy + λ·delay`, the same expression
/// a fresh build evaluates, so every capacity and every cut is identical
/// to one). The solver's buffers and the latest certificate are reused
/// from one `λ` to the next.
#[derive(Clone, Debug)]
pub struct ParametricCut {
    reference: StNetwork,
    net: FlowNetwork,
    caps: Vec<f64>,
    certificate: CutCertificate,
}

impl ParametricCut {
    /// Builds the network of `instance`.
    pub fn new(instance: &XProInstance) -> Self {
        // The flow network receives the edges in construction order, which
        // fixes its adjacency order and so the solver's traversal.
        let mut reference = StNetwork::in_construction_order(instance);
        let mut net = FlowNetwork::new();
        net.add_nodes(reference.nodes);
        for e in &reference.edges {
            net.add_edge(e.from, e.to, 0.0);
        }
        reference.sort_into_edge_order();
        let certificate = CutCertificate {
            witness: Default::default(),
            source: reference.source,
            sink: reference.sink,
            cell_node: reference.cell_node.clone(),
            lambda_pj_per_s: 0.0,
        };
        ParametricCut {
            caps: Vec::with_capacity(reference.edges.len()),
            reference,
            net,
            certificate,
        }
    }

    /// The λ-independent network the solver was built from.
    pub fn reference(&self) -> &StNetwork {
        &self.reference
    }

    /// Solves the min-cut under the delay price `lambda_pj_per_s`; its
    /// certificate is [`ParametricCut::certificate`] until the next solve.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_pj_per_s` is negative.
    pub fn solve(&mut self, lambda_pj_per_s: f64) {
        assert!(lambda_pj_per_s >= 0.0, "lambda must be non-negative");
        self.caps.clear();
        self.caps.extend(
            self.reference
                .edges
                .iter()
                .map(|e| e.capacity(lambda_pj_per_s)),
        );
        self.net.set_capacities(&self.caps);
        let cert = &mut self.certificate;
        self.net
            .min_cut_into(cert.source, cert.sink, &mut cert.witness);
        cert.lambda_pj_per_s = lambda_pj_per_s;
    }

    /// The certificate of the latest [`ParametricCut::solve`].
    pub fn certificate(&self) -> &CutCertificate {
        &self.certificate
    }
}

/// Builds the s-t network for an instance and extracts the min-cut
/// partition under the delay price `lambda_pj_per_s` (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics if `lambda_pj_per_s` is negative.
pub fn min_cut_partition(instance: &XProInstance, lambda_pj_per_s: f64) -> Partition {
    certified_min_cut_partition(instance, lambda_pj_per_s).0
}

/// Like [`min_cut_partition`], but also returns the [`CutCertificate`]
/// carrying the max-flow witness, so the caller can have the cut
/// independently re-verified by
/// [`check_cut_certificate`](crate::certificate::check_cut_certificate).
///
/// # Panics
///
/// Panics if `lambda_pj_per_s` is negative.
pub fn certified_min_cut_partition(
    instance: &XProInstance,
    lambda_pj_per_s: f64,
) -> (Partition, CutCertificate) {
    let mut cut = ParametricCut::new(instance);
    cut.solve(lambda_pj_per_s);
    (cut.certificate.partition(), cut.certificate)
}

/// The differential oracle for [`ParametricCut`]: a fresh flow network
/// built with λ-priced capacities for every solve, written independently
/// of the `(energy, delay)` edge list. The parametric path must match it
/// bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Builds the network priced at `lambda_pj_per_s` and solves it.
    pub(crate) fn certified_cut(
        instance: &XProInstance,
        lambda_pj_per_s: f64,
    ) -> (Partition, CutCertificate) {
        let graph = &instance.built().graph;
        let radio = &instance.config().radio;
        let n = instance.num_cells();

        let mut net = FlowNetwork::new();
        let f = net.add_node();
        let b = net.add_node();
        let cell_node: Vec<usize> = (0..n).map(|_| net.add_node()).collect();

        let frame_weight = |samples: u64, tx: bool| -> f64 {
            let frame = Frame::for_samples(samples, BITS_PER_SAMPLE);
            let energy = if tx {
                radio.tx_frame_pj(frame)
            } else {
                radio.rx_frame_pj(frame)
            };
            energy + lambda_pj_per_s * radio.frame_airtime_s(frame)
        };

        for (c, &node) in cell_node.iter().enumerate() {
            let weight =
                instance.sensor_cost(c).energy_pj + lambda_pj_per_s * instance.sensor_time_s(c);
            net.add_edge(node, b, weight);
        }
        for port in graph.active_ports() {
            let consumers = graph.consumers_of(port);
            match port.producer {
                None => {
                    let d = net.add_node();
                    net.add_edge(f, d, frame_weight(instance.segment_len() as u64, true));
                    for &c in &consumers {
                        net.add_edge(d, cell_node[c], INF);
                    }
                }
                Some(u) => {
                    let samples = graph.port_samples(port);
                    let t = net.add_node();
                    net.add_edge(cell_node[u], t, frame_weight(samples, true));
                    for &c in &consumers {
                        net.add_edge(t, cell_node[c], INF);
                    }
                    let r = net.add_node();
                    for &c in &consumers {
                        net.add_edge(cell_node[c], r, INF);
                    }
                    net.add_edge(r, cell_node[u], frame_weight(samples, false));
                }
            }
        }
        let t_res = net.add_node();
        net.add_edge(cell_node[graph.result_cell()], t_res, frame_weight(1, true));
        net.add_edge(t_res, b, INF);

        let witness = net.min_cut_with_witness(f, b);
        let certificate = CutCertificate {
            witness,
            source: f,
            sink: b,
            cell_node,
            lambda_pj_per_s,
        };
        (certificate.partition(), certificate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::lambda_grid;
    use crate::partition::evaluate;
    use crate::testutil::{tiny_instance, tiny_instance_with_radio};
    use xpro_wireless::TransceiverModel;

    #[test]
    fn parametric_cuts_equal_a_fresh_build_at_every_lambda() {
        // One network re-priced across the whole sweep must hand back,
        // at every λ, the witness and partition of a network built from
        // scratch at that λ — bit for bit.
        for seed in 0..8 {
            for radio in TransceiverModel::paper_models() {
                let inst = tiny_instance_with_radio(seed, radio);
                let mut cut = ParametricCut::new(&inst);
                assert_eq!(cut.reference(), &StNetwork::new(&inst));
                for lambda in lambda_grid() {
                    let (want_p, want) = oracle::certified_cut(&inst, lambda);
                    cut.solve(lambda);
                    let got = cut.certificate();
                    assert_eq!(got, &want, "seed {seed} λ {lambda}");
                    assert_eq!(got.partition(), want_p, "seed {seed} λ {lambda}");
                }
            }
        }
    }

    #[test]
    fn min_cut_beats_both_single_end_designs() {
        let instance = tiny_instance(1);
        let n = instance.num_cells();
        let cut = min_cut_partition(&instance, 0.0);
        let e_cut = evaluate(&instance, &cut).sensor.total_pj();
        let e_sensor = evaluate(&instance, &Partition::all_sensor(n))
            .sensor
            .total_pj();
        let e_agg = evaluate(&instance, &Partition::all_aggregator(n))
            .sensor
            .total_pj();
        assert!(e_cut <= e_sensor + 1e-6, "{e_cut} > in-sensor {e_sensor}");
        assert!(e_cut <= e_agg + 1e-6, "{e_cut} > in-aggregator {e_agg}");
    }

    #[test]
    fn cut_capacity_matches_evaluator_energy() {
        // The invariant of §3.2.2: cut capacity == sensor energy of the
        // induced partition. Validates the gadget construction against the
        // independent evaluator.
        for seed in [1, 2, 3] {
            let instance = tiny_instance(seed);
            let cut = min_cut_partition(&instance, 0.0);
            let eval = evaluate(&instance, &cut);
            // Re-derive the exhaustive optimum over all partitions for small
            // graphs and check the min-cut is no worse.
            let n = instance.num_cells();
            if n <= 14 {
                let mut best = f64::INFINITY;
                for mask in 0..(1u32 << n) {
                    let p = Partition {
                        in_sensor: (0..n).map(|i| mask & (1 << i) != 0).collect(),
                    };
                    best = best.min(evaluate(&instance, &p).sensor.total_pj());
                }
                assert!(
                    eval.sensor.total_pj() <= best + 1e-6,
                    "min-cut {} vs exhaustive {}",
                    eval.sensor.total_pj(),
                    best
                );
            }
        }
    }

    #[test]
    fn grouped_raw_consumers_stay_together() {
        let instance = tiny_instance(4);
        let cut = min_cut_partition(&instance, 0.0);
        let graph = &instance.built().graph;
        let raw_sides: Vec<bool> = graph
            .raw_consumers()
            .iter()
            .map(|&c| cut.in_sensor[c])
            .collect();
        // If any raw consumer moved to the aggregator, the raw segment is
        // transmitted anyway, so an optimal cut moves them all.
        if raw_sides.iter().any(|&s| !s) {
            assert!(
                raw_sides.iter().all(|&s| !s),
                "raw consumers split: {raw_sides:?}"
            );
        }
    }

    #[test]
    fn huge_lambda_pushes_to_the_faster_single_end() {
        // With delay priced astronomically, the generator collapses to
        // whichever design minimizes (λ-dominated) total delay proxy.
        let instance = tiny_instance(5);
        let cut = min_cut_partition(&instance, 1e18);
        let n = instance.num_cells();
        let e_cut = evaluate(&instance, &cut).delay.total_s();
        let e_sensor = evaluate(&instance, &Partition::all_sensor(n))
            .delay
            .total_s();
        let e_agg = evaluate(&instance, &Partition::all_aggregator(n))
            .delay
            .total_s();
        assert!(e_cut <= e_sensor.min(e_agg) + 1e-6);
    }
}
