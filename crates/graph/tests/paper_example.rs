//! Reproduces the worked s-t graph example of the paper's §3.2.2
//! (Figures 6 and 7): three features and one classifier.
//!
//! Energy of functional cells: E1 = 0.2, E2 = 0.8, E3 = 0.2, E4 = 0.3 nJ.
//! Output dimensions: d1 = 1, d2 = 1, d3 = 5 samples; source data d0 = 12
//! samples; all samples are 1 bit. Radio: Ct = 0.1 nJ/bit transmit,
//! Cr = 0.11 nJ/bit receive.

use xpro_graph::dinic::{FlowNetwork, INF};

struct PaperGraph {
    net: FlowNetwork,
    f: usize,
    b: usize,
    cells: [usize; 4],
}

fn build() -> PaperGraph {
    let mut net = FlowNetwork::new();
    let f = net.add_node(); // front-end sensor (source)
    let b = net.add_node(); // back-end aggregator (sink)
    let d = net.add_node(); // dummy raw-data node
    let c1 = net.add_node();
    let c2 = net.add_node();
    let c3 = net.add_node();
    let c4 = net.add_node();

    // F → D: energy of transmitting all 12 one-bit samples.
    net.add_edge(f, d, 12.0 * 0.1);
    // D → grouped cells reading the raw segment.
    for c in [c1, c2, c3] {
        net.add_edge(d, c, INF);
    }
    // Cells → B with their computation energy.
    net.add_edge(c1, b, 0.2);
    net.add_edge(c2, b, 0.8);
    net.add_edge(c3, b, 0.2);
    net.add_edge(c4, b, 0.3);
    // Dataflow feature → classifier: forward = tx, reverse = rx.
    for (c, dim) in [(c1, 1.0), (c2, 1.0), (c3, 5.0)] {
        net.add_edge(c, c4, dim * 0.1);
        net.add_edge(c4, c, dim * 0.11);
    }
    PaperGraph {
        net,
        f,
        b,
        cells: [c1, c2, c3, c4],
    }
}

/// Capacity of the all-in-aggregator cut (paper's Cut-1).
const CUT1_AGGREGATOR: f64 = 1.2;
/// Capacity of the all-in-sensor cut (paper's Cut-2).
const CUT2_SENSOR: f64 = 1.5;

#[test]
fn cut1_prices_the_in_aggregator_design() {
    let g = build();
    // Everything except F on the aggregator side.
    let mut side = vec![false; g.net.len()];
    side[g.f] = true;
    assert!((g.net.cut_value(&side) - CUT1_AGGREGATOR).abs() < 1e-9);
}

#[test]
fn cut2_prices_the_in_sensor_design() {
    let g = build();
    // Everything except B on the sensor side.
    let mut side = vec![true; g.net.len()];
    side[g.b] = false;
    assert!((g.net.cut_value(&side) - CUT2_SENSOR).abs() < 1e-9);
}

#[test]
fn min_cut_is_no_worse_than_either_extreme() {
    // §3.2.2: "The automatically generated XPro guarantees 'not worse'
    // solution than traditional approaches." With the example's numbers the
    // optimum coincides with the in-aggregator extreme (1.2 nJ).
    let mut g = build();
    let cut = g.net.min_cut(g.f, g.b);
    assert!(cut.capacity <= CUT1_AGGREGATOR + 1e-9);
    assert!(cut.capacity <= CUT2_SENSOR + 1e-9);
    assert!((cut.capacity - 1.2).abs() < 1e-9);
}

#[test]
fn grouped_cells_share_an_end() {
    // All three features read the raw segment, so an optimal partition never
    // splits them (the ∞ edges from D enforce it).
    let g = build();
    let cut = g.net.clone().min_cut(g.f, g.b);
    let sides: Vec<bool> = g.cells[..3].iter().map(|&c| cut.source_side[c]).collect();
    assert!(
        sides.iter().all(|&s| s == sides[0]),
        "grouped cells split: {sides:?}"
    );
}

#[test]
fn expensive_radio_pushes_cells_into_the_sensor() {
    // Same topology but a 10× more expensive radio: now computing
    // everything in-sensor (1.5 nJ) beats transmitting raw data (12 nJ),
    // and the min-cut must find it.
    let mut net = FlowNetwork::new();
    let f = net.add_node();
    let b = net.add_node();
    let d = net.add_node();
    let cells: Vec<usize> = (0..4).map(|_| net.add_node()).collect();
    net.add_edge(f, d, 12.0);
    for &c in &cells[..3] {
        net.add_edge(d, c, INF);
    }
    for (&c, e) in cells.iter().zip([0.2, 0.8, 0.2, 0.3]) {
        net.add_edge(c, b, e);
    }
    for (&c, dim) in cells[..3].iter().zip([1.0, 1.0, 5.0]) {
        net.add_edge(c, cells[3], dim);
        net.add_edge(cells[3], c, dim * 1.1);
    }
    let cut = net.min_cut(f, b);
    assert!((cut.capacity - 1.5).abs() < 1e-9);
    for &c in &cells {
        assert!(cut.source_side[c], "cell {c} should be in-sensor");
    }
}
