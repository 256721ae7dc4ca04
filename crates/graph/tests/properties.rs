//! Property tests: Dinic's min-cut equals the brute-force optimum on small
//! random networks, and flow conservation holds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpro_graph::dinic::{FlowNetwork, INF};

/// Brute-force minimum cut by enumerating all 2^(n-2) partitions.
fn brute_force_min_cut(net: &FlowNetwork, s: usize, t: usize) -> f64 {
    let n = net.len();
    let free: Vec<usize> = (0..n).filter(|&v| v != s && v != t).collect();
    let mut best = f64::INFINITY;
    for mask in 0..(1u32 << free.len()) {
        let mut side = vec![false; n];
        side[s] = true;
        for (bit, &v) in free.iter().enumerate() {
            side[v] = mask & (1 << bit) != 0;
        }
        best = best.min(net.cut_value(&side));
    }
    best
}

/// Builds a random network with `n` nodes and about `m` edges.
fn random_network(n: usize, m: usize, seed: u64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new();
    net.add_nodes(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            net.add_edge(u, v, rng.gen_range(0.0..10.0));
        }
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dinic_matches_brute_force(seed in 0u64..500, n in 4usize..9, m in 4usize..20) {
        let net = random_network(n, m, seed);
        let brute = brute_force_min_cut(&net, 0, 1);
        let cut = net.clone().min_cut(0, 1);
        prop_assert!((cut.capacity - brute).abs() < 1e-6,
            "dinic {} vs brute {}", cut.capacity, brute);
        // The extracted partition prices exactly at the max-flow value.
        prop_assert!((net.cut_value(&cut.source_side) - cut.capacity).abs() < 1e-6);
    }

    #[test]
    fn max_flow_is_monotone_in_capacity(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 6;
        let mut lo = FlowNetwork::new();
        let mut hi = FlowNetwork::new();
        lo.add_nodes(n);
        hi.add_nodes(n);
        for _ in 0..12 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v { continue; }
            let cap: f64 = rng.gen_range(0.0..5.0);
            lo.add_edge(u, v, cap);
            hi.add_edge(u, v, cap * 2.0);
        }
        let f_lo = lo.max_flow(0, 1);
        let f_hi = hi.max_flow(0, 1);
        prop_assert!(f_hi >= f_lo - 1e-9);
    }

    #[test]
    fn reused_network_solves_like_a_fresh_one(seed in 0u64..200, n in 4usize..10, m in 4usize..30) {
        // One network re-priced with a sequence of random capacity vectors
        // must solve exactly like a network freshly built with each
        // vector: stale levels, arc iterators or residuals would show up
        // as a different flow, cut or witness.
        let mut rng = StdRng::seed_from_u64(seed);
        let topology: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(u, v)| u != v)
            .collect();
        let mut reused = FlowNetwork::new();
        reused.add_nodes(n);
        for &(u, v) in &topology {
            reused.add_edge(u, v, 1.0);
        }
        for round in 0..6 {
            let mut fresh = FlowNetwork::new();
            fresh.add_nodes(n);
            for &(u, v) in &topology {
                let cap = match rng.gen_range(0..10) {
                    0 => 0.0,
                    1 => INF,
                    _ => rng.gen_range(0.0..10.0),
                };
                fresh.add_edge(u, v, cap);
            }
            let caps: Vec<f64> = fresh.edges().iter().map(|&(_, _, c)| c).collect();
            reused.set_capacities(&caps);
            prop_assert_eq!(reused.edges(), fresh.edges());
            let flow = fresh.max_flow(0, 1);
            prop_assert_eq!(reused.max_flow(0, 1).to_bits(), flow.to_bits(), "round {}", round);
            if flow.is_finite() {
                let want = fresh.min_cut_with_witness(0, 1);
                prop_assert_eq!(&reused.min_cut_with_witness(0, 1), &want, "round {}", round);
                // A second solve of the same prices reproduces the witness.
                prop_assert_eq!(&reused.min_cut_with_witness(0, 1), &want, "round {}", round);
            }
        }
    }

    #[test]
    fn cut_separates_terminals(seed in 0u64..200) {
        let mut net = random_network(7, 15, seed);
        let cut = net.min_cut(0, 1);
        prop_assert!(cut.source_side[0]);
        prop_assert!(!cut.source_side[1]);
    }
}
