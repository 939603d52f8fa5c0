//! Golden fingerprints of generated graphs.
//!
//! Each case hashes a graph's CSR layout (FNV-1a over `n`, `m`, the offset
//! array and the compact adjacency array) and compares it with a value
//! recorded once. Every generator's RNG draw order and the builder's output
//! are part of what experiments reproduce from a seed, so a change that
//! alters any generated graph, even by reordering one adjacency list, fails
//! here instead of silently moving round counts and statistical tests.

use mis_graph::generators::{forest_union, gnp, gnp_counter_threads, random_tree, regular};
use mis_graph::Graph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over `n`, `m`, the `n + 1` CSR offsets (as `u64`) and the
/// adjacency ids (as `u32`), all little-endian.
fn fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.write(&(g.n() as u64).to_le_bytes());
    h.write(&(g.m() as u64).to_le_bytes());
    let mut offset = 0u64;
    h.write(&offset.to_le_bytes());
    for u in g.vertices() {
        offset += g.degree(u) as u64;
        h.write(&offset.to_le_bytes());
    }
    for u in g.vertices() {
        for id in g.neighbors(u).as_compact() {
            h.write(&id.raw().to_le_bytes());
        }
    }
    h.0
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// An edge list with both orientations of every edge, repeated edges and a
/// shuffled order: the input shape `Graph::from_edges` has to canonicalize.
fn messy_edge_list() -> Vec<(usize, usize)> {
    let base = gnp(300, 0.05, &mut rng(21));
    let mut edges = Vec::new();
    for (i, (u, v)) in base.edges().enumerate() {
        edges.push((u, v));
        edges.push((v, u));
        if i % 3 == 0 {
            edges.push((u, v));
        }
    }
    edges.shuffle(&mut rng(22));
    edges
}

fn check(name: &str, g: &Graph, n: usize, m: usize, expected: u64) {
    let got = fingerprint(g);
    assert_eq!(
        (g.n(), g.m(), got),
        (n, m, expected),
        "{name}: (n, m, fingerprint) = ({}, {}, {got:#018x})",
        g.n(),
        g.m()
    );
}

#[test]
fn gnp_sparse_is_pinned() {
    check(
        "gnp(5000, 0.002)",
        &gnp(5000, 0.002, &mut rng(1)),
        5000,
        24845,
        0xaf13_5c9e_a848_691e,
    );
}

#[test]
fn gnp_dense_is_pinned() {
    check(
        "gnp(400, 0.3)",
        &gnp(400, 0.3, &mut rng(2)),
        400,
        23936,
        0x6214_3cf0_0f6b_4b7e,
    );
}

#[test]
fn random_tree_is_pinned() {
    check(
        "random_tree(2000)",
        &random_tree(2000, &mut rng(3)),
        2000,
        1999,
        0x93e3_d9aa_b66c_e47b,
    );
}

#[test]
fn regular_is_pinned() {
    let g = regular(1000, 6, &mut rng(4)).unwrap();
    check("regular(1000, 6)", &g, 1000, 3000, 0x96de_9375_6c7b_2cd8);
}

#[test]
fn forest_union_is_pinned() {
    let g = forest_union(1500, 4, &mut rng(5));
    check(
        "forest_union(1500, 4)",
        &g,
        1500,
        5988,
        0x1ad5_ec14_03f1_5ae0,
    );
}

#[test]
fn gnp_counter_is_pinned() {
    for threads in [1, 2, 3] {
        let g = gnp_counter_threads(3000, 0.004, 6, threads);
        check(
            "gnp_counter(3000, 0.004)",
            &g,
            3000,
            17829,
            0x25de_61e9_c49c_de87,
        );
    }
}

#[test]
fn from_edges_on_a_messy_edge_list_is_pinned() {
    let edges = messy_edge_list();
    let g = Graph::from_edges(300, edges.iter().copied()).unwrap();
    check("from_edges(messy)", &g, 300, 2230, 0xe589_d87f_21e1_e9ad);
    // The canonical form does not depend on the input order.
    let mut sorted = edges;
    sorted.sort_unstable();
    assert_eq!(g, Graph::from_edges(300, sorted).unwrap());
}
