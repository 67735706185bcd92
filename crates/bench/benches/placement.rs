//! Microbenchmarks for the placement solvers (§IV-C ablation: exact vs
//! approximation).

use criterion::{criterion_group, criterion_main, Criterion};
use pcn_placement::supermodular::{double_greedy_deterministic, double_greedy_randomized};
use pcn_placement::{exact::solve_exhaustive, CostParams, PlacementInstance};
use pcn_sim::SimRng;
use pcn_types::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// WS(`nodes`, `degree`) with the first `candidates` nodes as hub
/// candidates and every other node a client.
fn instance(nodes: usize, degree: usize, candidates: usize, omega: f64) -> PlacementInstance {
    let g = pcn_graph::watts_strogatz(nodes, degree, 0.3, &mut StdRng::seed_from_u64(7));
    PlacementInstance::from_graph(
        &g,
        (candidates..nodes).map(NodeId::from_index).collect(),
        (0..candidates).map(NodeId::from_index).collect(),
        CostParams::paper(omega),
    )
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.sample_size(10);
    let small = instance(60, 6, 12, 0.3);
    group.bench_function("exhaustive_12_candidates", |b| {
        b.iter(|| black_box(solve_exhaustive(&small).unwrap()))
    });
    // The shape of a 300-node world's own exact placement: 16 candidates
    // (the most `PlacementSolver::Auto` solves exhaustively) at the
    // paper's ω.
    let hotspot = instance(300, 8, 16, 0.04);
    group.bench_function("exhaustive_16_candidates_284_clients", |b| {
        b.iter(|| black_box(solve_exhaustive(&hotspot).unwrap()))
    });
    let large = instance(300, 6, 40, 0.3);
    group.bench_function("double_greedy_det_40_candidates", |b| {
        b.iter(|| black_box(double_greedy_deterministic(&large)))
    });
    group.bench_function("double_greedy_rand_40_candidates", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed(3);
            black_box(double_greedy_randomized(&large, &mut rng))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
