//! Criterion micro/meso benchmarks of the mapping pipeline.
//!
//! These complement the figure generators: `fig7`/`fig8` regenerate the
//! paper's evaluation, while these benches track the cost of the pipeline
//! stages (DFG construction, systolic search, full HiMap runs, the SPR
//! baseline) for regression purposes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use himap_baseline::{BaselineOptions, SprMapper};
use himap_cgra::{CgraSpec, Mrrg, MrrgIndex, PeId, RKind, RNode};
use himap_core::{HiMap, HiMapOptions};
use himap_dfg::Dfg;
use himap_kernels::suite;
use himap_mapper::{Router, RouterConfig, SignalId};
use himap_systolic::{search, SearchConfig};

fn bench_dfg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfg_build");
    for (kernel, block) in [
        (suite::gemm(), vec![8usize, 8, 8]),
        (suite::bicg(), vec![16, 16]),
        (suite::ttm(), vec![4, 4, 4, 4]),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel.name().to_string()),
            &(kernel, block),
            |b, (kernel, block)| {
                b.iter(|| Dfg::build(kernel, block).expect("builds"));
            },
        );
    }
    group.finish();
}

fn bench_systolic_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("systolic_search");
    for (kernel, block, rows, cols) in [
        (suite::gemm(), vec![4usize, 4, 4], 4usize, 4usize),
        (suite::ttm(), vec![4, 4, 4, 4], 4, 4),
    ] {
        let dfg = Dfg::build(&kernel, &block).expect("builds");
        let isdg = dfg.isdg();
        let config = SearchConfig {
            dims: kernel.dims(),
            block,
            vsa_rows: rows,
            vsa_cols: cols,
            mesh_deps: isdg.distances().to_vec(),
            mem_deps: dfg.mem_dep_distances(),
            anti_deps: dfg.anti_dep_distances(),
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel.name().to_string()),
            &config,
            |b, config| {
                b.iter(|| search(config));
            },
        );
    }
    group.finish();
}

fn bench_himap_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("himap_map");
    group.sample_size(10);
    for (name, cgra) in [("gemm", 8usize), ("bicg", 4), ("floyd-warshall", 4)] {
        let kernel = suite::by_name(name).expect("kernel exists");
        let spec = CgraSpec::square(cgra);
        group.bench_with_input(
            BenchmarkId::new(name, format!("{cgra}x{cgra}")),
            &(kernel, spec),
            |b, (kernel, spec)| {
                b.iter(|| HiMap::new(HiMapOptions::default()).map(kernel, spec).expect("maps"));
            },
        );
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // Wall-clock cost of the sequential candidate walk, one row per
    // (kernel, array side). Mirrors the `scaling` rows of `BENCH.json`.
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for (name, cgra) in [
        ("gemm", 4usize),
        ("gemm", 8),
        ("bicg", 4),
        ("bicg", 8),
        ("floyd-warshall", 4),
        ("floyd-warshall", 8),
    ] {
        let kernel = suite::by_name(name).expect("kernel exists");
        let spec = CgraSpec::square(cgra);
        group.bench_function(BenchmarkId::new(name, format!("{cgra}x{cgra}")), |b| {
            b.iter(|| HiMap::new(HiMapOptions::default()).map(&kernel, &spec).expect("maps"));
        });
    }
    group.finish();
}

/// The `route_timed` query sweep the router benchmark replays: three
/// source corners to every PE of an 8x8 array, each at its shortest
/// feasible absolute deadline plus one wait cycle.
fn router_queries(rows: usize, cols: usize, ii: usize) -> Vec<(RNode, RNode, i64)> {
    let mut queries = Vec::new();
    for (sx, sy) in [(0usize, 0usize), (rows / 2, cols / 2), (rows - 1, cols - 1)] {
        let src = RNode::new(PeId::new(sx, sy), 0, RKind::Fu);
        for dx in 0..rows {
            for dy in 0..cols {
                let dist = sx.abs_diff(dx) + sy.abs_diff(dy);
                let abs = dist as i64 + 1;
                let dst = RNode::new(PeId::new(dx, dy), (abs % ii as i64) as u32, RKind::Fu);
                queries.push((src, dst, abs));
            }
        }
    }
    queries
}

fn bench_route_timed(c: &mut Criterion) {
    // The dense flat-array router on an 8x8 array, replaying the query
    // sweep on a clean (uncongested) router — the dominant routing regime
    // of the candidate walk.
    let mut group = c.benchmark_group("route_timed");
    let spec = CgraSpec::square(8);
    let ii = 4usize;
    let queries = router_queries(8, 8, ii);
    group.bench_function("indexed_8x8", |b| {
        let mut router = Router::new(Mrrg::new(spec.clone(), ii), RouterConfig::default());
        b.iter(|| {
            for (i, &(src, dst, abs)) in queries.iter().enumerate() {
                let path = router.route_timed(SignalId(i as u32), &[(src, 0)], dst, abs, |_| true);
                black_box(path);
            }
        });
    });
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    // Cold CSR compilation cost per (spec, II) — paid once per pair thanks
    // to the shared cache, amortized across every candidate of a walk.
    let mut group = c.benchmark_group("mrrg_index_build");
    for size in [4usize, 8, 16] {
        let spec = CgraSpec::square(size);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{size}x{size}_ii4")),
            &spec,
            |b, spec| {
                b.iter(|| black_box(MrrgIndex::new(spec.clone(), 4)));
            },
        );
    }
    group.finish();
}

fn bench_spr_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("spr_baseline");
    group.sample_size(10);
    let dfg = Dfg::build(&suite::gemm(), &[3, 3, 3]).expect("builds");
    let spec = CgraSpec::square(4);
    group.bench_function("gemm_3x3x3_on_4x4", |b| {
        b.iter(|| SprMapper::run(&dfg, &spec, &BaselineOptions::default()).expect("maps"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dfg_build,
    bench_systolic_search,
    bench_himap_end_to_end,
    bench_scaling,
    bench_route_timed,
    bench_index_build,
    bench_spr_baseline
);
criterion_main!(benches);
