//! Collision pipeline kernels: operator assembly, constant-tensor
//! pre-factorization (the setup cost CGYRO pays once), and the per-step
//! cmat application (the memory-bound hot kernel whose constant tensor the
//! paper shares across the ensemble).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xg_linalg::{Complex64, LuFactors, RealMatrix};
use xg_sim::{CgyroInput, CollisionOperator};

fn small_setup() -> (CgyroInput, xg_sim::grid::VelocityGrid) {
    let input = CgyroInput::test_medium();
    let v = xg_sim::grid::VelocityGrid::new(&input);
    (input, v)
}

fn bench_operator_build(c: &mut Criterion) {
    let (input, v) = small_setup();
    c.bench_function("collision_operator_build_nv72", |b| {
        b.iter(|| CollisionOperator::build(&input, &v));
    });
}

fn bench_cmat_build(c: &mut Criterion) {
    let (input, v) = small_setup();
    let cfg = xg_sim::grid::ConfigGrid::new(&input);
    let geo = xg_sim::geometry::Geometry::new(&input, &cfg);
    let op = CollisionOperator::build(&input, &v);
    c.bench_function("cmat_build_8_pairs_nv72", |b| {
        b.iter(|| {
            xg_sim::CollisionConstants::build(&input, &v, &geo, &op, 0..2, 0..4)
        });
    });
}

fn bench_cmat_apply(c: &mut Criterion) {
    let (input, v) = small_setup();
    let cfg = xg_sim::grid::ConfigGrid::new(&input);
    let geo = xg_sim::geometry::Geometry::new(&input, &cfg);
    let op = CollisionOperator::build(&input, &v);
    let cm = xg_sim::CollisionConstants::build(&input, &v, &geo, &op, 0..4, 0..4);
    let nv = v.nv();
    let mut g = c.benchmark_group("cmat_apply");
    g.throughput(Throughput::Bytes((nv * nv * 8 * 16) as u64));
    g.bench_function("stack_of_16_nv72", |b| {
        let mut x = vec![Complex64::new(1.0, 0.5); nv];
        let mut scratch = vec![Complex64::ZERO; nv];
        b.iter(|| {
            for ic in 0..4 {
                for it in 0..4 {
                    cm.apply(ic, it, &mut x, &mut scratch);
                }
            }
            x[0]
        });
    });
    g.finish();
}

fn bench_lu(c: &mut Criterion) {
    // One `cmat` panel's linear algebra: factorize `n × n`, then solve
    // against `n` right-hand sides (the solve is ~3/4 of the flops).
    let mut g = c.benchmark_group("lu_factorize_solve");
    for n in [24usize, 72, 144] {
        let a = RealMatrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + i as f64 * 0.01
            } else {
                ((i * 31 + j * 17) as f64).sin() * 0.3
            }
        });
        let rhs = RealMatrix::from_fn(n, n, |i, j| ((i * 13 + j * 29) as f64).cos());
        let mut x = vec![0.0; n * n];
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                LuFactors::factorize(a.clone()).unwrap().solve_matrix_into(&rhs, &mut x);
                x[0]
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_operator_build, bench_cmat_build, bench_cmat_apply, bench_lu);
criterion_main!(benches);
