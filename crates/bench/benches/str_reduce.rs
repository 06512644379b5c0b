//! Str-phase reduction strategies (ISSUE P2): unfused per-moment
//! AllReduces vs one fused packed AllReduce, on the thread substrate. The absolute numbers are
//! shared-memory speeds; the artifact is the *relative* cost of paying
//! per-collective overhead once vs `moments` times per RK stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xg_comm::World;
use xg_linalg::Complex64;

const MOMENTS: usize = 2;
const ELEMS: usize = 4096;

fn bench_unfused(c: &mut Criterion) {
    let mut g = c.benchmark_group("str_reduce_unfused");
    g.throughput(Throughput::Bytes((MOMENTS * ELEMS * 16) as u64));
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p).run(|comm| {
                    let mut buf = vec![Complex64::new(1.0, -1.0); MOMENTS * ELEMS];
                    for m in 0..MOMENTS {
                        comm.all_reduce_sum_complex(&mut buf[m * ELEMS..(m + 1) * ELEMS]);
                    }
                    buf[0]
                })
            });
        });
    }
    g.finish();
}

fn bench_fused(c: &mut Criterion) {
    let mut g = c.benchmark_group("str_reduce_fused");
    g.throughput(Throughput::Bytes((MOMENTS * ELEMS * 16) as u64));
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p).run(|comm| {
                    let mut buf = vec![Complex64::new(1.0, -1.0); MOMENTS * ELEMS];
                    comm.all_reduce_sum_complex(&mut buf);
                    buf[0]
                })
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_unfused, bench_fused);
criterion_main!(benches);
