//! T-allreduce (paper §2.1): wall-clock collective costs on the thread
//! substrate vs participant count, plus AllToAll for the transpose path.
//! The absolute numbers are shared-memory speeds; the artifact is the
//! *trend with participants*, which is what the paper's optimization
//! exploits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xg_comm::World;
use xg_linalg::Complex64;

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_f64");
    let n = 64 * 1024; // 512 KiB of f64
    g.throughput(Throughput::Bytes((n * 8) as u64));
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p).run(|comm| {
                    let mut buf = vec![1.0f64; n];
                    for _ in 0..4 {
                        comm.all_reduce_sum_f64(&mut buf);
                    }
                    buf[0]
                })
            });
        });
    }
    g.finish();
}

fn bench_allreduce_complex(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_complex");
    let n = 32 * 1024;
    g.throughput(Throughput::Bytes((n * 16) as u64));
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p).run(|comm| {
                    let mut buf = vec![Complex64::new(1.0, -1.0); n];
                    for _ in 0..4 {
                        comm.all_reduce_sum_complex(&mut buf);
                    }
                    buf[0]
                })
            });
        });
    }
    g.finish();
}

fn bench_alltoall(c: &mut Criterion) {
    let mut g = c.benchmark_group("alltoall_v");
    for p in [2usize, 4, 8] {
        let block = 16 * 1024 / p; // fixed total volume per rank
        g.throughput(Throughput::Bytes((p * block * 16) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                World::new(p).run(|comm| {
                    let send: Vec<Vec<Complex64>> =
                        (0..p).map(|_| vec![Complex64::ONE; block]).collect();
                    let recv = comm.all_to_all_v_take(send);
                    recv.len()
                })
            });
        });
    }
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    c.bench_function("communicator_split_8ranks", |b| {
        b.iter(|| {
            World::new(8).run(|comm| {
                let g1 = comm.split((comm.rank() % 2) as u64, comm.rank() as u64, "a");
                let g2 = g1.split((g1.rank() % 2) as u64, g1.rank() as u64, "b");
                g2.size()
            })
        });
    });
}

criterion_group!(
    benches,
    bench_allreduce,
    bench_allreduce_complex,
    bench_alltoall,
    bench_split
);
criterion_main!(benches);
