//! Batched multi-RHS collision apply: naive per-RHS (strided gather +
//! single-RHS matvec + copy round-trip, shared panel streamed k times) vs
//! batched-blocked (profile-contiguous layout, panel streamed once per k
//! RHS). Sweeps `nv` and ensemble size `k`; the quantitative record lives
//! in `BENCH_collision.json` (see `paper_figures bench-collision`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xg_linalg::{apply_panel_multi, matvec_complex_flat, Complex64};
use xg_tensor::Tensor3;

const PAIRS: usize = 8;

fn panels(nv: usize) -> Vec<f64> {
    (0..PAIRS * nv * nv).map(|i| ((i as f64) * 0.137).sin() * 0.2).collect()
}

fn bench_apply_paths(c: &mut Criterion) {
    for nv in [64usize, 128] {
        for k in [1usize, 4, 8] {
            let panels = panels(nv);
            // Legacy coll layout per member: profile strided by PAIRS.
            let legacy: Vec<Tensor3<Complex64>> = (0..k)
                .map(|s| {
                    Tensor3::from_fn(nv, PAIRS, 1, |iv, ic, _| {
                        Complex64::new(
                            ((s * 31 + iv * 7 + ic) as f64 * 0.071).cos(),
                            ((s * 17 + iv * 3 + ic) as f64 * 0.113).sin(),
                        )
                    })
                })
                .collect();
            let mut legacy_out: Vec<Tensor3<Complex64>> =
                (0..k).map(|_| Tensor3::new(nv, PAIRS, 1)).collect();
            let cp_in = Tensor3::from_fn(PAIRS, 1, k * nv, |ic, _, lane| {
                legacy[lane / nv][(lane % nv, ic, 0)]
            });
            let mut cp_out: Tensor3<Complex64> = Tensor3::new(PAIRS, 1, k * nv);
            let mut profile = vec![Complex64::ZERO; nv];
            let mut scratch = vec![Complex64::ZERO; nv];

            let mut g = c.benchmark_group(format!("collision_apply_nv{nv}"));
            // Panel bytes actually streamed per sweep by the naive path.
            g.throughput(Throughput::Bytes((PAIRS * nv * nv * 8 * k) as u64));
            g.bench_with_input(BenchmarkId::new("naive_per_rhs", k), &k, |b, &k| {
                b.iter(|| {
                    for s in 0..k {
                        for ic in 0..PAIRS {
                            for iv in 0..nv {
                                profile[iv] = legacy[s][(iv, ic, 0)];
                            }
                            let a = &panels[ic * nv * nv..(ic + 1) * nv * nv];
                            matvec_complex_flat(a, nv, nv, &profile, &mut scratch);
                            profile.copy_from_slice(&scratch);
                            for iv in 0..nv {
                                legacy_out[s][(iv, ic, 0)] = profile[iv];
                            }
                        }
                    }
                });
            });
            g.bench_with_input(BenchmarkId::new("blocked_multi_rhs", k), &k, |b, &k| {
                b.iter(|| {
                    for ic in 0..PAIRS {
                        let a = &panels[ic * nv * nv..(ic + 1) * nv * nv];
                        apply_panel_multi(a, nv, cp_in.line(ic, 0), cp_out.line_mut(ic, 0), k);
                    }
                });
            });
            g.finish();
        }
    }
}

criterion_group!(benches, bench_apply_paths);
criterion_main!(benches);
