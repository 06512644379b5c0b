//! xg-linalg: the collision kernel, the LU behind the cmat build, the nl FFT.

use super::{filler, secs_per_call, Ctx};
use crate::metrics::Outcome;
use std::hint::black_box;
use xg_linalg::{
    apply_panel_multi, apply_panel_multi_flops, next_pow2, Complex64, Fft, LuFactors, RealMatrix,
};

/// Distinct panels cycled through, so each apply reads its panel from
/// beyond the first-level caches, as a sweep over (ic, it) does.
const PANELS: usize = 32;

pub fn measure(ctx: &Ctx, out: &mut Outcome) {
    let nv = ctx.deck.dims().nv;
    let nrhs = ctx.k;

    let panels: Vec<Vec<f64>> = (0..PANELS)
        .map(|p| (0..nv * nv).map(|i| filler(i + p)).collect())
        .collect();
    let x: Vec<Complex64> = (0..nv * nrhs)
        .map(|i| Complex64::new(filler(i), filler(i + 1)))
        .collect();
    let mut y = vec![Complex64::ZERO; nv * nrhs];
    let mut next = 0;
    let secs = secs_per_call(15, PANELS, || {
        apply_panel_multi(
            black_box(&panels[next % PANELS]),
            nv,
            black_box(&x),
            &mut y,
            nrhs,
        );
        next += 1;
    });
    black_box(&y);
    let flops = apply_panel_multi_flops(nv, nrhs) as f64;
    // Computed, not measured: the panel once, x in and y out.
    let bytes = (8 * nv * nv + 2 * 16 * nv * nrhs) as f64;
    out.push("linalg.coll_apply_gflops", flops / secs / 1e9, 15);
    out.push("linalg.coll_apply_flop_per_byte", flops / bytes, 1);

    let matrix = RealMatrix::from_fn(nv, nv, |i, j| {
        if i == j {
            nv as f64
        } else {
            filler(i * nv + j)
        }
    });
    let identity = RealMatrix::identity(nv);
    let secs = secs_per_call(9, 1, || {
        let lu = LuFactors::factorize(matrix.clone()).expect("diagonally dominant");
        black_box(lu.solve_matrix(&identity));
    });
    out.push("linalg.lu_solve_ms", secs * 1e3, 9);

    let fft = Fft::new(next_pow2(3 * ctx.deck.dims().nt + 1));
    let mut buf: Vec<Complex64> = (0..fft.len())
        .map(|i| Complex64::new(filler(i), filler(i + 3)))
        .collect();
    // Forward then inverse, so the values stay where they started instead
    // of growing into infinities; the inverse is a forward plus a scaling.
    let secs = secs_per_call(15, 1000, || {
        fft.forward(black_box(&mut buf));
        fft.inverse(black_box(&mut buf));
    });
    out.push("linalg.fft_us", secs / 2.0 * 1e6, 15);
}
