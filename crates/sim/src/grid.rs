//! Discretization grids: velocity space (pitch × energy × species),
//! configuration space (radial × poloidal), and toroidal mode numbers.
//!
//! The velocity grid flattens to the `nv` tensor dimension as
//! `iv = is·(n_xi·n_energy) + ie·n_xi + ix` and carries the quadrature
//! weights used by the field solve and by the collision operator's
//! conservation corrections. Pitch nodes/weights are Gauss–Legendre on
//! `ξ ∈ [−1, 1]`; energy nodes use a mapped Maxwellian-weighted quadrature
//! on `ε ∈ (0, ε_max)`.

use crate::input::CgyroInput;

/// Gauss–Legendre nodes and weights on `[-1, 1]` via Newton iteration on
/// the Legendre polynomial (standard Golub–Welsch-free construction).
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    let mut x = vec![0.0; n];
    let mut w = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Initial guess (Chebyshev-like).
        let mut z = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        loop {
            // Evaluate P_n(z) and P'_n(z) by recurrence.
            let mut p0 = 1.0;
            let mut p1 = 0.0;
            for j in 0..n {
                let p2 = p1;
                p1 = p0;
                p0 = ((2 * j + 1) as f64 * z * p1 - j as f64 * p2) / (j + 1) as f64;
            }
            let dp = n as f64 * (z * p0 - p1) / (z * z - 1.0);
            let dz = p0 / dp;
            z -= dz;
            if dz.abs() < 1e-15 {
                let mut p0b = 1.0;
                let mut p1b = 0.0;
                for j in 0..n {
                    let p2 = p1b;
                    p1b = p0b;
                    p0b = ((2 * j + 1) as f64 * z * p1b - j as f64 * p2) / (j + 1) as f64;
                }
                let dpb = n as f64 * (z * p0b - p1b) / (z * z - 1.0);
                x[i] = -z;
                x[n - 1 - i] = z;
                w[i] = 2.0 / ((1.0 - z * z) * dpb * dpb);
                w[n - 1 - i] = w[i];
                break;
            }
        }
    }
    (x, w)
}

/// Velocity-space grid shared by all configuration points.
#[derive(Clone, Debug)]
pub struct VelocityGrid {
    /// Number of species.
    pub n_species: usize,
    /// Pitch-angle nodes `ξ_j ∈ (−1, 1)`.
    pub xi: Vec<f64>,
    /// Pitch quadrature weights (sum = 2).
    pub wxi: Vec<f64>,
    /// Energy nodes `ε_k` (units of T).
    pub energy: Vec<f64>,
    /// Energy quadrature weights including the Maxwellian factor, i.e.
    /// `Σ_k wen_k ≈ ∫ √ε e^{−ε} dε / Γ(3/2) = 1`.
    pub wen: Vec<f64>,
}

impl VelocityGrid {
    /// Build from an input deck.
    pub fn new(input: &CgyroInput) -> Self {
        let (xi, wxi) = gauss_legendre(input.n_xi);
        // Energy: Gauss-Legendre mapped to [0, e_max], weighted by the
        // normalized Maxwellian measure (2/√π)·√ε·e^{−ε}.
        let e_max = 8.0;
        let (t, wt) = gauss_legendre(input.n_energy);
        let mut energy = Vec::with_capacity(input.n_energy);
        let mut wen = Vec::with_capacity(input.n_energy);
        let norm = 2.0 / std::f64::consts::PI.sqrt();
        for (tk, wk) in t.iter().zip(&wt) {
            let e = 0.5 * e_max * (tk + 1.0);
            let jac = 0.5 * e_max;
            energy.push(e);
            wen.push(wk * jac * norm * e.sqrt() * (-e).exp());
        }
        // Renormalize the discrete Maxwellian measure exactly to 1, as
        // gyrokinetic codes do, so the discrete density of a Maxwellian is
        // exact regardless of quadrature order.
        let s: f64 = wen.iter().sum();
        for w in &mut wen {
            *w /= s;
        }
        Self { n_species: input.species.len(), xi, wxi, energy, wen }
    }

    /// Pitch count.
    pub fn n_xi(&self) -> usize {
        self.xi.len()
    }

    /// Energy count.
    pub fn n_energy(&self) -> usize {
        self.energy.len()
    }

    /// Velocity points per species.
    pub fn per_species(&self) -> usize {
        self.n_xi() * self.n_energy()
    }

    /// Total flattened velocity dimension `nv`.
    pub fn nv(&self) -> usize {
        self.n_species * self.per_species()
    }

    /// Flatten `(species, energy, pitch)` to `iv`.
    pub fn flatten(&self, is: usize, ie: usize, ix: usize) -> usize {
        debug_assert!(is < self.n_species && ie < self.n_energy() && ix < self.n_xi());
        is * self.per_species() + ie * self.n_xi() + ix
    }

    /// Unflatten `iv` to `(species, energy, pitch)`.
    pub fn unflatten(&self, iv: usize) -> (usize, usize, usize) {
        let ps = self.per_species();
        let is = iv / ps;
        let r = iv % ps;
        (is, r / self.n_xi(), r % self.n_xi())
    }

    /// Full quadrature weight of `iv` (pitch × energy, Maxwellian-weighted;
    /// `Σ_{iv per species} ≈ 2`, the pitch measure).
    pub fn weight(&self, iv: usize) -> f64 {
        let (_, ie, ix) = self.unflatten(iv);
        self.wxi[ix] * self.wen[ie]
    }

    /// Parallel velocity `v_∥ = ξ·√(2ε/m)` for `iv` given species masses.
    pub fn v_par(&self, iv: usize, masses: &[f64]) -> f64 {
        let (is, ie, ix) = self.unflatten(iv);
        self.xi[ix] * (2.0 * self.energy[ie] / masses[is]).sqrt()
    }
}

/// Configuration-space grid: `ic = ir·n_theta + itheta`.
#[derive(Clone, Debug)]
pub struct ConfigGrid {
    /// Radial mode count.
    pub n_radial: usize,
    /// Poloidal points per field line.
    pub n_theta: usize,
    /// Poloidal angles `θ ∈ [−π, π)`.
    pub theta: Vec<f64>,
    /// Radial wavenumbers `k_x` (centered spectral layout).
    pub kx: Vec<f64>,
}

impl ConfigGrid {
    /// Build from an input deck.
    pub fn new(input: &CgyroInput) -> Self {
        let n_theta = input.n_theta;
        let theta = (0..n_theta)
            .map(|j| -std::f64::consts::PI + 2.0 * std::f64::consts::PI * j as f64 / n_theta as f64)
            .collect();
        // Centered radial modes: 0, 1, …, n/2, −n/2+1, …, −1 (FFT order).
        let n_radial = input.n_radial;
        let kx = (0..n_radial)
            .map(|p| {
                let m = if p <= n_radial / 2 { p as isize } else { p as isize - n_radial as isize };
                m as f64 * input.kx_min
            })
            .collect();
        Self { n_radial, n_theta, theta, kx }
    }

    /// Total configuration points `nc`.
    pub fn nc(&self) -> usize {
        self.n_radial * self.n_theta
    }

    /// Flatten `(radial, theta)` to `ic`.
    pub fn flatten(&self, ir: usize, it: usize) -> usize {
        debug_assert!(ir < self.n_radial && it < self.n_theta);
        ir * self.n_theta + it
    }

    /// Unflatten `ic` to `(radial, theta)`.
    pub fn unflatten(&self, ic: usize) -> (usize, usize) {
        (ic / self.n_theta, ic % self.n_theta)
    }
}

/// Toroidal mode wavenumbers `k_y(n) = (n+1)·ky_min` (mode 0 is the first
/// finite-`n` mode; the axisymmetric component is not evolved, as in
/// flux-tube CGYRO runs the signal lives in finite-n modes).
pub fn ky_modes(input: &CgyroInput) -> Vec<f64> {
    (0..input.n_toroidal).map(|n| (n + 1) as f64 * input.ky_min).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_legendre_low_orders_match_references() {
        let (x, w) = gauss_legendre(2);
        let r = 1.0 / 3.0_f64.sqrt();
        assert!((x[0] + r).abs() < 1e-14 && (x[1] - r).abs() < 1e-14);
        assert!((w[0] - 1.0).abs() < 1e-14 && (w[1] - 1.0).abs() < 1e-14);

        let (x, w) = gauss_legendre(3);
        assert!(x[1].abs() < 1e-14);
        assert!((w[1] - 8.0 / 9.0).abs() < 1e-14);
        assert!((x[2] - (3.0f64 / 5.0).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        // n-point rule is exact to degree 2n-1.
        for n in [4usize, 7, 12] {
            let (x, w) = gauss_legendre(n);
            for deg in 0..(2 * n) {
                let num: f64 = x.iter().zip(&w).map(|(xi, wi)| wi * xi.powi(deg as i32)).sum();
                let exact = if deg % 2 == 1 { 0.0 } else { 2.0 / (deg as f64 + 1.0) };
                assert!((num - exact).abs() < 1e-12, "n={n} deg={deg}: {num} vs {exact}");
            }
        }
    }

    #[test]
    fn velocity_grid_weights_normalized() {
        let input = CgyroInput::test_medium();
        let g = VelocityGrid::new(&input);
        // Maxwellian measure integrates to ~1 per species (ε_max truncation
        // costs ~3e-4), pitch measure to 2.
        let wsum: f64 = (0..g.per_species()).map(|iv| g.weight(iv)).sum();
        assert!((wsum - 2.0).abs() < 1e-12, "weight sum {wsum}");
    }

    #[test]
    fn velocity_flatten_roundtrip() {
        let input = CgyroInput::test_medium();
        let g = VelocityGrid::new(&input);
        for iv in 0..g.nv() {
            let (is, ie, ix) = g.unflatten(iv);
            assert_eq!(g.flatten(is, ie, ix), iv);
        }
        assert_eq!(g.nv(), input.dims().nv);
    }

    #[test]
    fn v_par_odd_in_xi() {
        let input = CgyroInput::test_small();
        let g = VelocityGrid::new(&input);
        let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
        // Gauss-Legendre nodes are symmetric: xi[j] = -xi[n-1-j].
        let nxi = g.n_xi();
        for ie in 0..g.n_energy() {
            for ix in 0..nxi / 2 {
                let a = g.v_par(g.flatten(0, ie, ix), &masses);
                let b = g.v_par(g.flatten(0, ie, nxi - 1 - ix), &masses);
                assert!((a + b).abs() < 1e-12);
            }
        }
        // Electrons are much faster than ions at the same energy.
        let vi = g.v_par(g.flatten(0, 1, 0), &masses).abs();
        let ve = g.v_par(g.flatten(1, 1, 0), &masses).abs();
        assert!(ve > 10.0 * vi);
    }

    #[test]
    fn config_grid_layout() {
        let input = CgyroInput::test_small();
        let g = ConfigGrid::new(&input);
        assert_eq!(g.nc(), input.dims().nc);
        for ic in 0..g.nc() {
            let (ir, it) = g.unflatten(ic);
            assert_eq!(g.flatten(ir, it), ic);
        }
        // Theta covers [-pi, pi).
        assert!((g.theta[0] + std::f64::consts::PI).abs() < 1e-14);
        assert!(g.theta[g.n_theta - 1] < std::f64::consts::PI);
        // kx is centered: contains both signs.
        assert!(g.kx.iter().any(|&k| k > 0.0) && g.kx.iter().any(|&k| k < 0.0));
        assert_eq!(g.kx[0], 0.0);
    }

    #[test]
    fn ky_modes_are_positive_multiples() {
        let input = CgyroInput::test_medium();
        let ky = ky_modes(&input);
        assert_eq!(ky.len(), input.n_toroidal);
        for (n, k) in ky.iter().enumerate() {
            assert!((k - (n as f64 + 1.0) * input.ky_min).abs() < 1e-15);
        }
    }
}
