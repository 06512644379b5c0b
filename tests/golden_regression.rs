//! Golden-trajectory regression: pinned diagnostic values for the preset
//! decks. These catch unintended numerical changes (a sign flip in a
//! stencil, a reordered reduction, a changed coefficient) that all other
//! tests — which compare implementations *against each other* — would
//! miss, because every implementation would drift together.
//!
//! If a deliberate physics/numerics change lands, regenerate with:
//! `cargo test -p xgyro-repro --test golden_regression -- --nocapture`
//! (the failing assertion prints the measured values).

use xg_linalg::Complex64;
use xg_sim::nonlinear::NlKernel;
use xg_sim::{serial_simulation, CgyroInput, SerialTopology};
use xg_tensor::Tensor3;

/// Relative tolerance: golden values are recorded to ~10 digits; platform
/// libm differences stay far below this.
const RTOL: f64 = 1e-8;

fn close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= RTOL * (1.0 + want.abs()),
        "{what}: got {got:.12e}, golden {want:.12e}"
    );
}

#[test]
fn golden_small_deck_10_steps() {
    let input = CgyroInput::test_small();
    let mut sim = serial_simulation(&input);
    sim.run_steps(10);
    let d = sim.diagnostics();
    println!(
        "measured: field_energy={:.12e} heat_flux={:.12e} h_norm2={:.12e}",
        d.field_energy, d.heat_flux, d.h_norm2
    );
    close(d.field_energy, GOLDEN_SMALL.0, "field_energy");
    close(d.heat_flux, GOLDEN_SMALL.1, "heat_flux");
    close(d.h_norm2, GOLDEN_SMALL.2, "h_norm2");
}

#[test]
fn golden_medium_deck_5_steps() {
    let input = CgyroInput::test_medium();
    let mut sim = serial_simulation(&input);
    sim.run_steps(5);
    let d = sim.diagnostics();
    println!(
        "measured: field_energy={:.12e} heat_flux={:.12e} h_norm2={:.12e}",
        d.field_energy, d.heat_flux, d.h_norm2
    );
    close(d.field_energy, GOLDEN_MEDIUM.0, "field_energy");
    close(d.heat_flux, GOLDEN_MEDIUM.1, "heat_flux");
    close(d.h_norm2, GOLDEN_MEDIUM.2, "h_norm2");
}

#[test]
fn golden_em_shaped_deck_5_steps() {
    // Electromagnetic + shaped-geometry configuration: anchors the A∥ and
    // Miller-shaping code paths.
    let mut input = CgyroInput::test_small();
    input.beta_e = 0.01;
    input.kappa = 1.4;
    input.delta = 0.2;
    let mut sim = serial_simulation(&input);
    sim.run_steps(5);
    let d = sim.diagnostics();
    println!(
        "measured: field_energy={:.12e} heat_flux={:.12e} h_norm2={:.12e}",
        d.field_energy, d.heat_flux, d.h_norm2
    );
    close(d.field_energy, GOLDEN_EM_SHAPED.0, "field_energy");
    close(d.heat_flux, GOLDEN_EM_SHAPED.1, "heat_flux");
    close(d.h_norm2, GOLDEN_EM_SHAPED.2, "h_norm2");
}

#[test]
fn golden_nt8_nonlinear_deck_5_steps() {
    // nt = 8 with a strong bracket: the shape of the benchmark's streaming
    // deck. Recorded with the pseudo-spectral (FFT) nl evaluation this repo
    // had before the direct one, so passing at `RTOL` shows the switch
    // moved the trajectory by roundoff only.
    let mut input = CgyroInput::test_small();
    input.n_toroidal = 8;
    input.nonlinear_coupling = 0.5;
    let mut sim = serial_simulation(&input);
    sim.run_steps(5);
    let d = sim.diagnostics();
    println!(
        "measured: field_energy={:.12e} heat_flux={:.12e} h_norm2={:.12e}",
        d.field_energy, d.heat_flux, d.h_norm2
    );
    close(d.field_energy, GOLDEN_NT8.0, "field_energy");
    close(d.heat_flux, GOLDEN_NT8.1, "heat_flux");
    close(d.h_norm2, GOLDEN_NT8.2, "h_norm2");
}

// Golden values recorded from the reference implementation (see module
// docs for the regeneration procedure).
const GOLDEN_SMALL: (f64, f64, f64) =
    (3.465762975820e-5, 4.038833772074e-6, 8.477427960119e-4);
const GOLDEN_MEDIUM: (f64, f64, f64) =
    (8.280195299827e-5, 3.469928111349e-5, 1.777685022687e-2);
const GOLDEN_EM_SHAPED: (f64, f64, f64) =
    (3.243005566617e-5, -3.357274549809e-7, 9.145370594168e-4);
const GOLDEN_NT8: (f64, f64, f64) =
    (5.487856870031e-5, -1.241830037366e-6, 3.545849196804e-3);

/// A 3-species deck with `nv = 45`: two full 16-column solve panels and a
/// 13-wide remainder.
fn ragged_nv_deck() -> CgyroInput {
    let mut input = CgyroInput::test_medium();
    input.n_radial = 4;
    input.n_theta = 6;
    input.n_xi = 5;
    input.n_energy = 3;
    input.n_toroidal = 2;
    input
}

/// An `nv = 8` deck (one species): the remainder path alone, as on the
/// benchmark's streaming deck.
fn narrow_nv_deck() -> CgyroInput {
    let mut input = CgyroInput::test_small();
    input.n_energy = 2;
    input.species.truncate(1);
    input
}

#[test]
fn cmat_bits_are_pinned() {
    // `cmat` to the bit, not to `RTOL`: fingerprints of the full tensor
    // recorded with the column-at-a-time LU solve this repo had before the
    // row-panel one (PR 23). Cached artifacts and every bitwise suite lean
    // on the build reproducing these exactly.
    let cases: [(&str, CgyroInput, u64); 4] = [
        ("test_small", CgyroInput::test_small(), CMAT_BITS_SMALL),
        ("test_medium", CgyroInput::test_medium(), CMAT_BITS_MEDIUM),
        ("ragged nv=45", ragged_nv_deck(), CMAT_BITS_RAGGED),
        ("narrow nv=8", narrow_nv_deck(), CMAT_BITS_NARROW),
    ];
    for (name, input, want) in cases {
        let got = SerialTopology::new(&input).cmat_fingerprint();
        assert_eq!(got, want, "{name} (nv = {}): got {got:#018x}", input.dims().nv);
    }
}

const CMAT_BITS_SMALL: u64 = 0x265a_a3ec_b69a_92ae;
const CMAT_BITS_MEDIUM: u64 = 0x3da2_a002_52b5_f865;
const CMAT_BITS_RAGGED: u64 = 0xbf0e_d073_14e4_a088;
const CMAT_BITS_NARROW: u64 = 0xf0fa_00d5_6245_d47f;

#[test]
fn nl_bits_are_pinned() {
    // The nl bracket to the bit: FNV fingerprints of the output recorded
    // with the scalar one-line-at-a-time direct convolution this repo had
    // before the lane-parallel one. 3 × 5 = 15 lines (not a multiple of
    // the lane count) at a nonzero `nc` offset.
    let (nc, nvl, offset) = (3, 5, 1);
    for (nt, want) in [
        (2, NL_BITS_NT2),
        (4, NL_BITS_NT4),
        (8, NL_BITS_NT8),
        (16, NL_BITS_NT16),
    ] {
        let mut input = CgyroInput::test_small();
        input.n_toroidal = nt;
        input.nonlinear_coupling = 0.37;
        let k = NlKernel::new(&input);
        let h = Tensor3::from_fn(nc, nvl, nt, |a, b, n| {
            Complex64::new(
                ((a * 7 + b * 3 + n) as f64 * 0.61).sin(),
                ((a + b * 5 + n * 2) as f64 * 0.37).cos(),
            )
        });
        let phi: Vec<Complex64> = (0..(offset + nc) * nt)
            .map(|i| Complex64::new((i as f64 * 0.21).cos(), (i as f64 * 0.13).sin()))
            .collect();
        let mut out = Tensor3::new(nc, nvl, nt);
        k.eval(&h, &phi, offset, &mut out);
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        for z in out.as_slice() {
            for v in [z.re.to_bits(), z.im.to_bits()] {
                for b in v.to_le_bytes() {
                    fp ^= b as u64;
                    fp = fp.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(fp, want, "nt = {nt}: got {fp:#018x}");
    }
}

const NL_BITS_NT2: u64 = 0xbc5e_fe87_ef06_2efa;
const NL_BITS_NT4: u64 = 0x7977_5ea0_3575_5616;
const NL_BITS_NT8: u64 = 0xc7a9_b744_74ba_d079;
const NL_BITS_NT16: u64 = 0xe9f6_4040_d0cd_34ac;
