//! # xg-linalg
//!
//! Dependency-free dense linear algebra substrate for the XGYRO
//! reproduction: double-precision complex numbers, row-major real matrices,
//! LU factorization with partial pivoting, GEMM/matvec kernels, and the
//! deterministic summation primitives used for bitwise-reproducible
//! distributed reductions.
//!
//! The production fusion code this reproduces (CGYRO) leans on
//! LAPACK/cuBLAS; here the same roles are filled by a small, fully-tested
//! pure-Rust implementation, which is all the collision pipeline needs:
//! the constant tensor build is `LU((I − Δt/2·C))` + triangular solves, and
//! the collision step itself is a stack of real×complex matvecs.

#![warn(missing_docs)]

pub mod complex;
pub mod eigen;
pub mod fft;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod norms;
pub mod simd;

pub use complex::{Complex64, I};
pub use eigen::spectral_radius;
pub use fft::{next_pow2, Fft};
pub use gemm::{
    apply_panel_multi, apply_panel_multi_flops, matmul, matvec, matvec_complex,
    matvec_complex_flat, matvec_complex_flops,
};
pub use lu::{LuFactors, SingularMatrix};
pub use matrix::RealMatrix;
pub use simd::{
    apply_panel_multi_with, available_levels, detected_level, select_level_with, selected_level,
    tuned_level, with_level, LevelBody, SimdLevel, SIMD_ENV, WIDER_LEVEL_MARGIN,
};
