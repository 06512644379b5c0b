//! # xg-tensor
//!
//! Tensor buffers and distribution logic for the XGYRO reproduction:
//! dense row-major 2/3/4-D tensors, the balanced 1-D block decomposition
//! used for every dimension split (at a power-of-two `n1`, `nv` splits
//! along the summation tree instead), the fixed summation tree every
//! velocity moment is summed over, CGYRO's per-phase layouts (str/nl/coll)
//! on a 2-D process grid, and the pack/unpack kernels that define the wire
//! format of the str ↔ coll AllToAll transposes.

#![warn(missing_docs)]

pub mod decomp;
pub mod layout;
pub mod pack;
pub mod tensor;
pub mod tree;

pub use decomp::{Decomp1D, RaggedDecomp};
pub use layout::{PhaseLayout, ProcGrid, SimDims};
pub use pack::{
    pack_coll_block, pack_coll_profiles_block, pack_str_block, unpack_into_coll,
    unpack_into_coll_profiles, unpack_into_str,
};
pub use tensor::{Tensor2, Tensor3, Tensor4};
