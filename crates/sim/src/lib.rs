//! # xg-sim — mini-CGYRO
//!
//! A structurally faithful, laptop-scale reproduction of the CGYRO
//! gyrokinetic solver as characterized by the XGYRO paper: complex spectral
//! state over `(nc, nv, nt)`; three phases (str / nl / coll), each needing
//! one complete dimension; the two str-phase AllReduce call sites (field
//! solve and upwind moment) on the `nv`-splitting communicator; str↔coll
//! AllToAll transposes; and the pre-factored implicit collision step whose
//! constant tensor (`cmat`, `nv×nv×nc×nt` reals) dominates memory.
//!
//! The [`stepper::Topology`] seam lets the identical physics run serially
//! ([`serial::SerialTopology`]), distributed CGYRO-style
//! ([`dist::DistTopology::cgyro`], reusing the `nv` communicator for coll
//! as in the paper's Figure 1), or as an XGYRO ensemble member
//! ([`dist::DistTopology::with_shared_coll_cuts`], Figure 3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cmat;
pub mod collision;
#[cfg(test)]
mod collision_tests;
pub mod deck;
pub mod diagnostics;
pub mod dist;
pub mod field;
pub mod geometry;
pub mod grid;
pub mod input;
pub mod moments;
pub mod nonlinear;
pub mod restart;
pub mod serial;
pub mod stepper;
pub mod streaming;

pub use cmat::{cmat_total_bytes, CollisionConstants};
pub use deck::{load_deck, parse_deck, save_deck, write_deck, DeckError};
pub use diagnostics::{ComplexTrace, History};
pub use restart::{RestartError, RestartImage};
pub use collision::CollisionOperator;
pub use dist::DistTopology;
pub use input::{CgyroInput, Species};
pub use moments::{moments_table, species_moments, SpeciesMoments};
pub use serial::{serial_simulation, SerialTopology};
pub use stepper::{initial_value, Diagnostics, Simulation, Topology};
