//! # unet-topology — processor-network topologies
//!
//! The topology substrate for the reproduction of *"Optimal Trade-Offs
//! Between Size and Slowdown for Universal Parallel Networks"* (Meyer auf der
//! Heide, Storch, Wanka; SPAA 1995). A parallel processor network is a
//! constant-degree graph whose vertices are processors and whose edges are
//! communication links; this crate provides:
//!
//! * a compact immutable [`graph::Graph`] (CSR, `u32` ids) with set algebra
//!   (union/difference/subgraph) used to assemble the paper's `G₀`;
//! * [`generators`] for every family the paper names — meshes, tori, the
//!   `(a, n)`-multitorus of Definition 3.8, butterflies, cube-connected
//!   cycles, shuffle-exchange, de Bruijn, hypercubes, trees, complete
//!   networks, random regular graphs and expanders;
//! * [`analysis`] (BFS/diameter/spreading function), [`spectral`]
//!   (expander certification via Tanner's bound) and [`enumeration`] (the
//!   counting side of the lower-bound argument).

#![deny(missing_docs)]

pub mod analysis;
pub mod enumeration;
pub mod generators;
pub mod graph;
pub mod par;
pub mod partition;
pub mod spectral;
pub mod util;

pub use graph::{Graph, GraphBuilder, Node};

/// Convenient glob-import surface: `use unet_topology::prelude::*;`.
pub mod prelude {
    pub use crate::analysis::{bfs_distances, diameter_exact, is_connected};
    pub use crate::generators::*;
    pub use crate::graph::{Graph, GraphBuilder, Node};
    pub use crate::util::seeded_rng;
}
