//! The Coyote v2 benchmark: four workloads measured in host time and in
//! the modelled platform's time, with a traced run that attributes host
//! time to each layer. `perfbench/README.md` explains the design.

pub mod host;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
