#![warn(missing_docs)]
//! `referee-one-round` — umbrella crate of the workspace reproducing
//! Becker et al., *Adding a referee to an interconnection network: What
//! can(not) be computed in one round* (IPDPS 2011).
//!
//! Everything is re-exported from [`referee_core`]; its crate docs hold
//! the full map of the workspace (`cargo doc --workspace --open`). The
//! runnable binaries live in `examples/` and the experiment regenerators
//! in `crates/bench`.

pub use referee_core::*;
