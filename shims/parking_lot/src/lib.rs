//! # parking_lot (empty placeholder)
//!
//! Nothing in the workspace takes a host lock any more: the kernel keeps
//! everything it mutates in one single-writer cell, and the engine runs
//! on one thread. This package stays, empty, because
//! `perfbench/Cargo.lock` lists `parking_lot` under `cmcp-kernel`,
//! `cmcp-pagetable` and `cmcp-sim`, and perfbench is linted with
//! `--locked`. It goes with those manifest lines in the benchmark
//! follow-up.
