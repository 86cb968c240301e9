//! # loom (empty placeholder)
//!
//! The workspace no longer model-checks anything: the engine runs on
//! one thread, so no lock-free structure is shared between threads.
//! This package stays, empty, because `perfbench/Cargo.lock` lists
//! `loom` under `cmcp-kernel` and `cmcp-trace` (behind `cfg(loom)`), and
//! perfbench is linted with `--locked`. It goes with those manifest
//! lines in the benchmark follow-up.
