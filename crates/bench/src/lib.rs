//! # parsched-bench
//!
//! The multi-partition cells of [`scale`], shared by the `shards` and
//! `scale` binaries and the root `perf_goldens` test, and the [`harness`]
//! helpers the repository benchmark reads JSON with. The binaries under
//! `src/bin/` regenerate the paper's tables (`figures`) and drive the
//! trace, fault, shard, arrival and scale smoke gates; `src/bin/benchmark/`
//! is the repository benchmark.

#![warn(missing_docs)]

pub mod harness;
pub mod scale;
