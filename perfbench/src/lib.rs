//! Helpers of the repository benchmark: seeded payloads, latency samples
//! with failure accounting, in-memory spans, `/proc` readers and the
//! result line. The workloads themselves live in the binary (`main.rs`).

pub mod catalog;
pub mod payload;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
