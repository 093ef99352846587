//! End-to-end HTTP benchmark of `les3-serve` with a per-layer ledger.
//! See `README.md` for the workloads, metrics and how to run it.

pub mod load;
pub mod net;
pub mod oracle;
pub mod trace;
pub mod workload;
