//! The CNT-Cache benchmark: three workloads (`file-replay`,
//! `kernel-suite`, `serve-loopback`) measured end to end, plus a traced
//! mode that attributes host time to each crate of the workspace. See
//! `README.md` in this directory for the metrics and how to run it.

pub mod boxinfo;
pub mod calib;
pub mod inputs;
pub mod ledger;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
