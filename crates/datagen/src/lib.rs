//! # kdap-datagen
//!
//! Deterministic synthetic data for the KDAP reproduction: the AW_ONLINE
//! and AW_RESELLER warehouses standing in for the AdventureWorks data
//! warehouse of the paper's §6.1, the EBiz running-example schema of
//! Figure 2, and labeled keyword workloads replacing the paper's manually
//! judged 50-query set (Table 3).
//!
//! All generators are seeded; the same seed yields the same warehouse
//! bit-for-bit, so every experiment in `kdap-bench` is reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aw_online;
pub mod aw_reseller;
pub mod common;
pub mod ebiz;
pub mod rng;
pub mod trends;
pub mod vocab;
pub mod workload;

pub use aw_online::build_aw_online;
pub use aw_reseller::build_aw_reseller;
pub use common::Scale;
pub use ebiz::{build_ebiz, EbizScale};
pub use rng::Sampler;
pub use trends::{build_trends, TrendsScale};
pub use workload::{generate_workload, IntendedConstraint, LabeledQuery, WorkloadConfig};
