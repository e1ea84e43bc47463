//! # navbench — one benchmark for the author and the reader
//!
//! Navigation is authored apart from content (`links.xml`) and woven into
//! the pages at publish time, so the system has two users: an author, who
//! waits for an edit to go live, and a reader, whose session follows the
//! woven links page by page. This crate measures both against the real
//! stack — [`navsep_core::publish::SitePublisher`],
//! [`navsep_web::ShardedSiteStore`] and [`navsep_web::HttpListener`] over
//! loopback — on the paper's museum at scale (`Setup::wide(40, 24,
//! IndexedGuidedTour)`), checking every output it times.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path navbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `METRICS.md` beside this crate says which end-to-end metric each
//! per-layer metric should move, and on which workload.

pub mod fixture;
pub mod publish;
pub mod samples;
pub mod serve;
pub mod stats;
pub mod workload;

pub use workload::{run, run_with, Config, Workload};
