//! # servebench — the serving benchmark for spinal-serve
//!
//! Drives `spinal-serve` from outside, through its public API only,
//! with closed-loop links: each link sends one CRC-framed payload,
//! waits for the verdict, then opens a fresh connection for the next.
//! [`workload`] defines the traffic and the engine, [`report`] turns a
//! run into end-to-end metrics (untraced run) or per-layer metrics
//! (traced run, checked against an untraced replay), and [`compare`]
//! prints two result files side by side.

pub mod alloc;
pub mod compare;
pub mod hist;
pub mod json;
pub mod report;
pub mod trace;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;
