//! `qjo-sched`: a shim over [`Service::smoke`].
//!
//! The `auto` backend lives in `qjo-serve` ([`qjo_serve::AutoBackend`])
//! and [`Service::smoke`] registers it with the other seven backends.
//! This crate keeps only [`smoke_service`], which the benchmark package
//! still calls.

use qjo_exec::Parallelism;
use qjo_serve::Service;

/// [`Service::smoke`], `auto` included.
pub fn smoke_service(seed: u64, parallelism: Parallelism) -> (Service, ()) {
    // A pair only because `benchmark/src/serve.rs` reads `.0`.
    (Service::smoke(seed, parallelism), ())
}
