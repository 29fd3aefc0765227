//! `evop-cache` — deterministic two-tier result cache with singleflight
//! request coalescing, for flash-crowd serving.
//!
//! The paper's flash-crowd story (§VI) leans on prefetching and
//! pre-bootstrapping: crowds of stakeholders asking about *the same*
//! storm, catchment and scenario should not cost one full model run
//! each. This crate is that missing plane, grown to the roadmap's
//! production scale:
//!
//! - **Canonical identity** ([`CacheKey`]): process id, canonicalised
//!   WPS inputs, catchment id and the catalogue's data-version stamp.
//!   Two spellings of the same question collide; any data update orphans
//!   every stale answer.
//! - **L1** ([`l1::LruTtlStore`]): bounded in-memory LRU with TTLs in
//!   *virtual* time, holding each result as its compact JSON body (the
//!   bytes a client receives), guarded by a seeded TinyLFU-style
//!   [`FrequencySketch`] so one-off queries cannot evict what a crowd is
//!   hammering.
//! - **L2** ([`BlobBackend`] spill through `evop-xcloud`'s blob store):
//!   large results live under content-hashed keys and are integrity
//!   checked on the way back — a corrupt or unavailable object is a
//!   miss, never an answer.
//! - **Singleflight** ([`Coalescer`]): concurrent identical requests
//!   attach as followers to the one in-flight broker job and complete
//!   together, with per-key follower counts in the broker's event log.
//! - **Observability**: hit/miss/admission-reject counters, an
//!   age-at-hit histogram, and a cache-hit-ratio SLO ([`hit_ratio_slo`])
//!   judged by the burn-rate alert engine.
//!
//! Everything is a pure function of (inputs, seed, virtual time): no
//! wallclock, no unseeded hashing, no iteration-order nondeterminism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod key;
pub mod l1;
pub mod plane;
pub mod sketch;
pub mod wps;

pub use coalesce::{Coalescer, Flight, Submission};
pub use key::CacheKey;
pub use plane::{
    hit_ratio_slo, BlobBackend, CacheConfig, CachePolicy, CacheStats, Hit, ResultCache, Tier,
};
pub use sketch::FrequencySketch;
pub use wps::{DataVersion, VirtualClock, WpsResultCache};
