//! The adapter that plugs the cache plane into `WpsServer::execute`.
//!
//! `WpsServer` speaks the narrow [`WpsCache`] trait (validated inputs in,
//! maybe-cached value out); this module supplies the real implementation:
//! it builds the full [`CacheKey`] — process id, canonical inputs,
//! catchment id, catalogue data version — and consults the shared
//! [`ResultCache`] at the current *virtual* time. Virtual time and the
//! data version are shared cells ([`VirtualClock`], [`DataVersion`])
//! because the WPS server has neither a clock nor a catalogue: the
//! observatory wiring advances the clock alongside the broker and bumps
//! the version when the catalogue changes. REST callers stay untouched —
//! a hit is just a fast execute that hands back the stored body.

use std::sync::Arc;

use bytes::Bytes;
use evop_services::wps::WpsCache;
use evop_sim::SimTime;
use parking_lot::Mutex;
use serde_json::{Map, Value};

use crate::key::CacheKey;
use crate::plane::ResultCache;

/// A shared virtual-time cell: the cache's "now".
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<Mutex<SimTime>>,
}

impl VirtualClock {
    /// A clock at the virtual epoch.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        *self.now.lock()
    }

    /// Advances to `t` (monotone: earlier values are ignored).
    pub fn advance_to(&self, t: SimTime) {
        let mut now = self.now.lock();
        if t > *now {
            *now = t;
        }
    }
}

/// A shared catalogue data-version cell.
#[derive(Debug, Clone, Default)]
pub struct DataVersion {
    version: Arc<Mutex<u64>>,
}

impl DataVersion {
    /// A cell at version 0.
    pub fn new() -> DataVersion {
        DataVersion::default()
    }

    /// The current version.
    pub fn current(&self) -> u64 {
        *self.version.lock()
    }

    /// Sets the version (monotone: smaller values are ignored).
    pub fn set(&self, version: u64) {
        let mut current = self.version.lock();
        if version > *current {
            *current = version;
        }
    }
}

/// The [`WpsCache`] implementation over a shared [`ResultCache`].
#[derive(Debug)]
pub struct WpsResultCache {
    plane: Arc<Mutex<ResultCache>>,
    clock: VirtualClock,
    version: DataVersion,
    catchment: String,
}

impl WpsResultCache {
    /// Builds the adapter for one catchment's WPS server. All catchments
    /// share `plane`; the catchment id in the key keeps them apart.
    pub fn new(
        plane: Arc<Mutex<ResultCache>>,
        clock: VirtualClock,
        version: DataVersion,
        catchment: impl Into<String>,
    ) -> WpsResultCache {
        WpsResultCache { plane, clock, version, catchment: catchment.into() }
    }

    fn key(&self, process: &str, inputs: &Map<String, Value>) -> CacheKey {
        CacheKey::new(process, &self.catchment, self.version.current(), inputs)
    }
}

impl WpsCache for WpsResultCache {
    fn lookup(&self, process: &str, inputs: &Map<String, Value>) -> Option<Bytes> {
        let key = self.key(process, inputs);
        let mut plane = self.plane.lock();
        match plane.lookup(self.clock.now(), &key) {
            Some(hit) => Some(hit.body),
            None => {
                // No coalescer sits on this path: a miss here goes
                // straight to a real execution, so classify it now.
                plane.note_miss();
                None
            }
        }
    }

    fn store(&self, process: &str, inputs: &Map<String, Value>, body: &Bytes) {
        let key = self.key(process, inputs);
        self.plane.lock().insert(self.clock.now(), key, |_| body.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{CacheConfig, CachePolicy};
    use evop_services::wps::{ParamSpec, ParamType, ProcessDescriptor, WpsProcess, WpsServer};
    use serde_json::json;

    struct Doubler;

    impl WpsProcess for Doubler {
        fn descriptor(&self) -> ProcessDescriptor {
            ProcessDescriptor {
                identifier: "double".to_owned(),
                title: "Doubler".to_owned(),
                abstract_text: String::new(),
                inputs: vec![ParamSpec::required(
                    "x",
                    "x",
                    ParamType::Float { min: None, max: None },
                )],
                outputs: vec![("y".to_owned(), "2x".to_owned())],
            }
        }

        fn execute(&self, inputs: &Map<String, Value>) -> Result<Value, String> {
            let x = inputs.get("x").and_then(Value::as_f64).ok_or("x must be a number")?;
            Ok(json!({ "y": 2.0 * x }))
        }
    }

    #[test]
    fn second_execute_is_served_from_cache() {
        let plane = Arc::new(Mutex::new(ResultCache::new(CacheConfig::default())));
        let clock = VirtualClock::new();
        let version = DataVersion::new();
        let mut server = WpsServer::new();
        server.register(Doubler);
        server.set_cache(Arc::new(WpsResultCache::new(
            plane.clone(),
            clock.clone(),
            version.clone(),
            "eden",
        )));

        let miss = server.execute("double", json!({"x": 21.0})).expect("runs");
        assert_eq!(miss["y"], 42.0);
        let hit = server.execute("double", json!({"x": 21.0})).expect("cached");
        assert_eq!(hit, miss, "a hit decodes to the value the miss returned");
        let stats = plane.lock().stats();
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn version_bump_turns_hits_back_into_misses() {
        let plane = Arc::new(Mutex::new(ResultCache::new(CacheConfig {
            policy: CachePolicy::L1,
            ..CacheConfig::default()
        })));
        let clock = VirtualClock::new();
        let version = DataVersion::new();
        let mut server = WpsServer::new();
        server.register(Doubler);
        server.set_cache(Arc::new(WpsResultCache::new(
            plane.clone(),
            clock.clone(),
            version.clone(),
            "eden",
        )));

        server.execute("double", json!({"x": 1.0})).expect("runs");
        server.execute("double", json!({"x": 1.0})).expect("cached");
        assert_eq!(plane.lock().stats().l1_hits, 1);
        // New sensor data lands: the catalogue bumps, the old entry is
        // unreachable, and the next execute recomputes.
        version.set(1);
        plane.lock().invalidate_stale_versions(1);
        server.execute("double", json!({"x": 1.0})).expect("recomputed");
        let stats = plane.lock().stats();
        assert_eq!(stats.l1_hits, 1, "stale generation must not serve");
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn clock_and_version_cells_are_monotone() {
        let clock = VirtualClock::new();
        clock.advance_to(SimTime::from_secs(100));
        clock.advance_to(SimTime::from_secs(50));
        assert_eq!(clock.now(), SimTime::from_secs(100));
        let version = DataVersion::new();
        version.set(3);
        version.set(2);
        assert_eq!(version.current(), 3);
    }
}
