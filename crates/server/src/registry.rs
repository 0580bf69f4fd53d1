//! The multi-tenant engine registry: many named warehouses behind one
//! process, each an [`Arc<Kdap>`] with its own cache partition, its own
//! server-side metrics, and its own profile capture lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use kdap_core::Kdap;
use kdap_obs::{JsonWriter, Layout, Obs, SlowQueryLedger};

/// How many slow/breached queries each tenant's ledger retains.
const SLOW_LEDGER_CAPACITY: usize = 32;

// `Arc<Kdap>` is shared across worker threads; this fails to compile if
// any future session field loses thread safety.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Kdap>();
};

/// One tenant: an engine plus the server-side state that surrounds it.
pub struct TenantEngine {
    name: String,
    kdap: Arc<Kdap>,
    /// Server-side metrics (request counters, latency histograms) —
    /// always enabled, independent of the engine's own observability.
    http_obs: Obs,
    /// Serializes `profile` requests: profile capture is per-session
    /// global state, so concurrent captures on one tenant would
    /// interleave their span trees.
    profile_lock: Mutex<()>,
    inflight: AtomicUsize,
    /// Retains the N slowest / most-recently-breached queries with their
    /// profiles, served at `GET /v1/{tenant}/slow`.
    slow: SlowQueryLedger,
}

impl TenantEngine {
    /// The tenant's name (its path segment).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's engine.
    pub fn kdap(&self) -> &Arc<Kdap> {
        &self.kdap
    }

    /// The tenant's server-side metrics recorder.
    pub fn http_obs(&self) -> &Obs {
        &self.http_obs
    }

    /// The tenant's slow-query ledger.
    pub fn slow_ledger(&self) -> &SlowQueryLedger {
        &self.slow
    }

    /// Holds the profile-capture lock for the duration of a `profile`
    /// request.
    pub fn lock_profile(&self) -> MutexGuard<'_, ()> {
        self.profile_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits one request against `max_inflight`, returning a guard that
    /// releases the slot on drop, or `None` when the tenant is saturated.
    pub fn admit(self: &Arc<Self>, max_inflight: usize) -> Option<InflightGuard> {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(InflightGuard {
            tenant: Arc::clone(self),
        })
    }

    /// Requests currently executing against this tenant.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// The `GET /v1/{tenant}/stats` body: in-flight gauge, server-side
    /// request metrics, engine metrics (governor breach counters live
    /// here when the engine has observability on), and cache state —
    /// entry counts included, so tests can assert byte-identical cache
    /// state around an aborted request.
    pub fn stats_json(&self) -> String {
        let mut out = String::new();
        JsonWriter::new(&mut out).object(Layout::Block, |w| {
            w.key("tenant").str(&self.name);
            w.key("measure").str(&self.kdap.measure().name);
            w.key("inflight").int(self.inflight());
            w.key("http");
            self.http_obs.metrics_snapshot().write_json(w);
            w.key("engine");
            self.kdap.obs().metrics_snapshot().write_json(w);
            w.key("caches").object(Layout::Block, |w| {
                // `subspace` is the session cache: its entries are
                // explorations, one per net; the wire name predates that.
                for (key, len, counters) in [
                    (
                        "subspace",
                        self.kdap.subspace_cache_len(),
                        self.kdap.subspace_cache_counters(),
                    ),
                    (
                        "semijoin",
                        self.kdap.semijoin_cache_len(),
                        self.kdap.semijoin_counters(),
                    ),
                ] {
                    if let (Some(len), Some(c)) = (len, counters) {
                        w.key(key).object(Layout::Inline, |w| {
                            w.key("len").int(len).key("hits").int(c.hits);
                            w.key("misses").int(c.misses);
                            w.key("evictions").int(c.evictions);
                        });
                    }
                }
            });
            // The semi-join cache's step bitmaps — the only row sets a
            // session keeps.
            let h = self.kdap.cache_container_histogram();
            w.key("rowset_containers").object(Layout::Inline, |w| {
                w.key("array").int(h.arrays).key("bitmap").int(h.bitmaps);
                w.key("run").int(h.runs);
            });
            w.key("cpu_features").array(Layout::Inline, |w| {
                for f in kdap_core::kernel::detected_features() {
                    w.str(f);
                }
            });
            w.key("tables").array(Layout::Block, |w| {
                for t in self.kdap.warehouse().tables() {
                    w.object(Layout::Inline, |w| {
                        w.key("name").str(t.name()).key("rows").int(t.nrows());
                        w.key("heap_bytes").int(t.heap_bytes());
                    });
                }
            });
        });
        out.push('\n');
        out
    }
}

/// Releases a tenant's in-flight slot on drop.
pub struct InflightGuard {
    tenant: Arc<TenantEngine>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Named engines served by one process. Built before the server starts
/// and immutable afterwards — workers share it behind an `Arc`.
#[derive(Default)]
pub struct EngineRegistry {
    tenants: BTreeMap<String, Arc<TenantEngine>>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EngineRegistry::default()
    }

    /// Registers `kdap` under `name`, replacing any previous engine with
    /// that name. Names are path segments: keep them to
    /// `[A-Za-z0-9._-]`.
    pub fn register(&mut self, name: impl Into<String>, kdap: Arc<Kdap>) {
        let name = name.into();
        self.tenants.insert(
            name.clone(),
            Arc::new(TenantEngine {
                name,
                kdap,
                http_obs: Obs::enabled(),
                profile_lock: Mutex::new(()),
                inflight: AtomicUsize::new(0),
                slow: SlowQueryLedger::new(SLOW_LEDGER_CAPACITY),
            }),
        );
    }

    /// Builder-style [`EngineRegistry::register`].
    pub fn with(mut self, name: impl Into<String>, kdap: Arc<Kdap>) -> Self {
        self.register(name, kdap);
        self
    }

    /// Looks a tenant up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<TenantEngine>> {
        self.tenants.get(name)
    }

    /// The registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// Iterates tenants in name order (for cross-tenant exports).
    pub fn iter(&self) -> impl Iterator<Item = &Arc<TenantEngine>> {
        self.tenants.values()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_core::testutil::ebiz_fixture;

    fn tiny_registry() -> EngineRegistry {
        let fx = ebiz_fixture();
        EngineRegistry::new().with(
            "ebiz",
            Arc::new(Kdap::builder(fx.wh).cache_capacity(8).build().unwrap()),
        )
    }

    #[test]
    fn register_and_lookup() {
        let reg = tiny_registry();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.tenant_names(), vec!["ebiz"]);
        assert!(reg.get("ebiz").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn admission_caps_inflight_requests() {
        let reg = tiny_registry();
        let t = reg.get("ebiz").unwrap();
        let a = t.admit(2).expect("slot 1");
        let _b = t.admit(2).expect("slot 2");
        assert!(t.admit(2).is_none(), "cap reached");
        assert_eq!(t.inflight(), 2);
        drop(a);
        assert_eq!(t.inflight(), 1);
        assert!(t.admit(2).is_some(), "slot released");
        // A zero cap admits nothing.
        assert!(t.admit(0).is_none());
    }

    #[test]
    fn stats_json_is_balanced_and_carries_caches() {
        let reg = tiny_registry();
        let t = reg.get("ebiz").unwrap();
        t.http_obs().inc("http.requests", 3);
        t.http_obs().record_ns("http.explore.latency_ns", 1_000);
        let out = t.stats_json();
        assert!(out.contains("\"tenant\": \"ebiz\""), "{out}");
        assert!(out.contains("\"http.requests\": 3"), "{out}");
        assert!(out.contains("\"http.explore.latency_ns\""), "{out}");
        assert!(out.contains("\"subspace\": {\"len\": 0"), "{out}");
        assert!(out.contains("\"semijoin\": {\"len\": 0"), "{out}");
        assert!(out.contains("\"rowset_containers\""), "{out}");
        assert!(out.contains("\"heap_bytes\""), "{out}");
        assert!(out.contains("\"cpu_features\": ["), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
    }
}
