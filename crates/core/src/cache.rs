//! The compiled-plan cache.
//!
//! uGrapher's value proposition (paper §5.3–5.4) is that operator
//! compilation and schedule selection happen *once* and are then reused
//! across every `update_all`/`apply_edges` call of a model. A [`PlanCache`]
//! makes that reuse explicit at the runtime layer: it memoizes, per
//! request shape, everything [`crate::api::Runtime::run`] derives before
//! and besides executing a kernel on the caller's operands —
//!
//! * the **chosen schedule** (the output of the predictor or the budgeted
//!   grid search, by far the most expensive stage),
//! * the generated [`KernelPlan`] (what the emitter and the simulator
//!   lower and render; lowering costs microseconds, so the IR itself is
//!   not kept),
//! * the [`DeterminismClass`] of the lowered kernel,
//! * the [`Downgrade`]s recorded while choosing (so a cache hit reports
//!   the same robustness verdict as the miss that populated it), and
//! * the [`SimReport`] measured on that miss, with the [`DeviceConfig`]
//!   and [`Fidelity`] it was measured under. A report is a pure function
//!   of the plan, the graph structure, the device and the fidelity; the
//!   key covers the first two and the entry records the other two, so a
//!   hit returns it instead of simulating the same kernel again.
//!
//! Outputs are never cached: feature values are not part of the key, so
//! every call, hit or miss, executes on the operands it was given.
//!
//! The key ([`PlanKey`]) is the full set of inputs those derivations
//! depend on apart from the device: operator semantics, the explicit
//! schedule (or `None` for auto-tuned entries), the graph's structural
//! fingerprint ([`ugrapher_graph::Graph::structural_fingerprint`]), the
//! feature dimension, and the scalar-broadcast shape of each operand. A
//! mutated graph (changed nnz, rewired edge, renumbered edge ids) changes
//! the fingerprint and therefore misses; [`PlanCache::invalidate_graph`]
//! additionally drops the stale entries when a graph version is retired.
//! A runtime looks entries up with [`PlanCache::get_for`], which counts an
//! entry compiled under another device or fidelity as a miss, so one cache
//! shared by runtimes on different devices never replays another device's
//! schedule or report; the runtime recompiles and replaces the entry.
//!
//! The cache is bounded (FIFO eviction) and thread-safe; hits and misses
//! are counted both locally ([`PlanCache::stats`]) and in the
//! process-wide metrics registry (`ugrapher_plan_cache_hits_total` /
//! `ugrapher_plan_cache_misses_total` / `ugrapher_plan_cache_evictions_total`).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ugrapher_obs::{metrics, MetricsRegistry};
use ugrapher_sim::{DeviceConfig, SimReport};

use crate::abstraction::OpInfo;
use crate::exec::Fidelity;
use crate::ir::DeterminismClass;
use crate::plan::KernelPlan;
use crate::robustness::Downgrade;
use crate::schedule::ParallelInfo;

/// Everything a compiled plan depends on apart from the device; two
/// requests with equal keys on the same device and fidelity can share one
/// [`CachedPlan`] (see [`PlanCache::get_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Operator semantics.
    pub op: OpInfo,
    /// The caller-supplied schedule, or `None` for auto-tuned requests.
    /// Explicit and auto entries never alias: an auto entry remembers the
    /// *result* of tuning, which must not shadow a user's explicit choice.
    pub explicit: Option<ParallelInfo>,
    /// [`ugrapher_graph::Graph::structural_fingerprint`] of the graph
    /// version the plan was compiled against.
    pub graph_fingerprint: u64,
    /// Feature (column) dimension of the operator's tensors.
    pub feat: usize,
    /// Scalar-broadcast flags of operands A and B (a one-column operand
    /// is costed and planned differently from a full-width one).
    pub scalars: (bool, bool),
}

/// The memoized compilation artifacts for one [`PlanKey`].
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The schedule that will execute (chosen by tuning, or the explicit
    /// one the key was built with).
    pub schedule: ParallelInfo,
    /// The generated plan, scalar-operand flags applied.
    pub plan: KernelPlan,
    /// Determinism classification of the kernel `plan` lowers to.
    pub determinism: DeterminismClass,
    /// Downgrades recorded while this entry was compiled (illegal tuning
    /// candidates, schedule lints, predictor fallbacks). Replayed into the
    /// [`crate::robustness::RobustnessReport`] of every hit so cached and
    /// uncached requests report the same verdict.
    pub downgrades: Vec<Downgrade>,
    /// The simulated report measured when this entry was compiled,
    /// returned by every hit in place of a new simulation.
    pub report: SimReport,
    /// The device `report` was measured on.
    pub device: DeviceConfig,
    /// The trace fidelity `report` was measured at.
    pub fidelity: Fidelity,
}

/// Point-in-time counters of one cache instance (process-global metrics
/// aggregate over all instances; these are per-cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Entries dropped by [`PlanCache::invalidate_graph`] /
    /// [`PlanCache::clear`].
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups, in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<PlanKey, Arc<CachedPlan>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<PlanKey>,
}

/// A bounded, thread-safe cache of compiled plans (see the module docs).
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// Default entry capacity; generous for any realistic operator ×
    /// schedule × graph-version working set while bounding memory.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A cache holding at most `capacity` entries (minimum 1); the oldest
    /// entry is evicted first.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// A shared cache ready to hand to [`crate::api::Runtime::with_plan_cache`]
    /// (and clone across serving workers).
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    /// Looks up a compiled plan for any device and fidelity, counting the
    /// hit or miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.lookup(key, |_| true)
    }

    /// Looks up a compiled plan measured on `device` at `fidelity`,
    /// counting the hit or miss. An entry compiled under another device or
    /// fidelity is a miss; the caller recompiles and replaces it.
    pub fn get_for(
        &self,
        key: &PlanKey,
        device: &DeviceConfig,
        fidelity: Fidelity,
    ) -> Option<Arc<CachedPlan>> {
        self.lookup(key, |c| c.fidelity == fidelity && c.device == *device)
    }

    fn lookup(
        &self,
        key: &PlanKey,
        usable: impl FnOnce(&CachedPlan) -> bool,
    ) -> Option<Arc<CachedPlan>> {
        let found = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(key)
            .cloned()
            .filter(|c| usable(c));
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                MetricsRegistry::global().inc(metrics::PLAN_CACHE_HITS);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                MetricsRegistry::global().inc(metrics::PLAN_CACHE_MISSES);
            }
        }
        found
    }

    /// Inserts (or replaces) the entry for `key`, evicting the oldest
    /// entry if the cache is full. Returns the stored handle.
    pub fn insert(&self, key: PlanKey, value: CachedPlan) -> Arc<CachedPlan> {
        let value = Arc::new(value);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.map.insert(key, Arc::clone(&value)).is_none() {
            inner.order.push_back(key);
            while inner.map.len() > self.capacity {
                // `order` can hold keys already dropped by invalidation;
                // skip those without charging an eviction.
                if let Some(old) = inner.order.pop_front() {
                    if inner.map.remove(&old).is_some() {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        MetricsRegistry::global().inc(metrics::PLAN_CACHE_EVICTIONS);
                    }
                } else {
                    break;
                }
            }
        }
        value
    }

    /// Drops every entry compiled against the given graph fingerprint
    /// (call when a graph version is retired or mutated in place).
    /// Returns how many entries were removed.
    pub fn invalidate_graph(&self, graph_fingerprint: u64) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let before = inner.map.len();
        inner
            .map
            .retain(|k, _| k.graph_fingerprint != graph_fingerprint);
        inner
            .order
            .retain(|k| k.graph_fingerprint != graph_fingerprint);
        let removed = before - inner.map.len();
        if removed > 0 {
            self.invalidations
                .fetch_add(removed as u64, Ordering::Relaxed);
            MetricsRegistry::global().inc_by(metrics::PLAN_CACHE_EVICTIONS, removed as u64);
        }
        removed
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let removed = inner.map.len();
        inner.map.clear();
        inner.order.clear();
        if removed > 0 {
            self.invalidations
                .fetch_add(removed as u64, Ordering::Relaxed);
            MetricsRegistry::global().inc_by(metrics::PLAN_CACHE_EVICTIONS, removed as u64);
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .map
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::schedule::Strategy;

    fn key(fingerprint: u64, feat: usize) -> PlanKey {
        PlanKey {
            op: OpInfo::aggregation_sum(),
            explicit: None,
            graph_fingerprint: fingerprint,
            feat,
            scalars: (false, false),
        }
    }

    fn entry(feat: usize) -> CachedPlan {
        let schedule = ParallelInfo::basic(Strategy::ThreadVertex);
        let plan =
            KernelPlan::generate(OpInfo::aggregation_sum(), schedule, 100, 400, feat).unwrap();
        let determinism = crate::ir::classify_determinism(&lower(&plan).unwrap());
        CachedPlan {
            schedule,
            plan,
            determinism,
            downgrades: Vec::new(),
            report: SimReport::empty(),
            device: DeviceConfig::v100(),
            fidelity: Fidelity::Auto,
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = PlanCache::new(8);
        assert!(cache.get(&key(1, 8)).is_none());
        cache.insert(key(1, 8), entry(8));
        assert!(cache.get(&key(1, 8)).is_some());
        // A different graph fingerprint (same shape otherwise) misses.
        assert!(cache.get(&key(2, 8)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = PlanCache::new(2);
        cache.insert(key(1, 8), entry(8));
        cache.insert(key(2, 8), entry(8));
        cache.insert(key(3, 8), entry(8));
        assert!(cache.get(&key(1, 8)).is_none(), "oldest evicted");
        assert!(cache.get(&key(2, 8)).is_some());
        assert!(cache.get(&key(3, 8)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidate_graph_drops_only_that_graph() {
        let cache = PlanCache::new(8);
        cache.insert(key(1, 8), entry(8));
        cache.insert(key(1, 16), entry(16));
        cache.insert(key(2, 8), entry(8));
        assert_eq!(cache.invalidate_graph(1), 2);
        assert!(cache.get(&key(1, 8)).is_none());
        assert!(cache.get(&key(1, 16)).is_none());
        assert!(cache.get(&key(2, 8)).is_some());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn explicit_and_auto_entries_do_not_alias() {
        let cache = PlanCache::new(8);
        let auto = key(1, 8);
        let explicit = PlanKey {
            explicit: Some(ParallelInfo::basic(Strategy::ThreadVertex)),
            ..auto
        };
        cache.insert(auto, entry(8));
        assert!(cache.get(&explicit).is_none());
    }

    #[test]
    fn scoped_lookup_misses_other_devices_and_fidelities() {
        let cache = PlanCache::new(8);
        cache.insert(key(1, 8), entry(8));
        let v100 = DeviceConfig::v100();
        assert!(cache.get_for(&key(1, 8), &v100, Fidelity::Auto).is_some());
        assert!(cache.get_for(&key(1, 8), &v100, Fidelity::Full).is_none());
        assert!(cache
            .get_for(&key(1, 8), &DeviceConfig::a100(), Fidelity::Auto)
            .is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn clear_empties_everything() {
        let cache = PlanCache::new(8);
        cache.insert(key(1, 8), entry(8));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(&key(1, 8)).is_none());
    }
}
