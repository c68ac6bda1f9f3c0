//! Process-wide sharing of step-invariant route plans.
//!
//! Within one run the engine builds the plan at guest step 2, replays it
//! there, and emits steps `3..=T` as level-shifted copies of the step
//! before — but every *run* still pays that first build, even when a
//! long-lived process (the `unet-serve` worker pool) simulates the same
//! guest/host pair thousands of times. A [`SharedPlanCache`] closes that
//! gap: it memoizes the built communication-phase skeleton across runs,
//! keyed by everything the plan can depend on and nothing it cannot.
//! Entries are shared as `Arc`s, so a hit copies no plan rounds.
//!
//! The key is a fingerprint of `(guest adjacency, host adjacency, embedding,
//! router name, route seed)`. Guest *states* and the step count are
//! deliberately excluded: the induced routing problem is a function of the
//! embedding and the guest's edges only (payloads are rebuilt every step),
//! which is exactly the invariant the engine's per-run plan already relies
//! on. The route seed is part of the key because a randomized router's
//! schedule is a function of its per-phase seed — two runs share a plan
//! only when they would have compiled identical plans anyway, keeping the
//! bit-for-bit guarantee of `Simulation::builder` intact.
//!
//! # Single-flight compilation
//!
//! Concurrent runs of the *same* workload used to race: each saw a cold
//! cache, each compiled the identical plan, and the first writer won. The
//! cache now hands out **build leases**: the first run to miss becomes the
//! leader (`Acquire::Lead`) and must publish the compiled plan (or drop
//! the lease on failure); every other run blocks on the slot and wakes to a
//! plain hit the moment the plan lands. A leader that is cancelled or errors
//! before publishing releases the lease on drop and a blocked follower is
//! promoted to the new leader, so a dying request can never wedge the
//! workload. Followers poll their own [`CancelToken`] while waiting, so
//! per-request deadlines hold even when the wait is on someone else's build.
//!
//! Sharing is observable only through counters: engine runs that pre-seed
//! from (or publish to) a shared cache emit `sim.cache.shared.hits` /
//! `sim.cache.shared.misses`, and the cache itself keeps process totals —
//! including [`singleflight_followers`](SharedPlanCache::singleflight_followers),
//! the number of runs that waited on another run's build lease — for the
//! server's `metrics` endpoint.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::cancel::CancelToken;
use crate::embedding::Embedding;
use crate::error::SimError;
use crate::simulate::CachedComm;
use unet_topology::Graph;

struct CacheState {
    entries: HashMap<u64, Arc<CachedComm>>,
    /// Keys currently held by a build lease (a leader is compiling them).
    building: HashSet<u64>,
}

/// A thread-safe route-plan cache shared across simulation runs.
///
/// Construct one per process (or per server), then hand it to any number of
/// concurrent [`Simulation::builder`](crate::Simulation::builder) runs via
/// [`shared_cache`](crate::SimulationBuilder::shared_cache). Entries are
/// never evicted, so the cache grows by one
/// [`RoutePlan`](unet_routing::plan::RoutePlan) skeleton per distinct
/// workload it sees. Under traffic that repeats a few workloads that is
/// small; under fresh-seed traffic every request adds a plan that is never
/// hit again (perfbench's `shard-cold`, which restarts its tier every 400
/// requests, peaks at about 32 MB). A byte-bounded, evicting cache is an
/// open item in ROADMAP.md.
pub struct SharedPlanCache {
    state: Mutex<CacheState>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    followers: AtomicU64,
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache {
            state: Mutex::new(CacheState { entries: HashMap::new(), building: HashSet::new() }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            followers: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for SharedPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPlanCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("singleflight_followers", &self.singleflight_followers())
            .finish()
    }
}

/// How often a blocked follower re-checks its cancel token while the leader
/// compiles. Plans compile in microseconds-to-milliseconds, so this bounds
/// cancellation latency without busy-waiting.
const FOLLOWER_POLL: Duration = Duration::from_millis(5);

/// What [`SharedPlanCache::acquire`] hands back: either the cached plan or
/// a build lease obligating the caller to compile and publish it.
pub(crate) enum Acquire<'a> {
    /// The plan was cached (possibly published by a leader the caller
    /// waited on); counted as a hit.
    Hit(Arc<CachedComm>),
    /// The caller is the build leader for this key; counted as a miss.
    /// Publish through the guard, or drop it to pass leadership on.
    Lead(LeadGuard<'a>),
}

/// A build lease for one cache key (see `Acquire::Lead`). Dropping the
/// guard without [`publish`](LeadGuard::publish)ing releases the lease and
/// wakes the waiting followers so one of them can take over.
pub(crate) struct LeadGuard<'a> {
    cache: &'a SharedPlanCache,
    key: u64,
    published: bool,
}

impl LeadGuard<'_> {
    /// Publish the freshly compiled plan and wake every follower. First
    /// writer wins — concurrent compilations of the same workload produce
    /// identical plans (the key covers every input), so keeping the
    /// incumbent is safe.
    pub(crate) fn publish(&mut self, plan: Arc<CachedComm>) {
        let mut st = self.cache.state.lock().expect("plan cache poisoned");
        st.entries.entry(self.key).or_insert(plan);
        st.building.remove(&self.key);
        self.published = true;
        drop(st);
        self.cache.ready.notify_all();
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            // Leader failed (error, cancellation, or a run that never
            // compiled a plan): release the lease so a follower can lead.
            let mut st = self.cache.state.lock().expect("plan cache poisoned");
            st.building.remove(&self.key);
            drop(st);
            self.cache.ready.notify_all();
        }
    }
}

impl SharedPlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct workload plans currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().expect("plan cache poisoned").entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Process-total lookups that found a plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Process-total lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Process-total runs that waited on another run's build lease.
    pub fn singleflight_followers(&self) -> u64 {
        self.followers.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache (`None` before the first
    /// lookup).
    pub fn hit_ratio(&self) -> Option<f64> {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }

    /// Look up `key`, entering the single-flight discipline on a miss: the
    /// first run in becomes the leader (gets a [`LeadGuard`] and a counted
    /// miss), later runs block until the plan is published and then count a
    /// hit plus a follower. Waiting runs poll `cancel` and bail with
    /// [`SimError::Cancelled`] when their own deadline trips first.
    pub(crate) fn acquire(
        &self,
        key: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Acquire<'_>, SimError> {
        let mut st = self.state.lock().expect("plan cache poisoned");
        let mut waited = false;
        loop {
            if let Some(entry) = st.entries.get(&key) {
                let entry = Arc::clone(entry);
                drop(st);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if waited {
                    self.followers.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(Acquire::Hit(entry));
            }
            if !st.building.contains(&key) {
                st.building.insert(key);
                drop(st);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(Acquire::Lead(LeadGuard { cache: self, key, published: false }));
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(SimError::Cancelled);
            }
            waited = true;
            let (guard, _) =
                self.ready.wait_timeout(st, FOLLOWER_POLL).expect("plan cache poisoned");
            st = guard;
        }
    }
}

/// FNV-1a over every input the compiled communication plan depends on.
pub(crate) fn plan_fingerprint(
    guest: &Graph,
    host: &Graph,
    embedding: &Embedding,
    router_name: &str,
    route_seed: u64,
) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: u64, v: u64) -> u64 {
        let mut h = h;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    fn eat_graph(mut h: u64, g: &Graph) -> u64 {
        h = eat(h, g.n() as u64);
        for u in 0..g.n() {
            let nb = g.neighbors(u as unet_topology::Node);
            h = eat(h, nb.len() as u64);
            for &v in nb {
                h = eat(h, v as u64);
            }
        }
        h
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h = eat_graph(h, guest);
    h = eat_graph(h, host);
    h = eat(h, embedding.m as u64);
    for &fu in &embedding.f {
        h = eat(h, fu as u64);
    }
    h = eat(h, router_name.len() as u64);
    for byte in router_name.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    eat(h, route_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet_topology::generators::{ring, torus};

    #[test]
    fn fingerprint_separates_every_input() {
        let guest = ring(8);
        let host = torus(2, 2);
        let emb = Embedding::block(8, 4);
        let base = plan_fingerprint(&guest, &host, &emb, "bfs", 7);
        assert_eq!(base, plan_fingerprint(&guest, &host, &emb, "bfs", 7), "deterministic");
        assert_ne!(base, plan_fingerprint(&ring(10), &host, &Embedding::block(10, 4), "bfs", 7));
        assert_ne!(base, plan_fingerprint(&guest, &torus(2, 3), &Embedding::block(8, 6), "bfs", 7));
        assert_ne!(base, plan_fingerprint(&guest, &host, &emb, "valiant", 7));
        assert_ne!(base, plan_fingerprint(&guest, &host, &emb, "bfs", 8));
    }

    #[test]
    fn counters_track_lookups() {
        let cache = SharedPlanCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.hit_ratio(), None);
        match cache.acquire(1, None).expect("no cancel") {
            Acquire::Lead(mut lead) => lead.publish(Arc::default()),
            Acquire::Hit(_) => panic!("cold cache cannot hit"),
        }
        assert!(matches!(cache.acquire(1, None), Ok(Acquire::Hit(_))));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.hit_ratio(), Some(0.5));
    }

    #[test]
    fn first_acquire_leads_then_followers_hit() {
        let cache = SharedPlanCache::new();
        let lead = match cache.acquire(9, None).expect("no cancel") {
            Acquire::Lead(g) => g,
            Acquire::Hit(_) => panic!("cold cache cannot hit"),
        };
        assert!(cache.is_empty(), "lease does not publish");
        let mut lead = lead;
        lead.publish(Arc::default());
        assert_eq!(cache.len(), 1);
        match cache.acquire(9, None).expect("no cancel") {
            Acquire::Hit(_) => {}
            Acquire::Lead(_) => panic!("published key cannot lead"),
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Never waited: not a single-flight follower.
        assert_eq!(cache.singleflight_followers(), 0);
    }

    #[test]
    fn dropped_lease_promotes_the_next_acquirer() {
        let cache = SharedPlanCache::new();
        let lead = match cache.acquire(5, None).expect("acquire") {
            Acquire::Lead(g) => g,
            Acquire::Hit(_) => panic!("cold cache cannot hit"),
        };
        drop(lead); // leader dies before publishing
        match cache.acquire(5, None).expect("acquire") {
            Acquire::Lead(_) => {}
            Acquire::Hit(_) => panic!("nothing was published"),
        }
        assert_eq!(cache.misses(), 2, "both acquisitions were misses");
    }

    #[test]
    fn follower_blocks_until_publish_and_is_counted() {
        let cache = Arc::new(SharedPlanCache::new());
        let mut lead = match cache.acquire(3, None).expect("acquire") {
            Acquire::Lead(g) => g,
            Acquire::Hit(_) => panic!("cold cache cannot hit"),
        };
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || matches!(cache.acquire(3, None), Ok(Acquire::Hit(_))))
        };
        // Give the follower time to block on the lease.
        std::thread::sleep(Duration::from_millis(20));
        lead.publish(Arc::default());
        assert!(follower.join().expect("follower thread"), "follower resolves to a hit");
        assert_eq!(cache.singleflight_followers(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn waiting_follower_honors_its_own_cancel_token() {
        use std::time::Duration;
        let cache = Arc::new(SharedPlanCache::new());
        let _lead = match cache.acquire(1, None).expect("acquire") {
            Acquire::Lead(g) => g,
            Acquire::Hit(_) => panic!("cold cache cannot hit"),
        };
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        let cancelled = matches!(cache.acquire(1, Some(&token)), Err(SimError::Cancelled));
        assert!(cancelled, "deadline should fire while waiting");
    }
}
