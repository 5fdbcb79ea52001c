//! Content-addressed result cache: identical scenario submissions
//! answer with the *same job* instead of recomputing.
//!
//! Why this is trivially correct: the serve crate's load-bearing
//! invariant (CI-enforced) is that a job's record stream is
//! byte-identical to the offline run of the same effective spec. Two
//! submissions with the same canonical spec therefore produce the same
//! byte stream — so the cache does not copy results anywhere, it just
//! hands the duplicate submission the original job's id. Streaming,
//! replay, status, and reports all fall out of the existing job
//! machinery, and **in-flight coalescing is free**: a duplicate POST
//! while the first run is still executing attaches to the same
//! [`LineBuffer`](crate::LineBuffer) and follows it live.
//!
//! The key is the canonical (Debug) form of the parsed spec *after*
//! submit-time overrides (`?seed=`, `?seeds=`, `?kernel=`, `?model=`,
//! `?rounds=`) are applied, with the raw-source `spec_hash` field
//! zeroed — so two texts that parse to the same scenario share an
//! entry, and an override changing anything observable changes the
//! key. The map is indexed by a 64-bit hash of those bytes (FNV-1a by
//! default), but every entry keeps the bytes themselves and a hit
//! compares them: two specs that collide on the hash never replay each
//! other's stream — the later one simply takes the slot. Executors
//! and kernels are stream-neutral, but they are deliberately part of
//! the key: a cached hit must also reproduce the *performance* shape
//! the caller asked to measure (`?nocache=1` exists for benchmarking
//! the compute path itself).
//!
//! Concurrency: one mutex guards the whole map, and the submit path
//! holds it across lookup → queue admission → insert (the
//! [`CacheGuard`] API), so two racing identical POSTs can never both
//! admit a job — one inserts, the other coalesces. Lock order is
//! cache → queue → jobs, everywhere. Failed and cancelled jobs are
//! evicted on retirement (a transient failure must not be replayed
//! forever), and history eviction drops cache entries so a cached id
//! can never dangle.

use crate::job::{Job, JobStatus};
use bbncg_obs::Counter;
use bbncg_scenario::{fnv1a, ScenarioSpec};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// A scenario's cache identity: the canonical (Debug) form of the spec
/// with all overrides applied, source-text hash excluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CacheKey {
    canon: Box<str>,
}

/// Cache key for a scenario spec with all overrides applied.
pub(crate) fn scenario_cache_key(spec: &ScenarioSpec) -> CacheKey {
    let mut canon = spec.clone();
    canon.spec_hash = 0;
    CacheKey {
        canon: format!("{canon:?}").into(),
    }
}

/// One cached job and the key bytes it was cached under.
struct Entry {
    canon: Box<str>,
    job: Arc<Job>,
}

#[derive(Default)]
struct CacheState {
    /// Hash slot → entry; at most one entry per slot.
    map: HashMap<u64, Entry>,
    /// LRU order: front = coldest. Touched entries move to the back.
    lru: VecDeque<u64>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

/// Point-in-time cache statistics for `/healthz`.
pub(crate) struct CacheStats {
    pub size: usize,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
}

/// The bounded LRU job cache. `capacity == 0` disables it entirely
/// (every lookup misses without counting, every insert is a no-op).
pub(crate) struct ResultCache {
    capacity: usize,
    /// Maps canonical key bytes to a slot.
    hasher: fn(&[u8]) -> u64,
    state: Mutex<CacheState>,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> ResultCache {
        ResultCache::with_hasher(capacity, fnv1a)
    }

    /// A cache whose slots come from `hasher` — how tests force
    /// collisions.
    pub(crate) fn with_hasher(capacity: usize, hasher: fn(&[u8]) -> u64) -> ResultCache {
        ResultCache {
            capacity,
            hasher,
            state: Mutex::new(CacheState::default()),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lock the cache for an atomic lookup-or-admit sequence. Acquire
    /// *before* the queue lock (the one ordering rule).
    pub(crate) fn lock(&self) -> CacheGuard<'_> {
        CacheGuard {
            capacity: self.capacity,
            hasher: self.hasher,
            st: self.state.lock().expect("result cache poisoned"),
        }
    }

    /// Drop `slot` if it still holds job `id` — the retirement path
    /// for failed/cancelled jobs, called without any other lock held.
    pub(crate) fn forget(&self, slot: u64, id: u64) {
        self.lock().forget(slot, id);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let st = self.state.lock().expect("result cache poisoned");
        CacheStats {
            size: st.map.len(),
            hits: st.hits,
            misses: st.misses,
            coalesced: st.coalesced,
            evictions: st.evictions,
        }
    }
}

/// Exclusive access to the cache across a submit critical section.
pub(crate) struct CacheGuard<'a> {
    capacity: usize,
    hasher: fn(&[u8]) -> u64,
    st: MutexGuard<'a, CacheState>,
}

impl CacheGuard<'_> {
    /// The slot `key` hashes to — what a job records so its
    /// retirement paths can [`forget`](Self::forget) it.
    pub(crate) fn slot(&self, key: &CacheKey) -> u64 {
        (self.hasher)(key.canon.as_bytes())
    }

    /// Look up `key`, counting the outcome. Live entries (queued,
    /// running, or completed) return their job; failed/cancelled
    /// entries are dropped and report as a miss, so a transient
    /// failure is recomputed rather than replayed. An entry cached
    /// under different key bytes that share the slot is a miss too.
    pub(crate) fn lookup(&mut self, key: &CacheKey) -> Option<Arc<Job>> {
        let slot = self.slot(key);
        let job = match self.st.map.get(&slot) {
            Some(entry) if entry.canon == key.canon => Some(Arc::clone(&entry.job)),
            _ => None,
        };
        match job {
            Some(job) => match job.status() {
                JobStatus::Failed(_) | JobStatus::Cancelled => {
                    self.forget(slot, job.id);
                    self.count_miss();
                    None
                }
                JobStatus::Completed => {
                    self.touch(slot);
                    self.st.hits += 1;
                    bbncg_obs::counter_inc(Counter::ServeCacheHits);
                    Some(job)
                }
                JobStatus::Queued | JobStatus::Running => {
                    self.touch(slot);
                    self.st.coalesced += 1;
                    bbncg_obs::counter_inc(Counter::ServeCacheCoalesced);
                    Some(job)
                }
            },
            None => {
                self.count_miss();
                None
            }
        }
    }

    fn count_miss(&mut self) {
        self.st.misses += 1;
        bbncg_obs::counter_inc(Counter::ServeCacheMisses);
    }

    fn touch(&mut self, slot: u64) {
        if let Some(pos) = self.st.lru.iter().position(|&k| k == slot) {
            self.st.lru.remove(pos);
            self.st.lru.push_back(slot);
        }
    }

    /// Insert a freshly admitted job under `key`, evicting the
    /// least-recently-used entries beyond capacity. A different key
    /// occupying the same slot is replaced. Returns the slot.
    pub(crate) fn insert(&mut self, key: &CacheKey, job: &Arc<Job>) -> u64 {
        let slot = self.slot(key);
        if self.capacity == 0 {
            return slot;
        }
        let entry = Entry {
            canon: key.canon.clone(),
            job: Arc::clone(job),
        };
        if self.st.map.insert(slot, entry).is_none() {
            self.st.lru.push_back(slot);
        } else {
            self.touch(slot);
        }
        while self.st.map.len() > self.capacity {
            let Some(cold) = self.st.lru.pop_front() else {
                break;
            };
            self.st.map.remove(&cold);
            self.st.evictions += 1;
            bbncg_obs::counter_inc(Counter::ServeCacheEvictions);
        }
        slot
    }

    /// Drop `slot` if it still holds job `id` (identity-checked so a
    /// replacement entry in the same slot survives a late forget of
    /// its predecessor).
    pub(crate) fn forget(&mut self, slot: u64, id: u64) {
        if self.st.map.get(&slot).is_some_and(|e| e.job.id == id) {
            self.st.map.remove(&slot);
            self.st.lru.retain(|&k| k != slot);
            self.st.evictions += 1;
            bbncg_obs::counter_inc(Counter::ServeCacheEvictions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn job(id: u64) -> Arc<Job> {
        let spec = bbncg_scenario::parse_spec(
            "[init]\nfamily = \"path\"\nparams = [4]\n[[phase]]\nkind = \"dynamics\"",
        )
        .unwrap();
        Job::new(
            id,
            JobKind::Scenario {
                spec: Box::new(spec),
            },
        )
    }

    #[test]
    fn key_ignores_source_text_but_sees_overrides() {
        let a = bbncg_scenario::parse_spec(
            "[scenario]\nname = \"k\"\nseed = 3\n[init]\nfamily = \"path\"\nparams = [4]\n[[phase]]\nkind = \"dynamics\"",
        )
        .unwrap();
        // Same scenario, different formatting/comments → same key.
        let b = bbncg_scenario::parse_spec(
            "# comment\n[scenario]\nname = \"k\"\nseed = 3\n\n[init]\nfamily = \"path\"\nparams = [4]\n[[phase]]\nkind = \"dynamics\"\n",
        )
        .unwrap();
        assert_eq!(scenario_cache_key(&a), scenario_cache_key(&b));
        // A seed override changes the key.
        let mut c = a.clone();
        c.seed = 4;
        assert_ne!(scenario_cache_key(&a), scenario_cache_key(&c));
        // So does a kernel override (perf shape is part of the ask).
        let mut d = a.clone();
        d.kernel = bbncg_core::CostKernel::Sparse;
        assert_ne!(scenario_cache_key(&a), scenario_cache_key(&d));
    }

    /// A cache key with the given canonical bytes.
    fn key(canon: &str) -> CacheKey {
        CacheKey {
            canon: canon.into(),
        }
    }

    fn completed(id: u64) -> Arc<Job> {
        let j = job(id);
        j.set_status(JobStatus::Running);
        j.set_status(JobStatus::Completed);
        j
    }

    #[test]
    fn lru_bound_holds_and_coldest_goes_first() {
        let cache = ResultCache::new(2);
        let (j1, j2, j3) = (completed(1), completed(2), job(3));
        {
            let mut g = cache.lock();
            g.insert(&key("10"), &j1);
            g.insert(&key("20"), &j2);
            // Touch 10 so 20 is the LRU victim.
            assert!(g.lookup(&key("10")).is_some());
            g.insert(&key("30"), &j3);
        }
        let stats = cache.stats();
        assert_eq!(stats.size, 2);
        assert_eq!(stats.evictions, 1);
        let mut g = cache.lock();
        assert!(g.lookup(&key("20")).is_none(), "LRU victim evicted");
        assert!(g.lookup(&key("10")).is_some(), "recently used survives");
    }

    #[test]
    fn dead_jobs_fall_out_on_lookup() {
        let cache = ResultCache::new(4);
        let j = job(9);
        let slot = cache.lock().insert(&key("7"), &j);
        j.set_status(JobStatus::Failed("boom".into()));
        assert!(cache.lock().lookup(&key("7")).is_none());
        assert_eq!(cache.stats().size, 0);
        // forget() is identity-checked: a successor entry survives a
        // stale forget of its predecessor.
        let j2 = job(10);
        cache.lock().insert(&key("7"), &j2);
        cache.forget(slot, 9);
        assert_eq!(cache.stats().size, 1);
        cache.forget(slot, 10);
        assert_eq!(cache.stats().size, 0);
    }

    #[test]
    fn colliding_keys_never_share_a_stream() {
        // Every key lands in one slot: a hit must still compare the
        // key bytes, so spec B never receives spec A's job.
        let cache = ResultCache::with_hasher(4, |_| 42);
        let (a, b) = (completed(1), completed(2));
        let mut g = cache.lock();
        assert_eq!(g.slot(&key("spec A")), g.slot(&key("spec B")));
        g.insert(&key("spec A"), &a);
        assert_eq!(g.lookup(&key("spec A")).map(|j| j.id), Some(1));
        assert!(g.lookup(&key("spec B")).is_none(), "collision served");
        // The later spec takes the slot; the earlier one now misses
        // instead of being served B's stream.
        g.insert(&key("spec B"), &b);
        assert_eq!(g.lookup(&key("spec B")).map(|j| j.id), Some(2));
        assert!(g.lookup(&key("spec A")).is_none(), "collision served");
        drop(g);
        assert_eq!(cache.stats().size, 1);
    }
}
