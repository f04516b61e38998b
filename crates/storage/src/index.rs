//! Per-column hash indexes that ride the copy-on-write storage design.
//!
//! An index maps a key — the tuple's values at a fixed column list — to
//! the tuples carrying that key. Indexes are cached *globally, keyed on
//! the relation's physical storage pointer* (the address of its
//! `Arc<BTreeSet<Tuple>>`): every CoW snapshot that still physically
//! shares a base relation ([`Relation::ptr_eq`]) resolves to the same
//! cached index for free, and any mutation — which un-shares the storage
//! via `Arc::make_mut` — naturally invalidates by changing the pointer.
//!
//! Each cache entry holds a [`Weak`] to the indexed storage, so a slot is
//! valid only while the original allocation is alive: a dead `Weak`, or an
//! address reused by a newer allocation, fails validation and the index is
//! rebuilt. Hit/miss/build counters are process-global atomics, surfaced
//! by the server's `STATS` verb and the E11 bench.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// A hash index over one relation: key = the tuple's values at `cols`.
///
/// Immutable once built; shared behind an `Arc` by every snapshot whose
/// relation still points at the indexed storage.
#[derive(Debug)]
pub struct ColumnIndex {
    cols: Vec<usize>,
    map: HashMap<Vec<Value>, Vec<Tuple>>,
}

impl ColumnIndex {
    /// Build an index over `rel` keyed on `cols`.
    ///
    /// Every column must be in range for the relation's arity (callers
    /// validate against the catalog; this is a hard invariant).
    pub fn build(rel: &Relation, cols: &[usize]) -> ColumnIndex {
        debug_assert!(cols.iter().all(|&c| c < rel.arity()));
        let mut map: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
        for t in rel.iter() {
            let key: Vec<Value> = cols.iter().map(|&c| t[c].clone()).collect();
            map.entry(key).or_default().push(t.clone());
        }
        ColumnIndex {
            cols: cols.to_vec(),
            map,
        }
    }

    /// The column list this index is keyed on.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The tuples whose key columns equal `key` (empty when absent).
    pub fn probe(&self, key: &[Value]) -> &[Tuple] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys in the indexed relation.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// Snapshot of the process-wide index counters (monotone since start).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexCounters {
    /// Probes answered by a cached index.
    pub hits: u64,
    /// Build requests that found no valid cached index.
    pub misses: u64,
    /// Indexes physically built (every build is also a miss).
    pub builds: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Read the process-wide index counters.
pub fn index_counters() -> IndexCounters {
    IndexCounters {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        builds: BUILDS.load(Ordering::Relaxed),
    }
}

struct CacheEntry {
    storage: Weak<BTreeSet<Tuple>>,
    index: Arc<ColumnIndex>,
}

type CacheMap = HashMap<(usize, Vec<usize>), CacheEntry>;

fn cache() -> &'static Mutex<CacheMap> {
    static CACHE: OnceLock<Mutex<CacheMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn cache_key(rel: &Relation, cols: &[usize]) -> (usize, Vec<usize>) {
    (Arc::as_ptr(rel.storage_arc()) as usize, cols.to_vec())
}

/// Drop entries whose indexed storage has died. Called opportunistically
/// on insert so churny workloads (many short-lived snapshots) cannot grow
/// the cache without bound.
fn sweep_if_bloated(map: &mut CacheMap) {
    const SWEEP_AT: usize = 256;
    if map.len() >= SWEEP_AT {
        map.retain(|_, e| e.storage.strong_count() > 0);
    }
}

/// The cached index over `rel` keyed on `cols`, if one was already built
/// for this exact physical storage. Never builds; a `None` is counted as
/// a miss by [`lookup_or_build_index`], not here.
fn lookup_index(rel: &Relation, cols: &[usize]) -> Option<Arc<ColumnIndex>> {
    let key = cache_key(rel, cols);
    let guard = cache().lock().unwrap();
    let entry = guard.get(&key)?;
    // Validate against address reuse: the entry only counts if the weak
    // still upgrades to *this* relation's storage.
    let alive = entry
        .storage
        .upgrade()
        .is_some_and(|s| Arc::ptr_eq(&s, rel.storage_arc()));
    if alive {
        HITS.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.index))
    } else {
        None
    }
}

/// The index over `rel` keyed on `cols`, building and caching it on first
/// use. A cached answer counts as a hit; building counts as one miss and
/// one build.
pub fn lookup_or_build_index(rel: &Relation, cols: &[usize]) -> Arc<ColumnIndex> {
    if let Some(idx) = lookup_index(rel, cols) {
        return idx;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let idx = Arc::new(ColumnIndex::build(rel, cols));
    BUILDS.fetch_add(1, Ordering::Relaxed);
    let key = cache_key(rel, cols);
    let mut guard = cache().lock().unwrap();
    sweep_if_bloated(&mut guard);
    guard.insert(
        key,
        CacheEntry {
            storage: Arc::downgrade(rel.storage_arc()),
            index: Arc::clone(&idx),
        },
    );
    idx
}

type DistinctMap = HashMap<(usize, usize), (Weak<BTreeSet<Tuple>>, usize)>;

fn distinct_memo() -> &'static Mutex<DistinctMap> {
    static MEMO: OnceLock<Mutex<DistinctMap>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of distinct values in column `col` of `rel`, memoized on the
/// relation's physical storage so repeated planning over an unmutated
/// relation never rescans. Does not touch the index cache or its counters
/// (planning probes must not read as query probes in `STATS`).
pub fn distinct_count(rel: &Relation, col: usize) -> usize {
    debug_assert!(col < rel.arity());
    let key = (Arc::as_ptr(rel.storage_arc()) as usize, col);
    {
        let guard = distinct_memo().lock().unwrap();
        if let Some((weak, n)) = guard.get(&key) {
            let alive = weak
                .upgrade()
                .is_some_and(|s| Arc::ptr_eq(&s, rel.storage_arc()));
            if alive {
                return *n;
            }
        }
    }
    let n = {
        let mut seen: BTreeSet<&Value> = BTreeSet::new();
        for t in rel.iter() {
            seen.insert(&t[col]);
        }
        seen.len()
    };
    let mut guard = distinct_memo().lock().unwrap();
    const SWEEP_AT: usize = 1024;
    if guard.len() >= SWEEP_AT {
        guard.retain(|_, (weak, _)| weak.strong_count() > 0);
    }
    guard.insert(key, (Arc::downgrade(rel.storage_arc()), n));
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::rel_of;
    use crate::tuple;

    fn r3() -> Relation {
        rel_of([
            [Value::int(1), Value::int(10)],
            [Value::int(2), Value::int(20)],
            [Value::int(2), Value::int(21)],
        ])
    }

    #[test]
    fn build_and_probe() {
        let rel = r3();
        let idx = ColumnIndex::build(&rel, &[0]);
        assert_eq!(idx.probe(&[Value::int(2)]).len(), 2);
        assert_eq!(idx.probe(&[Value::int(1)]).len(), 1);
        assert_eq!(idx.probe(&[Value::int(9)]).len(), 0);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.cols(), &[0]);
    }

    #[test]
    fn multi_column_keys() {
        let rel = r3();
        let idx = ColumnIndex::build(&rel, &[0, 1]);
        assert_eq!(idx.probe(&[Value::int(2), Value::int(20)]).len(), 1);
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn cache_shares_across_cow_clones() {
        let rel = r3();
        let snap = rel.clone();
        let a = lookup_or_build_index(&rel, &[0]);
        let b = lookup_or_build_index(&snap, &[0]);
        assert!(
            Arc::ptr_eq(&a, &b),
            "storage-sharing snapshots must share one index"
        );
    }

    #[test]
    fn mutation_invalidates_by_pointer_change() {
        let mut rel = r3();
        let _ = lookup_or_build_index(&rel, &[0]);
        rel.insert(tuple![7, 70]).unwrap();
        assert!(
            lookup_index(&rel, &[0]).is_none(),
            "un-shared storage must not see the stale index"
        );
        let fresh = lookup_or_build_index(&rel, &[0]);
        assert_eq!(fresh.probe(&[Value::int(7)]).len(), 1);
    }

    #[test]
    fn counters_are_monotone_and_builds_are_misses() {
        let rel = r3();
        let before = index_counters();
        let _ = lookup_or_build_index(&rel, &[1]);
        let _ = lookup_or_build_index(&rel, &[1]);
        let after = index_counters();
        assert!(after.builds > before.builds);
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn distinct_count_is_memoized_and_correct() {
        let rel = r3();
        assert_eq!(distinct_count(&rel, 0), 2);
        assert_eq!(distinct_count(&rel, 1), 3);
        // Memoized answer agrees with a recount.
        assert_eq!(distinct_count(&rel, 0), 2);
    }
}
