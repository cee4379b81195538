//! The NIC group table: fixed-length chaining over 64-byte buckets with
//! size-capped DRAM overflow (§6.2 "group table implementation").
//!
//! The 512-bit data bus loads a whole bucket in one access, so a bucket
//! holds `width` entries and a lookup scans them in registers. Here too a
//! bucket is `width` consecutive slots of one array, filled in order.
//! Entries that do not fit their bucket spill into external DRAM — slower,
//! but harmless while the collision rate stays low, which the paper (and our
//! tests) verify.
//!
//! The DRAM spill is **bounded**: a [`TableBudget`] caps the number of
//! spilled entries under the memory the admission controller granted, and a
//! pluggable [`EvictionPolicy`] decides what happens at the cap. Evicted
//! groups are returned to the caller as typed `(key, value)` records — the
//! engine finalizes them into explicit `Evicted` feature vectors instead of
//! silently growing (the pre-budget behavior) or silently dropping state.

use std::collections::VecDeque;

use superfe_net::hash::bucket_of;
use superfe_net::{FxHashMap, GroupKey};

/// Default DRAM overflow cap (entries). Large enough that the bundled
/// test workloads (≤ 60k packets) never evict — bounded-state defaults must
/// keep the keystone differentials bitwise — while still making adversarial
/// key cardinality a hard bound instead of an OOM.
pub const DEFAULT_DRAM_CAP: usize = 1 << 22;

/// What to do when a new group arrives and the DRAM overflow is at its cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Refuse the new group (its updates are dropped and counted). The
    /// resident working set is preserved — right when early flows matter
    /// more than late ones (e.g. under a flood of spoofed sources).
    DropNew,
    /// Evict the oldest spilled group (insertion order — an LRU
    /// approximation without per-access bookkeeping) to admit the new one.
    EvictOldest,
    /// Evict a uniformly random spilled group (seeded, deterministic) —
    /// the hardware-cheap policy: no order maintenance at all.
    RandomWay {
        /// Seed of the deterministic victim sequence.
        seed: u64,
    },
    /// True access-ordered LRU: every DRAM hit refreshes the group's
    /// recency, and the least-recently-*used* (not least-recently-inserted)
    /// group is evicted. Costs a per-access tick plus a lazily compacted
    /// recency queue — the upper bound `EvictOldest` approximates.
    Lru,
}

/// Memory budget of one group table's DRAM overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableBudget {
    /// Maximum spilled entries resident at once.
    pub max_dram_entries: usize,
    /// Policy applied when a new group arrives at the cap.
    pub policy: EvictionPolicy,
}

impl Default for TableBudget {
    fn default() -> Self {
        TableBudget {
            max_dram_entries: DEFAULT_DRAM_CAP,
            policy: EvictionPolicy::DropNew,
        }
    }
}

impl TableBudget {
    /// A budget capping DRAM at `entries` with the given policy.
    pub fn capped(entries: usize, policy: EvictionPolicy) -> Self {
        TableBudget {
            max_dram_entries: entries.max(1),
            policy,
        }
    }

    fn save_state(&self, w: &mut superfe_net::snap::StateWriter) {
        w.put_u64(self.max_dram_entries as u64);
        let (tag, seed) = match self.policy {
            EvictionPolicy::DropNew => (0, 0),
            EvictionPolicy::EvictOldest => (1, 0),
            EvictionPolicy::RandomWay { seed } => (2, seed),
            EvictionPolicy::Lru => (3, 0),
        };
        w.put_u8(tag);
        w.put_u64(seed);
    }

    fn load_state(r: &mut superfe_net::snap::StateReader<'_>) -> Option<Self> {
        let max_dram_entries = usize::try_from(r.get_u64()?).ok()?;
        let (tag, seed) = (r.get_u8()?, r.get_u64()?);
        let policy = match tag {
            0 => EvictionPolicy::DropNew,
            1 => EvictionPolicy::EvictOldest,
            2 => EvictionPolicy::RandomWay { seed },
            3 => EvictionPolicy::Lru,
            _ => return None,
        };
        Some(TableBudget {
            max_dram_entries,
            policy,
        })
    }
}

/// Lookup/insert statistics, used to validate the low-collision-rate claim
/// and to observe budget pressure.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups satisfied from the bucket array.
    pub fast_hits: u64,
    /// Lookups that had to touch the DRAM overflow.
    pub dram_lookups: u64,
    /// Entries currently spilled to DRAM.
    pub dram_entries: usize,
    /// New groups refused at the cap ([`EvictionPolicy::DropNew`]); counted
    /// once per refused update.
    pub overflow_drops: u64,
    /// Resident groups evicted at the cap (the other policies).
    pub overflow_evictions: u64,
}

impl TableStats {
    /// Fraction of lookups that touched DRAM.
    pub fn collision_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.dram_lookups as f64 / self.lookups as f64
        }
    }

    /// Folds another table's counters into this one.
    pub fn absorb(&mut self, other: &TableStats) {
        self.lookups += other.lookups;
        self.fast_hits += other.fast_hits;
        self.dram_lookups += other.dram_lookups;
        self.dram_entries += other.dram_entries;
        self.overflow_drops += other.overflow_drops;
        self.overflow_evictions += other.overflow_evictions;
    }
}

/// A hash table with fixed-length chains and size-capped DRAM overflow.
#[derive(Debug)]
pub struct GroupTable<V> {
    /// The bucket array, `buckets × width` slots in one allocation: bucket
    /// `b` is the `width` slots from `b × width`, filled in order, so its
    /// chain is the slots before its first empty one.
    slots: Vec<Option<(GroupKey, V)>>,
    buckets: usize,
    /// Entries across all of `slots`, so [`GroupTable::len`] — polled live
    /// by admission feedback — does not count 64k slots per call.
    in_buckets: usize,
    width: usize,
    /// DRAM spill values. Keyed with the vendored Fx hasher: the std
    /// SipHash default is DoS-hardened but several times slower, and the
    /// keys reaching this map are already CRC-dispersed by the switch.
    overflow: FxHashMap<GroupKey, V>,
    /// Order of the spilled keys — the iteration order (so output is
    /// deterministic and serializable) and the eviction order for
    /// [`EvictionPolicy::EvictOldest`] and [`EvictionPolicy::Lru`]. Each
    /// entry carries the tick it was pushed at; under `Lru` a key is
    /// re-pushed on every DRAM access and only the entry matching
    /// `ticks[key]` is live (lazy invalidation — no mid-queue removal).
    /// Under every other policy entries are unique and always live.
    order: VecDeque<(GroupKey, u64)>,
    /// Latest access tick per resident spilled key (`Lru` only).
    ticks: FxHashMap<GroupKey, u64>,
    /// Monotonic access counter feeding `order`/`ticks`.
    clock: u64,
    budget: TableBudget,
    /// splitmix64 state for [`EvictionPolicy::RandomWay`] victims.
    rng: u64,
    stats: TableStats,
}

impl<V> GroupTable<V> {
    /// Creates a table with `buckets` buckets of `width` entries each and
    /// the default (effectively unbounded for test workloads) budget.
    ///
    /// Returns `None` when either dimension is zero.
    pub fn new(buckets: usize, width: usize) -> Option<Self> {
        Self::with_budget(buckets, width, TableBudget::default())
    }

    /// Creates a table with an explicit DRAM overflow budget.
    pub fn with_budget(buckets: usize, width: usize, budget: TableBudget) -> Option<Self> {
        if buckets == 0 || width == 0 {
            return None;
        }
        let rng = match budget.policy {
            EvictionPolicy::RandomWay { seed } => seed,
            _ => 0,
        };
        Some(GroupTable {
            slots: std::iter::repeat_with(|| None)
                .take(buckets.checked_mul(width)?)
                .collect(),
            buckets,
            in_buckets: 0,
            width,
            overflow: FxHashMap::default(),
            order: VecDeque::new(),
            ticks: FxHashMap::default(),
            clock: 0,
            budget,
            rng,
            stats: TableStats::default(),
        })
    }

    /// The table's DRAM budget.
    pub fn budget(&self) -> TableBudget {
        self.budget
    }

    /// A copy of the table whose values are `clone_v` of this one's.
    pub fn clone_with(&self, mut clone_v: impl FnMut(&V) -> V) -> Self {
        let slots = (self.slots.iter())
            .map(|s| s.as_ref().map(|(k, v)| (*k, clone_v(v))))
            .collect();
        let overflow = (self.overflow.iter())
            .map(|(k, v)| (*k, clone_v(v)))
            .collect();
        GroupTable {
            slots,
            overflow,
            order: self.order.clone(),
            ticks: self.ticks.clone(),
            ..*self
        }
    }

    /// Number of resident groups (bucket array + overflow).
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.in_buckets,
            self.slots.iter().filter(|s| s.is_some()).count()
        );
        self.in_buckets + self.overflow.len()
    }

    /// Bucket `b`'s slots.
    fn bucket(&self, b: usize) -> &[Option<(GroupKey, V)>] {
        &self.slots[b * self.width..][..self.width]
    }

    /// Bucket `b`'s chain: its filled slots, in insertion order.
    fn chain(&self, b: usize) -> impl Iterator<Item = &(GroupKey, V)> {
        self.bucket(b).iter().map_while(Option::as_ref)
    }

    /// Whether the table holds no groups.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup/insert statistics.
    pub fn stats(&self) -> TableStats {
        TableStats {
            dram_entries: self.overflow.len(),
            ..self.stats
        }
    }

    /// Returns the group's value, inserting `default()` on first sight.
    ///
    /// `hash` is the (possibly switch-provided) 32-bit key hash. A group
    /// evicted to make room is pushed onto `evicted` for the caller to
    /// finalize. Returns `None` when the budget refused the new group
    /// ([`EvictionPolicy::DropNew`] at the cap) — the caller drops the
    /// update and the refusal is counted in [`TableStats::overflow_drops`].
    pub fn get_or_insert_with(
        &mut self,
        key: GroupKey,
        hash: u32,
        default: impl FnOnce() -> V,
        evicted: &mut Vec<(GroupKey, V)>,
    ) -> Option<&mut V> {
        self.stats.lookups += 1;
        let b = bucket_of(hash, self.buckets);
        // Fixed-length chain scan (one bus access on hardware): the key's
        // slot, else the first empty one, which ends the chain.
        let found = (self.bucket(b).iter())
            .position(|s| s.as_ref().is_none_or(|(k, _)| *k == key))
            .map(|i| b * self.width + i);
        match found {
            Some(at) if self.slots[at].is_some() => {
                self.stats.fast_hits += 1;
                return self.slots[at].as_mut().map(|(_, v)| v);
            }
            Some(at) if !self.overflow.contains_key(&key) => {
                self.stats.fast_hits += 1;
                self.in_buckets += 1;
                return Some(&mut self.slots[at].insert((key, default())).1);
            }
            _ => {}
        }
        // Collision: go to DRAM.
        self.stats.dram_lookups += 1;
        if self.overflow.contains_key(&key) {
            self.note_access(key);
        } else {
            if self.overflow.len() >= self.budget.max_dram_entries && !self.make_room(evicted) {
                self.stats.overflow_drops += 1;
                return None;
            }
            self.note_insert(key);
            self.overflow.insert(key, default());
        }
        self.overflow.get_mut(&key)
    }

    /// Records a first-sight spill: one live `order` entry for the key.
    fn note_insert(&mut self, key: GroupKey) {
        self.clock += 1;
        if self.budget.policy == EvictionPolicy::Lru {
            self.ticks.insert(key, self.clock);
        }
        self.order.push_back((key, self.clock));
    }

    /// Refreshes a spilled key's recency on a DRAM hit (`Lru` only): the
    /// old `order` entry goes stale and a fresh one is appended. The queue
    /// is compacted once stale entries dominate, keeping the amortized cost
    /// O(1) per access.
    fn note_access(&mut self, key: GroupKey) {
        if self.budget.policy != EvictionPolicy::Lru {
            return;
        }
        self.clock += 1;
        self.ticks.insert(key, self.clock);
        self.order.push_back((key, self.clock));
        if self.order.len() > 2 * self.overflow.len() + 64 {
            let ticks = &self.ticks;
            self.order.retain(|(k, t)| ticks.get(k) == Some(t));
        }
    }

    /// Whether an `order` entry is live (non-`Lru` entries always are).
    fn is_fresh(&self, key: &GroupKey, tick: u64) -> bool {
        self.budget.policy != EvictionPolicy::Lru || self.ticks.get(key) == Some(&tick)
    }

    /// Applies the eviction policy once; returns `false` when the policy
    /// refuses to evict (`DropNew`).
    fn make_room(&mut self, evicted: &mut Vec<(GroupKey, V)>) -> bool {
        let victim = match self.budget.policy {
            EvictionPolicy::DropNew => return false,
            EvictionPolicy::EvictOldest => self.order.pop_front().map(|(k, _)| k),
            EvictionPolicy::RandomWay { .. } => {
                // splitmix64 step — deterministic victim sequence per seed.
                self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let idx = (z % self.order.len().max(1) as u64) as usize;
                self.order.swap_remove_back(idx).map(|(k, _)| k)
            }
            EvictionPolicy::Lru => {
                // Pop stale entries until the front is live: the live entry
                // with the smallest tick belongs to the key whose *latest*
                // access is oldest — the true LRU victim.
                let mut victim = None;
                while let Some((k, t)) = self.order.pop_front() {
                    if self.ticks.get(&k) == Some(&t) {
                        victim = Some(k);
                        break;
                    }
                }
                if let Some(k) = victim {
                    self.ticks.remove(&k);
                }
                victim
            }
        };
        let Some(k) = victim else { return false };
        if let Some(v) = self.overflow.remove(&k) {
            self.stats.overflow_evictions += 1;
            evicted.push((k, v));
        }
        true
    }

    /// Iterates all `(key, value)` pairs: bucket array first, then DRAM in
    /// insertion order (recency order under [`EvictionPolicy::Lru`]) —
    /// deterministic, matching the serialized layout.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &V)> {
        (self.slots.iter().flatten())
            .map(|(k, v)| (k, v))
            .chain(self.order.iter().filter_map(|(k, t)| {
                if !self.is_fresh(k, *t) {
                    return None;
                }
                let v = self.overflow.get(k).expect("live order entry is resident");
                Some((k, v))
            }))
    }

    /// Removes every group, keeping the structure and budget.
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
        self.in_buckets = 0;
        self.overflow.clear();
        self.order.clear();
        self.ticks.clear();
    }

    /// Serializes the table's budget and dynamic contents (chain and spill
    /// order preserved) with `save_v` writing each value. The budget
    /// travels with the state so a restored table stays as bounded as the
    /// one that was saved.
    pub fn save_state(
        &self,
        w: &mut superfe_net::snap::StateWriter,
        mut save_v: impl FnMut(&V, &mut superfe_net::snap::StateWriter),
    ) {
        w.put_u32(self.buckets as u32);
        w.put_u32(self.width as u32);
        self.budget.save_state(w);
        for b in 0..self.buckets {
            w.put_u16(self.chain(b).count() as u16);
            for (k, v) in self.chain(b) {
                k.save_state(w);
                save_v(v, w);
            }
        }
        w.put_u32(self.overflow.len() as u32);
        for (k, t) in &self.order {
            if !self.is_fresh(k, *t) {
                continue;
            }
            k.save_state(w);
            save_v(&self.overflow[k], w);
        }
        w.put_u64(self.rng);
        let s = self.stats;
        for c in [
            s.lookups,
            s.fast_hits,
            s.dram_lookups,
            s.overflow_drops,
            s.overflow_evictions,
        ] {
            w.put_u64(c);
        }
    }

    /// Restores budget and dynamic contents saved by
    /// [`GroupTable::save_state`] into this (freshly constructed,
    /// same-geometry) table. Returns `None` on a geometry mismatch, on
    /// truncated input, and on contents no table could have saved: a chain
    /// longer than `width`, a spill larger than the budget, or a key stored
    /// twice — any of which would later surface as a duplicate group or a
    /// lookup costing more than the one bus access the chain models.
    pub fn load_state(
        &mut self,
        r: &mut superfe_net::snap::StateReader<'_>,
        mut load_v: impl FnMut(&mut superfe_net::snap::StateReader<'_>) -> Option<V>,
    ) -> Option<()> {
        if r.get_u32()? as usize != self.buckets || r.get_u32()? as usize != self.width {
            return None;
        }
        // Before the entries: the policy decides how re-inserts are ticked.
        self.budget = TableBudget::load_state(r)?;
        self.clear();
        for b in 0..self.buckets {
            let n = r.get_u16()? as usize;
            if n > self.width {
                return None;
            }
            for i in 0..n {
                let k = GroupKey::load_state(r)?;
                if self.chain(b).any(|(seen, _)| *seen == k) {
                    return None;
                }
                let v = load_v(r)?;
                self.slots[b * self.width + i] = Some((k, v));
                self.in_buckets += 1;
            }
        }
        let spilled = r.get_u32()? as usize;
        if spilled > self.budget.max_dram_entries {
            return None;
        }
        for _ in 0..spilled {
            let k = GroupKey::load_state(r)?;
            let v = load_v(r)?;
            // Spill entries were saved in live order, so re-ticking them in
            // sequence reproduces the relative recency exactly.
            self.note_insert(k);
            if self.overflow.insert(k, v).is_some() {
                return None;
            }
        }
        // A spilled key never also sits in a chain (`get_or_insert_with`
        // checks the spill before it fills a chain slot).
        if !self.overflow.is_empty()
            && (self.slots.iter().flatten()).any(|(k, _)| self.overflow.contains_key(k))
        {
            return None;
        }
        self.rng = r.get_u64()?;
        self.stats.lookups = r.get_u64()?;
        self.stats.fast_hits = r.get_u64()?;
        self.stats.dram_lookups = r.get_u64()?;
        self.stats.overflow_drops = r.get_u64()?;
        self.stats.overflow_evictions = r.get_u64()?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> GroupKey {
        GroupKey::Host(i)
    }

    fn put(t: &mut GroupTable<u32>, i: u32, h: u32) -> Option<u32> {
        let mut ev = Vec::new();
        t.get_or_insert_with(key(i), h, || i, &mut ev).copied()
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(GroupTable::<u32>::new(0, 4).is_none());
        assert!(GroupTable::<u32>::new(4, 0).is_none());
    }

    #[test]
    fn insert_and_update() {
        let mut t = GroupTable::<u64>::new(16, 4).unwrap();
        let mut ev = Vec::new();
        *t.get_or_insert_with(key(1), 1, || 0, &mut ev).unwrap() += 5;
        *t.get_or_insert_with(key(1), 1, || 0, &mut ev).unwrap() += 5;
        assert_eq!(*t.get_or_insert_with(key(1), 1, || 0, &mut ev).unwrap(), 10);
        assert_eq!(t.len(), 1);
        assert!(ev.is_empty());
    }

    #[test]
    fn bucket_overflow_spills_to_dram() {
        let mut t = GroupTable::<u32>::new(1, 2).unwrap();
        // All keys land in bucket 0 (1 bucket); width 2 -> 3rd key spills.
        for i in 0..3 {
            put(&mut t, i, 0);
        }
        let s = t.stats();
        assert_eq!(t.len(), 3);
        assert_eq!(s.dram_entries, 1);
        assert!(s.dram_lookups >= 1);
        // The spilled key stays reachable and distinct.
        assert_eq!(put(&mut t, 2, 0), Some(2));
    }

    #[test]
    fn spilled_key_never_duplicates_into_bucket() {
        let mut t = GroupTable::<u32>::new(1, 1).unwrap();
        put(&mut t, 1, 0);
        put(&mut t, 2, 0); // spills
        assert_eq!(t.len(), 2);
        put(&mut t, 2, 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn collision_rate_low_when_sized_correctly() {
        let mut t = GroupTable::<u32>::new(1024, 4).unwrap();
        for i in 0..1000u32 {
            let k = key(i);
            put(&mut t, i, k.hash32());
        }
        assert!(
            t.stats().collision_rate() < 0.05,
            "{}",
            t.stats().collision_rate()
        );
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut t = GroupTable::<u32>::new(2, 1).unwrap();
        for i in 0..6 {
            put(&mut t, i, i);
        }
        let mut seen: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn iter_spill_order_is_insertion_order() {
        let mut t = GroupTable::<u32>::new(1, 1).unwrap();
        for i in 0..5 {
            put(&mut t, i, 0);
        }
        // Key 0 sits in the bucket; 1..5 spilled in order.
        let seen: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clear_empties_table() {
        let mut t = GroupTable::<u32>::new(4, 1).unwrap();
        for i in 0..8 {
            put(&mut t, i, i);
        }
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn drop_new_refuses_at_cap() {
        let budget = TableBudget::capped(2, EvictionPolicy::DropNew);
        let mut t = GroupTable::<u32>::with_budget(1, 1, budget).unwrap();
        let mut ev = Vec::new();
        for i in 0..5 {
            t.get_or_insert_with(key(i), 0, || i, &mut ev);
        }
        // Bucket holds key 0; keys 1, 2 spilled; 3, 4 refused.
        assert_eq!(t.len(), 3);
        assert!(ev.is_empty());
        let s = t.stats();
        assert_eq!(s.overflow_drops, 2);
        assert_eq!(s.overflow_evictions, 0);
        // A refused key returns None; resident keys still resolve.
        assert!(t.get_or_insert_with(key(4), 0, || 4, &mut ev).is_none());
        assert_eq!(put(&mut t, 1, 0), Some(1));
    }

    #[test]
    fn evict_oldest_rotates_fifo() {
        let budget = TableBudget::capped(2, EvictionPolicy::EvictOldest);
        let mut t = GroupTable::<u32>::with_budget(1, 1, budget).unwrap();
        let mut ev = Vec::new();
        for i in 0..5 {
            assert!(t.get_or_insert_with(key(i), 0, || i, &mut ev).is_some());
        }
        // Spill order: 1,2 -> evict 1 for 3 -> evict 2 for 4.
        assert_eq!(t.len(), 3);
        let evicted: Vec<u32> = ev.iter().map(|(_, v)| *v).collect();
        assert_eq!(evicted, vec![1, 2]);
        assert_eq!(t.stats().overflow_evictions, 2);
        // An evicted key re-inserts as a fresh group (evicting in turn).
        let before = ev.len();
        assert!(t.get_or_insert_with(key(1), 0, || 99, &mut ev).is_some());
        assert_eq!(ev.len(), before + 1);
    }

    #[test]
    fn lru_evicts_by_access_not_insertion() {
        let budget = TableBudget::capped(2, EvictionPolicy::Lru);
        let mut t = GroupTable::<u32>::with_budget(1, 1, budget).unwrap();
        let mut ev = Vec::new();
        // key 0 fills the single bucket; 1 and 2 spill to DRAM (cap 2).
        for i in 0..3 {
            assert!(t.get_or_insert_with(key(i), 0, || i, &mut ev).is_some());
        }
        // Touch 1 (the older spill): under EvictOldest, 1 would be the
        // next victim; under true LRU it is now the most recent.
        assert!(t.get_or_insert_with(key(1), 0, || 99, &mut ev).is_some());
        assert!(t.get_or_insert_with(key(3), 0, || 3, &mut ev).is_some());
        let evicted: Vec<u32> = ev.iter().map(|(_, v)| *v).collect();
        assert_eq!(evicted, vec![2], "LRU must evict the untouched key 2");
        // Iteration visits each resident spill exactly once, in recency
        // order (1 was touched after 3's insertion replaced 2... 1 then 3).
        let spilled: Vec<u32> = t
            .iter()
            .filter(|(k, _)| **k != key(0))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(spilled, vec![1, 3]);
    }

    #[test]
    fn lru_recency_queue_compacts_and_stays_exact() {
        let budget = TableBudget::capped(4, EvictionPolicy::Lru);
        let mut t = GroupTable::<u32>::with_budget(1, 1, budget).unwrap();
        let mut ev = Vec::new();
        for i in 0..5 {
            assert!(t.get_or_insert_with(key(i), 0, || i, &mut ev).is_some());
        }
        // Hammer one spilled key far past the compaction threshold.
        for _ in 0..10_000 {
            assert!(t.get_or_insert_with(key(2), 0, || 0, &mut ev).is_some());
        }
        assert!(
            t.order.len() <= 2 * t.overflow.len() + 65,
            "queue unbounded"
        );
        // Evictions still pick true LRU victims in order: 1, 3, 4, then 2.
        for i in 10..14 {
            assert!(t.get_or_insert_with(key(i), 0, || i, &mut ev).is_some());
        }
        let evicted: Vec<u32> = ev.iter().map(|(_, v)| *v).collect();
        assert_eq!(evicted, vec![1, 3, 4, 2]);
    }

    #[test]
    fn lru_state_survives_snapshot_roundtrip() {
        let budget = TableBudget::capped(3, EvictionPolicy::Lru);
        let mut t = GroupTable::<u32>::with_budget(1, 1, budget).unwrap();
        let mut ev = Vec::new();
        for i in 0..4 {
            t.get_or_insert_with(key(i), 0, || i, &mut ev).unwrap();
        }
        t.get_or_insert_with(key(1), 0, || 0, &mut ev).unwrap(); // refresh 1
        let mut w = superfe_net::snap::StateWriter::new();
        t.save_state(&mut w, |v, w| w.put_u32(*v));
        let bytes = w.into_bytes();
        let mut u = GroupTable::<u32>::with_budget(1, 1, budget).unwrap();
        let mut r = superfe_net::snap::StateReader::new(&bytes);
        #[allow(clippy::redundant_closure_for_method_calls)]
        u.load_state(&mut r, |r| r.get_u32()).unwrap();
        // Same residents, and the restored recency keeps 2 as the victim.
        let mut ev_t = Vec::new();
        let mut ev_u = Vec::new();
        t.get_or_insert_with(key(9), 0, || 9, &mut ev_t).unwrap();
        u.get_or_insert_with(key(9), 0, || 9, &mut ev_u).unwrap();
        let vt: Vec<u32> = ev_t.iter().map(|(_, v)| *v).collect();
        let vu: Vec<u32> = ev_u.iter().map(|(_, v)| *v).collect();
        assert_eq!(vt, vu, "restored table must evict the same victim");
        assert_eq!(vt, vec![2]);
    }

    #[test]
    fn random_way_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let budget = TableBudget::capped(4, EvictionPolicy::RandomWay { seed });
            let mut t = GroupTable::<u32>::with_budget(1, 1, budget).unwrap();
            let mut ev = Vec::new();
            for i in 0..64 {
                t.get_or_insert_with(key(i), 0, || i, &mut ev);
            }
            assert_eq!(t.stats().dram_entries, 4);
            ev.into_iter().map(|(_, v)| v).collect::<Vec<u32>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        assert_eq!(run(1).len(), 64 - 1 - 4);
    }

    #[test]
    fn save_load_round_trips_contents_and_order() {
        let budget = TableBudget::capped(8, EvictionPolicy::EvictOldest);
        let mut t = GroupTable::<u32>::with_budget(4, 2, budget).unwrap();
        let mut ev = Vec::new();
        for i in 0..20 {
            t.get_or_insert_with(key(i), i % 4, || i * 3, &mut ev);
        }
        let mut w = superfe_net::snap::StateWriter::new();
        t.save_state(&mut w, |v, w| w.put_u32(*v));
        let bytes = w.into_bytes();

        // The budget is part of the state: a default-budget table adopts it.
        let mut u = GroupTable::<u32>::new(4, 2).unwrap();
        let mut r = superfe_net::snap::StateReader::new(&bytes);
        #[allow(clippy::redundant_closure_for_method_calls)]
        u.load_state(&mut r, |r| r.get_u32()).unwrap();
        assert!(r.is_empty());
        assert_eq!(u.budget(), budget);
        let a: Vec<(GroupKey, u32)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(GroupKey, u32)> = u.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
        assert_eq!(t.stats().dram_lookups, u.stats().dram_lookups);
    }

    /// A table snapshot written field by field, so a test can write one no
    /// table would: `buckets` are the chains, `spill` the DRAM entries.
    fn snapshot(width: u32, budget: TableBudget, buckets: &[&[u32]], spill: &[u32]) -> Vec<u8> {
        let mut w = superfe_net::snap::StateWriter::new();
        w.put_u32(buckets.len() as u32);
        w.put_u32(width);
        budget.save_state(&mut w);
        for chain in buckets {
            w.put_u16(chain.len() as u16);
            for i in *chain {
                key(*i).save_state(&mut w);
                w.put_u32(*i);
            }
        }
        w.put_u32(spill.len() as u32);
        for i in spill {
            key(*i).save_state(&mut w);
            w.put_u32(*i);
        }
        for _ in 0..6 {
            w.put_u64(0); // rng + five counters
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8], buckets: usize, width: usize) -> Option<GroupTable<u32>> {
        let mut t = GroupTable::<u32>::new(buckets, width).unwrap();
        let mut r = superfe_net::snap::StateReader::new(bytes);
        #[allow(clippy::redundant_closure_for_method_calls)]
        t.load_state(&mut r, |r| r.get_u32())?;
        r.is_empty().then_some(t)
    }

    #[test]
    fn load_refuses_contents_no_table_could_have_saved() {
        let budget = TableBudget::capped(2, EvictionPolicy::EvictOldest);
        // The well-formed neighbour of every corrupt case below loads, and
        // saves back to the bytes it was loaded from.
        let clean = snapshot(2, budget, &[&[1, 2], &[3]], &[4, 5]);
        let t = load(&clean, 2, 2).expect("clean snapshot loads");
        assert_eq!(t.len(), 5);
        let mut w = superfe_net::snap::StateWriter::new();
        t.save_state(&mut w, |v, w| w.put_u32(*v));
        assert_eq!(
            w.into_bytes(),
            clean,
            "save -> load -> save is the identity"
        );

        let corrupt = [
            (
                "chain longer than width",
                snapshot(2, budget, &[&[1, 2, 6], &[3]], &[4, 5]),
            ),
            (
                "spill larger than the budget",
                snapshot(2, budget, &[&[1, 2], &[3]], &[4, 5, 6]),
            ),
            (
                "key twice in one chain",
                snapshot(2, budget, &[&[1, 1], &[3]], &[4, 5]),
            ),
            (
                "key in a chain and in the spill",
                snapshot(2, budget, &[&[1, 2], &[3]], &[4, 3]),
            ),
            (
                "key twice in the spill",
                snapshot(2, budget, &[&[1, 2], &[3]], &[4, 4]),
            ),
        ];
        for (what, bytes) in &corrupt {
            assert!(load(bytes, 2, 2).is_none(), "{what} must be refused");
        }
    }

    #[test]
    fn len_counter_tracks_insert_evict_clear_and_load() {
        let budget = TableBudget::capped(3, EvictionPolicy::EvictOldest);
        let mut t = GroupTable::<u32>::with_budget(4, 2, budget).unwrap();
        let mut ev = Vec::new();
        let count = |t: &GroupTable<u32>| t.iter().count();
        for i in 0..40 {
            t.get_or_insert_with(key(i), i % 4, || i, &mut ev);
            assert_eq!(t.len(), count(&t));
        }
        assert_eq!(t.len(), 4 * 2 + 3);
        assert!(!ev.is_empty());
        let mut w = superfe_net::snap::StateWriter::new();
        t.save_state(&mut w, |v, w| w.put_u32(*v));
        let u = load(&w.into_bytes(), 4, 2).unwrap();
        assert_eq!(u.len(), t.len());
        t.clear();
        assert_eq!((t.len(), count(&t)), (0, 0));
    }
}
