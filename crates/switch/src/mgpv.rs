//! The multi-granularity key-vector cache (MGPV, §5).
//!
//! Packets are grouped at the *coarsest* granularity (CG). Each group owns a
//! small **short buffer**; groups that outgrow it get a **long buffer** from
//! a shared stack (the long-tail optimization of §5.2). When the policy uses
//! several granularities, each record additionally carries an index into the
//! **FG group-key table** holding its finest-granularity key, from which the
//! SmartNIC recovers every intermediate grouping — one copy of metadata per
//! packet regardless of how many granularities the application wants (§5.1).
//!
//! Evictions (hash collision, buffer full, aging, FG-slot reassignment, final
//! flush) emit [`MgpvMessage`]s; FG table changes emit [`FgUpdate`]s strictly
//! *before* any message whose records reference them, preserving the paper's
//! order-preserving property.

use superfe_net::snap::{StateReader, StateWriter};
use superfe_net::{GroupKey, PacketRecord};

use crate::record::{EvictionCause, FgUpdate, MgpvMessage, MgpvRecord, SwitchEvent, TS_HORIZON_NS};

/// Bytes one metadata record occupies in switch SRAM (full layout).
pub const SWITCH_RECORD_BYTES: usize = 9;
/// Per-entry bookkeeping bytes in switch SRAM (timestamp, pointer, flags).
pub const ENTRY_OVERHEAD_BYTES: usize = 8;

/// How the CG slot array resolves hash collisions.
///
/// The paper's prototype is direct-mapped (one slot per hash, LRU-like
/// evict-on-collision, §5.2); the set-associative variant trades a wider
/// lookup for fewer forced evictions under corpus-scale flow counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CgEvictPolicy {
    /// One slot per hash; a colliding key always evicts the resident group.
    #[default]
    DirectMapped,
    /// `ways`-way set-associative slots: a colliding key takes a free way if
    /// one exists, else evicts a pseudo-random way (seeded, deterministic
    /// for a given packet stream).
    RandomWay {
        /// Ways per set (clamped to at least 1).
        ways: u16,
        /// Seed for the deterministic victim sequence.
        seed: u64,
    },
}

/// Configuration of an MGPV cache instance.
///
/// Defaults are the paper's §7 prototype values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MgpvConfig {
    /// Number of short buffers (one per CG slot).
    pub short_count: usize,
    /// Records per short buffer.
    pub short_size: usize,
    /// Number of long buffers in the shared stack.
    pub long_count: usize,
    /// Records per long buffer.
    pub long_size: usize,
    /// FG key-table slots (0 disables the table).
    pub fg_table_size: usize,
    /// Aging timeout `T`; `None` disables aging.
    pub aging_t_ns: Option<u64>,
    /// Cache entries checked by the recirculating aging probe per packet.
    pub probes_per_packet: usize,
    /// Recirculation probe rate in entries per second: the recirculated
    /// packets check entries continuously, independent of traffic, so on
    /// each insert the cache also executes the probes that elapsed wall
    /// time would have produced (capped at one full scan).
    pub probe_rate_hz: f64,
    /// Window for the "active flow" definition in buffer-efficiency stats.
    pub activity_window_ns: u64,
    /// CG slot collision-resolution policy.
    pub policy: CgEvictPolicy,
}

impl Default for MgpvConfig {
    fn default() -> Self {
        MgpvConfig {
            short_count: 16_384,
            short_size: 4,
            long_count: 4_096,
            long_size: 20,
            fg_table_size: 16_384,
            // Above typical intra-flow gaps (ms-scale) yet small enough to
            // keep the batching delay at O(10) ms.
            aging_t_ns: Some(25_000_000), // 25 ms
            probes_per_packet: 2,
            probe_rate_hz: 1_000_000.0, // one 16k-entry scan every ~16 ms
            activity_window_ns: 100_000_000, // 100 ms
            policy: CgEvictPolicy::DirectMapped,
        }
    }
}

impl MgpvConfig {
    /// Static SRAM footprint of this configuration, in bytes.
    ///
    /// `cg_key_bytes` is the serialized CG key width; the FG table (13-byte
    /// keys plus a 4-byte hash) is counted only when enabled.
    pub fn memory_bytes(&self, cg_key_bytes: usize) -> usize {
        let short = self.short_count
            * (cg_key_bytes + ENTRY_OVERHEAD_BYTES + self.short_size * SWITCH_RECORD_BYTES);
        let long = self.long_count * self.long_size * SWITCH_RECORD_BYTES
            + self.long_count * 2 // stack slots
            + 4; // stack pointer
        let fg = if self.fg_table_size > 0 {
            self.fg_table_size * (13 + 4)
        } else {
            0
        };
        short + long + fg
    }
}

/// One step of the splitmix64 sequence (victim-way selection).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Counters exported by the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MgpvStats {
    /// Packets offered to the cache.
    pub packets: u64,
    /// Records currently resident.
    pub resident_records: u64,
    /// Evicted messages by cause `[CgCollision, ShortFull, LongFull, Aging, FgCollision, Flush]`.
    pub evictions: [u64; 6],
    /// Total records shipped in eviction messages.
    pub evicted_records: u64,
    /// FG table update notifications sent.
    pub fg_updates: u64,
    /// Σ occupied entries over samples (buffer-efficiency denominator).
    pub occupied_samples: u64,
    /// Σ active entries over samples (buffer-efficiency numerator).
    pub active_samples: u64,
    /// Σ per-record batching delay (eviction time − arrival time) in ns,
    /// over data-plane evictions (final flushes excluded — they measure
    /// trace length, not the cache).
    pub delay_sum_ns: u64,
    /// Largest per-record batching delay seen on a data-plane eviction.
    pub delay_max_ns: u64,
    /// Records counted in the delay statistics.
    pub delay_samples: u64,
}

impl MgpvStats {
    /// Fraction of occupied buffer slots that held recently-active flows
    /// (the Fig. 14 "buffer efficiency" metric).
    pub fn buffer_efficiency(&self) -> f64 {
        if self.occupied_samples == 0 {
            0.0
        } else {
            self.active_samples as f64 / self.occupied_samples as f64
        }
    }

    /// Serializes every counter for state snapshots.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.packets);
        w.put_u64(self.resident_records);
        for e in self.evictions {
            w.put_u64(e);
        }
        w.put_u64(self.evicted_records);
        w.put_u64(self.fg_updates);
        w.put_u64(self.occupied_samples);
        w.put_u64(self.active_samples);
        w.put_u64(self.delay_sum_ns);
        w.put_u64(self.delay_max_ns);
        w.put_u64(self.delay_samples);
    }

    /// Reads counters written by [`MgpvStats::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let mut s = MgpvStats {
            packets: r.get_u64()?,
            resident_records: r.get_u64()?,
            ..MgpvStats::default()
        };
        for e in &mut s.evictions {
            *e = r.get_u64()?;
        }
        s.evicted_records = r.get_u64()?;
        s.fg_updates = r.get_u64()?;
        s.occupied_samples = r.get_u64()?;
        s.active_samples = r.get_u64()?;
        s.delay_sum_ns = r.get_u64()?;
        s.delay_max_ns = r.get_u64()?;
        s.delay_samples = r.get_u64()?;
        Some(s)
    }
}

#[derive(Clone, Debug)]
struct CgEntry {
    key: GroupKey,
    hash: u32,
    last_access_ns: u64,
    short: Vec<MgpvRecord>,
    long_ptr: Option<u16>,
}

/// One MGPV cache instance (one grouping granularity on the switch).
#[derive(Clone, Debug)]
pub struct MgpvCache {
    cfg: MgpvConfig,
    entries: Vec<Option<CgEntry>>,
    /// One bit per CG slot, set exactly where `entries` holds a group, so
    /// the table walks (aging sweep, efficiency sample, [`Self::occupied`])
    /// cost a word load per 64 slots plus one entry load per *resident*
    /// group. Host bookkeeping derived from `entries`: it is neither
    /// modelled switch SRAM nor part of a snapshot.
    occupancy: Vec<u64>,
    long: Vec<Vec<MgpvRecord>>,
    free_longs: Vec<u16>,
    fg_table: Vec<Option<GroupKey>>,
    /// FG slot → CG buckets holding records that reference it.
    fg_refs: Vec<Vec<usize>>,
    probe_cursor: usize,
    last_probe_ns: u64,
    stats: MgpvStats,
    sample_countdown: u32,
    /// Entries loaded by the table walks (the work-bound test's meter).
    #[cfg(test)]
    entry_visits: u64,
}

const SAMPLE_EVERY: u32 = 1024;

/// The first occupied slot in `[from, end)` of an occupancy bitmap.
fn next_occupied(occupancy: &[u64], from: usize, end: usize) -> Option<usize> {
    if from >= end {
        return None;
    }
    let mut word = from / 64;
    let mut bits = occupancy[word] & (u64::MAX << (from % 64));
    while bits == 0 {
        word += 1;
        if word * 64 >= end {
            return None;
        }
        bits = occupancy[word];
    }
    let slot = word * 64 + bits.trailing_zeros() as usize;
    (slot < end).then_some(slot)
}

impl MgpvCache {
    /// Creates a cache; returns `None` for degenerate configurations
    /// (zero-sized buffers).
    pub fn new(cfg: MgpvConfig) -> Option<Self> {
        if cfg.short_count == 0 || cfg.short_size == 0 {
            return None;
        }
        Some(MgpvCache {
            entries: vec![None; cfg.short_count],
            occupancy: vec![0; cfg.short_count.div_ceil(64)],
            long: vec![Vec::new(); cfg.long_count],
            free_longs: (0..cfg.long_count as u16).rev().collect(),
            fg_table: vec![None; cfg.fg_table_size],
            fg_refs: vec![Vec::new(); cfg.fg_table_size],
            probe_cursor: 0,
            last_probe_ns: 0,
            stats: MgpvStats::default(),
            sample_countdown: SAMPLE_EVERY,
            #[cfg(test)]
            entry_visits: 0,
            cfg,
        })
    }

    /// Current counters.
    pub fn stats(&self) -> &MgpvStats {
        &self.stats
    }

    /// The cache configuration.
    pub fn config(&self) -> &MgpvConfig {
        &self.cfg
    }

    /// Whether the FG key table is enabled.
    pub fn has_fg_table(&self) -> bool {
        self.cfg.fg_table_size > 0
    }

    /// Number of occupied CG slots.
    pub fn occupied(&self) -> usize {
        self.occupancy.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Starts a group in `bucket` over `short` (no long buffer yet), marking
    /// the slot occupied.
    fn install(
        &mut self,
        bucket: usize,
        key: GroupKey,
        hash: u32,
        now: u64,
        short: Vec<MgpvRecord>,
    ) {
        self.entries[bucket] = Some(CgEntry {
            key,
            hash,
            last_access_ns: now,
            short,
            long_ptr: None,
        });
        self.occupancy[bucket / 64] |= 1 << (bucket % 64);
    }

    /// The resident group in `bucket`, which the bitmap says is occupied.
    fn resident(&mut self, bucket: usize) -> &CgEntry {
        #[cfg(test)]
        {
            self.entry_visits += 1;
        }
        self.entries[bucket]
            .as_ref()
            .expect("occupancy bit set only where an entry is resident")
    }

    /// Inserts one packet, returning the events it triggered, in order.
    ///
    /// `cg_key` is the packet's coarsest-granularity key; `fg_key` its
    /// finest-granularity key when the FG table is in use.
    pub fn insert(
        &mut self,
        p: &PacketRecord,
        cg_key: GroupKey,
        fg_key: Option<GroupKey>,
    ) -> Vec<SwitchEvent> {
        let mut events = Vec::new();
        self.insert_into(p, cg_key, fg_key, &mut events);
        events
    }

    /// Inserts one packet, appending the events it triggered (in order) to a
    /// caller-supplied buffer — the allocation-free form of
    /// [`MgpvCache::insert`] used by the streaming pipeline, which recycles
    /// one event frame across packets instead of allocating per packet.
    pub fn insert_into(
        &mut self,
        p: &PacketRecord,
        cg_key: GroupKey,
        fg_key: Option<GroupKey>,
        events: &mut Vec<SwitchEvent>,
    ) {
        self.place(p, cg_key, fg_key, events);
        self.age(p.ts_ns, events);
        self.sample(p.ts_ns);
    }

    /// Caches one packet's record in its CG group, maintaining the FG table
    /// and evicting whatever the record displaces.
    fn place(
        &mut self,
        p: &PacketRecord,
        cg_key: GroupKey,
        fg_key: Option<GroupKey>,
        events: &mut Vec<SwitchEvent>,
    ) {
        let now = p.ts_ns;
        assert!(
            now < TS_HORIZON_NS,
            "packet timestamp {now} ns is at or past the 32-bit microsecond tstamp horizon \
             ({TS_HORIZON_NS} ns): MgpvRecord::tstamp_us would wrap and the aging probes would \
             mis-order evictions — rebase timestamps per capture epoch"
        );
        self.stats.packets += 1;

        // --- FG table maintenance (before anything references the slot). ---
        let fg_idx = match (self.has_fg_table(), fg_key) {
            (true, Some(fk)) => {
                let slot = (fk.hash32() as usize) % self.cfg.fg_table_size;
                match &self.fg_table[slot] {
                    Some(existing) if *existing == fk => {}
                    Some(_) => {
                        // Reassignment: flush every CG entry holding records
                        // that point at this slot, then replace the key.
                        let buckets = std::mem::take(&mut self.fg_refs[slot]);
                        for b in buckets {
                            if self.entries[b].is_some() {
                                self.evict_bucket(b, EvictionCause::FgCollision, Some(now), events);
                            }
                        }
                        self.fg_table[slot] = Some(fk);
                        self.stats.fg_updates += 1;
                        events.push(SwitchEvent::FgUpdate(FgUpdate {
                            idx: slot as u16,
                            key: fk,
                        }));
                    }
                    None => {
                        self.fg_table[slot] = Some(fk);
                        self.stats.fg_updates += 1;
                        events.push(SwitchEvent::FgUpdate(FgUpdate {
                            idx: slot as u16,
                            key: fk,
                        }));
                    }
                }
                slot as u16
            }
            _ => 0,
        };

        let rec = MgpvRecord::from_packet(p, fg_idx);
        let hash = cg_key.hash32();

        // --- CG slot handling (policy-dependent). ---
        let bucket = self.cg_bucket(cg_key, hash, now, events);
        if self.entries[bucket].is_none() {
            let short = Vec::with_capacity(self.cfg.short_size);
            self.install(bucket, cg_key, hash, now, short);
        }

        // Append the record, spilling to a long buffer as needed.
        {
            let cfg = self.cfg;
            let entry = self.entries[bucket].as_mut().expect("just ensured");
            entry.last_access_ns = now;
            if let Some(lp) = entry.long_ptr {
                self.long[lp as usize].push(rec);
                self.stats.resident_records += 1;
                if self.long[lp as usize].len() >= cfg.long_size {
                    self.evict_bucket(bucket, EvictionCause::LongFull, Some(now), events);
                    // The group stays conceptually known but its buffers are
                    // recycled; re-create an empty entry for future packets.
                    let short = Vec::with_capacity(cfg.short_size);
                    self.install(bucket, cg_key, hash, now, short);
                }
            } else if entry.short.len() < cfg.short_size {
                entry.short.push(rec);
                self.stats.resident_records += 1;
                if entry.short.len() == cfg.short_size {
                    // Try to arm a long buffer for the (likely long) flow.
                    if let Some(lp) = self.free_longs.pop() {
                        self.entries[bucket].as_mut().expect("present").long_ptr = Some(lp);
                    }
                }
            } else {
                // Short full and no long buffer was available earlier: flush
                // the short buffer (ShortFull) and restart it with this
                // record.
                self.evict_bucket(bucket, EvictionCause::ShortFull, Some(now), events);
                self.install(bucket, cg_key, hash, now, vec![rec]);
                self.stats.resident_records += 1;
            }
        }

        // Track which CG bucket references the FG slot.
        if self.has_fg_table() && fg_key.is_some() {
            let slot = fg_idx as usize;
            if !self.fg_refs[slot].contains(&bucket) {
                self.fg_refs[slot].push(bucket);
            }
        }
    }

    /// The aging probes (recirculated internal packets, §5.2): the ones this
    /// packet carries plus the ones the recirculation port performed while
    /// wall time passed, capped at one full scan.
    ///
    /// The model probes slots `cursor, cursor + 1, …` one by one; the host
    /// walks the same range through the occupancy bitmap, so it inspects
    /// the same resident groups in the same ascending order and skips only
    /// slots a probe would have found empty.
    fn age(&mut self, now: u64, events: &mut Vec<SwitchEvent>) {
        let Some(t) = self.cfg.aging_t_ns else {
            return;
        };
        let slots = self.cfg.short_count;
        let elapsed = now.saturating_sub(self.last_probe_ns);
        self.last_probe_ns = self.last_probe_ns.max(now);
        let timed = (elapsed as f64 * self.cfg.probe_rate_hz / 1e9) as usize;
        let n_probes = (self.cfg.probes_per_packet + timed).min(slots);
        let start = self.probe_cursor;
        let end = start + n_probes;
        self.probe_cursor = end % slots;
        // At most one scan, so the range wraps at most once.
        for (mut from, to) in [(start, end.min(slots)), (0, end.saturating_sub(slots))] {
            while let Some(i) = next_occupied(&self.occupancy, from, to) {
                if now.saturating_sub(self.resident(i).last_access_ns) > t {
                    self.evict_bucket(i, EvictionCause::Aging, Some(now), events);
                }
                from = i + 1;
            }
        }
    }

    /// Buffer-efficiency sampling, every [`SAMPLE_EVERY`] packets.
    fn sample(&mut self, now: u64) {
        self.sample_countdown -= 1;
        if self.sample_countdown != 0 {
            return;
        }
        self.sample_countdown = SAMPLE_EVERY;
        let mut from = 0;
        while let Some(i) = next_occupied(&self.occupancy, from, self.cfg.short_count) {
            self.stats.occupied_samples += 1;
            if now.saturating_sub(self.resident(i).last_access_ns) <= self.cfg.activity_window_ns {
                self.stats.active_samples += 1;
            }
            from = i + 1;
        }
    }

    /// Evicts every resident group (end of trace).
    pub fn flush(&mut self) -> Vec<SwitchEvent> {
        let mut events = Vec::new();
        self.flush_into(&mut events);
        events
    }

    /// Evicts every resident group into a caller-supplied buffer.
    pub fn flush_into(&mut self, events: &mut Vec<SwitchEvent>) {
        let mut from = 0;
        while let Some(b) = next_occupied(&self.occupancy, from, self.cfg.short_count) {
            self.evict_bucket(b, EvictionCause::Flush, None, events);
            from = b + 1;
        }
    }

    /// Picks the CG slot for `key` under the configured policy, evicting a
    /// resident group first if the policy demands it. On return the slot is
    /// either empty or already owned by `key`.
    fn cg_bucket(
        &mut self,
        key: GroupKey,
        hash: u32,
        now: u64,
        events: &mut Vec<SwitchEvent>,
    ) -> usize {
        match self.cfg.policy {
            CgEvictPolicy::DirectMapped => {
                let bucket = (hash as usize) % self.cfg.short_count;
                let owned = matches!(&self.entries[bucket], Some(e) if e.key == key);
                if self.entries[bucket].is_some() && !owned {
                    self.evict_bucket(bucket, EvictionCause::CgCollision, Some(now), events);
                }
                bucket
            }
            CgEvictPolicy::RandomWay { ways, seed } => {
                let w = usize::from(ways).max(1);
                let sets = (self.cfg.short_count / w).max(1);
                let base = ((hash as usize) % sets) * w;
                let end = (base + w).min(self.cfg.short_count);
                for b in base..end {
                    if matches!(&self.entries[b], Some(e) if e.key == key) {
                        return b;
                    }
                }
                for b in base..end {
                    if self.entries[b].is_none() {
                        return b;
                    }
                }
                // Set full: evict a deterministic pseudo-random way. The
                // packet counter (already incremented for this packet) keys
                // the sequence, so replays pick identical victims.
                let victim = base + (splitmix64(seed ^ self.stats.packets) as usize) % (end - base);
                self.evict_bucket(victim, EvictionCause::CgCollision, Some(now), events);
                victim
            }
        }
    }

    fn evict_bucket(
        &mut self,
        bucket: usize,
        cause: EvictionCause,
        now_ns: Option<u64>,
        out: &mut Vec<SwitchEvent>,
    ) {
        let entry = match self.entries[bucket].take() {
            Some(e) => e,
            None => return,
        };
        self.occupancy[bucket / 64] &= !(1 << (bucket % 64));
        let mut records = entry.short;
        if let Some(lp) = entry.long_ptr {
            records.append(&mut self.long[lp as usize]);
            self.free_longs.push(lp);
        }
        if records.is_empty() {
            // Nothing cached (can happen right after a LongFull recycle).
            return;
        }
        // Clear reverse references from FG slots to this bucket, once per
        // distinct slot (a message holds at most short + long records).
        if self.has_fg_table() {
            for (j, r) in records.iter().enumerate() {
                let slot = r.fg_idx as usize;
                let seen = records[..j].iter().any(|q| q.fg_idx == r.fg_idx);
                if !seen && slot < self.fg_refs.len() {
                    self.fg_refs[slot].retain(|&b| b != bucket);
                }
            }
        }
        if let Some(now) = now_ns {
            for r in &records {
                let delay = now.saturating_sub(r.ts_ns());
                self.stats.delay_sum_ns += delay;
                self.stats.delay_max_ns = self.stats.delay_max_ns.max(delay);
                self.stats.delay_samples += 1;
            }
        }
        // `EvictionCause` declares its variants in reporting order.
        self.stats.evictions[cause as usize] += 1;
        self.stats.evicted_records += records.len() as u64;
        self.stats.resident_records = self
            .stats
            .resident_records
            .saturating_sub(records.len() as u64);
        out.push(SwitchEvent::Mgpv(MgpvMessage {
            cg_key: entry.key,
            hash: entry.hash,
            records,
            cause,
        }));
    }

    /// Serializes the full cache state — resident buffers, FG table,
    /// reverse references, probe cursor, and counters — for snapshots.
    ///
    /// The configuration itself is *not* stored (the restoring side
    /// re-creates the cache from the deployed policy); the buffer geometry
    /// is written as a validation header so a mismatched load fails cleanly.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u32(self.cfg.short_count as u32);
        w.put_u32(self.cfg.short_size as u32);
        w.put_u32(self.cfg.long_count as u32);
        w.put_u32(self.cfg.long_size as u32);
        w.put_u32(self.cfg.fg_table_size as u32);
        for slot in &self.entries {
            w.put_bool(slot.is_some());
            if let Some(e) = slot {
                e.key.save_state(w);
                w.put_u32(e.hash);
                w.put_u64(e.last_access_ns);
                w.put_u16(e.short.len() as u16);
                for rec in &e.short {
                    rec.save_state(w);
                }
                w.put_bool(e.long_ptr.is_some());
                w.put_u16(e.long_ptr.unwrap_or(0));
            }
        }
        for buf in &self.long {
            w.put_u16(buf.len() as u16);
            for rec in buf {
                rec.save_state(w);
            }
        }
        w.put_u32(self.free_longs.len() as u32);
        for lp in &self.free_longs {
            w.put_u16(*lp);
        }
        for slot in &self.fg_table {
            w.put_bool(slot.is_some());
            if let Some(k) = slot {
                k.save_state(w);
            }
        }
        // fg_refs are serialized (not rebuilt): their per-slot vec order
        // decides the eviction order of an FG-slot reassignment, which must
        // survive a restore bit-for-bit.
        for refs in &self.fg_refs {
            w.put_u32(refs.len() as u32);
            for b in refs {
                w.put_u32(*b as u32);
            }
        }
        w.put_u64(self.probe_cursor as u64);
        w.put_u64(self.last_probe_ns);
        w.put_u32(self.sample_countdown);
        self.stats.save_state(w);
    }

    /// Restores state written by [`MgpvCache::save_state`] into a cache
    /// created with the *same* configuration. Returns `None` (leaving the
    /// cache untouched) on geometry mismatch, truncated input, or a long
    /// buffer with more than one owner.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Option<()> {
        let geometry = [
            r.get_u32()? as usize,
            r.get_u32()? as usize,
            r.get_u32()? as usize,
            r.get_u32()? as usize,
            r.get_u32()? as usize,
        ];
        if geometry
            != [
                self.cfg.short_count,
                self.cfg.short_size,
                self.cfg.long_count,
                self.cfg.long_size,
                self.cfg.fg_table_size,
            ]
        {
            return None;
        }
        // Each long buffer has one owner: a single entry, or the free stack.
        // Two owners would interleave two groups' records in one buffer.
        let mut long_claimed = vec![false; self.cfg.long_count];
        let mut claim = |lp: u16| {
            let claimed = long_claimed.get_mut(lp as usize)?;
            (!std::mem::replace(claimed, true)).then_some(lp)
        };
        let mut entries = Vec::with_capacity(self.cfg.short_count);
        for _ in 0..self.cfg.short_count {
            if !r.get_bool()? {
                entries.push(None);
                continue;
            }
            let key = GroupKey::load_state(r)?;
            let hash = r.get_u32()?;
            let last_access_ns = r.get_u64()?;
            let n = r.get_u16()? as usize;
            if n > self.cfg.short_size {
                return None;
            }
            let mut short = Vec::with_capacity(self.cfg.short_size);
            for _ in 0..n {
                short.push(MgpvRecord::load_state(r)?);
            }
            let has_long = r.get_bool()?;
            let lp = r.get_u16()?;
            let long_ptr = if has_long { Some(claim(lp)?) } else { None };
            entries.push(Some(CgEntry {
                key,
                hash,
                last_access_ns,
                short,
                long_ptr,
            }));
        }
        let mut long = Vec::with_capacity(self.cfg.long_count);
        for _ in 0..self.cfg.long_count {
            let n = r.get_u16()? as usize;
            if n > self.cfg.long_size {
                return None;
            }
            let mut buf = Vec::with_capacity(n);
            for _ in 0..n {
                buf.push(MgpvRecord::load_state(r)?);
            }
            long.push(buf);
        }
        let n_free = r.get_u32()? as usize;
        if n_free > self.cfg.long_count {
            return None;
        }
        let mut free_longs = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free_longs.push(claim(r.get_u16()?)?);
        }
        let mut fg_table = Vec::with_capacity(self.cfg.fg_table_size);
        for _ in 0..self.cfg.fg_table_size {
            fg_table.push(if r.get_bool()? {
                Some(GroupKey::load_state(r)?)
            } else {
                None
            });
        }
        let mut fg_refs = Vec::with_capacity(self.cfg.fg_table_size);
        for _ in 0..self.cfg.fg_table_size {
            let n = r.get_u32()? as usize;
            if n > self.cfg.short_count {
                return None;
            }
            let mut refs = Vec::with_capacity(n);
            for _ in 0..n {
                let b = r.get_u32()? as usize;
                if b >= self.cfg.short_count {
                    return None;
                }
                refs.push(b);
            }
            fg_refs.push(refs);
        }
        let probe_cursor = r.get_u64()? as usize;
        if probe_cursor >= self.cfg.short_count {
            return None;
        }
        let last_probe_ns = r.get_u64()?;
        let sample_countdown = r.get_u32()?;
        if sample_countdown == 0 || sample_countdown > SAMPLE_EVERY {
            return None;
        }
        let stats = MgpvStats::load_state(r)?;
        self.occupancy.fill(0);
        for (bucket, _) in entries.iter().enumerate().filter(|(_, e)| e.is_some()) {
            self.occupancy[bucket / 64] |= 1 << (bucket % 64);
        }
        self.entries = entries;
        self.long = long;
        self.free_longs = free_longs;
        self.fg_table = fg_table;
        self.fg_refs = fg_refs;
        self.probe_cursor = probe_cursor;
        self.last_probe_ns = last_probe_ns;
        self.sample_countdown = sample_countdown;
        self.stats = stats;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::{Granularity, PacketRecord};

    fn cfg_small() -> MgpvConfig {
        MgpvConfig {
            short_count: 8,
            short_size: 2,
            long_count: 2,
            long_size: 4,
            fg_table_size: 8,
            aging_t_ns: None,
            probes_per_packet: 0,
            probe_rate_hz: 0.0,
            activity_window_ns: 1_000_000,
            policy: CgEvictPolicy::DirectMapped,
        }
    }

    fn pkt(src: u32, dst: u32, sport: u16, ts: u64) -> PacketRecord {
        PacketRecord::tcp(ts, 100, src, sport, dst, 80)
    }

    fn keys(p: &PacketRecord) -> (GroupKey, Option<GroupKey>) {
        (
            Granularity::Host.key_of(p),
            Some(Granularity::Socket.key_of(p)),
        )
    }

    fn snapshot(c: &MgpvCache) -> Vec<u8> {
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        w.into_bytes()
    }

    fn mgpv_events(events: &[SwitchEvent]) -> Vec<&MgpvMessage> {
        events
            .iter()
            .filter_map(|e| match e {
                SwitchEvent::Mgpv(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rejects_degenerate_config() {
        let mut c = cfg_small();
        c.short_count = 0;
        assert!(MgpvCache::new(c).is_none());
    }

    #[test]
    fn first_insert_emits_fg_update_only() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        let ev = cache.insert(&p, cg, fg);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], SwitchEvent::FgUpdate(_)));
        assert_eq!(cache.stats().resident_records, 1);
    }

    #[test]
    fn same_fg_key_notifies_once() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        let ev = cache.insert(&p, cg, fg);
        assert!(ev.is_empty());
        assert_eq!(cache.stats().fg_updates, 1);
    }

    #[test]
    fn short_full_without_long_evicts() {
        let mut cfg = cfg_small();
        cfg.long_count = 0; // no long buffers at all
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        cache.insert(&p, cg, fg); // short (size 2) now full
        let ev = cache.insert(&p, cg, fg); // triggers ShortFull
        let msgs = mgpv_events(&ev);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::ShortFull);
        assert_eq!(msgs[0].records.len(), 2);
        // The triggering record restarted the short buffer.
        assert_eq!(cache.stats().resident_records, 1);
    }

    #[test]
    fn long_buffer_extends_then_long_full_evicts() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        let mut all_events = Vec::new();
        // short 2 + long 4 => the 6th insert fills the long buffer.
        for _ in 0..6 {
            all_events.extend(cache.insert(&p, cg, fg));
        }
        let msgs = mgpv_events(&all_events);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::LongFull);
        assert_eq!(msgs[0].records.len(), 6);
        assert_eq!(cache.stats().resident_records, 0);
    }

    #[test]
    fn records_evicted_in_arrival_order() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let (cg, fg) = keys(&pkt(1, 2, 1000, 0));
        let mut events = Vec::new();
        for i in 0..6u64 {
            let p = pkt(1, 2, 1000, i * 10);
            events.extend(cache.insert(&p, cg, fg));
        }
        let msgs = mgpv_events(&events);
        let ts: Vec<u32> = msgs[0].records.iter().map(|r| r.tstamp_us).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn cg_collision_evicts_old_group() {
        let mut cfg = cfg_small();
        cfg.short_count = 1; // force every host into the same slot
        cfg.fg_table_size = 0;
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 10);
        let p2 = pkt(3, 4, 1000, 20);
        cache.insert(&p1, Granularity::Host.key_of(&p1), None);
        let ev = cache.insert(&p2, Granularity::Host.key_of(&p2), None);
        let msgs = mgpv_events(&ev);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::CgCollision);
        assert_eq!(msgs[0].cg_key, GroupKey::Host(1));
    }

    #[test]
    fn fg_slot_reassignment_flushes_referencing_groups_first() {
        let mut cfg = cfg_small();
        cfg.fg_table_size = 1; // every socket key collides in the FG table
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 10);
        let p2 = pkt(1, 2, 2000, 20); // same host, different socket
        let (cg, fg1) = (
            Granularity::Host.key_of(&p1),
            Some(Granularity::Socket.key_of(&p1)),
        );
        cache.insert(&p1, cg, fg1);
        let fg2 = Some(Granularity::Socket.key_of(&p2));
        let ev = cache.insert(&p2, cg, fg2);
        // Order: eviction of the old group BEFORE the FgUpdate for the slot.
        assert!(ev.len() >= 2);
        match (&ev[0], &ev[1]) {
            (SwitchEvent::Mgpv(m), SwitchEvent::FgUpdate(u)) => {
                assert_eq!(m.cause, EvictionCause::FgCollision);
                assert_eq!(u.idx, 0);
            }
            other => panic!("unexpected order: {other:?}"),
        }
    }

    #[test]
    fn aging_evicts_idle_groups() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = Some(1_000);
        cfg.probes_per_packet = 8;
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 0);
        cache.insert(&p1, Granularity::Host.key_of(&p1), None);
        // Much later packet from a different host triggers the probes.
        let p2 = pkt(3, 4, 1000, 1_000_000);
        let ev = cache.insert(&p2, Granularity::Host.key_of(&p2), None);
        let msgs = mgpv_events(&ev);
        assert!(msgs
            .iter()
            .any(|m| m.cause == EvictionCause::Aging && m.cg_key == GroupKey::Host(1)));
    }

    #[test]
    fn aging_releases_long_buffers() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = Some(1_000);
        cfg.probes_per_packet = 8;
        cfg.long_count = 1;
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p1 = pkt(1, 2, 1000, 0);
        let (cg1, fg1) = keys(&p1);
        for _ in 0..3 {
            cache.insert(&p1, cg1, fg1); // grabs the only long buffer
        }
        assert_eq!(cache.free_longs.len(), 0);
        let p2 = pkt(3, 4, 1000, 1_000_000);
        let (cg2, fg2) = keys(&p2);
        cache.insert(&p2, cg2, fg2);
        assert_eq!(cache.free_longs.len(), 1, "long buffer recycled by aging");
    }

    #[test]
    fn flush_empties_cache() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        for i in 0..5u32 {
            let p = pkt(i + 1, 100, 1000, u64::from(i));
            let (cg, fg) = keys(&p);
            cache.insert(&p, cg, fg);
        }
        let ev = cache.flush();
        let msgs = mgpv_events(&ev);
        let total: usize = msgs.iter().map(|m| m.records.len()).sum();
        assert_eq!(total, 5);
        assert_eq!(cache.occupied(), 0);
        assert_eq!(cache.stats().resident_records, 0);
        assert!(msgs.iter().all(|m| m.cause == EvictionCause::Flush));
    }

    #[test]
    fn no_record_lost_or_duplicated() {
        // Conservation: inserted records == evicted records after flush.
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let mut evicted = 0usize;
        let n = 1000u32;
        for i in 0..n {
            let p = pkt(
                i % 13 + 1,
                200,
                (i % 7 + 1) as u16 * 100,
                u64::from(i) * 100,
            );
            let (cg, fg) = keys(&p);
            for e in cache.insert(&p, cg, fg) {
                if let SwitchEvent::Mgpv(m) = e {
                    evicted += m.records.len();
                }
            }
        }
        for e in cache.flush() {
            if let SwitchEvent::Mgpv(m) = e {
                evicted += m.records.len();
            }
        }
        assert_eq!(evicted, n as usize);
    }

    #[test]
    fn memory_model_components() {
        let cfg = MgpvConfig::default();
        let with_fg = cfg.memory_bytes(4);
        let without_fg = MgpvConfig {
            fg_table_size: 0,
            ..cfg
        }
        .memory_bytes(4);
        assert_eq!(with_fg - without_fg, 16_384 * 17);
        assert!(without_fg > 0);
    }

    #[test]
    fn aging_bounds_batching_delay() {
        // With aging at T, no record lingers much longer than T plus the
        // probe-scan lag before reaching the NIC.
        let t_ns = 1_000_000u64; // 1 ms
        let cfg = MgpvConfig {
            short_count: 64,
            short_size: 4,
            long_count: 8,
            long_size: 8,
            fg_table_size: 0,
            aging_t_ns: Some(t_ns),
            probes_per_packet: 4,
            probe_rate_hz: 0.0,
            activity_window_ns: 10_000_000,
            policy: CgEvictPolicy::DirectMapped,
        };
        let mut cache = MgpvCache::new(cfg).unwrap();
        // Steady stream: many hosts, each sending sporadically, plus a
        // clock-carrier flow that keeps probes advancing.
        for i in 0..20_000u64 {
            let ts = i * 10_000; // 10 µs per packet
            let p = pkt((i % 50 + 1) as u32, 99, 1000, ts);
            let cg = Granularity::Host.key_of(&p);
            cache.insert(&p, cg, None);
        }
        let s = cache.stats();
        assert!(s.delay_samples > 0);
        // Probe lag: a full scan takes short_count / probes packets, i.e.
        // 64/4 * 10µs = 160 µs on top of T.
        let bound = t_ns + 2_000_000;
        assert!(
            s.delay_max_ns <= bound,
            "max delay {} ns exceeds bound {} ns",
            s.delay_max_ns,
            bound
        );
        assert!(s.delay_sum_ns as f64 / s.delay_samples as f64 <= t_ns as f64 * 1.5);
    }

    #[test]
    fn flush_excluded_from_delay_stats() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = pkt(1, 2, 1000, 10);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        cache.flush();
        assert_eq!(cache.stats().delay_samples, 0);
    }

    #[test]
    #[should_panic(expected = "tstamp horizon")]
    fn timestamp_past_horizon_panics() {
        let mut cache = MgpvCache::new(cfg_small()).unwrap();
        let p = PacketRecord::tcp(TS_HORIZON_NS, 100, 1, 1000, 2, 80);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
    }

    #[test]
    fn timestamp_just_below_horizon_is_accepted() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = None; // don't age everything else out
        let mut cache = MgpvCache::new(cfg).unwrap();
        let p = PacketRecord::tcp(TS_HORIZON_NS - 1_000, 100, 1, 1000, 2, 80);
        let (cg, fg) = keys(&p);
        cache.insert(&p, cg, fg);
        assert_eq!(cache.stats().resident_records, 1);
    }

    #[test]
    fn random_way_absorbs_colliding_groups() {
        // One 4-way set: four distinct hosts coexist where direct mapping
        // with the same total slot count would thrash.
        let mut cfg = cfg_small();
        cfg.short_count = 4;
        cfg.fg_table_size = 0;
        cfg.policy = CgEvictPolicy::RandomWay { ways: 4, seed: 7 };
        let mut cache = MgpvCache::new(cfg).unwrap();
        for host in 1..=4u32 {
            let p = pkt(host, 99, 1000, u64::from(host) * 10);
            let ev = cache.insert(&p, Granularity::Host.key_of(&p), None);
            assert!(mgpv_events(&ev).is_empty(), "host {host} evicted something");
        }
        assert_eq!(cache.occupied(), 4);
        // A fifth host must evict exactly one resident group.
        let p = pkt(5, 99, 1000, 50);
        let ev = cache.insert(&p, Granularity::Host.key_of(&p), None);
        let msgs = mgpv_events(&ev);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].cause, EvictionCause::CgCollision);
        assert_eq!(cache.occupied(), 4);
    }

    #[test]
    fn random_way_eviction_is_deterministic() {
        let run = |seed: u64| -> Vec<GroupKey> {
            let mut cfg = cfg_small();
            cfg.short_count = 4;
            cfg.fg_table_size = 0;
            cfg.policy = CgEvictPolicy::RandomWay { ways: 2, seed };
            let mut cache = MgpvCache::new(cfg).unwrap();
            let mut evicted = Vec::new();
            for i in 0..200u32 {
                let p = pkt(i % 17 + 1, 99, 1000, u64::from(i) * 100);
                for e in cache.insert(&p, Granularity::Host.key_of(&p), None) {
                    if let SwitchEvent::Mgpv(m) = e {
                        evicted.push(m.cg_key);
                    }
                }
            }
            evicted
        };
        assert_eq!(run(1), run(1));
        assert!(!run(1).is_empty());
    }

    #[test]
    fn random_way_conserves_records() {
        let mut cfg = cfg_small();
        cfg.policy = CgEvictPolicy::RandomWay { ways: 4, seed: 3 };
        let mut cache = MgpvCache::new(cfg).unwrap();
        let mut evicted = 0usize;
        let n = 500u32;
        for i in 0..n {
            let p = pkt(
                i % 23 + 1,
                200,
                (i % 7 + 1) as u16 * 100,
                u64::from(i) * 100,
            );
            let (cg, fg) = keys(&p);
            for e in cache.insert(&p, cg, fg) {
                if let SwitchEvent::Mgpv(m) = e {
                    evicted += m.records.len();
                }
            }
        }
        for e in cache.flush() {
            if let SwitchEvent::Mgpv(m) = e {
                evicted += m.records.len();
            }
        }
        assert_eq!(evicted, n as usize);
    }

    #[test]
    fn save_load_resumes_bitwise_identically() {
        use superfe_net::snap::{StateReader, StateWriter};
        let stream = |i: u32| {
            pkt(
                i % 11 + 1,
                200,
                (i % 5 + 1) as u16 * 100,
                u64::from(i) * 500,
            )
        };
        let mut cfg = cfg_small();
        cfg.aging_t_ns = Some(5_000);
        cfg.probes_per_packet = 2;
        // Uninterrupted run.
        let mut full = MgpvCache::new(cfg).unwrap();
        let mut full_events = Vec::new();
        for i in 0..400u32 {
            let p = stream(i);
            let (cg, fg) = keys(&p);
            full.insert_into(&p, cg, fg, &mut full_events);
        }
        full.flush_into(&mut full_events);
        // Run half, snapshot, restore into a fresh cache, run the rest.
        let mut first = MgpvCache::new(cfg).unwrap();
        let mut events = Vec::new();
        for i in 0..200u32 {
            let p = stream(i);
            let (cg, fg) = keys(&p);
            first.insert_into(&p, cg, fg, &mut events);
        }
        let mut w = StateWriter::new();
        first.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut second = MgpvCache::new(cfg).unwrap();
        let mut r = StateReader::new(&bytes);
        second.load_state(&mut r).expect("state loads");
        assert!(r.is_empty(), "trailing bytes after load");
        for i in 200..400u32 {
            let p = stream(i);
            let (cg, fg) = keys(&p);
            second.insert_into(&p, cg, fg, &mut events);
        }
        second.flush_into(&mut events);
        assert_eq!(events, full_events);
        assert_eq!(second.stats().packets, full.stats().packets);
        assert_eq!(second.stats().evicted_records, full.stats().evicted_records);
    }

    #[test]
    fn load_rejects_mismatched_geometry() {
        use superfe_net::snap::{StateReader, StateWriter};
        let cache = MgpvCache::new(cfg_small()).unwrap();
        let mut w = StateWriter::new();
        cache.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other_cfg = cfg_small();
        other_cfg.short_count = 16; // different geometry
        let mut other = MgpvCache::new(other_cfg).unwrap();
        assert!(other.load_state(&mut StateReader::new(&bytes)).is_none());
        // Truncated input also fails.
        let mut same = MgpvCache::new(cfg_small()).unwrap();
        assert!(same
            .load_state(&mut StateReader::new(&bytes[..bytes.len() - 1]))
            .is_none());
    }

    #[test]
    fn load_rejects_doubly_owned_long_buffers() {
        use superfe_net::snap::StateReader;
        // Two groups, each holding one of the two long buffers.
        let mut clean = MgpvCache::new(cfg_small()).unwrap();
        for host in [1u32, 2] {
            let p = pkt(host, 9, 1000, 10);
            let (cg, fg) = keys(&p);
            for _ in 0..3 {
                clean.insert(&p, cg, fg);
            }
        }
        let owners: Vec<usize> = (0..clean.entries.len())
            .filter(|&b| matches!(&clean.entries[b], Some(e) if e.long_ptr.is_some()))
            .collect();
        assert_eq!(owners.len(), 2);
        assert!(clean.free_longs.is_empty());
        let clean_bytes = snapshot(&clean);

        // Two entries owning the same long buffer.
        let mut shared = clean.clone();
        let lp = shared.entries[owners[0]].as_ref().unwrap().long_ptr;
        shared.entries[owners[1]].as_mut().unwrap().long_ptr = lp;
        // An owned long buffer that is also on the free stack.
        let mut freed = clean.clone();
        freed.free_longs.push(lp.unwrap());

        for corrupt in [shared, freed] {
            let mut target = MgpvCache::new(cfg_small()).unwrap();
            let bytes = snapshot(&corrupt);
            assert!(target.load_state(&mut StateReader::new(&bytes)).is_none());
            // The refused load left the cache untouched.
            assert_eq!(
                snapshot(&target),
                snapshot(&MgpvCache::new(cfg_small()).unwrap())
            );
        }

        // A clean snapshot round-trips to identical bytes: the occupancy
        // bitmap is rebuilt on load, never stored.
        let mut target = MgpvCache::new(cfg_small()).unwrap();
        let mut r = StateReader::new(&clean_bytes);
        target.load_state(&mut r).expect("clean state loads");
        assert!(r.is_empty());
        assert_eq!(snapshot(&target), clean_bytes);
        assert_eq!(target.occupancy, clean.occupancy);
    }

    #[test]
    fn eviction_counters_follow_reporting_order() {
        for (i, cause) in EvictionCause::all().into_iter().enumerate() {
            assert_eq!(cause as usize, i);
        }
    }

    #[test]
    fn gap_sweep_inspects_only_resident_groups() {
        let mut cache = MgpvCache::new(MgpvConfig::default()).unwrap();
        for host in 1..=100u32 {
            let p = pkt(host, 9, 1000, u64::from(host));
            cache.insert(&p, Granularity::Host.key_of(&p), None);
        }
        let resident = cache.occupied();
        assert!(resident > 50);
        // Ten seconds on: the probes owed cover the whole table (16,384
        // slots), yet only the resident groups are looked at.
        let before = cache.entry_visits;
        let p = pkt(1, 9, 1000, 10_000_000_000);
        let ev = cache.insert(&p, Granularity::Host.key_of(&p), None);
        let visits = cache.entry_visits - before;
        assert!(
            visits <= resident as u64,
            "{visits} visits, {resident} groups"
        );
        assert_eq!(mgpv_events(&ev).len(), resident - 1);
        assert_eq!(cache.occupied(), 1);
    }

    /// The parent commit's insert: the same placement, then its per-slot
    /// probe loop and whole-table sample verbatim — the reference the
    /// bitmap walks are held to.
    fn insert_reference(
        c: &mut MgpvCache,
        p: &PacketRecord,
        cg_key: GroupKey,
        fg_key: Option<GroupKey>,
        events: &mut Vec<SwitchEvent>,
    ) {
        c.place(p, cg_key, fg_key, events);
        let now = p.ts_ns;
        if let Some(t) = c.cfg.aging_t_ns {
            let elapsed = now.saturating_sub(c.last_probe_ns);
            c.last_probe_ns = c.last_probe_ns.max(now);
            let timed = (elapsed as f64 * c.cfg.probe_rate_hz / 1e9) as usize;
            let n_probes = (c.cfg.probes_per_packet + timed).min(c.cfg.short_count);
            for _ in 0..n_probes {
                let i = c.probe_cursor;
                c.probe_cursor = (c.probe_cursor + 1) % c.cfg.short_count;
                let expired = match &c.entries[i] {
                    Some(e) => now.saturating_sub(e.last_access_ns) > t,
                    None => false,
                };
                if expired {
                    c.evict_bucket(i, EvictionCause::Aging, Some(now), events);
                }
            }
        }
        c.sample_countdown -= 1;
        if c.sample_countdown == 0 {
            c.sample_countdown = SAMPLE_EVERY;
            for e in c.entries.iter().flatten() {
                c.stats.occupied_samples += 1;
                if now.saturating_sub(e.last_access_ns) <= c.cfg.activity_window_ns {
                    c.stats.active_samples += 1;
                }
            }
        }
    }

    mod sweep_differential {
        use super::*;
        use proptest::prelude::*;

        fn cfg_strategy() -> impl Strategy<Value = MgpvConfig> {
            (0usize..6, 0usize..9, 0usize..3, 0u8..2, 0u8..2).prop_map(
                |(slots, probes_per_packet, rate, aging, policy)| MgpvConfig {
                    // Below, at and above a bitmap word, and multi-word.
                    short_count: [1, 63, 64, 65, 100, 4096][slots],
                    short_size: 2,
                    long_count: 4,
                    long_size: 4,
                    fg_table_size: 16,
                    aging_t_ns: (aging == 1).then_some(1_000_000),
                    probes_per_packet,
                    probe_rate_hz: [0.0, 1e5, 1e6][rate],
                    activity_window_ns: 2_000_000,
                    policy: if policy == 0 {
                        CgEvictPolicy::DirectMapped
                    } else {
                        CgEvictPolicy::RandomWay { ways: 4, seed: 5 }
                    },
                },
            )
        }

        /// `(host, port, gap_ns)`: gaps run from zero to 100 ms, beyond a
        /// full scan of the largest table at the slowest non-zero rate.
        fn pkt_strategy() -> impl Strategy<Value = (u32, u16, u64)> {
            (1u32..300, 0u16..3, 0u8..4, 0u64..1_000).prop_map(|(host, port, class, x)| {
                (host, port, x * [0, 50, 5_000, 100_000][class as usize])
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn bitmap_sweep_matches_per_slot_loop(
                cfg in cfg_strategy(),
                pkts in proptest::collection::vec(pkt_strategy(), 1..250),
            ) {
                let mut swept = MgpvCache::new(cfg).unwrap();
                let mut reference = MgpvCache::new(cfg).unwrap();
                // Start near a sample so the efficiency walk is compared too.
                swept.sample_countdown = 100;
                reference.sample_countdown = 100;
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut ts = 0u64;
                for (host, port, gap_ns) in pkts {
                    ts += gap_ns;
                    let p = pkt(host, 9, 1000 + port, ts);
                    let (cg, fg) = keys(&p);
                    got.clear();
                    want.clear();
                    swept.insert_into(&p, cg, fg, &mut got);
                    insert_reference(&mut reference, &p, cg, fg, &mut want);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(swept.stats(), reference.stats());
                    prop_assert_eq!(snapshot(&swept), snapshot(&reference));
                    for (b, e) in swept.entries.iter().enumerate() {
                        let bit = swept.occupancy[b / 64] >> (b % 64) & 1 == 1;
                        prop_assert_eq!(bit, e.is_some(), "slot {}", b);
                    }
                }
                prop_assert_eq!(swept.flush(), reference.flush());
            }
        }
    }

    #[test]
    fn buffer_efficiency_reflects_idle_entries() {
        let mut cfg = cfg_small();
        cfg.aging_t_ns = None;
        cfg.activity_window_ns = 10;
        let mut cache = MgpvCache::new(cfg).unwrap();
        // Insert one group, then hammer another for > SAMPLE_EVERY packets
        // far in the future so samples see the first entry as inactive.
        let p1 = pkt(1, 2, 1000, 0);
        cache.insert(&p1, Granularity::Host.key_of(&p1), None);
        for i in 0..2 * u64::from(SAMPLE_EVERY) {
            let p = pkt(3, 4, 1000, 1_000_000 + i);
            cache.insert(&p, Granularity::Host.key_of(&p), None);
        }
        let eff = cache.stats().buffer_efficiency();
        assert!(eff > 0.0 && eff < 1.0, "efficiency {eff}");
    }
}
