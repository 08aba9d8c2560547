//! A byte-capacity cache with pluggable eviction.

use super::base::WarmBase;
use super::{EvictionPolicy, ObjectKey, MANIFEST_BYTES};
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;
use streamlab_workload::{ChunkIndex, Video, VideoId};

/// Slab sentinel for "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry {
    size: u64,
    /// Ordering key currently held in the `Tree` index (frequency or scaled
    /// GD priority plus tie-break). Unused by `List` policies.
    order_key: (u64, u64),
    /// Slab index of this entry's node in the `List` index. Unused by
    /// `Tree` policies.
    node: u32,
    pinned: bool,
}

/// Intrusive doubly-linked recency list over a slab, for the queue-shaped
/// policies (LRU / FIFO): head = oldest = victim side, tail = newest.
/// Touch, insert and evict are all O(1), versus O(log n) `BTreeSet` churn.
#[derive(Debug, Clone)]
struct OrderList {
    nodes: Vec<ListNode>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

#[derive(Debug, Clone)]
struct ListNode {
    key: ObjectKey,
    prev: u32,
    next: u32,
}

impl OrderList {
    fn new() -> Self {
        OrderList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn push_back(&mut self, key: ObjectKey) -> u32 {
        let node = ListNode {
            key,
            prev: self.tail,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        idx
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.free.push(idx);
    }

    fn move_to_back(&mut self, idx: u32) {
        if self.tail == idx {
            return;
        }
        let key = self.nodes[idx as usize].key;
        self.unlink(idx);
        self.free.pop(); // reuse the slot we just freed
        let node = ListNode {
            key,
            prev: self.tail,
            next: NIL,
        };
        self.nodes[idx as usize] = node;
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The eviction-order index. LRU and FIFO only ever need queue order, so
/// they get the O(1) list; Perfect-LFU and GD-Size order by a computed
/// priority and keep the `BTreeSet`. Both indices yield the exact same
/// victim sequence the old all-`BTreeSet` representation produced: for
/// LRU/FIFO the old order key was a strictly monotone counter, so set
/// order ≡ insertion/touch order ≡ list order.
#[derive(Debug, Clone)]
enum OrderIndex {
    Tree(BTreeSet<((u64, u64), ObjectKey)>),
    List(OrderList),
}

/// A byte-capacity cache over [`ObjectKey`]s.
///
/// All four policies share one entry table (an `FxHashMap` — see the
/// determinism note in `rustc-hash`); the policy decides the shape of the
/// eviction-order index (`OrderIndex`). Eviction pops the lowest-priority
/// (or oldest) entry, skipping pinned entries.
///
/// What [`ByteCache::warm`] installs lives in an implicit warm base (one
/// bit per object) rather than in the entry table; every operation
/// treats base entries as present, and a touched base entry moves into
/// the table. The base is older than every unpinned table entry and its
/// entries were all inserted at frequency 0, so under LRU, FIFO and
/// Perfect-LFU its oldest live entry is the victim whenever it has one;
/// under GD-Size the victim is whichever of the base's and the table's
/// lowest `(priority, tick)` keys is lower. Results, ticks and the GD
/// inflation are exactly those of the materialized cache.
#[derive(Debug, Clone)]
pub struct ByteCache {
    policy: EvictionPolicy,
    capacity: u64,
    used: u64,
    entries: FxHashMap<ObjectKey, Entry>,
    order: OrderIndex,
    /// Monotone counter used for priority ties in the `Tree` index.
    tick: u64,
    /// Perfect-LFU frequency table (survives eviction).
    freq: FxHashMap<ObjectKey, u64>,
    /// GD-Size inflation value L (scaled by `GD_SCALE`).
    gd_inflation: u64,
    hits: u64,
    misses: u64,
    base: Option<WarmBase>,
}

/// Warm-up stops adding chunks to a tier once it is this full.
const WARM_FILL: f64 = 0.9;

/// GD-Size priorities are fractional; scale into integers for the ordered
/// set. One unit = 1/GD_SCALE of "cost per byte".
const GD_SCALE: f64 = 1.0e12;

/// GD-Size priority of an object of `size` bytes under inflation `l`:
/// `L + cost/size`, with unit cost per object.
fn gd_priority(l: u64, size: u64) -> u64 {
    (l as f64 + GD_SCALE / size.max(1) as f64) as u64
}

impl ByteCache {
    /// An empty cache of `capacity` bytes under `policy`.
    pub fn new(policy: EvictionPolicy, capacity: u64) -> Self {
        let order = match policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => OrderIndex::List(OrderList::new()),
            EvictionPolicy::PerfectLfu | EvictionPolicy::GdSize => {
                OrderIndex::Tree(BTreeSet::new())
            }
        };
        ByteCache {
            policy,
            capacity,
            used: 0,
            entries: FxHashMap::default(),
            order,
            tick: 0,
            freq: FxHashMap::default(),
            gd_inflation: 0,
            hits: 0,
            misses: 0,
            base: None,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.entries.len() + self.base.as_ref().map_or(0, WarmBase::len)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses) counters from `lookup`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Priority key for the `Tree` index policies.
    fn order_key_for(&mut self, key: ObjectKey, size: u64) -> (u64, u64) {
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => unreachable!("list policies"),
            EvictionPolicy::PerfectLfu => {
                let f = *self.freq.get(&key).unwrap_or(&0);
                (f, self.next_tick())
            }
            EvictionPolicy::GdSize => (gd_priority(self.gd_inflation, size), self.next_tick()),
        }
    }

    fn reorder(&mut self, key: ObjectKey) {
        if self.policy == EvictionPolicy::Fifo {
            return; // FIFO ignores accesses
        }
        let Some(entry) = self.entries.get(&key) else {
            return;
        };
        match &mut self.order {
            OrderIndex::List(list) => list.move_to_back(entry.node),
            OrderIndex::Tree(_) => {
                let size = entry.size;
                let old = entry.order_key;
                let new = self.order_key_for(key, size);
                let OrderIndex::Tree(tree) = &mut self.order else {
                    unreachable!()
                };
                tree.remove(&(old, key));
                tree.insert((new, key));
                if let Some(e) = self.entries.get_mut(&key) {
                    e.order_key = new;
                }
            }
        }
    }

    /// Is `key` present? Updates hit/miss stats and recency/frequency.
    pub fn lookup(&mut self, key: ObjectKey) -> bool {
        // Perfect-LFU counts every *request*, hit or miss.
        if self.policy == EvictionPolicy::PerfectLfu {
            *self.freq.entry(key).or_insert(0) += 1;
        }
        if self.entries.contains_key(&key) {
            self.hits += 1;
            self.reorder(key);
            true
        } else if let Some(pos) = self.base_find(key) {
            self.hits += 1;
            self.touch_base(pos);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Presence check without touching stats or ordering.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.entries.contains_key(&key) || self.base_find(key).is_some()
    }

    fn base_find(&self, key: ObjectKey) -> Option<usize> {
        self.base.as_ref()?.find(key)
    }

    /// A base entry was accessed: under every policy but FIFO it leaves
    /// the base for the entry table with a fresh order key, just as
    /// `reorder` re-keys a table entry.
    fn touch_base(&mut self, pos: usize) {
        if self.policy == EvictionPolicy::Fifo {
            return;
        }
        let (key, size) = self.take_base(pos);
        self.push_entry(key, size);
    }

    /// Remove the base entry at `pos`, keeping `used` unchanged.
    fn take_base(&mut self, pos: usize) -> (ObjectKey, u64) {
        let base = self.base.as_mut().expect("base position without a base");
        base.kill(pos);
        base.entry(pos)
    }

    /// Add an unpinned table entry at the young end of the order index.
    fn push_entry(&mut self, key: ObjectKey, size: u64) {
        let (order_key, node) = match &mut self.order {
            OrderIndex::List(list) => ((0, 0), list.push_back(key)),
            OrderIndex::Tree(_) => {
                let ok = self.order_key_for(key, size);
                let OrderIndex::Tree(tree) = &mut self.order else {
                    unreachable!()
                };
                tree.insert((ok, key));
                (ok, NIL)
            }
        };
        self.entries.insert(
            key,
            Entry {
                size,
                order_key,
                node,
                pinned: false,
            },
        );
    }

    /// Insert `key` (`size` bytes), evicting until it fits. Returns the
    /// evicted `(key, size)` pairs so callers can demote them to a lower
    /// tier. Objects larger than the whole capacity are not admitted.
    /// Re-inserting an existing key refreshes it.
    pub fn insert(&mut self, key: ObjectKey, size: u64) -> Vec<(ObjectKey, u64)> {
        if size > self.capacity {
            return Vec::new();
        }
        if self.entries.contains_key(&key) {
            self.reorder(key);
            return Vec::new();
        }
        if let Some(pos) = self.base_find(key) {
            self.touch_base(pos);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + size > self.capacity {
            match self.pop_victim() {
                Some(victim) => evicted.push(victim),
                None => return evicted, // everything pinned; cannot admit
            }
        }
        self.push_entry(key, size);
        self.used += size;
        evicted
    }

    /// Warm the cache to steady state with `videos` in order: each one's
    /// manifest, then — unless the cache is already ~90 % full — chunks
    /// `0..chunks` at each of `rungs`. Identical in effect to inserting
    /// those objects one by one, but held as an implicit warm base in
    /// O(videos × rungs) time and one bit per object.
    ///
    /// The base describes only insertions that evict nothing, at
    /// distinct rungs, into a cache that has no base yet, whose table
    /// holds nothing but pins, and which has neither Perfect-LFU history
    /// nor GD-Size inflation. Past the first video that would evict (a
    /// long video meeting a nearly full tier, after which little but
    /// manifests remains), and for a cache in any other state, the
    /// objects are inserted one by one.
    pub fn warm(&mut self, videos: &[(&Video, u32)], rungs: &[u32]) {
        let mut lazy = self.base.is_none()
            && self.freq.is_empty()
            && self.gd_inflation == 0
            && self.entries.values().all(|e| e.pinned)
            && rungs
                .iter()
                .enumerate()
                .all(|(i, r)| !rungs[..i].contains(r));
        let mut held: FxHashMap<VideoId, Vec<ObjectKey>> = FxHashMap::default();
        if lazy {
            self.base = Some(WarmBase::new(rungs, self.tick + 1));
            for &key in self.entries.keys() {
                held.entry(key.video).or_default().push(key);
            }
        }
        for &(video, chunks) in videos {
            if lazy {
                lazy = self.warm_lazily(video, chunks, rungs, held.get(&video.id));
                if lazy {
                    continue;
                }
            }
            self.insert(ObjectKey::manifest(video.id), MANIFEST_BYTES);
            if self.used as f64 >= WARM_FILL * self.capacity as f64 {
                continue;
            }
            for &rung in rungs {
                for c in 0..chunks {
                    let chunk = ChunkIndex(c);
                    let key = ObjectKey {
                        video: video.id,
                        chunk,
                        bitrate_kbps: rung,
                    };
                    self.insert(key, video.chunk_bytes(chunk, rung));
                }
            }
        }
    }

    /// Append `video` to the warm base if inserting it would evict
    /// nothing; `held` lists the keys of `video` the table already holds
    /// (pins), which a warm insert merely refreshes.
    fn warm_lazily(
        &mut self,
        video: &Video,
        chunks: u32,
        rungs: &[u32],
        held: Option<&Vec<ObjectKey>>,
    ) -> bool {
        let held = held.map_or(&[][..], Vec::as_slice);
        let base = self.base.as_mut().expect("lazy warm-up has a base");
        if base.has_video(video.id) {
            return false;
        }
        let mut bytes = MANIFEST_BYTES;
        let chunks = if (self.used + bytes) as f64 >= WARM_FILL * self.capacity as f64 {
            0
        } else {
            chunks
        };
        bytes += rungs
            .iter()
            .map(|&r| WarmBase::rung_bytes(video, chunks, r))
            .sum::<u64>();
        let in_block = |k: &&ObjectKey| {
            k.is_manifest() || (k.chunk.raw() < chunks && rungs.contains(&k.bitrate_kbps))
        };
        bytes -= held
            .iter()
            .filter(in_block)
            .map(|k| self.entries[k].size)
            .sum::<u64>();
        if self.used + bytes > self.capacity {
            return false;
        }
        base.push(video, chunks, held);
        self.used += bytes;
        self.tick += 1 + (rungs.len() * chunks as usize) as u64;
        true
    }

    /// Drop every entry at once (a process restart losing its in-memory
    /// contents). Lifetime hit/miss stats and the Perfect-LFU frequency
    /// history survive — they model knowledge that outlives a restart —
    /// but pins are lost with the entries that held them.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.base = None;
        match &mut self.order {
            OrderIndex::List(list) => list.clear(),
            OrderIndex::Tree(tree) => tree.clear(),
        }
        self.used = 0;
    }

    /// Pin `key` so it is never evicted (used by the "cache the first chunk
    /// of every video" policy). No-op if absent.
    pub fn pin(&mut self, key: ObjectKey) {
        if let Some(pos) = self.base_find(key) {
            // A pinned entry is never a victim, so its place in the order
            // no longer matters: it can leave the base.
            let (key, size) = self.take_base(pos);
            self.push_entry(key, size);
        }
        if let Some(e) = self.entries.get_mut(&key) {
            e.pinned = true;
        }
    }

    /// Remove a specific key (e.g. when promoting between tiers).
    pub fn remove(&mut self, key: ObjectKey) -> bool {
        if let Some(e) = self.entries.remove(&key) {
            match &mut self.order {
                OrderIndex::List(list) => list.unlink(e.node),
                OrderIndex::Tree(tree) => {
                    tree.remove(&(e.order_key, key));
                }
            }
            self.used -= e.size;
            true
        } else if let Some(pos) = self.base_find(key) {
            let (_, size) = self.take_base(pos);
            self.used -= size;
            true
        } else {
            false
        }
    }

    /// Evict the policy's victim, skipping pinned entries.
    fn pop_victim(&mut self) -> Option<(ObjectKey, u64)> {
        if let Some(pos) = self.base_victim() {
            let (key, size) = self.take_base(pos);
            self.used -= size;
            return Some((key, size));
        }
        let key = match &self.order {
            OrderIndex::List(list) => {
                let mut idx = list.head;
                loop {
                    if idx == NIL {
                        return None;
                    }
                    let k = list.nodes[idx as usize].key;
                    if !self.entries.get(&k).map(|e| e.pinned).unwrap_or(false) {
                        break k;
                    }
                    idx = list.nodes[idx as usize].next;
                }
            }
            OrderIndex::Tree(tree) => {
                let (_, k) = *tree
                    .iter()
                    .find(|(_, k)| !self.entries.get(k).map(|e| e.pinned).unwrap_or(false))?;
                k
            }
        };
        let e = self.entries.remove(&key).expect("order/entries in sync");
        match &mut self.order {
            OrderIndex::List(list) => list.unlink(e.node),
            OrderIndex::Tree(tree) => {
                tree.remove(&(e.order_key, key));
            }
        }
        self.used -= e.size;
        if self.policy == EvictionPolicy::GdSize {
            // GD-Size: the evicted priority becomes the new inflation L.
            self.gd_inflation = e.order_key.0;
        }
        Some((key, e.size))
    }

    /// The base position to evict next, if the victim is a base entry.
    fn base_victim(&mut self) -> Option<usize> {
        let base = self.base.as_mut()?;
        if self.policy != EvictionPolicy::GdSize {
            return base.oldest();
        }
        // Base entries were keyed while the inflation was still 0.
        let (prio, pos) = base.cheapest(|size| gd_priority(0, size))?;
        let OrderIndex::Tree(tree) = &self.order else {
            unreachable!("GD-Size orders by tree")
        };
        let table_first = tree
            .iter()
            .find(|(_, k)| !self.entries.get(k).map(|e| e.pinned).unwrap_or(false))
            .map(|&(ok, _)| ok);
        if table_first.is_some_and(|ok| ok < (prio, base.tick(pos))) {
            return None;
        }
        self.gd_inflation = prio;
        Some(pos)
    }
}
