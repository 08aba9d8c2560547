//! Differential tests for the lazy warm base: a cache warmed through
//! `ByteCache::warm` must behave exactly like one warmed by inserting the
//! same objects one at a time (the eager oracle below), under every
//! eviction policy, with and without pinned first chunks, under every
//! admission gate, for arbitrary request streams that drive both tiers
//! past capacity.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use streamlab_cdn::{
    AdmissionPolicy, ByteCache, CacheStatus, EvictionPolicy, ObjectKey, TieredCache, MANIFEST_BYTES,
};
use streamlab_sim::RngStream;
use streamlab_workload::{ChunkIndex, Video, VideoId};

const DISK_RUNGS: [u32; 3] = [100, 250, 400];
const RAM_RUNGS: [u32; 2] = [100, 400];

/// The eager oracle: warm-up as one insert per object — each video's
/// manifest, then, below 90 % full, chunks `0..chunks` at every rung.
fn eager_warm(cache: &mut ByteCache, videos: &[(&Video, u32)], rungs: &[u32]) {
    for &(video, chunks) in videos {
        cache.insert(ObjectKey::manifest(video.id), MANIFEST_BYTES);
        if cache.used() as f64 >= 0.9 * cache.capacity() as f64 {
            continue;
        }
        for &rung in rungs {
            for c in 0..chunks {
                let k = ObjectKey {
                    video: video.id,
                    chunk: ChunkIndex(c),
                    bitrate_kbps: rung,
                };
                cache.insert(k, video.chunk_bytes(ChunkIndex(c), rung));
            }
        }
    }
}

/// A catalog of short videos: `(chunks, exact-multiple, warmed share)`.
fn catalog(specs: &[(u32, bool, u32)]) -> Vec<(Video, u32)> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(n, exact, share))| {
            let duration_s = if exact {
                6.0 * f64::from(n)
            } else {
                6.0 * f64::from(n) - 2.5
            };
            let warmed = (n * share).div_ceil(100).clamp(1, n);
            (
                Video {
                    id: VideoId(i as u64),
                    duration_s,
                },
                warmed,
            )
        })
        .collect()
}

/// Every key the streams draw from: each video's manifest and chunks at
/// every disk rung (warmed or not), plus a video outside the catalog.
fn universe(videos: &[(Video, u32)]) -> Vec<(ObjectKey, u64)> {
    let mut keys = Vec::new();
    let outsider = Video {
        id: VideoId(99),
        duration_s: 40.0,
    };
    for video in videos.iter().map(|(v, _)| v).chain([&outsider]) {
        keys.push((ObjectKey::manifest(video.id), MANIFEST_BYTES));
        for &rung in &DISK_RUNGS {
            for c in 0..video.chunk_count() {
                let k = ObjectKey {
                    video: video.id,
                    chunk: ChunkIndex(c),
                    bitrate_kbps: rung,
                };
                keys.push((k, video.chunk_bytes(ChunkIndex(c), rung)));
            }
        }
    }
    keys
}

/// Build one two-tier cache: optionally pin every first chunk (as fleet
/// warm-up does, through both tiers), then warm lazily or eagerly.
fn build(
    lazy: bool,
    policy: EvictionPolicy,
    (ram_bytes, disk_bytes): (u64, u64),
    pin: bool,
    videos: &[(Video, u32)],
) -> (ByteCache, ByteCache) {
    let mut ram = ByteCache::new(policy, ram_bytes);
    let mut disk = ByteCache::new(policy, disk_bytes);
    if pin {
        for (video, _) in videos {
            for &rung in &DISK_RUNGS {
                let k = ObjectKey {
                    video: video.id,
                    chunk: ChunkIndex(0),
                    bitrate_kbps: rung,
                };
                let size = video.chunk_bytes(ChunkIndex(0), rung);
                disk.insert(k, size);
                for (victim, vsize) in ram.insert(k, size) {
                    disk.insert(victim, vsize);
                }
                disk.pin(k);
                ram.pin(k);
            }
        }
    }
    let order: Vec<(&Video, u32)> = videos.iter().map(|(v, c)| (v, *c)).collect();
    if lazy {
        disk.warm(&order, &DISK_RUNGS);
        ram.warm(&order, &RAM_RUNGS);
    } else {
        eager_warm(&mut disk, &order, &DISK_RUNGS);
        eager_warm(&mut ram, &order, &RAM_RUNGS);
    }
    (ram, disk)
}

fn policies() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Lru),
        Just(EvictionPolicy::PerfectLfu),
        Just(EvictionPolicy::GdSize),
        Just(EvictionPolicy::Fifo),
    ]
}

fn admissions() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Always),
        Just(AdmissionPolicy::OnSecondRequest),
        (0.2f64..0.9).prop_map(AdmissionPolicy::Probabilistic),
    ]
}

fn video_specs() -> impl Strategy<Value = Vec<(u32, bool, u32)>> {
    proptest::collection::vec((1u32..24, any::<bool>(), 40u32..=100), 1..10)
}

/// RAM and disk capacities: from below one chunk to several videos, so
/// warm-up sometimes evicts and streams always can.
fn capacities() -> impl Strategy<Value = (u64, u64)> {
    (50_000u64..6_000_000, 400_000u64..30_000_000)
}

fn same_tier(a: &ByteCache, b: &ByteCache, keys: &[(ObjectKey, u64)]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.used(), b.used());
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.stats(), b.stats());
    for &(k, _) in keys {
        prop_assert_eq!(a.contains(k), b.contains(k), "presence of {:?}", k);
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum CacheOp {
    Lookup(usize),
    Insert(usize),
    Remove(usize),
    Pin(usize),
    Clear,
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let op = prop_oneof![
        any::<usize>().prop_map(CacheOp::Lookup),
        any::<usize>().prop_map(CacheOp::Insert),
        any::<usize>().prop_map(CacheOp::Insert),
        any::<usize>().prop_map(CacheOp::Remove),
        any::<usize>().prop_map(CacheOp::Pin),
        (0u8..40).prop_map(|_| CacheOp::Clear),
    ];
    proptest::collection::vec(op, 1..800)
}

#[derive(Debug, Clone)]
enum ServeOp {
    /// Fetch; on a miss, gate the fill through admission and prefetch the
    /// next `n` chunks, as a CDN server does.
    Request(usize, u32),
    WipeRam,
}

fn serve_ops() -> impl Strategy<Value = Vec<ServeOp>> {
    let op = prop_oneof![
        (any::<usize>(), 0u32..3).prop_map(|(k, n)| ServeOp::Request(k, n)),
        (any::<usize>(), 0u32..3).prop_map(|(k, n)| ServeOp::Request(k, n)),
        (any::<usize>(), 0u32..3).prop_map(|(k, n)| ServeOp::Request(k, n)),
        (0u8..1).prop_map(|_| ServeOp::WipeRam),
    ];
    proptest::collection::vec(op, 1..800)
}

/// One request against `cache`: the status, then the admitted fill and
/// prefetches of a miss.
fn serve(
    cache: &mut TieredCache,
    rng: &mut RngStream,
    keys: &[(ObjectKey, u64)],
    i: usize,
    prefetch: u32,
) -> CacheStatus {
    let (key, size) = keys[i];
    let status = cache.fetch(key, size);
    if status == CacheStatus::Miss {
        if cache.should_admit(key, rng) {
            cache.fill(key, size);
        }
        for &(k, s) in keys[i + 1..].iter().take(prefetch as usize) {
            if k.video == key.video && !k.is_manifest() && !cache.contains(k) {
                cache.fill(k, s);
            }
        }
    }
    status
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn lazy_byte_cache_matches_eager_inserts(
        policy in policies(),
        caps in capacities(),
        pin in any::<bool>(),
        specs in video_specs(),
        ops in cache_ops(),
    ) {
        let videos = catalog(&specs);
        let keys = universe(&videos);
        let (mut lazy_ram, mut lazy_disk) = build(true, policy, caps, pin, &videos);
        let (mut eager_ram, mut eager_disk) = build(false, policy, caps, pin, &videos);
        same_tier(&lazy_ram, &eager_ram, &keys)?;
        same_tier(&lazy_disk, &eager_disk, &keys)?;
        for (step, op) in ops.into_iter().enumerate() {
            // Alternate tiers so both the two-rung and the full-ladder
            // base are exercised.
            let (lazy, eager) = if step % 2 == 0 {
                (&mut lazy_disk, &mut eager_disk)
            } else {
                (&mut lazy_ram, &mut eager_ram)
            };
            match op {
                CacheOp::Lookup(i) => {
                    let k = keys[i % keys.len()].0;
                    prop_assert_eq!(lazy.lookup(k), eager.lookup(k));
                }
                CacheOp::Insert(i) => {
                    let (k, s) = keys[i % keys.len()];
                    let (a, b) = (lazy.insert(k, s), eager.insert(k, s));
                    prop_assert_eq!(&a, &b, "insert {:?}: lazy evicted {:?}, eager {:?}", k, a, b);
                }
                CacheOp::Remove(i) => {
                    let k = keys[i % keys.len()].0;
                    prop_assert_eq!(lazy.remove(k), eager.remove(k));
                }
                CacheOp::Pin(i) => {
                    let k = keys[i % keys.len()].0;
                    lazy.pin(k);
                    eager.pin(k);
                }
                CacheOp::Clear => {
                    lazy.clear();
                    eager.clear();
                }
            }
            prop_assert_eq!(lazy.used(), eager.used());
            prop_assert_eq!(lazy.len(), eager.len());
        }
        same_tier(&lazy_ram, &eager_ram, &keys)?;
        same_tier(&lazy_disk, &eager_disk, &keys)?;
    }

    #[test]
    fn lazy_tiered_cache_matches_eager_inserts(
        policy in policies(),
        admission in admissions(),
        caps in capacities(),
        pin in any::<bool>(),
        specs in video_specs(),
        ops in serve_ops(),
    ) {
        let videos = catalog(&specs);
        let keys = universe(&videos);
        let (ram, disk) = build(true, policy, caps, pin, &videos);
        let mut lazy = TieredCache::from_tiers(ram, disk, admission);
        let (ram, disk) = build(false, policy, caps, pin, &videos);
        let mut eager = TieredCache::from_tiers(ram, disk, admission);
        let mut lazy_rng = RngStream::new(7, "warm-base-admission");
        let mut eager_rng = RngStream::new(7, "warm-base-admission");
        for op in ops {
            match op {
                ServeOp::Request(i, n) => {
                    let i = i % keys.len();
                    let a = serve(&mut lazy, &mut lazy_rng, &keys, i, n);
                    let b = serve(&mut eager, &mut eager_rng, &keys, i, n);
                    prop_assert_eq!(a, b, "{:?}: lazy {:?}, eager {:?}", keys[i].0, a, b);
                }
                ServeOp::WipeRam => {
                    lazy.wipe_ram();
                    eager.wipe_ram();
                }
            }
            prop_assert_eq!(lazy.churn(), eager.churn());
            prop_assert_eq!(lazy.ram().used(), eager.ram().used());
            prop_assert_eq!(lazy.disk().used(), eager.disk().used());
            prop_assert_eq!(lazy.ram().len(), eager.ram().len());
            prop_assert_eq!(lazy.disk().len(), eager.disk().len());
        }
        same_tier(lazy.ram(), eager.ram(), &keys)?;
        same_tier(lazy.disk(), eager.disk(), &keys)?;
    }
}
