//! The warm base: the entries cache warm-up installs, held implicitly.
//!
//! Warm-up fills each tier with a server's affinity videos in catalog
//! order: per video its manifest, then chunks `0..chunks` at each of the
//! tier's rungs (rung-major). That sequence is fully described by the
//! `Video`, a start position and the chunk count, so the base stores one
//! [`Block`] per video plus one bit per object — instead of a hash entry
//! and an order-index node for each of millions of objects a run never
//! requests. The bit is set when its object leaves the base: evicted,
//! removed, or touched (the cache then materializes it into its ordinary
//! entry table with a fresh order key).
//!
//! Position `p` of the base carries insertion tick `first_tick + p`, so
//! base order is insertion order. No base entry is pinned, and every
//! overlay entry the cache holds that is not pinned is younger than every
//! base entry; that is what lets each policy pick victims exactly as a
//! materialized cache would (see [`super::ByteCache`]).

use super::{ObjectKey, MANIFEST_BYTES};
use rustc_hash::FxHashMap;
use streamlab_workload::{ChunkIndex, Video, VideoId};

/// One video's stretch of the base: the manifest at `first`, then chunk
/// `c` of rung `r` at `first + 1 + r * chunks + c`.
#[derive(Debug, Clone)]
struct Block {
    video: Video,
    first: usize,
    chunks: u32,
}

/// A run of consecutive positions sharing one GD-Size priority.
#[derive(Debug, Clone, Copy)]
struct Run {
    prio: u64,
    first: usize,
    len: usize,
}

/// The implicit warm-up prefix of one cache tier.
#[derive(Debug, Clone)]
pub(super) struct WarmBase {
    rungs: Vec<u32>,
    blocks: Vec<Block>,
    by_video: FxHashMap<VideoId, usize>,
    /// One bit per position, set once the entry has left the base.
    gone: Vec<u64>,
    positions: usize,
    live_count: usize,
    first_tick: u64,
    /// Queue order: no live position lies below `head`.
    head: usize,
    /// GD-Size order: runs sorted by `(prio, first)`, built on first use
    /// (the base is complete by then), and a cursor into them.
    runs: Option<Vec<Run>>,
    run_at: usize,
    run_pos: usize,
}

impl WarmBase {
    /// An empty base for a tier warmed at `rungs`, whose first position
    /// takes tick `first_tick`.
    pub(super) fn new(rungs: &[u32], first_tick: u64) -> Self {
        WarmBase {
            rungs: rungs.to_vec(),
            blocks: Vec::new(),
            by_video: FxHashMap::default(),
            gone: Vec::new(),
            positions: 0,
            live_count: 0,
            first_tick,
            head: 0,
            runs: None,
            run_at: 0,
            run_pos: 0,
        }
    }

    /// Live entries.
    pub(super) fn len(&self) -> usize {
        self.live_count
    }

    /// Does the base already describe `video`?
    pub(super) fn has_video(&self, video: VideoId) -> bool {
        self.by_video.contains_key(&video)
    }

    /// Insertion tick of position `pos`.
    pub(super) fn tick(&self, pos: usize) -> u64 {
        self.first_tick + pos as u64
    }

    /// Bytes of chunks `0..chunks` of `video` at `rung`, in closed form:
    /// every chunk but the last is a full six seconds.
    pub(super) fn rung_bytes(video: &Video, chunks: u32, rung: u32) -> u64 {
        let n = video.chunk_count();
        let full = u64::from(chunks.min(n - 1));
        let mut bytes = full * video.chunk_bytes(ChunkIndex(0), rung);
        if chunks == n {
            bytes += video.chunk_bytes(ChunkIndex(n - 1), rung);
        }
        bytes
    }

    /// Append `video`'s block. The keys in `present` are already held by
    /// the cache: their positions are allocated — they keep their tick —
    /// but start dead.
    pub(super) fn push(&mut self, video: &Video, chunks: u32, present: &[ObjectKey]) {
        debug_assert!(
            self.runs.is_none(),
            "base is complete once victims are drawn"
        );
        let first = self.positions;
        let len = 1 + self.rungs.len() * chunks as usize;
        self.by_video.insert(video.id, self.blocks.len());
        self.blocks.push(Block {
            video: video.clone(),
            first,
            chunks,
        });
        self.positions += len;
        self.gone.resize(self.positions.div_ceil(64), 0);
        self.live_count += len;
        for &key in present {
            if let Some(pos) = self.find(key) {
                self.kill(pos);
            }
        }
    }

    fn is_live(&self, pos: usize) -> bool {
        self.gone[pos / 64] & (1 << (pos % 64)) == 0
    }

    /// The live position holding `key`, if any.
    pub(super) fn find(&self, key: ObjectKey) -> Option<usize> {
        let block = &self.blocks[*self.by_video.get(&key.video)?];
        let pos = if key.is_manifest() {
            block.first
        } else {
            let r = self.rungs.iter().position(|&r| r == key.bitrate_kbps)?;
            let c = key.chunk.raw();
            if c >= block.chunks {
                return None;
            }
            block.first + 1 + r * block.chunks as usize + c as usize
        };
        self.is_live(pos).then_some(pos)
    }

    /// Key and size at `pos`.
    pub(super) fn entry(&self, pos: usize) -> (ObjectKey, u64) {
        let block = &self.blocks[self.blocks.partition_point(|b| b.first <= pos) - 1];
        let offset = pos - block.first;
        if offset == 0 {
            return (ObjectKey::manifest(block.video.id), MANIFEST_BYTES);
        }
        let chunks = block.chunks as usize;
        let rung = self.rungs[(offset - 1) / chunks];
        let chunk = ChunkIndex(((offset - 1) % chunks) as u32);
        let key = ObjectKey {
            video: block.video.id,
            chunk,
            bitrate_kbps: rung,
        };
        (key, block.video.chunk_bytes(chunk, rung))
    }

    /// Retire the live entry at `pos` from the base.
    pub(super) fn kill(&mut self, pos: usize) {
        debug_assert!(self.is_live(pos));
        self.gone[pos / 64] |= 1 << (pos % 64);
        self.live_count -= 1;
    }

    /// First live position in `from..end`.
    fn next_live(&self, from: usize, end: usize) -> Option<usize> {
        let mut i = from;
        while i < end {
            let word = !self.gone[i / 64] >> (i % 64);
            if word != 0 {
                let p = i + word.trailing_zeros() as usize;
                return (p < end).then_some(p);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }

    /// The oldest live position: the victim under LRU, FIFO and
    /// Perfect-LFU.
    pub(super) fn oldest(&mut self) -> Option<usize> {
        let p = self.next_live(self.head, self.positions)?;
        self.head = p;
        Some(p)
    }

    /// The live position with the lowest `(priority, tick)`: the GD-Size
    /// victim. `priority` maps an object size to its GD-Size priority.
    pub(super) fn cheapest(&mut self, priority: impl Fn(u64) -> u64) -> Option<(u64, usize)> {
        if self.runs.is_none() {
            self.runs = Some(self.build_runs(priority));
        }
        let runs = self.runs.as_deref().unwrap_or_default();
        while let Some(run) = runs.get(self.run_at) {
            let from = self.run_pos.max(run.first);
            if let Some(p) = self.next_live(from, run.first + run.len) {
                self.run_pos = p;
                return Some((run.prio, p));
            }
            self.run_at += 1;
            self.run_pos = 0;
        }
        None
    }

    /// Split every block into runs of equal size — the manifest, then per
    /// rung the full chunks and the (possibly short) last chunk — and sort
    /// them into GD-Size victim order.
    fn build_runs(&self, priority: impl Fn(u64) -> u64) -> Vec<Run> {
        let mut runs = Vec::new();
        for b in &self.blocks {
            runs.push(Run {
                prio: priority(MANIFEST_BYTES),
                first: b.first,
                len: 1,
            });
            let n = b.video.chunk_count();
            let full = b.chunks.min(n - 1) as usize;
            for (r, &rung) in self.rungs.iter().enumerate() {
                let first = b.first + 1 + r * b.chunks as usize;
                if full > 0 {
                    runs.push(Run {
                        prio: priority(b.video.chunk_bytes(ChunkIndex(0), rung)),
                        first,
                        len: full,
                    });
                }
                if b.chunks == n {
                    runs.push(Run {
                        prio: priority(b.video.chunk_bytes(ChunkIndex(n - 1), rung)),
                        first: first + full,
                        len: 1,
                    });
                }
            }
        }
        runs.sort_unstable_by_key(|r| (r.prio, r.first));
        runs
    }
}
