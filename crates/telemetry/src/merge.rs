//! The one assembly path: a k-way merge over sorted runs.
//!
//! Every [`TelemetrySink`] holds its chunk records as sorted runs: one per
//! sealed spill segment, plus its in-RAM arena, which is an unsealed run
//! whose player and CDN halves are each sorted by `(session, chunk)` when
//! the merge opens. Merging the runs of every sink by that key yields the
//! sessions ascending by id and each session's chunks ascending — the
//! §2.2 join on session ID and chunk ID — whichever shard held them and
//! whether or not they spilled.
//!
//! The merge runs behind a classic loser tree — `O(log k)` comparisons per
//! row — and takes all rows that share a key together. Exactly one player
//! beacon and one CDN line join; any other mix is reported as the
//! [`JoinError`] the hash-join definition of the join gives for it: a
//! repeated CDN line is a [`JoinError::DuplicateKey`], a lone CDN line a
//! [`JoinError::OrphanCdnRecord`], a player beacon without a CDN line of
//! its own a [`JoinError::OrphanPlayerRecord`], and chunks of a session
//! without metadata a [`JoinError::MissingSessionMeta`].

use std::io;
use std::iter::Peekable;
use std::path::Path;
use std::vec::IntoIter;

use crate::dataset::{JoinError, SessionData, TelemetrySink};
use crate::records::{CdnChunkRecord, ChunkRecord, PlayerChunkRecord, SessionMeta};
use crate::segment::{SegmentMeta, SegmentReader, SortKey};

/// One merge item: a joined chunk, or a half its run holds no counterpart
/// for.
enum Row {
    Joined(ChunkRecord),
    Player(PlayerChunkRecord),
    Cdn(CdnChunkRecord),
}

/// One sorted run feeding the merge: a sealed segment, read one row group
/// at a time, or a sink's in-RAM arena (no segment behind it). Rows stay
/// in the run until they are taken.
struct Run {
    player: IntoIter<PlayerChunkRecord>,
    cdn: IntoIter<CdnChunkRecord>,
    segment: Option<(SegmentReader, String)>,
}

impl Run {
    /// An in-RAM arena as a run: both halves sorted by key, ties kept in
    /// push order.
    fn arena(mut player: Vec<PlayerChunkRecord>, mut cdn: Vec<CdnChunkRecord>) -> Run {
        player.sort_by_cached_key(|p| (p.session, p.chunk));
        cdn.sort_by_cached_key(|c| (c.session, c.chunk));
        Run {
            player: player.into_iter(),
            cdn: cdn.into_iter(),
            segment: None,
        }
    }

    /// A sealed segment as a run, checked against its manifest entry.
    fn segment(meta: &SegmentMeta) -> Result<Run, JoinError> {
        let reader = SegmentReader::open(Path::new(&meta.path))
            .map_err(|e| JoinError::Spill(format!("opening {}: {e}", meta.path)))?;
        let h = reader.header();
        if h.rows != meta.rows || h.shard != meta.shard || h.seq != meta.seq {
            return Err(JoinError::Spill(format!(
                "segment {} disagrees with its manifest entry",
                meta.path
            )));
        }
        Ok(Run {
            player: Vec::new().into_iter(),
            cdn: Vec::new().into_iter(),
            segment: Some((reader, meta.path.clone())),
        })
    }

    /// The keys at the head of the player and CDN halves.
    fn heads(&self) -> (Option<SortKey>, Option<SortKey>) {
        (
            self.player.as_slice().first().map(|p| (p.session, p.chunk)),
            self.cdn.as_slice().first().map(|c| (c.session, c.chunk)),
        )
    }

    /// The key of the run's next row, reading the segment's next row group
    /// once the current one is used up.
    fn peek_key(&mut self) -> Result<Option<SortKey>, JoinError> {
        if self.player.len() == 0 && self.cdn.len() == 0 {
            let Some((reader, path)) = &mut self.segment else {
                return Ok(None);
            };
            let Some((p, c)) = reader
                .next_group()
                .map_err(|e| JoinError::Spill(format!("reading {path}: {e}")))?
            else {
                return Ok(None);
            };
            self.player = p.into_iter();
            self.cdn = c.into_iter();
        }
        Ok(match self.heads() {
            (Some(p), Some(c)) => Some(p.min(c)),
            (p, c) => p.or(c),
        })
    }

    /// Take the row [`Run::peek_key`] announced: the two halves' heads join
    /// when their keys match, otherwise the smaller head comes out alone.
    fn take(&mut self) -> Row {
        match self.heads() {
            (Some(p), Some(c)) if p == c => Row::Joined(ChunkRecord {
                player: self.player.next().expect("peeked"),
                cdn: self.cdn.next().expect("peeked"),
            }),
            (Some(p), c) if c.is_none_or(|c| p < c) => {
                Row::Player(self.player.next().expect("peeked"))
            }
            _ => Row::Cdn(self.cdn.next().expect("peeked")),
        }
    }
}

/// Loser-tree merge over `k` sorted runs: `tree[0]` holds the current
/// winner, the internal nodes hold losers; replaying one run after a pop
/// costs `O(log k)` head-key comparisons.
struct LoserTree {
    runs: Vec<Run>,
    /// Each run's head key; `None` once the run is exhausted.
    keys: Vec<Option<SortKey>>,
    tree: Vec<usize>,
    k: usize,
}

const EMPTY: usize = usize::MAX;

impl LoserTree {
    fn new(mut runs: Vec<Run>) -> Result<LoserTree, JoinError> {
        let k = runs.len().max(1);
        let mut keys = Vec::with_capacity(k);
        for run in &mut runs {
            keys.push(run.peek_key()?);
        }
        keys.resize(k, None);
        let mut tree = LoserTree {
            runs,
            keys,
            tree: vec![EMPTY; k],
            k,
        };
        tree.build();
        Ok(tree)
    }

    /// Bottom-up tournament build: leaves live at node indices `k..2k`,
    /// each internal node keeps its subtree's loser, the root slot keeps
    /// the overall winner.
    fn build(&mut self) {
        let k = self.k;
        if k == 1 {
            self.tree[0] = 0;
            return;
        }
        let mut winners = vec![EMPTY; 2 * k];
        for i in 0..k {
            winners[k + i] = i;
        }
        for node in (1..k).rev() {
            let l = winners[2 * node];
            let r = winners[2 * node + 1];
            let (w, loser) = if self.beats(r, l) { (r, l) } else { (l, r) };
            winners[node] = w;
            self.tree[node] = loser;
        }
        self.tree[0] = winners[1];
    }

    /// `a` beats `b` (strictly smaller key; exhausted runs lose to
    /// everything; ties break toward the lower run index so the merge is
    /// deterministic even on duplicate keys).
    fn beats(&self, a: usize, b: usize) -> bool {
        if a == EMPTY {
            return false;
        }
        if b == EMPTY {
            return true;
        }
        match (self.keys[a], self.keys[b]) {
            (Some(ka), Some(kb)) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Replay run `i` from its leaf to the root after its head changed.
    fn replay(&mut self, i: usize) {
        let mut winner = i;
        let mut node = (i + self.k) / 2;
        while node > 0 {
            let other = self.tree[node];
            if self.beats(other, winner) {
                self.tree[node] = winner;
                winner = other;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// The smallest head key, without popping its row.
    fn peek_key(&self) -> Option<SortKey> {
        *self.keys.get(self.tree[0])?
    }

    /// Pop the row with the smallest head key across all runs.
    fn pop(&mut self) -> Result<Option<Row>, JoinError> {
        let w = self.tree[0];
        if self.peek_key().is_none() {
            return Ok(None);
        }
        let row = self.runs[w].take();
        self.keys[w] = self.runs[w].peek_key()?;
        self.replay(w);
        Ok(Some(row))
    }
}

/// Session metadata for the merge: sorted ascending by id, duplicates
/// resolved last-wins.
fn sorted_metas(mut sessions: Vec<SessionMeta>) -> Vec<SessionMeta> {
    // Stable sort keeps insertion order within an id, so keeping the last
    // element of each equal-id group is exactly "last meta wins".
    sessions.sort_by_key(|m| m.session);
    let mut out: Vec<SessionMeta> = Vec::with_capacity(sessions.len());
    for m in sessions {
        if out.last().is_some_and(|l| l.session == m.session) {
            *out.last_mut().expect("non-empty") = m;
        } else {
            out.push(m);
        }
    }
    out
}

/// The joined sessions of a set of sinks, in ascending session-id order —
/// the iterator [`crate::Dataset::assemble`] collects.
///
/// Besides the sinks' in-RAM arenas it takes over, holds one row group per
/// open segment and the session currently being assembled. Yields `Err`
/// at most once (the first join violation or segment read failure), after
/// which the stream is exhausted.
pub struct SessionStream {
    inner: StreamInner,
}

enum StreamInner {
    Merged(Box<Merged>),
    /// Exhausted, with the error still to yield if opening failed.
    Done(Option<JoinError>),
}

struct Merged {
    tree: LoserTree,
    metas: Peekable<IntoIter<SessionMeta>>,
    /// The current session's chunks; moved out into an exactly sized
    /// vector when the session is complete.
    chunks: Vec<ChunkRecord>,
}

impl SessionStream {
    /// Stream the join of `sinks` (spilled or not, in any order).
    pub fn new(sinks: impl IntoIterator<Item = TelemetrySink>) -> SessionStream {
        let inner = match Merged::open(sinks) {
            Ok(m) => StreamInner::Merged(Box::new(m)),
            Err(e) => StreamInner::Done(Some(e)),
        };
        SessionStream { inner }
    }
}

impl Merged {
    fn open(sinks: impl IntoIterator<Item = TelemetrySink>) -> Result<Merged, JoinError> {
        let mut runs = Vec::new();
        let mut metas = Vec::new();
        for sink in sinks {
            for meta in &sink.sealed {
                runs.push(Run::segment(meta)?);
            }
            if !sink.player.is_empty() || !sink.cdn.is_empty() {
                runs.push(Run::arena(sink.player, sink.cdn));
            }
            metas.extend(sink.sessions);
        }
        Ok(Merged {
            tree: LoserTree::new(runs)?,
            metas: sorted_metas(metas).into_iter().peekable(),
            chunks: Vec::new(),
        })
    }

    fn next_session(&mut self) -> Result<Option<SessionData>, JoinError> {
        let Some((session, _)) = self.tree.peek_key() else {
            return Ok(None);
        };
        while let Some(key) = self.tree.peek_key().filter(|k| k.0 == session) {
            let chunk = self.join_key(key)?;
            self.chunks.push(chunk);
        }
        let chunks = self.chunks.drain(..).collect();
        // Metadata-only sessions with no chunks are dropped.
        while self.metas.next_if(|m| m.session < session).is_some() {}
        let meta = self
            .metas
            .next_if(|m| m.session == session)
            .ok_or(JoinError::MissingSessionMeta(session))?;
        Ok(Some(SessionData { meta, chunks }))
    }

    /// Take every row with key `key` and join them into one chunk.
    fn join_key(&mut self, key: SortKey) -> Result<ChunkRecord, JoinError> {
        let row = self.tree.pop()?.expect("peeked");
        if self.tree.peek_key() != Some(key) {
            if let Row::Joined(c) = row {
                return Ok(c);
            }
        }
        // Halves from different runs, or repeated ones, meet here.
        let (mut players, mut cdns) = (Vec::new(), Vec::new());
        let mut next = Some(row);
        while let Some(row) = next {
            match row {
                Row::Joined(c) => {
                    players.push(c.player);
                    cdns.push(c.cdn);
                }
                Row::Player(p) => players.push(p),
                Row::Cdn(c) => cdns.push(c),
            }
            next = if self.tree.peek_key() == Some(key) {
                self.tree.pop()?
            } else {
                None
            };
        }
        match (players.pop(), cdns.pop()) {
            _ if !cdns.is_empty() => Err(JoinError::DuplicateKey(key.0, key.1)),
            (None, _) => Err(JoinError::OrphanCdnRecord(key.0, key.1)),
            (Some(player), Some(cdn)) if players.is_empty() => Ok(ChunkRecord { player, cdn }),
            _ => Err(JoinError::OrphanPlayerRecord(key.0, key.1)),
        }
    }
}

impl Iterator for SessionStream {
    type Item = Result<SessionData, JoinError>;

    fn next(&mut self) -> Option<Self::Item> {
        let next = match &mut self.inner {
            StreamInner::Done(e) => return e.take().map(Err),
            StreamInner::Merged(m) => m.next_session(),
        };
        if !matches!(next, Ok(Some(_))) {
            self.inner = StreamInner::Done(None);
        }
        next.transpose()
    }
}

/// Check every sealed segment in `sealed` against its manifest entry
/// (fingerprints included).
pub fn validate_sealed(sealed: &[SegmentMeta]) -> io::Result<()> {
    for meta in sealed {
        crate::segment::validate_segment(meta)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;
    use streamlab_workload::{ChunkIndex, SessionId};

    #[test]
    fn loser_tree_merges_three_runs() {
        // Hand-built in-RAM runs: keys (session, chunk).
        let runs = vec![
            arena(&[(0, 0), (2, 0), (2, 1)]),
            arena(&[(1, 0), (1, 1)]),
            arena(&[(0, 1), (3, 0)]),
        ];
        let keys = drain_keys(LoserTree::new(runs).unwrap());
        assert_eq!(
            keys,
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
        );
    }

    #[test]
    fn spilled_interleaved_stream_matches_in_ram_assemble() {
        use crate::dataset::SpillSpec;
        use streamlab_supervisor::Storage;
        let dir =
            std::env::temp_dir().join(format!("streamlab-merge-interleave-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Engine-shaped stream: sessions interleave in time, chunks within
        // a session ascend. 40 sessions x 25 chunks, threshold 64 forces
        // ~15 seals plus a tail.
        let mut ram = TelemetrySink::new();
        let mut spilled = TelemetrySink::with_spill(
            40,
            SpillSpec {
                dir: dir.clone(),
                threshold: 64,
                shard: 0,
                storage: Storage::real(),
            },
        );
        for c in 0..25u32 {
            for s in 0..40u64 {
                for sink in [&mut ram, &mut spilled] {
                    sink.player_chunk(mk_player(s, c));
                    sink.cdn_chunk(mk_cdn(s, c));
                }
            }
        }
        for s in 0..40u64 {
            for sink in [&mut ram, &mut spilled] {
                sink.session(mk_meta(s));
            }
        }
        spilled.seal();
        assert!(
            spilled.spill_errors().is_empty(),
            "{:?}",
            spilled.spill_errors()
        );
        assert!(spilled.sealed_segments().len() > 10);
        let a = Dataset::assemble([ram]).expect("in-RAM assemble");
        let b = Dataset::assemble([spilled]).expect("spilled assemble");
        assert_eq!(a.sessions.len(), b.sessions.len());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.meta.session, y.meta.session);
            assert_eq!(x.chunks.len(), y.chunks.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loser_tree_merges_many_overlapping_runs() {
        // Reproduce the engine's spill shape: 1000 keys in time order,
        // chopped into 64-row batches, each batch sorted — ranges overlap.
        let mut stream: Vec<(u64, u32)> = Vec::new();
        for c in 0..25u32 {
            for s in 0..40u64 {
                stream.push((s, c));
            }
        }
        let runs = stream.chunks(64).map(arena).collect();
        let keys = drain_keys(LoserTree::new(runs).unwrap());
        assert_eq!(keys.len(), 1000);
        let mut expect = stream.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn loser_tree_merges_segment_runs() {
        use streamlab_supervisor::Storage;
        let dir = std::env::temp_dir().join(format!("streamlab-segrun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut stream: Vec<(u64, u32)> = Vec::new();
        for c in 0..25u32 {
            for s in 0..40u64 {
                stream.push((s, c));
            }
        }
        let mut runs = Vec::new();
        for (i, batch) in stream.chunks(64).enumerate() {
            let mut batch = batch.to_vec();
            batch.sort_unstable();
            let p: Vec<_> = batch.iter().map(|&(s, c)| mk_player(s, c)).collect();
            let c: Vec<_> = batch.iter().map(|&(s, c)| mk_cdn(s, c)).collect();
            let path = dir.join(format!("seg-00000-{i:05}.slseg"));
            let meta = crate::segment::write_segment(&Storage::real(), &path, 0, i as u32, &p, &c)
                .unwrap();
            runs.push(Run::segment(&meta).unwrap());
        }
        let keys = drain_keys(LoserTree::new(runs).unwrap());
        let mut expect = stream.clone();
        expect.sort_unstable();
        assert_eq!(keys.len(), 1000, "row count");
        assert_eq!(keys, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An in-RAM run holding both halves of every `(session, chunk)` key,
    /// pushed in the given order.
    fn arena(keys: &[(u64, u32)]) -> Run {
        Run::arena(
            keys.iter().map(|&(s, c)| mk_player(s, c)).collect(),
            keys.iter().map(|&(s, c)| mk_cdn(s, c)).collect(),
        )
    }

    /// Pop every row of a merge, asserting each one joined.
    fn drain_keys(mut tree: LoserTree) -> Vec<(u64, u32)> {
        let mut keys = Vec::new();
        while let Some(row) = tree.pop().unwrap() {
            let Row::Joined(c) = row else {
                panic!("unpaired row")
            };
            keys.push((c.player.session.0, c.player.chunk.0));
        }
        keys
    }

    pub(super) fn mk_meta(s: u64) -> SessionMeta {
        use streamlab_sim::SimTime;
        use streamlab_workload::{
            AccessClass, Browser, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId, VideoId,
        };
        SessionMeta {
            session: SessionId(s),
            prefix: PrefixId(s % 3),
            video: VideoId(1),
            video_secs: 120.0,
            os: Os::Windows,
            browser: Browser::Chrome,
            org: "Residential-ISP-0".into(),
            org_kind: OrgKind::Residential,
            access: AccessClass::Cable,
            region: Region::UnitedStates,
            location: GeoPoint {
                lat: 40.0,
                lon: -75.0,
            },
            pop: PopId(0),
            server: ServerId(3),
            distance_km: 25.0,
            arrival: SimTime::from_secs(3600),
            startup_delay_s: 1.2,
            proxied: false,
            ua_mismatch: false,
            gpu: true,
            visible: true,
        }
    }

    pub(super) fn mk_player(s: u64, c: u32) -> PlayerChunkRecord {
        use crate::records::ChunkTruth;
        use streamlab_sim::{SimDuration, SimTime};
        PlayerChunkRecord {
            session: SessionId(s),
            chunk: ChunkIndex(c),
            bitrate_kbps: 1050,
            requested_at: SimTime::from_secs(1),
            d_fb: SimDuration::from_millis(150),
            d_lb: SimDuration::from_millis(900),
            chunk_secs: 6.0,
            buf_count: 0,
            buf_dur: SimDuration::ZERO,
            visible: true,
            avg_fps: 29.0,
            dropped_frames: 0,
            frames: 180,
            truth: ChunkTruth::default(),
        }
    }

    pub(super) fn mk_cdn(s: u64, c: u32) -> CdnChunkRecord {
        use crate::records::CacheOutcome;
        use streamlab_sim::{SimDuration, SimTime};
        CdnChunkRecord {
            session: SessionId(s),
            chunk: ChunkIndex(c),
            d_wait: SimDuration::from_micros(200),
            d_open: SimDuration::from_micros(200),
            d_read: SimDuration::from_millis(2),
            d_backend: SimDuration::ZERO,
            cache: CacheOutcome::RamHit,
            retry_fired: false,
            size_bytes: 787_500,
            served_at: SimTime::from_secs(1),
            segments: 540,
            retx_segments: 0,
            tcp: vec![],
        }
    }
}
