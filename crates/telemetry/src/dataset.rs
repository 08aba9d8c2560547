//! Beacon collection, the two-sided join, and proxy preprocessing.
//!
//! §2.2: "A key to end-to-end analysis is to trace session performance
//! from the player through the CDN (at the granularity of chunks). We
//! implement tracing by using a globally unique session ID and per-session
//! chunk IDs." §3 then filters sessions behind HTTP proxies, keeping 77 %
//! of sessions.

use crate::merge::SessionStream;
use crate::records::{CdnChunkRecord, ChunkRecord, PlayerChunkRecord, SessionMeta};
use crate::segment::{self, SegmentMeta};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use streamlab_supervisor::Storage;
use streamlab_workload::{ChunkIndex, SessionId};

/// Configuration for a spilling sink: where segments go, when a flush
/// fires, which canonical shard the sink belongs to, and the storage
/// handle the segment writes are routed through (so §17 fault plans cover
/// them).
#[derive(Debug, Clone)]
pub struct SpillSpec {
    /// Directory sealed segments are written into (must exist).
    pub dir: PathBuf,
    /// Arena row count that triggers a flush.
    pub threshold: usize,
    /// Canonical shard index recorded in every segment header.
    pub shard: u32,
    /// Storage seam the segment writes go through.
    pub storage: Storage,
}

#[derive(Debug)]
struct SpillState {
    spec: SpillSpec,
    seq: u32,
    /// Set on the first failed flush; spilling stops, records stay in RAM
    /// and the run still completes correctly (degrade, don't die).
    disabled: bool,
}

/// Collects the three beacon streams as the simulation runs.
///
/// Its chunk records are sorted runs: one per sealed segment, plus the
/// in-RAM arena, which [`Dataset::assemble`] treats as one more run.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    pub(crate) player: Vec<PlayerChunkRecord>,
    pub(crate) cdn: Vec<CdnChunkRecord>,
    pub(crate) sessions: Vec<SessionMeta>,
    spill: Option<SpillState>,
    pub(crate) sealed: Vec<SegmentMeta>,
    spill_errors: Vec<String>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink with pre-sized arenas: room for `sessions` metadata beacons
    /// and `chunks` records in each per-chunk stream. The engine sizes
    /// this from the session specs so the hot loop appends without ever
    /// reallocating.
    pub fn with_capacity(sessions: usize, chunks: usize) -> Self {
        TelemetrySink {
            player: Vec::with_capacity(chunks),
            cdn: Vec::with_capacity(chunks),
            sessions: Vec::with_capacity(sessions),
            ..Self::default()
        }
    }

    /// A spilling sink: chunk arenas are capped at `spill.threshold` rows;
    /// crossing the threshold seals a sorted segment in `spill.dir` and
    /// resets the arenas, so the sink runs in constant memory w.r.t. chunk
    /// volume (session metadata stays in RAM — one record per session).
    pub fn with_spill(sessions: usize, spill: SpillSpec) -> Self {
        let cap = spill.threshold;
        TelemetrySink {
            player: Vec::with_capacity(cap),
            cdn: Vec::with_capacity(cap),
            sessions: Vec::with_capacity(sessions),
            spill: Some(SpillState {
                spec: spill,
                seq: 0,
                disabled: false,
            }),
            ..Self::default()
        }
    }

    /// Record a player-side chunk beacon.
    pub fn player_chunk(&mut self, r: PlayerChunkRecord) {
        self.player.push(r);
        self.maybe_flush();
    }

    /// Record a CDN-side chunk log line.
    pub fn cdn_chunk(&mut self, r: CdnChunkRecord) {
        self.cdn.push(r);
        self.maybe_flush();
    }

    /// Record session metadata.
    pub fn session(&mut self, m: SessionMeta) {
        self.sessions.push(m);
    }

    /// Stream sizes `(player, cdn, sessions)` currently held in RAM
    /// (spilled rows excluded; see [`TelemetrySink::spilled_rows`]).
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.player.len(), self.cdn.len(), self.sessions.len())
    }

    /// Paired rows sealed into segments so far.
    pub fn spilled_rows(&self) -> u64 {
        self.sealed.iter().map(|s| s.rows).sum()
    }

    /// Manifest entries for every sealed segment, in seal order.
    pub fn sealed_segments(&self) -> &[SegmentMeta] {
        &self.sealed
    }

    /// Errors hit while spilling (each one disabled further spilling for
    /// the sink that hit it; the affected rows stayed in RAM).
    pub fn spill_errors(&self) -> &[String] {
        &self.spill_errors
    }

    /// Flush the remaining arena rows as a final (possibly small) segment
    /// and release the arenas' spare capacity.
    ///
    /// The engine calls this once per shard when its event loop drains, so
    /// a spilling shard hands back a sink whose chunk arenas are empty and
    /// whose data lives entirely in sealed segments. A no-op without spill
    /// mode; after a spill error disabled spilling, only the release.
    pub fn seal(&mut self) {
        if self.spill.is_some() {
            self.flush_run();
            self.player.shrink_to_fit();
            self.cdn.shrink_to_fit();
        }
    }

    fn maybe_flush(&mut self) {
        let Some(state) = &self.spill else { return };
        if state.disabled
            || self.player.len() < state.spec.threshold
            || self.player.len() != self.cdn.len()
        {
            return;
        }
        self.flush_run();
    }

    /// Sort the current arenas into a run and seal it as a segment. On
    /// failure the (sorted) rows are put back and spilling is disabled.
    fn flush_run(&mut self) {
        let Some(state) = &mut self.spill else { return };
        if state.disabled || self.player.is_empty() || self.player.len() != self.cdn.len() {
            return;
        }
        let mut pairs: Vec<(PlayerChunkRecord, CdnChunkRecord)> =
            self.player.drain(..).zip(self.cdn.drain(..)).collect();
        pairs.sort_unstable_by_key(|a| (a.0.session, a.0.chunk));
        let (player, cdn): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let path = state.spec.dir.join(format!(
            "seg-{:05}-{:05}.slseg",
            state.spec.shard, state.seq
        ));
        match segment::write_segment(
            &state.spec.storage,
            &path,
            state.spec.shard,
            state.seq,
            &player,
            &cdn,
        ) {
            Ok(meta) => {
                state.seq += 1;
                self.sealed.push(meta);
            }
            Err(e) => {
                // Keep the rows and stop spilling; the run completes in
                // RAM, where the arena is one more run for the join.
                state.disabled = true;
                self.spill_errors
                    .push(format!("sealing {} failed: {e}", path.display()));
                self.player.extend(player);
                self.cdn.extend(cdn);
            }
        }
    }
}

/// A join failure: the two vantage points disagree about what happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinError {
    /// A player beacon has no CDN log line.
    OrphanPlayerRecord(SessionId, ChunkIndex),
    /// A CDN log line has no player beacon.
    OrphanCdnRecord(SessionId, ChunkIndex),
    /// Chunk records exist for a session with no metadata.
    MissingSessionMeta(SessionId),
    /// Two records share a `(session, chunk)` key.
    DuplicateKey(SessionId, ChunkIndex),
    /// A spilled segment could not be read back (I/O error, torn file, or
    /// fingerprint mismatch).
    Spill(String),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::OrphanPlayerRecord(s, c) => {
                write!(f, "player record {s}/{c} has no CDN counterpart")
            }
            JoinError::OrphanCdnRecord(s, c) => {
                write!(f, "CDN record {s}/{c} has no player counterpart")
            }
            JoinError::MissingSessionMeta(s) => write!(f, "no session metadata for {s}"),
            JoinError::DuplicateKey(s, c) => write!(f, "duplicate record for {s}/{c}"),
            JoinError::Spill(msg) => write!(f, "spill segment failure: {msg}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// One session's joined data: metadata plus its chunks in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionData {
    /// Session metadata (Table 3).
    pub meta: SessionMeta,
    /// Joined chunk records in chunk order.
    pub chunks: Vec<ChunkRecord>,
}

impl SessionData {
    /// Session-wide retransmission rate (retx / segments over all chunks).
    pub fn retx_rate(&self) -> f64 {
        let segs: u64 = self.chunks.iter().map(|c| u64::from(c.cdn.segments)).sum();
        let retx: u64 = self
            .chunks
            .iter()
            .map(|c| u64::from(c.cdn.retx_segments))
            .sum();
        if segs == 0 {
            0.0
        } else {
            retx as f64 / segs as f64
        }
    }

    /// True when no segment was retransmitted in the whole session.
    pub fn loss_free(&self) -> bool {
        self.chunks.iter().all(|c| c.cdn.retx_segments == 0)
    }

    /// Average requested bitrate over chunks, kbps.
    pub fn avg_bitrate_kbps(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        self.chunks
            .iter()
            .map(|c| f64::from(c.player.bitrate_kbps))
            .sum::<f64>()
            / self.chunks.len() as f64
    }

    /// Total rebuffering time across chunks.
    pub fn rebuffer_total_s(&self) -> f64 {
        self.chunks
            .iter()
            .map(|c| c.player.buf_dur.as_secs_f64())
            .sum()
    }

    /// Rebuffering rate: stalled time over (stalled + played) time, in
    /// percent (Figs. 11c/12 y-axis).
    pub fn rebuffer_rate_pct(&self) -> f64 {
        let stalled = self.rebuffer_total_s();
        let played: f64 = self.chunks.iter().map(|c| c.player.chunk_secs).sum();
        if stalled + played <= 0.0 {
            0.0
        } else {
            100.0 * stalled / (stalled + played)
        }
    }

    /// One SRTT sample per chunk (the last kernel snapshot taken while the
    /// chunk was in flight), ms, in chunk order.
    ///
    /// Per-chunk sampling weights every chunk equally; the raw 500 ms grid
    /// would instead over-represent slow chunks (a chunk that takes 10 s
    /// contributes 20 grid samples), biasing per-session variability
    /// statistics toward the degraded state.
    pub fn srtt_per_chunk_ms(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .filter_map(|c| c.cdn.tcp.last().map(|s| s.srtt.as_millis_f64()))
            .collect()
    }

    /// All kernel SRTT samples of the session, ms, in time order.
    ///
    /// Chunks are sequential and each chunk's snapshots are taken on a
    /// forward-moving clock, so the flattened stream is almost always
    /// already time-ordered — detected in the same pass that collects it,
    /// skipping the sort entirely. The (stable, tie-preserving) sort only
    /// runs on streams that actually interleave.
    pub fn srtt_samples_ms(&self) -> Vec<f64> {
        let n: usize = self.chunks.iter().map(|c| c.cdn.tcp.len()).sum();
        let mut v: Vec<(u64, f64)> = Vec::with_capacity(n);
        let mut sorted = true;
        let mut last = 0u64;
        for c in &self.chunks {
            for s in &c.cdn.tcp {
                let at = s.at.as_nanos();
                sorted &= at >= last;
                last = at;
                v.push((at, s.srtt.as_millis_f64()));
            }
        }
        if !sorted {
            v.sort_by_key(|&(at, _)| at);
        }
        v.into_iter().map(|(_, s)| s).collect()
    }

    /// The session's startup delay: the player-perceived time-to-play is
    /// dominated by the first chunk's delivery (plus the startup
    /// threshold's worth of buffering).
    pub fn first_chunk(&self) -> Option<&ChunkRecord> {
        self.chunks.first()
    }
}

/// The joined, preprocessed dataset every analysis consumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Sessions in id order (post proxy-filtering unless stated).
    pub sessions: Vec<SessionData>,
    /// Sessions dropped by the proxy filter.
    pub filtered_proxy_sessions: usize,
    /// Raw session count before preprocessing.
    pub raw_sessions: usize,
}

impl Dataset {
    /// Join the beacon streams of `sinks` on `(session, chunk)`: one
    /// k-way merge over every sink's sealed segments and in-RAM arena
    /// (see [`SessionStream`]), sessions ascending by id, chunks ascending
    /// within each session. Sinks may come in any order.
    ///
    /// Fails if any record is orphaned or duplicated, or a session's
    /// chunks have no metadata: in the simulator — unlike production — the
    /// join must be total, and a violation is a bug in the orchestrator.
    pub fn assemble(sinks: impl IntoIterator<Item = TelemetrySink>) -> Result<Dataset, JoinError> {
        let sessions = SessionStream::new(sinks).collect::<Result<Vec<_>, _>>()?;
        let raw = sessions.len();
        Ok(Dataset {
            sessions,
            filtered_proxy_sessions: 0,
            raw_sessions: raw,
        })
    }

    /// §3 preprocessing: drop sessions whose observable signals identify a
    /// proxy — (i) user-agent/IP mismatch between the HTTP requests and the
    /// player beacons, or (ii) a prefix producing more video-minutes than
    /// wall-clock minutes (many users behind one address).
    pub fn filter_proxies(mut self) -> Dataset {
        // Signal (ii): per-prefix played seconds vs the observation window.
        let mut prefix_secs: HashMap<u64, f64> = HashMap::new();
        let mut window_end: f64 = 0.0;
        for s in &self.sessions {
            let played: f64 = s.chunks.iter().map(|c| c.player.chunk_secs).sum();
            *prefix_secs.entry(s.meta.prefix.raw()).or_insert(0.0) += played;
            window_end = window_end.max(s.meta.arrival.as_secs_f64());
        }
        let window = window_end.max(1.0);

        let before = self.sessions.len();
        self.sessions.retain(|s| {
            let ua = s.meta.ua_mismatch;
            let volume = prefix_secs
                .get(&s.meta.prefix.raw())
                .copied()
                .unwrap_or(0.0)
                > 3.0 * window;
            !(ua || volume)
        });
        self.filtered_proxy_sessions = before - self.sessions.len();
        self
    }

    /// Total chunk count across sessions.
    pub fn chunk_count(&self) -> usize {
        self.sessions.iter().map(|s| s.chunks.len()).sum()
    }

    /// Iterate all joined chunk records.
    pub fn chunks(&self) -> impl Iterator<Item = (&SessionMeta, &ChunkRecord)> + '_ {
        self.sessions
            .iter()
            .flat_map(|s| s.chunks.iter().map(move |c| (&s.meta, c)))
    }

    /// Fraction of raw sessions kept after preprocessing (paper: 77 %).
    pub fn retention(&self) -> f64 {
        if self.raw_sessions == 0 {
            1.0
        } else {
            self.sessions.len() as f64 / self.raw_sessions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CacheOutcome, ChunkTruth};
    use streamlab_sim::{SimDuration, SimTime};
    use streamlab_workload::{
        AccessClass, Browser, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId, VideoId,
    };

    fn meta(id: u64, ua_mismatch: bool) -> SessionMeta {
        SessionMeta {
            session: SessionId(id),
            prefix: PrefixId(id % 3),
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
            proxied: ua_mismatch,
            ua_mismatch,
            gpu: true,
            visible: true,
        }
    }

    fn player(id: u64, chunk: u32) -> PlayerChunkRecord {
        PlayerChunkRecord {
            session: SessionId(id),
            chunk: ChunkIndex(chunk),
            bitrate_kbps: 1050,
            requested_at: SimTime::from_secs(3600),
            d_fb: SimDuration::from_millis(150),
            d_lb: SimDuration::from_millis(900),
            chunk_secs: 6.0,
            buf_count: 0,
            buf_dur: SimDuration::ZERO,
            visible: true,
            avg_fps: 29.0,
            dropped_frames: 6,
            frames: 180,
            truth: ChunkTruth::default(),
        }
    }

    fn cdn(id: u64, chunk: u32, retx: u32) -> CdnChunkRecord {
        CdnChunkRecord {
            session: SessionId(id),
            chunk: ChunkIndex(chunk),
            d_wait: SimDuration::from_micros(200),
            d_open: SimDuration::from_micros(200),
            d_read: SimDuration::from_millis(2),
            d_backend: SimDuration::ZERO,
            cache: CacheOutcome::RamHit,
            retry_fired: false,
            size_bytes: 787_500,
            served_at: SimTime::from_secs(3600),
            segments: 540,
            retx_segments: retx,
            tcp: vec![],
        }
    }

    #[test]
    fn join_is_total_on_consistent_streams() {
        let mut sink = TelemetrySink::new();
        for id in 0..3 {
            sink.session(meta(id, false));
            for c in 0..4 {
                sink.player_chunk(player(id, c));
                sink.cdn_chunk(cdn(id, c, 0));
            }
        }
        let ds = Dataset::assemble([sink]).expect("join");
        assert_eq!(ds.sessions.len(), 3);
        assert_eq!(ds.chunk_count(), 12);
        for s in &ds.sessions {
            // Chunks in order.
            for (i, c) in s.chunks.iter().enumerate() {
                assert_eq!(c.chunk().raw() as usize, i);
            }
        }
    }

    #[test]
    fn orphan_player_record_fails() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        sink.player_chunk(player(0, 0));
        assert_eq!(
            Dataset::assemble([sink]).unwrap_err(),
            JoinError::OrphanPlayerRecord(SessionId(0), ChunkIndex(0))
        );
    }

    #[test]
    fn orphan_cdn_record_fails() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        sink.cdn_chunk(cdn(0, 0, 0));
        assert_eq!(
            Dataset::assemble([sink]).unwrap_err(),
            JoinError::OrphanCdnRecord(SessionId(0), ChunkIndex(0))
        );
    }

    #[test]
    fn missing_meta_fails() {
        let mut sink = TelemetrySink::new();
        sink.player_chunk(player(0, 0));
        sink.cdn_chunk(cdn(0, 0, 0));
        assert_eq!(
            Dataset::assemble([sink]).unwrap_err(),
            JoinError::MissingSessionMeta(SessionId(0))
        );
    }

    #[test]
    fn duplicate_key_fails() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        sink.cdn_chunk(cdn(0, 0, 0));
        sink.cdn_chunk(cdn(0, 0, 0));
        assert_eq!(
            Dataset::assemble([sink]).unwrap_err(),
            JoinError::DuplicateKey(SessionId(0), ChunkIndex(0))
        );
    }

    #[test]
    fn proxy_filter_drops_ua_mismatch() {
        let mut sink = TelemetrySink::new();
        for id in 0..10 {
            sink.session(meta(id, id % 5 == 0)); // 2 of 10 proxied
            sink.player_chunk(player(id, 0));
            sink.cdn_chunk(cdn(id, 0, 0));
        }
        let ds = Dataset::assemble([sink]).unwrap().filter_proxies();
        assert_eq!(ds.sessions.len(), 8);
        assert_eq!(ds.filtered_proxy_sessions, 2);
        assert!((ds.retention() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn session_aggregates() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        for c in 0..5 {
            sink.player_chunk(player(0, c));
            sink.cdn_chunk(cdn(0, c, if c == 0 { 54 } else { 0 }));
        }
        let ds = Dataset::assemble([sink]).unwrap();
        let s = &ds.sessions[0];
        assert!(!s.loss_free());
        // 54 retx over 2700 segments = 2 %.
        assert!((s.retx_rate() - 0.02).abs() < 1e-9);
        assert!((s.avg_bitrate_kbps() - 1050.0).abs() < 1e-9);
        assert_eq!(s.rebuffer_rate_pct(), 0.0);
        assert_eq!(s.first_chunk().unwrap().chunk(), ChunkIndex(0));
    }
}
