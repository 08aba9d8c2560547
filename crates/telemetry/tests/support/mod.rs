//! Test support shared by the join property tests: record builders and
//! the reference hash join — the semantic definition of the join that
//! [`Dataset::assemble`] is checked against.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::{BTreeMap, HashMap};

use streamlab_net::TcpInfo;
use streamlab_sim::{SimDuration, SimTime};
use streamlab_telemetry::records::{
    CacheOutcome, CdnChunkRecord, ChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
};
use streamlab_telemetry::{Dataset, JoinError, SessionData};
use streamlab_workload::{
    AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
    SessionId, VideoId,
};

pub fn meta(id: u64) -> SessionMeta {
    SessionMeta {
        session: SessionId(id),
        prefix: PrefixId(id % 7),
        video: VideoId(id % 5),
        video_secs: 120.0,
        os: Os::Windows,
        browser: Browser::Chrome,
        org: "R".into(),
        org_kind: OrgKind::Residential,
        access: AccessClass::Cable,
        region: Region::UnitedStates,
        location: GeoPoint {
            lat: 40.0,
            lon: -75.0,
        },
        pop: PopId(id % 3),
        server: ServerId(id % 9),
        distance_km: 25.0,
        arrival: SimTime::from_secs(3_600 + id * 900),
        startup_delay_s: 0.9,
        proxied: false,
        ua_mismatch: false,
        gpu: true,
        visible: true,
    }
}

pub fn player(id: u64, c: u32) -> PlayerChunkRecord {
    PlayerChunkRecord {
        session: SessionId(id),
        chunk: ChunkIndex(c),
        bitrate_kbps: 2050,
        requested_at: SimTime::from_secs(id + u64::from(c) * 4),
        d_fb: SimDuration::from_millis(90),
        d_lb: SimDuration::from_millis(700),
        chunk_secs: 4.0,
        buf_count: 0,
        buf_dur: SimDuration::ZERO,
        visible: true,
        avg_fps: 30.0,
        dropped_frames: 0,
        frames: 120,
        truth: ChunkTruth::default(),
    }
}

pub fn cdn(id: u64, c: u32) -> CdnChunkRecord {
    CdnChunkRecord {
        session: SessionId(id),
        chunk: ChunkIndex(c),
        d_wait: SimDuration::from_micros(150),
        d_open: SimDuration::from_micros(250),
        d_read: SimDuration::from_millis(3),
        d_backend: SimDuration::ZERO,
        cache: CacheOutcome::DiskHit,
        retry_fired: false,
        size_bytes: 1_025_000,
        served_at: SimTime::from_secs(id + u64::from(c) * 4),
        segments: 700,
        retx_segments: 1,
        tcp: vec![TcpInfo {
            at: SimTime::from_secs(id),
            srtt: SimDuration::from_millis(35),
            rttvar: SimDuration::from_millis(3),
            cwnd: 40,
            retx_total: 1,
            segs_out_total: 700,
            mss: 1460,
        }],
    }
}

/// Deterministic pseudo-shuffle shared by all streams of a case.
pub fn mix<T>(v: &mut [T], seed: u64) {
    let n = v.len();
    for i in 0..n {
        let j = (seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64)
            % n.max(1) as u64) as usize;
        v.swap(i, j);
    }
}

/// The reference hash join over raw record streams: builds the dataset
/// key by key with no assumptions about record order or alignment.
///
/// Errors, in the order it checks: a repeated CDN key is a
/// [`JoinError::DuplicateKey`]; walking the player records in order, one
/// whose CDN line is missing (or already taken) is a
/// [`JoinError::OrphanPlayerRecord`] and one whose session has no metadata
/// a [`JoinError::MissingSessionMeta`]; a CDN line left over is a
/// [`JoinError::OrphanCdnRecord`]. Duplicate metadata resolves last-wins;
/// sessions without chunks are dropped.
pub fn join_reference(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
) -> Result<Dataset, JoinError> {
    let mut by_id: BTreeMap<SessionId, SessionMeta> = BTreeMap::new();
    for m in metas {
        by_id.insert(m.session, m.clone());
    }

    let mut cdn: HashMap<(SessionId, ChunkIndex), CdnChunkRecord> = HashMap::new();
    for r in cdns {
        let key = (r.session, r.chunk);
        if cdn.insert(key, r.clone()).is_some() {
            return Err(JoinError::DuplicateKey(key.0, key.1));
        }
    }

    let mut by_session: BTreeMap<SessionId, Vec<ChunkRecord>> = BTreeMap::new();
    for p in players {
        let key = (p.session, p.chunk);
        let Some(c) = cdn.remove(&key) else {
            return Err(JoinError::OrphanPlayerRecord(key.0, key.1));
        };
        if !by_id.contains_key(&p.session) {
            return Err(JoinError::MissingSessionMeta(p.session));
        }
        by_session.entry(p.session).or_default().push(ChunkRecord {
            player: p.clone(),
            cdn: c,
        });
    }
    if let Some(((s, c), _)) = cdn.into_iter().next() {
        return Err(JoinError::OrphanCdnRecord(s, c));
    }

    let mut sessions = Vec::with_capacity(by_session.len());
    for (id, mut chunks) in by_session {
        chunks.sort_unstable_by_key(|c| c.chunk());
        let meta = by_id.remove(&id).expect("checked above");
        sessions.push(SessionData { meta, chunks });
    }
    let raw = sessions.len();
    Ok(Dataset {
        sessions,
        filtered_proxy_sessions: 0,
        raw_sessions: raw,
    })
}
