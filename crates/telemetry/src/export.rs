//! Flat-file exporters: the joined dataset as CSV (one row per chunk or
//! per session) and JSON, for analysis outside Rust (pandas, R, gnuplot).
//!
//! CSV writing is implemented by hand — the fields are all numeric or
//! controlled identifiers, except the organization name, which is quoted
//! and escaped per RFC 4180.

use crate::dataset::Dataset;
use std::io::{self, Write};

/// Quote a CSV field per RFC 4180 (always quoted; inner quotes doubled).
fn csv_quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

/// Header of the per-chunk CSV.
pub const CHUNK_CSV_HEADER: &str = "session,chunk,bitrate_kbps,requested_at_s,d_fb_ms,d_lb_ms,\
chunk_secs,perf_score,buf_count,buf_dur_s,visible,avg_fps,dropped_frames,frames,\
d_wait_ms,d_open_ms,d_read_ms,d_backend_ms,cache,retry_fired,size_bytes,segments,retx,\
srtt_ms,rttvar_ms,cwnd,true_dds_ms,true_rtt0_ms,true_transient";

/// Write one row per chunk.
pub fn write_chunks_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
    writeln!(w, "{CHUNK_CSV_HEADER}")?;
    for (_, c) in ds.chunks() {
        let p = &c.player;
        let d = &c.cdn;
        let tcp = d.last_tcp();
        writeln!(
            w,
            "{},{},{},{:.6},{:.3},{:.3},{:.3},{:.4},{},{:.3},{},{:.2},{},{},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{},{:.3},{:.3},{},{:.3},{:.3},{}",
            p.session.raw(),
            p.chunk.raw(),
            p.bitrate_kbps,
            p.requested_at.as_secs_f64(),
            p.d_fb.as_millis_f64(),
            p.d_lb.as_millis_f64(),
            p.chunk_secs,
            p.perf_score(),
            p.buf_count,
            p.buf_dur.as_secs_f64(),
            p.visible,
            p.avg_fps,
            p.dropped_frames,
            p.frames,
            d.d_wait.as_millis_f64(),
            d.d_open.as_millis_f64(),
            d.d_read.as_millis_f64(),
            d.d_backend.as_millis_f64(),
            match d.cache {
                crate::records::CacheOutcome::RamHit => "ram",
                crate::records::CacheOutcome::DiskHit => "disk",
                crate::records::CacheOutcome::Miss => "miss",
            },
            d.retry_fired,
            d.size_bytes,
            d.segments,
            d.retx_segments,
            tcp.map(|t| t.srtt.as_millis_f64()).unwrap_or(f64::NAN),
            tcp.map(|t| t.rttvar.as_millis_f64()).unwrap_or(f64::NAN),
            tcp.map(|t| t.cwnd).unwrap_or(0),
            p.truth.dds.as_millis_f64(),
            p.truth.rtt0.as_millis_f64(),
            p.truth.transient_buffered,
        )?;
    }
    Ok(())
}

/// Header of the per-session CSV.
pub const SESSION_CSV_HEADER: &str = "session,prefix,video,video_secs,os,browser,org,org_kind,\
access,region_us,pop,server,distance_km,arrival_s,startup_s,chunks,avg_bitrate_kbps,\
retx_rate,loss_free,rebuffer_rate_pct,gpu,visible,proxied";

/// Write one row per session.
pub fn write_sessions_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
    writeln!(w, "{SESSION_CSV_HEADER}")?;
    for s in &ds.sessions {
        let m = &s.meta;
        writeln!(
            w,
            "{},{},{},{:.1},{},{},{},{:?},{:?},{},{},{},{:.1},{:.3},{:.3},{},{:.0},{:.5},{},{:.3},{},{},{}",
            m.session.raw(),
            m.prefix.raw(),
            m.video.raw(),
            m.video_secs,
            m.os.label(),
            m.browser.label(),
            csv_quote(&m.org),
            m.org_kind,
            m.access,
            m.region.is_us(),
            m.pop.raw(),
            m.server.raw(),
            m.distance_km,
            m.arrival.as_secs_f64(),
            m.startup_delay_s,
            s.chunks.len(),
            s.avg_bitrate_kbps(),
            s.retx_rate(),
            s.loss_free(),
            s.rebuffer_rate_pct(),
            m.gpu,
            m.visible,
            m.proxied,
        )?;
    }
    Ok(())
}

/// Serialize the whole dataset as JSON (large; prefer the CSVs for bulk
/// work).
pub fn write_json<W: Write>(ds: &Dataset, w: W) -> serde_json::Result<()> {
    serde_json::to_writer(w, ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TelemetrySink;
    use crate::records::{
        CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
    };
    use streamlab_sim::{SimDuration, SimTime};
    use streamlab_workload::{
        AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
        SessionId, VideoId,
    };

    fn tiny_dataset() -> Dataset {
        let mut sink = TelemetrySink::new();
        for id in 0..3u64 {
            sink.session(SessionMeta {
                session: SessionId(id),
                prefix: PrefixId(id),
                video: VideoId(1),
                video_secs: 60.0,
                os: Os::Windows,
                browser: Browser::Chrome,
                org: format!("Org \"quoted\", Inc {id}"),
                org_kind: OrgKind::Residential,
                access: AccessClass::Cable,
                region: Region::UnitedStates,
                location: GeoPoint {
                    lat: 40.0,
                    lon: -75.0,
                },
                pop: PopId(0),
                server: ServerId(2),
                distance_km: 42.0,
                arrival: SimTime::from_secs(10),
                startup_delay_s: 0.8,
                proxied: false,
                ua_mismatch: false,
                gpu: true,
                visible: true,
            });
            for chunk in 0..4u32 {
                sink.player_chunk(PlayerChunkRecord {
                    session: SessionId(id),
                    chunk: ChunkIndex(chunk),
                    bitrate_kbps: 1050,
                    requested_at: SimTime::from_secs(10 + u64::from(chunk) * 6),
                    d_fb: SimDuration::from_millis(120),
                    d_lb: SimDuration::from_millis(800),
                    chunk_secs: 6.0,
                    buf_count: 0,
                    buf_dur: SimDuration::ZERO,
                    visible: true,
                    avg_fps: 29.5,
                    dropped_frames: 3,
                    frames: 180,
                    truth: ChunkTruth::default(),
                });
                sink.cdn_chunk(CdnChunkRecord {
                    session: SessionId(id),
                    chunk: ChunkIndex(chunk),
                    d_wait: SimDuration::from_micros(200),
                    d_open: SimDuration::from_micros(150),
                    d_read: SimDuration::from_millis(2),
                    d_backend: SimDuration::ZERO,
                    cache: CacheOutcome::RamHit,
                    retry_fired: false,
                    size_bytes: 787_500,
                    served_at: SimTime::from_secs(10),
                    segments: 540,
                    retx_segments: 0,
                    tcp: vec![],
                });
            }
        }
        Dataset::assemble([sink]).expect("join")
    }

    #[test]
    fn chunk_csv_has_one_row_per_chunk_plus_header() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        write_chunks_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + ds.chunk_count());
        let header_cols = CHUNK_CSV_HEADER.split(',').count();
        for line in text.lines() {
            assert_eq!(line.split(',').count(), header_cols, "ragged row: {line}");
        }
    }

    #[test]
    fn session_csv_quotes_org_names() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        write_sessions_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + ds.sessions.len());
        // RFC 4180: embedded quotes doubled, field quoted.
        assert!(text.contains("\"Org \"\"quoted\"\", Inc 0\""));
    }

    #[test]
    fn json_roundtrips() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        write_json(&ds, &mut buf).unwrap();
        let back: Dataset = serde_json::from_slice(&buf).unwrap();
        assert_eq!(back.sessions.len(), ds.sessions.len());
        assert_eq!(back.chunk_count(), ds.chunk_count());
    }
}
