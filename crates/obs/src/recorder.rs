//! The built-in subscriber: folds events into [`SimMetrics`], optionally
//! buffers the sim-time trace ([`SimRecord`]s: spans and events), and runs
//! the per-session problem-localization pass online.

use crate::diagnose::{classify_abort, ChunkBreakdown, ProblemClass, SessionLens};
use crate::event::{
    AbrEmergency, AnyEvent, CacheLookup, CacheTier, ChunkRendered, ChunkServed, CwndReset,
    FailReason, Failover, Meta, RequestFailed, ResetReason, Retransmit, RetryTimerFired,
    RtoTimeout, ServerRestarted, SessionAborted, SessionEnd, SessionStart, Stall, Subscriber,
};
use crate::metrics::SimMetrics;
use crate::span::{SimRecord, SimSpan, SpanKind};
use std::collections::HashMap;

/// A per-shard metrics collector.
///
/// Each shard's event loop owns one recorder; after the run the
/// orchestrator merges them **in canonical shard order**. Counter and
/// histogram merges are commutative, so [`SimMetrics`] is byte-identical
/// at any thread count; trace records are concatenated in the same
/// canonical order and [`crate::span::canonicalize`]d before export
/// (see DESIGN.md §10).
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    metrics: SimMetrics,
    /// Raw sim-time trace records; `None` when the trace is off.
    trace: Option<Vec<SimRecord>>,
    /// Localization state for in-flight sessions; drained as sessions
    /// end. Only per-key operations (never iteration), so hash order
    /// cannot leak into the deterministic counters.
    lens: HashMap<u64, SessionLens>,
}

impl MetricsRecorder {
    /// A recorder; with `trace` set, every span and event is also
    /// buffered as a [`SimRecord`] for `--trace-out`. Metrics and
    /// localization always run.
    pub fn new(trace: bool) -> Self {
        MetricsRecorder {
            trace: trace.then(Vec::new),
            ..MetricsRecorder::default()
        }
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Drain the buffered trace records (raw shard order; run
    /// [`crate::span::canonicalize`] before export).
    pub fn take_trace(&mut self) -> Vec<SimRecord> {
        self.trace.take().unwrap_or_default()
    }

    /// Fold another recorder in: metrics merge additively, trace records
    /// append. Call in canonical shard order.
    pub fn absorb(&mut self, other: MetricsRecorder) {
        self.metrics.merge(&other.metrics);
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (None, Some(theirs)) => self.trace = Some(theirs),
            _ => {}
        }
        // A cancelled shard can leave in-flight sessions behind; carry
        // their lenses so nothing is silently dropped (completed shards
        // contribute an empty map).
        self.lens.extend(other.lens);
    }

    /// The collected metrics, consuming the recorder.
    pub fn into_metrics(self) -> SimMetrics {
        self.metrics
    }

    /// Record engine-level throughput that arrives as plain numbers
    /// rather than events (queue pops).
    pub fn add_events_processed(&mut self, n: u64) {
        self.metrics.events_processed.add(n);
    }

    fn emit(&mut self, meta: &Meta, event: AnyEvent) {
        if let Some(buf) = &mut self.trace {
            buf.push(SimRecord::Event(*meta, event));
        }
    }
}

impl Subscriber for MetricsRecorder {
    fn on_session_start(&mut self, meta: &Meta, event: &SessionStart) {
        self.metrics.sessions_started.inc();
        if let Some(sid) = meta.session {
            let lens = self.lens.entry(sid).or_default();
            lens.start_ns = meta.at.as_nanos();
        }
        self.emit(meta, AnyEvent::SessionStart(*event));
    }

    fn on_session_end(&mut self, meta: &Meta, event: &SessionEnd) {
        self.metrics.sessions_ended.inc();
        if let Some(sid) = meta.session {
            let lens = self.lens.remove(&sid).unwrap_or_default();
            match lens.diagnose() {
                ProblemClass::Server => self.metrics.loc_sessions_server.inc(),
                ProblemClass::Network => self.metrics.loc_sessions_network.inc(),
                ProblemClass::ClientStack => self.metrics.loc_sessions_stack.inc(),
                ProblemClass::Rendering => self.metrics.loc_sessions_rendering.inc(),
                ProblemClass::Healthy => self.metrics.loc_sessions_healthy.inc(),
            }
            if let Some(buf) = &mut self.trace {
                buf.push(SimRecord::Span(SimSpan {
                    id: 0,
                    parent: None,
                    session: sid,
                    chunk: None,
                    kind: SpanKind::Session,
                    start_ns: lens.start_ns,
                    end_ns: meta.at.as_nanos().max(lens.start_ns),
                }));
            }
        }
        self.emit(meta, AnyEvent::SessionEnd(*event));
    }

    fn on_cache_lookup(&mut self, meta: &Meta, event: &CacheLookup) {
        if event.manifest {
            self.metrics.manifest_requests.inc();
            match event.tier {
                CacheTier::Ram => self.metrics.manifest_ram_hits.inc(),
                CacheTier::Disk => self.metrics.manifest_disk_hits.inc(),
                CacheTier::Miss => self.metrics.manifest_misses.inc(),
            }
        } else {
            match event.tier {
                CacheTier::Ram => self.metrics.chunk_ram_hits.inc(),
                CacheTier::Disk => self.metrics.chunk_disk_hits.inc(),
                CacheTier::Miss => self.metrics.chunk_misses.inc(),
            }
        }
        self.metrics.bytes_served.add(event.bytes);
        match event.tier {
            CacheTier::Ram => self.metrics.bytes_ram.add(event.bytes),
            CacheTier::Disk => self.metrics.bytes_disk.add(event.bytes),
            CacheTier::Miss => self.metrics.bytes_miss.add(event.bytes),
        }
        self.emit(meta, AnyEvent::CacheLookup(*event));
    }

    fn on_retry_timer_fired(&mut self, meta: &Meta, event: &RetryTimerFired) {
        self.metrics.retry_timer_fires.inc();
        self.emit(meta, AnyEvent::RetryTimerFired(*event));
    }

    fn on_retransmit(&mut self, meta: &Meta, event: &Retransmit) {
        self.metrics.retx_segments.add(u64::from(event.segments));
        self.emit(meta, AnyEvent::Retransmit(*event));
    }

    fn on_rto_timeout(&mut self, meta: &Meta, event: &RtoTimeout) {
        self.metrics.rto_timeouts.inc();
        self.emit(meta, AnyEvent::RtoTimeout(*event));
    }

    fn on_cwnd_reset(&mut self, meta: &Meta, event: &CwndReset) {
        match event.reason {
            ResetReason::Loss => self.metrics.cwnd_resets_loss.inc(),
            ResetReason::Idle => self.metrics.cwnd_resets_idle.inc(),
        }
        self.emit(meta, AnyEvent::CwndReset(*event));
    }

    fn on_stall(&mut self, meta: &Meta, event: &Stall) {
        self.metrics.stall_events.add(u64::from(event.count));
        self.metrics.stall_sim_ns.add(event.duration.as_nanos());
        // Localize the stall to whichever component dominated the chunk
        // it was attributed to (the ChunkServed that just preceded it).
        if let Some(sid) = meta.session {
            let lens = self.lens.entry(sid).or_default();
            let class = lens.last.dominant();
            let count = u64::from(event.count);
            lens.rebuffers.add(class, count);
            match class {
                ProblemClass::Network => self.metrics.loc_rebuffers_network.add(count),
                ProblemClass::ClientStack => self.metrics.loc_rebuffers_stack.add(count),
                _ => self.metrics.loc_rebuffers_server.add(count),
            }
        }
        self.emit(meta, AnyEvent::Stall(*event));
    }

    fn on_chunk_rendered(&mut self, meta: &Meta, event: &ChunkRendered) {
        self.metrics.frames_rendered.add(u64::from(event.frames));
        self.metrics.frames_dropped.add(u64::from(event.dropped));
        if let Some(sid) = meta.session {
            let lens = self.lens.entry(sid).or_default();
            lens.frames += u64::from(event.frames);
            lens.dropped += u64::from(event.dropped);
        }
        self.emit(meta, AnyEvent::ChunkRendered(*event));
    }

    fn on_chunk_served(&mut self, meta: &Meta, event: &ChunkServed) {
        self.metrics.chunks_served.inc();
        self.metrics.segments_sent.add(u64::from(event.segments));
        self.metrics.serve_latency_ns.record(event.serve.as_nanos());
        self.metrics
            .first_byte_ns
            .record(event.first_byte.as_nanos());
        self.metrics.download_ns.record(event.download.as_nanos());
        if let Some(sid) = meta.session {
            let total = event.first_byte.as_nanos() + event.download.as_nanos();
            let lens = self.lens.entry(sid).or_default();
            let chunk = lens.chunks;
            lens.chunks += 1;
            lens.last =
                ChunkBreakdown::from_phases(total, event.serve.as_nanos(), event.stack.as_nanos());
            if let Some(buf) = &mut self.trace {
                let at = meta.at.as_nanos();
                let end = at + total;
                // Phase boundaries, clamped into the chunk interval so
                // the span tree always nests (modeling noise can land a
                // boundary a hair past the end).
                let serve_start = (at + event.serve_offset.as_nanos()).min(end);
                let serve_end = (serve_start + event.serve.as_nanos()).min(end);
                let net_end = (at + event.net_end.as_nanos()).clamp(serve_end, end);
                let mut push = |kind: SpanKind, start_ns: u64, end_ns: u64| {
                    buf.push(SimRecord::Span(SimSpan {
                        id: 0,
                        parent: None,
                        session: sid,
                        chunk: Some(chunk),
                        kind,
                        start_ns,
                        end_ns,
                    }));
                };
                push(SpanKind::Chunk, at, end);
                push(SpanKind::CacheLookup, serve_start, serve_end);
                push(SpanKind::NetTransfer, serve_end, net_end);
                push(SpanKind::Render, net_end, end);
            }
        }
        self.emit(meta, AnyEvent::ChunkServed(*event));
    }

    fn on_server_restarted(&mut self, meta: &Meta, event: &ServerRestarted) {
        self.metrics.server_restarts.inc();
        self.emit(meta, AnyEvent::ServerRestarted(*event));
    }

    fn on_request_failed(&mut self, meta: &Meta, event: &RequestFailed) {
        match event.reason {
            FailReason::Outage => self.metrics.outage_rejections.inc(),
            FailReason::Blackout => self.metrics.blackout_rejections.inc(),
        }
        self.metrics.request_retries.inc();
        self.metrics
            .retry_backoff_ns
            .record(event.retry_delay.as_nanos());
        self.emit(meta, AnyEvent::RequestFailed(*event));
    }

    fn on_failover(&mut self, meta: &Meta, event: &Failover) {
        self.metrics.failovers.inc();
        self.emit(meta, AnyEvent::Failover(*event));
    }

    fn on_abr_emergency(&mut self, meta: &Meta, event: &AbrEmergency) {
        self.metrics.abr_emergency_switches.inc();
        self.emit(meta, AnyEvent::AbrEmergency(*event));
    }

    fn on_session_aborted(&mut self, meta: &Meta, event: &SessionAborted) {
        self.metrics.sessions_aborted.inc();
        let class = classify_abort(event.reason);
        match class {
            ProblemClass::Network => self.metrics.loc_aborts_network.inc(),
            _ => self.metrics.loc_aborts_server.inc(),
        }
        if let Some(sid) = meta.session {
            self.lens.entry(sid).or_default().abort = Some(class);
        }
        self.emit(meta, AnyEvent::SessionAborted(*event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlab_sim::{SimDuration, SimTime};

    fn meta() -> Meta {
        Meta::session(SimTime::from_millis(10), 3)
    }

    #[test]
    fn counters_accumulate_per_event() {
        let mut r = MetricsRecorder::new(false);
        r.on_cache_lookup(
            &meta(),
            &CacheLookup {
                tier: CacheTier::Ram,
                manifest: false,
                bytes: 100,
            },
        );
        r.on_cache_lookup(
            &meta(),
            &CacheLookup {
                tier: CacheTier::Miss,
                manifest: true,
                bytes: 50,
            },
        );
        r.on_retry_timer_fired(&meta(), &RetryTimerFired {});
        r.on_chunk_served(
            &meta(),
            &ChunkServed {
                bytes: 100,
                segments: 70,
                serve: SimDuration::from_millis(2),
                first_byte: SimDuration::from_millis(40),
                download: SimDuration::from_millis(300),
                serve_offset: SimDuration::from_millis(10),
                net_end: SimDuration::from_millis(330),
                stack: SimDuration::from_millis(5),
            },
        );
        let m = r.metrics();
        assert_eq!(m.segments_sent.get(), 70);
        assert_eq!(m.chunk_ram_hits.get(), 1);
        assert_eq!(m.manifest_misses.get(), 1);
        assert_eq!(m.manifest_requests.get(), 1);
        assert_eq!(m.bytes_served.get(), 150);
        assert_eq!(m.bytes_ram.get(), 100);
        assert_eq!(m.bytes_disk.get(), 0);
        assert_eq!(m.bytes_miss.get(), 50);
        assert_eq!(m.retry_timer_fires.get(), 1);
        assert_eq!(m.chunks_served.get(), 1);
        assert_eq!(m.serve_latency_ns.count(), 1);
        assert!(r.take_trace().is_empty());
    }

    #[test]
    fn trace_records_carry_each_event_on_its_lane() {
        let mut r = MetricsRecorder::new(true);
        let stall = Stall {
            count: 2,
            duration: SimDuration::from_millis(500),
        };
        r.on_stall(&meta(), &stall);
        let fleet = Meta::fleet(SimTime::from_millis(20));
        r.on_server_restarted(&fleet, &ServerRestarted { server: 5 });
        let records = r.take_trace();
        assert_eq!(records.len(), 2);
        match &records[0] {
            SimRecord::Event(m, e) => {
                assert_eq!(*m, meta());
                assert_eq!(e.name(), "Stall");
                assert_eq!(
                    e.fields().to_json_string(),
                    serde::Serialize::to_value(&stall).to_json_string()
                );
            }
            other => panic!("expected an event record, got {other:?}"),
        }
        // A session-less event goes on the fleet lane.
        assert_eq!(records[1].lane(), None);
        assert!(matches!(
            records[1],
            SimRecord::Event(m, AnyEvent::ServerRestarted(ServerRestarted { server: 5 })) if m == fleet
        ));
        // The buffer is drained.
        assert!(r.take_trace().is_empty());
    }

    fn served(serve_ms: u64, stack_ms: u64, fb_ms: u64, dl_ms: u64) -> ChunkServed {
        ChunkServed {
            bytes: 1000,
            segments: 4,
            serve: SimDuration::from_millis(serve_ms),
            first_byte: SimDuration::from_millis(fb_ms),
            download: SimDuration::from_millis(dl_ms),
            serve_offset: SimDuration::from_millis(1),
            net_end: SimDuration::from_millis(fb_ms + dl_ms - stack_ms),
            stack: SimDuration::from_millis(stack_ms),
        }
    }

    #[test]
    fn stalls_are_localized_to_the_dominant_component() {
        let mut r = MetricsRecorder::new(false);
        let m9 = Meta::session(SimTime::from_millis(10), 9);
        r.on_session_start(&m9, &SessionStart { server: 0 });
        // Server-dominated chunk: serve 80 of 100 ms total.
        r.on_chunk_served(&m9, &served(80, 5, 90, 10));
        r.on_stall(
            &m9,
            &Stall {
                count: 2,
                duration: SimDuration::from_millis(100),
            },
        );
        r.on_session_end(&m9, &SessionEnd { chunks: 1 });
        assert_eq!(r.metrics().loc_rebuffers_server.get(), 2);
        assert_eq!(
            r.metrics().loc_rebuffers_total(),
            r.metrics().stall_events.get()
        );
        assert_eq!(r.metrics().loc_sessions_server.get(), 1);
        assert_eq!(
            r.metrics().loc_sessions_total(),
            r.metrics().sessions_ended.get()
        );
    }

    #[test]
    fn aborts_are_localized_by_their_terminal_failure() {
        let mut r = MetricsRecorder::new(false);
        let m4 = Meta::session(SimTime::from_millis(3), 4);
        r.on_session_start(&m4, &SessionStart { server: 1 });
        r.on_session_aborted(
            &m4,
            &SessionAborted {
                attempts: 5,
                reason: FailReason::Blackout,
            },
        );
        r.on_session_end(&m4, &SessionEnd { chunks: 0 });
        let m = r.metrics();
        assert_eq!(m.loc_aborts_network.get(), 1);
        assert_eq!(m.loc_aborts_total(), m.sessions_aborted.get());
        // The abort outranks everything in the session diagnosis.
        assert_eq!(m.loc_sessions_network.get(), 1);
    }

    #[test]
    fn healthy_sessions_stay_healthy() {
        let mut r = MetricsRecorder::new(false);
        let m1 = Meta::session(SimTime::from_millis(1), 1);
        r.on_session_start(&m1, &SessionStart { server: 0 });
        r.on_chunk_served(&m1, &served(2, 1, 10, 40));
        r.on_chunk_rendered(
            &m1,
            &ChunkRendered {
                frames: 240,
                dropped: 1,
            },
        );
        r.on_session_end(&m1, &SessionEnd { chunks: 1 });
        assert_eq!(r.metrics().loc_sessions_healthy.get(), 1);
        assert_eq!(r.metrics().loc_rebuffers_total(), 0);
    }

    #[test]
    fn spans_cover_the_session_tree_when_enabled() {
        let mut r = MetricsRecorder::new(true);
        let start = Meta::session(SimTime::from_millis(100), 6);
        r.on_session_start(&start, &SessionStart { server: 0 });
        r.on_chunk_served(&start, &served(10, 5, 30, 70));
        r.on_session_end(
            &Meta::session(SimTime::from_millis(200), 6),
            &SessionEnd { chunks: 1 },
        );
        let mut records = r.take_trace();
        // 1 session + chunk + 3 phases, and the three events.
        assert_eq!(records.len(), 8);
        crate::span::canonicalize(&mut records);
        let spans: Vec<SimSpan> = records
            .iter()
            .filter_map(SimRecord::span)
            .copied()
            .collect();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].kind, crate::span::SpanKind::Session);
        assert_eq!(spans[0].start_ns, SimTime::from_millis(100).as_nanos());
        // Phases nest inside the chunk, the chunk inside the session.
        for s in &spans[1..] {
            assert!(s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns);
            assert!(s.end_ns >= s.start_ns);
        }
        // The events follow the spans on the session's lane, in time order.
        let names: Vec<&str> = records[5..]
            .iter()
            .map(|r| match r {
                SimRecord::Event(_, e) => e.name(),
                SimRecord::Span(_) => "span",
            })
            .collect();
        assert_eq!(names, vec!["SessionStart", "ChunkServed", "SessionEnd"]);
        // Trace off: nothing buffered.
        let mut plain = MetricsRecorder::new(false);
        plain.on_chunk_served(&start, &served(1, 1, 5, 5));
        assert!(plain.take_trace().is_empty());
    }

    #[test]
    fn absorb_merges_metrics_and_appends_trace() {
        let mut a = MetricsRecorder::new(true);
        a.on_rto_timeout(&meta(), &RtoTimeout {});
        let mut b = MetricsRecorder::new(true);
        b.on_rto_timeout(&meta(), &RtoTimeout {});
        b.on_retransmit(&meta(), &Retransmit { segments: 3 });
        a.absorb(b);
        assert_eq!(a.metrics().rto_timeouts.get(), 2);
        assert_eq!(a.metrics().retx_segments.get(), 3);
        // Records append in absorb order: a's first, then b's.
        let names: Vec<&str> = a
            .take_trace()
            .iter()
            .map(|r| match r {
                SimRecord::Event(_, e) => e.name(),
                SimRecord::Span(_) => "span",
            })
            .collect();
        assert_eq!(names, vec!["RtoTimeout", "RtoTimeout", "Retransmit"]);
    }
}
