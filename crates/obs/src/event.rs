//! Typed simulation events and the [`Subscriber`] trait.
//!
//! Modeled on s2n-quic's generated event framework: one plain struct per
//! event, one `on_*` method per event on [`Subscriber`], and a no-op
//! default body for every method. Instrumented code calls the subscriber
//! unconditionally; when the subscriber is [`NoopSubscriber`] the calls
//! monomorphize to empty inlined functions and the probes cost nothing.
//!
//! Events carry **sim-time** payloads only ([`Meta::at`] is the simulation
//! clock, never a wall clock), so any metrics derived from them are
//! deterministic functions of the seed.

use serde::{Serialize, Value};
use streamlab_sim::{SimDuration, SimTime};

/// Context common to every event: when (sim-time) and, where applicable,
/// for which session it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Meta {
    /// Simulation time of the event.
    pub at: SimTime,
    /// The session the event belongs to (`None` for fleet-level events).
    pub session: Option<u64>,
}

impl Meta {
    /// Meta for a session-scoped event.
    pub fn session(at: SimTime, session: u64) -> Self {
        Meta {
            at,
            session: Some(session),
        }
    }

    /// Meta for a fleet- or engine-level event.
    pub fn fleet(at: SimTime) -> Self {
        Meta { at, session: None }
    }
}

/// Which cache tier satisfied a lookup (mirrors the CDN crate's status,
/// redeclared here so the observability substrate stays dependency-light).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheTier {
    /// Served from the main-memory cache.
    Ram,
    /// Served from the disk cache.
    Disk,
    /// Not cached; fetched from the backend.
    Miss,
}

/// Why a congestion window collapsed back to the initial window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ResetReason {
    /// A retransmission timeout fired (`cwnd := 1`).
    Loss,
    /// The connection idled past an RTO and slow-start restart applied.
    Idle,
}

/// A session began (its first chunk request was processed).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SessionStart {
    /// Global index of the session's assigned server.
    pub server: u64,
}

/// A session finished (ran out of chunks, or abandoned).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SessionEnd {
    /// Chunks the session downloaded.
    pub chunks: u32,
}

/// A cache lookup completed on a CDN server.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CacheLookup {
    /// Tier that satisfied the request.
    pub tier: CacheTier,
    /// Whether the object was a manifest (vs a media chunk).
    pub manifest: bool,
    /// Object size, bytes.
    pub bytes: u64,
}

/// The ATS asynchronous open-read retry timer fired (§4.1's 10 ms timer).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RetryTimerFired {}

/// One or more segments were retransmitted within a TCP round.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Retransmit {
    /// Segments lost (and hence retransmitted) this round.
    pub segments: u32,
}

/// A retransmission timeout fired (not enough dup-acks for fast
/// retransmit).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RtoTimeout {}

/// The congestion window collapsed to the initial window.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CwndReset {
    /// What triggered the collapse.
    pub reason: ResetReason,
}

/// Playback stalled (rebuffering attributed to one chunk).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Stall {
    /// Rebuffer events attributed to the chunk.
    pub count: u32,
    /// Total stall duration (sim-time).
    pub duration: SimDuration,
}

/// A chunk was rendered by the client.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ChunkRendered {
    /// Frames the chunk carried.
    pub frames: u32,
    /// Frames dropped.
    pub dropped: u32,
}

/// A chunk was served end to end (the orchestrator-level roll-up feeding
/// the latency histograms, the sim-time spans and the localization pass).
///
/// The offsets are measured from the event's `meta.at` (the chunk
/// request time) and carve the chunk's `first_byte + download` total
/// into the span phases: `[serve_offset, serve_offset + serve]` is the
/// server-side serve, `[serve_offset + serve, net_end]` the TCP
/// transfer, `[net_end, first_byte + download]` the client tail.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ChunkServed {
    /// Chunk size, bytes.
    pub bytes: u64,
    /// TCP segments sent to deliver the chunk (retransmissions included).
    pub segments: u32,
    /// Total server-side latency (`D_wait + D_open + D_read`).
    pub serve: SimDuration,
    /// Request to player-first-byte (`D_FB`).
    pub first_byte: SimDuration,
    /// Player first byte to last byte (`D_LB`).
    pub download: SimDuration,
    /// Request to the request's arrival at the server (uplink
    /// propagation, half of rtt₀).
    pub serve_offset: SimDuration,
    /// Request to the last byte leaving the network (TCP transfer end,
    /// before download-stack buffering).
    pub net_end: SimDuration,
    /// Time the chunk's bytes sat in the client download stack (`D_DS`).
    pub stack: SimDuration,
}

/// Why an injected fault rejected a chunk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FailReason {
    /// The target server (or its whole PoP) was inside an outage window.
    Outage,
    /// The network path was inside a blackout window.
    Blackout,
}

/// An injected server restart was applied: the server's RAM cache was
/// wiped while its disk tier stayed warm (the paper's §5 churn
/// mechanism).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServerRestarted {
    /// Global index of the restarted server.
    pub server: u64,
}

/// A chunk request failed (injected outage or blackout) and the client
/// scheduled a retry.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RequestFailed {
    /// Global index of the server the request targeted.
    pub server: u64,
    /// Why the request failed.
    pub reason: FailReason,
    /// How many attempts this chunk has burned so far (1-based).
    pub attempt: u32,
    /// Timeout + backoff the client waits before the next attempt.
    pub retry_delay: SimDuration,
}

/// After repeated failures the client switched to another server in the
/// same PoP.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Failover {
    /// Server the session was on.
    pub from_server: u64,
    /// Server it moved to.
    pub to_server: u64,
}

/// Retries ate the playback buffer below the emergency threshold and the
/// ABR dropped to the lowest rung.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AbrEmergency {
    /// Bitrate the ABR would have picked, kbit/s.
    pub from_kbps: u32,
    /// Emergency bitrate actually used, kbit/s.
    pub to_kbps: u32,
}

/// A session gave up on a chunk after `max_attempts_per_chunk` failures
/// and ended early.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SessionAborted {
    /// Failed attempts the final chunk burned.
    pub attempts: u32,
    /// The terminal failure's cause — what the localization pass blames
    /// the abort on.
    pub reason: FailReason,
}

/// Declares [`AnyEvent`] over the event types listed.
macro_rules! any_event {
    ($($name:ident),* $(,)?) => {
        /// Any one simulation event, as buffered for the sim-time trace:
        /// one variant per event type, named after it.
        #[derive(Debug, Clone, Copy)]
        pub enum AnyEvent {
            $(
                #[doc = concat!("A [`", stringify!($name), "`] event.")]
                $name($name),
            )*
        }

        impl AnyEvent {
            /// The event type's name (`"ChunkServed"`, ...).
            pub fn name(&self) -> &'static str {
                match self {
                    $(AnyEvent::$name(_) => stringify!($name),)*
                }
            }

            /// The event's fields as a JSON object.
            pub fn fields(&self) -> Value {
                match self {
                    $(AnyEvent::$name(e) => e.to_value(),)*
                }
            }
        }
    };
}

any_event!(
    SessionStart,
    SessionEnd,
    CacheLookup,
    RetryTimerFired,
    Retransmit,
    RtoTimeout,
    CwndReset,
    Stall,
    ChunkRendered,
    ChunkServed,
    ServerRestarted,
    RequestFailed,
    Failover,
    AbrEmergency,
    SessionAborted,
);

/// Receives simulation events.
///
/// Every method has an inlined no-op default, so implementors override
/// only what they care about and uninstrumented runs pay nothing: with
/// [`NoopSubscriber`] the monomorphized calls are empty and the optimizer
/// deletes them (the repo's `parallel` bench guards this).
pub trait Subscriber {
    /// A session began.
    #[inline]
    fn on_session_start(&mut self, meta: &Meta, event: &SessionStart) {
        let _ = meta;
        let _ = event;
    }

    /// A session finished.
    #[inline]
    fn on_session_end(&mut self, meta: &Meta, event: &SessionEnd) {
        let _ = meta;
        let _ = event;
    }

    /// A cache lookup completed.
    #[inline]
    fn on_cache_lookup(&mut self, meta: &Meta, event: &CacheLookup) {
        let _ = meta;
        let _ = event;
    }

    /// The open-read retry timer fired.
    #[inline]
    fn on_retry_timer_fired(&mut self, meta: &Meta, event: &RetryTimerFired) {
        let _ = meta;
        let _ = event;
    }

    /// Segments were retransmitted.
    #[inline]
    fn on_retransmit(&mut self, meta: &Meta, event: &Retransmit) {
        let _ = meta;
        let _ = event;
    }

    /// A retransmission timeout fired.
    #[inline]
    fn on_rto_timeout(&mut self, meta: &Meta, event: &RtoTimeout) {
        let _ = meta;
        let _ = event;
    }

    /// The congestion window collapsed.
    #[inline]
    fn on_cwnd_reset(&mut self, meta: &Meta, event: &CwndReset) {
        let _ = meta;
        let _ = event;
    }

    /// Playback stalled.
    #[inline]
    fn on_stall(&mut self, meta: &Meta, event: &Stall) {
        let _ = meta;
        let _ = event;
    }

    /// A chunk was rendered.
    #[inline]
    fn on_chunk_rendered(&mut self, meta: &Meta, event: &ChunkRendered) {
        let _ = meta;
        let _ = event;
    }

    /// A chunk was served end to end.
    #[inline]
    fn on_chunk_served(&mut self, meta: &Meta, event: &ChunkServed) {
        let _ = meta;
        let _ = event;
    }

    /// An injected server restart was applied.
    #[inline]
    fn on_server_restarted(&mut self, meta: &Meta, event: &ServerRestarted) {
        let _ = meta;
        let _ = event;
    }

    /// A chunk request failed and will be retried.
    #[inline]
    fn on_request_failed(&mut self, meta: &Meta, event: &RequestFailed) {
        let _ = meta;
        let _ = event;
    }

    /// A session failed over to another server.
    #[inline]
    fn on_failover(&mut self, meta: &Meta, event: &Failover) {
        let _ = meta;
        let _ = event;
    }

    /// The ABR made an emergency down-switch.
    #[inline]
    fn on_abr_emergency(&mut self, meta: &Meta, event: &AbrEmergency) {
        let _ = meta;
        let _ = event;
    }

    /// A session aborted after exhausting its retry budget.
    #[inline]
    fn on_session_aborted(&mut self, meta: &Meta, event: &SessionAborted) {
        let _ = meta;
        let _ = event;
    }
}

/// The do-nothing subscriber: instrumented code driven with this compiles
/// to the uninstrumented code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingSub {
        lookups: u64,
        retries: u64,
    }

    impl Subscriber for CountingSub {
        fn on_cache_lookup(&mut self, _meta: &Meta, _event: &CacheLookup) {
            self.lookups += 1;
        }
        fn on_retry_timer_fired(&mut self, _meta: &Meta, _event: &RetryTimerFired) {
            self.retries += 1;
        }
    }

    #[test]
    fn defaults_are_noops_and_overrides_fire() {
        let mut sub = CountingSub {
            lookups: 0,
            retries: 0,
        };
        let meta = Meta::session(SimTime::from_millis(5), 7);
        sub.on_cache_lookup(
            &meta,
            &CacheLookup {
                tier: CacheTier::Ram,
                manifest: false,
                bytes: 1024,
            },
        );
        sub.on_retry_timer_fired(&meta, &RetryTimerFired {});
        // Default method: must not panic, must not count anywhere.
        sub.on_rto_timeout(&meta, &RtoTimeout {});
        assert_eq!(sub.lookups, 1);
        assert_eq!(sub.retries, 1);
    }

    #[test]
    fn noop_subscriber_accepts_everything() {
        let mut sub = NoopSubscriber;
        let meta = Meta::fleet(SimTime::ZERO);
        sub.on_server_restarted(&meta, &ServerRestarted { server: 3 });
        sub.on_stall(
            &meta,
            &Stall {
                count: 1,
                duration: SimDuration::from_millis(250),
            },
        );
    }

    #[test]
    fn events_serialize_for_tracing() {
        let e = AnyEvent::CacheLookup(CacheLookup {
            tier: CacheTier::Disk,
            manifest: true,
            bytes: 8192,
        });
        assert_eq!(e.name(), "CacheLookup");
        let text = e.fields().to_json_string();
        assert_eq!(text, r#"{"tier":"Disk","manifest":true,"bytes":8192}"#);
        assert_eq!(AnyEvent::RtoTimeout(RtoTimeout {}).name(), "RtoTimeout");
    }
}
