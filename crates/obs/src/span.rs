//! The deterministic sim-time trace: spans and event records.
//!
//! A span is a named interval on the **simulation clock** with a parent
//! id, mirroring the paper's per-chunk instrumentation: every session
//! owns a lane of `session → chunk → {cache_lookup, net_transfer,
//! render}` intervals, so one chunk can be followed from the CDN cache
//! through the TCP transfer into the player. Every typed event the run
//! emits ([`crate::event`]) lands on the same lane as a [`SimRecord`] at
//! its sim time; session-less events (server restarts) share one fleet
//! lane.
//!
//! Records are collected per shard as they happen, concatenated in
//! canonical shard order, and then [`canonicalize`]d — grouped by lane,
//! spans sorted by `(chunk, kind)` and re-numbered with parents
//! assigned, events sorted by sim time — so the rendered trace is
//! **byte-identical at any `--threads` value**. Shards interleave
//! sessions differently than one global event queue would, but a
//! session runs inside one shard, so the canonical order is a pure
//! function of the simulated timeline, which `tests/trace_spans.rs` pins
//! down. Wall-clock intervals are deliberately a different type
//! ([`crate::trace_writer::WallTrace`]); the two clocks never mix.

use crate::event::{AnyEvent, Meta};

/// What a sim-time span covers. The declaration order is the canonical
/// sort order within one chunk (parents sort before children).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// A whole session: arrival to last rendered byte (or abort).
    Session,
    /// One chunk end to end: request to player-last-byte.
    Chunk,
    /// The server-side serve (`D_wait + D_open + D_read`), placed after
    /// the request's uplink propagation.
    CacheLookup,
    /// The TCP transfer: server send start to last byte off the wire.
    NetTransfer,
    /// The client tail: last network byte through the download stack to
    /// player-last-byte (decode/render hand-off).
    Render,
}

/// One interval on the simulation clock. `id`/`parent` are assigned by
/// [`canonicalize`]; raw spans carry `id == 0` and `parent == None`.
#[derive(Debug, Clone, Copy)]
pub struct SimSpan {
    /// Span id, 1-based in canonical order (0 = not yet canonicalized).
    pub id: u64,
    /// Enclosing span's id (`None` for session spans).
    pub parent: Option<u64>,
    /// Session the span belongs to.
    pub session: u64,
    /// Chunk index within the session (`None` for the session span).
    pub chunk: Option<u32>,
    /// What the interval covers.
    pub kind: SpanKind,
    /// Start, sim-time nanoseconds.
    pub start_ns: u64,
    /// End, sim-time nanoseconds (`>= start_ns`).
    pub end_ns: u64,
}

/// One record of the sim-time trace.
#[derive(Debug, Clone, Copy)]
pub enum SimRecord {
    /// An interval on its session's lane.
    Span(SimSpan),
    /// An event at `meta.at`, on the lane of `meta.session` (the fleet
    /// lane when that is `None`).
    Event(Meta, AnyEvent),
}

impl SimRecord {
    /// The lane the record belongs to: a session, or `None` for the fleet
    /// lane.
    pub fn lane(&self) -> Option<u64> {
        match self {
            SimRecord::Span(s) => Some(s.session),
            SimRecord::Event(meta, _) => meta.session,
        }
    }

    /// The span, when the record is one.
    pub fn span(&self) -> Option<&SimSpan> {
        match self {
            SimRecord::Span(s) => Some(s),
            SimRecord::Event(..) => None,
        }
    }
}

/// Sort records into canonical order and assign span ids and parents.
///
/// Lanes come in session order with the fleet lane last. Within a lane
/// the spans come first, ordered `(chunk, kind, start)` with the session
/// span leading (chunk `None` sorts before chunk `Some(0)`), i.e. a
/// depth-first pre-order walk of the session's tree: parents always
/// precede their children, which both the Chrome-trace writer and the
/// byte-identity contract rely on. The lane's events follow in sim-time
/// order; the sort is stable, so events at the same instant keep their
/// emission order. Span ids are 1-based positions among the spans. A
/// session runs inside one shard and records arrive in canonical shard
/// order, so the result is the same for every thread count.
pub fn canonicalize(records: &mut [SimRecord]) {
    records.sort_by_key(|r| {
        let lane = r.lane();
        let order = match r {
            SimRecord::Span(s) => (
                0,
                s.chunk.map(|c| u64::from(c) + 1).unwrap_or(0),
                s.kind,
                s.start_ns,
            ),
            SimRecord::Event(meta, _) => (1, meta.at.as_nanos(), SpanKind::Session, 0),
        };
        ((lane.is_none(), lane), order)
    });
    let spans = records.iter_mut().filter_map(|r| match r {
        SimRecord::Span(s) => Some(s),
        SimRecord::Event(..) => None,
    });
    let mut session_span: Option<(u64, u64)> = None; // (session, id)
    let mut chunk_span: Option<(u64, u32, u64)> = None; // (session, chunk, id)
    for (id, s) in (1..).zip(spans) {
        s.id = id;
        match (s.kind, s.chunk) {
            (SpanKind::Session, _) => {
                session_span = Some((s.session, s.id));
                chunk_span = None;
                s.parent = None;
            }
            (SpanKind::Chunk, Some(c)) => {
                chunk_span = Some((s.session, c, s.id));
                s.parent = match session_span {
                    Some((sess, id)) if sess == s.session => Some(id),
                    _ => None,
                };
            }
            (_, chunk) => {
                s.parent = match (chunk_span, chunk) {
                    (Some((sess, c, id)), Some(mine)) if sess == s.session && c == mine => Some(id),
                    _ => None,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RtoTimeout, ServerRestarted, Stall};
    use streamlab_sim::{SimDuration, SimTime};

    fn raw(session: u64, chunk: Option<u32>, kind: SpanKind, start: u64, end: u64) -> SimRecord {
        SimRecord::Span(SimSpan {
            id: 0,
            parent: None,
            session,
            chunk,
            kind,
            start_ns: start,
            end_ns: end,
        })
    }

    fn event(session: Option<u64>, at_ns: u64, event: AnyEvent) -> SimRecord {
        let meta = Meta {
            at: SimTime::from_nanos(at_ns),
            session,
        };
        SimRecord::Event(meta, event)
    }

    fn spans(records: &[SimRecord]) -> Vec<SimSpan> {
        records
            .iter()
            .filter_map(SimRecord::span)
            .copied()
            .collect()
    }

    #[test]
    fn canonical_order_is_a_pure_function_of_the_record_set() {
        let mut a = vec![
            raw(2, Some(0), SpanKind::Chunk, 10, 20),
            event(Some(1), 7, AnyEvent::RtoTimeout(RtoTimeout {})),
            raw(1, None, SpanKind::Session, 0, 30),
            raw(2, Some(0), SpanKind::NetTransfer, 12, 18),
            raw(1, Some(0), SpanKind::Chunk, 1, 15),
            event(
                None,
                3,
                AnyEvent::ServerRestarted(ServerRestarted { server: 4 }),
            ),
            raw(2, None, SpanKind::Session, 5, 25),
            raw(2, Some(0), SpanKind::CacheLookup, 10, 12),
        ];
        let mut b = a.clone();
        b.reverse(); // a different shard interleaving
        canonicalize(&mut a);
        canonicalize(&mut b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Session span leads its session, chunk follows, phases after
        // it, the lane's events last; the fleet lane comes at the end.
        let shape: Vec<(Option<u64>, Option<SpanKind>)> = a
            .iter()
            .map(|r| (r.lane(), r.span().map(|s| s.kind)))
            .collect();
        assert_eq!(
            shape,
            vec![
                (Some(1), Some(SpanKind::Session)),
                (Some(1), Some(SpanKind::Chunk)),
                (Some(1), None),
                (Some(2), Some(SpanKind::Session)),
                (Some(2), Some(SpanKind::Chunk)),
                (Some(2), Some(SpanKind::CacheLookup)),
                (Some(2), Some(SpanKind::NetTransfer)),
                (None, None),
            ]
        );
        // Span ids count spans only.
        let ids: Vec<u64> = spans(&a).iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn events_sort_by_time_and_keep_emission_order_on_ties() {
        let stall = |count| {
            AnyEvent::Stall(Stall {
                count,
                duration: SimDuration::from_millis(1),
            })
        };
        let mut records = vec![
            event(Some(5), 20, stall(1)),
            event(Some(5), 10, stall(2)),
            event(Some(5), 20, stall(3)),
            event(Some(5), 10, stall(4)),
        ];
        canonicalize(&mut records);
        let counts: Vec<u32> = records
            .iter()
            .map(|r| match r {
                SimRecord::Event(_, AnyEvent::Stall(s)) => s.count,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(counts, vec![2, 4, 1, 3]);
    }

    #[test]
    fn parents_point_at_the_enclosing_span() {
        let mut records = vec![
            raw(7, None, SpanKind::Session, 0, 100),
            raw(7, Some(0), SpanKind::Chunk, 5, 50),
            raw(7, Some(0), SpanKind::CacheLookup, 6, 10),
            raw(7, Some(0), SpanKind::NetTransfer, 10, 40),
            raw(7, Some(0), SpanKind::Render, 40, 50),
            raw(7, Some(1), SpanKind::Chunk, 50, 90),
            raw(7, Some(1), SpanKind::Render, 80, 90),
        ];
        canonicalize(&mut records);
        let spans = spans(&records);
        let by_kind = |k: SpanKind, c: Option<u32>| {
            spans
                .iter()
                .find(|s| s.kind == k && s.chunk == c)
                .copied()
                .unwrap()
        };
        let session = by_kind(SpanKind::Session, None);
        let chunk0 = by_kind(SpanKind::Chunk, Some(0));
        let chunk1 = by_kind(SpanKind::Chunk, Some(1));
        assert_eq!(session.parent, None);
        assert_eq!(chunk0.parent, Some(session.id));
        assert_eq!(chunk1.parent, Some(session.id));
        assert_eq!(
            by_kind(SpanKind::CacheLookup, Some(0)).parent,
            Some(chunk0.id)
        );
        assert_eq!(by_kind(SpanKind::Render, Some(1)).parent, Some(chunk1.id));
        // Ids are 1-based positions: parents always precede children.
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(p < s.id, "parent {p} not before child {}", s.id);
            }
        }
    }

    #[test]
    fn orphan_chunks_survive_without_a_session_span() {
        // A shard cancelled mid-run can leave chunk spans whose session
        // span was never closed; they must not inherit a stale parent.
        let mut records = vec![
            raw(1, None, SpanKind::Session, 0, 10),
            raw(2, Some(0), SpanKind::Chunk, 3, 9),
        ];
        canonicalize(&mut records);
        let spans = spans(&records);
        assert_eq!(spans[1].session, 2);
        assert_eq!(spans[1].parent, None);
    }
}
