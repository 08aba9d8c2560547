//! Chrome Trace Event Format export — one file, two clocks.
//!
//! `--trace-out` writes a JSON object Perfetto / `chrome://tracing` open
//! directly. Process 1 carries the deterministic **sim-time** lanes: one
//! thread lane per session with `B`/`E` duration events built from
//! [`SimSpan`]s and an `i` instant per simulation event, plus one fleet
//! lane ([`FLEET_TID`]) for events that belong to no session. Process 2
//! carries the **wall-clock** engine lanes (one lane per worker thread,
//! `X` complete events for shard jobs plus instant and counter events
//! from a [`WallTrace`]). Keeping the clocks in separate processes means
//! neither can contaminate the other: the sim side is byte-identical at
//! any `--threads`, the wall side is honest about being a measurement.
//!
//! Timestamps are microseconds (the format's unit): sim-time nanoseconds
//! and engine milliseconds both convert losslessly enough at trace
//! granularity, and integer µs keeps the output byte-stable. Event
//! records keep the exact sim time as `args.at_ns`.

use crate::event::{AnyEvent, Meta};
use crate::span::{SimRecord, SimSpan, SpanKind};
use serde::{Map, Serialize, Value};
use std::io::{self, Write};

/// Trace process id for the deterministic sim-time lanes.
pub const SIM_PID: u64 = 1;
/// Trace process id for the wall-clock engine lanes.
pub const WALL_PID: u64 = 2;
/// Sim-time thread lane for events that belong to no session (server
/// restarts). Session ids are dense from 0, so a run would need 2^32 − 1
/// sessions to reach it; it stays within 32 bits for viewers that read
/// thread ids that wide.
pub const FLEET_TID: u64 = u32::MAX as u64;

/// One wall-clock interval (a shard job, the setup phase, the merge),
/// rendered as a Chrome `X` complete event.
#[derive(Debug, Clone)]
pub struct WallSpan {
    /// Lane (trace thread id) the interval belongs to — worker index for
    /// shard jobs, a reserved lane for run phases.
    pub lane: u64,
    /// Event name shown on the slice.
    pub name: String,
    /// Start, microseconds since the engine epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Extra key/value payload (shard index, sessions, events, ...).
    pub args: Vec<(String, u64)>,
}

/// One wall-clock instant (a work-stealing steal), rendered as a Chrome
/// `i` instant event.
#[derive(Debug, Clone)]
pub struct WallInstant {
    /// Lane (trace thread id) the instant belongs to.
    pub lane: u64,
    /// Event name.
    pub name: String,
    /// When, microseconds since the engine epoch.
    pub at_us: u64,
    /// Extra key/value payload.
    pub args: Vec<(String, u64)>,
}

/// One sample of a wall-clock counter series (watchdog heartbeats),
/// rendered as a Chrome `C` counter event.
#[derive(Debug, Clone)]
pub struct WallCounter {
    /// Counter name (one chart per name).
    pub name: String,
    /// Sample time, microseconds since the engine epoch.
    pub at_us: u64,
    /// Series name → value at this sample.
    pub series: Vec<(String, u64)>,
}

/// Everything the engine measured on the host clock for one run.
#[derive(Debug, Clone, Default)]
pub struct WallTrace {
    /// Lane id → display name (`worker 0`, `run`, ...).
    pub lanes: Vec<(u64, String)>,
    /// Intervals (shard jobs, run phases).
    pub spans: Vec<WallSpan>,
    /// Point events (steals).
    pub instants: Vec<WallInstant>,
    /// Counter samples (heartbeats).
    pub counters: Vec<WallCounter>,
}

fn base_event(name: &str, cat: &str, ph: &str, ts: u64, pid: u64, tid: u64) -> Map {
    let mut e = Map::new();
    e.insert("name".into(), name.to_value());
    e.insert("cat".into(), cat.to_value());
    e.insert("ph".into(), ph.to_value());
    e.insert("ts".into(), ts.to_value());
    e.insert("pid".into(), pid.to_value());
    e.insert("tid".into(), tid.to_value());
    e
}

fn args_object(args: &[(String, u64)]) -> Value {
    let mut m = Map::new();
    for (k, v) in args {
        m.insert(k.clone(), v.to_value());
    }
    Value::Object(m)
}

/// Writes the `traceEvents` array one record at a time, so a large trace
/// never sits in memory as text.
struct EventWriter<'w, W: Write> {
    w: &'w mut W,
    first: bool,
}

impl<W: Write> EventWriter<'_, W> {
    fn separate(&mut self) -> io::Result<()> {
        if !self.first {
            self.w.write_all(b",\n")?;
        }
        self.first = false;
        Ok(())
    }

    fn push(&mut self, e: Map) -> io::Result<()> {
        self.separate()?;
        self.w
            .write_all(Value::Object(e).to_json_string().as_bytes())
    }

    /// A sim-lane record, formatted in place rather than built as a
    /// [`Map`] (the bulk of a large trace); the same bytes [`base_event`]
    /// would give. `name` needs no JSON escaping; `tail` continues the
    /// object after `tid`.
    fn sim(
        &mut self,
        name: &str,
        cat: &str,
        ph: &str,
        ts: u64,
        tid: u64,
        tail: &str,
    ) -> io::Result<()> {
        self.separate()?;
        write!(
            self.w,
            r#"{{"name":"{name}","cat":"{cat}","ph":"{ph}","ts":{ts},"pid":{SIM_PID},"tid":{tid}{tail}}}"#
        )
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) -> io::Result<()> {
        let mut e = base_event(kind, "__metadata", "M", 0, pid, tid);
        let mut args = Map::new();
        args.insert("name".into(), name.to_value());
        e.insert("args".into(), Value::Object(args));
        self.push(e)
    }
}

fn span_name(s: &SimSpan) -> String {
    match (s.kind, s.chunk) {
        (SpanKind::Session, _) => "session".to_string(),
        (SpanKind::Chunk, Some(c)) => format!("chunk {c}"),
        (SpanKind::Chunk, None) => "chunk".to_string(),
        (SpanKind::CacheLookup, _) => "cache_lookup".to_string(),
        (SpanKind::NetTransfer, _) => "net_transfer".to_string(),
        (SpanKind::Render, _) => "render".to_string(),
    }
}

/// Write an event as a Chrome `i` instant on its sim lane: the event type
/// names it, and `args` holds the event's fields plus its exact sim time.
fn write_event<W: Write>(
    tid: u64,
    meta: &Meta,
    event: &AnyEvent,
    out: &mut EventWriter<W>,
) -> io::Result<()> {
    let at_ns = meta.at.as_nanos();
    let mut args = event.fields();
    if let Value::Object(fields) = &mut args {
        fields.insert("at_ns".into(), at_ns.to_value());
    }
    let tail = format!(r#","s":"t","args":{}"#, args.to_json_string());
    out.sim(event.name(), "event", "i", at_ns / 1000, tid, &tail)
}

/// Emit one lane's records: `B`/`E` pairs for the spans, with the events
/// merged in by timestamp. The canonical span order is a pre-order walk,
/// so a begin/end stack yields matched pairs with non-decreasing
/// timestamps — the two properties the schema test pins down.
fn write_lane<W: Write>(records: &[SimRecord], out: &mut EventWriter<W>) -> io::Result<()> {
    let tid = records[0].lane().unwrap_or(FLEET_TID);
    let split = records.iter().position(|r| r.span().is_none());
    let (spans, events) = records.split_at(split.unwrap_or(records.len()));
    let mut events = events.iter().peekable();
    // Write the events stamped before `ts` (or at it, with `inclusive`):
    // an event at a span's start lands inside the span, an event at its
    // end before the span closes.
    let mut flush = |ts: u64, inclusive: bool, out: &mut EventWriter<W>| {
        while let Some(&&SimRecord::Event(meta, event)) = events.peek() {
            let at = meta.at.as_nanos() / 1000;
            if at > ts || (at == ts && !inclusive) {
                break;
            }
            events.next();
            write_event(tid, &meta, &event, out)?;
        }
        io::Result::Ok(())
    };
    let mut edge = |s: &SimSpan, begin: bool, out: &mut EventWriter<W>| {
        let ts = if begin { s.start_ns } else { s.end_ns } / 1000;
        flush(ts, !begin, out)?;
        let (ph, tail) = match (begin, s.parent) {
            (false, _) => ("E", String::new()),
            (true, None) => ("B", format!(r#","args":{{"id":{}}}"#, s.id)),
            (true, Some(p)) => ("B", format!(r#","args":{{"id":{},"parent":{p}}}"#, s.id)),
        };
        out.sim(&span_name(s), "sim", ph, ts, tid, &tail)
    };
    let mut stack: Vec<&SimSpan> = Vec::new();
    for s in spans.iter().filter_map(SimRecord::span) {
        while let Some(top) = stack.pop_if(|top| top.end_ns <= s.start_ns) {
            edge(top, false, out)?;
        }
        edge(s, true, out)?;
        stack.push(s);
    }
    while let Some(top) = stack.pop() {
        edge(top, false, out)?;
    }
    flush(u64::MAX, true, out)
}

/// Write a complete Chrome trace from canonicalized sim records (see
/// [`crate::span::canonicalize`]) and an optional wall-clock trace. The
/// output is a pure function of its inputs; with `wall == None` (or an
/// empty wall trace) it is as deterministic as the records themselves.
pub fn write_chrome_trace<W: Write>(
    sim: &[SimRecord],
    wall: Option<&WallTrace>,
    w: &mut W,
) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut out = EventWriter { w, first: true };
    out.metadata("process_name", SIM_PID, 0, "sim-time (deterministic)")?;
    // Canonical order groups each lane contiguously.
    for lane in sim.chunk_by(|a, b| a.lane() == b.lane()) {
        write_lane(lane, &mut out)?;
    }
    if let Some(w) = wall {
        out.metadata("process_name", WALL_PID, 0, "engine (wall-clock)")?;
        for (lane, name) in &w.lanes {
            out.metadata("thread_name", WALL_PID, *lane, name)?;
        }
        for s in &w.spans {
            let mut e = base_event(&s.name, "engine", "X", s.start_us, WALL_PID, s.lane);
            e.insert("dur".into(), s.dur_us.to_value());
            e.insert("args".into(), args_object(&s.args));
            out.push(e)?;
        }
        for inst in &w.instants {
            let mut e = base_event(&inst.name, "engine", "i", inst.at_us, WALL_PID, inst.lane);
            e.insert("s".into(), "t".to_value());
            e.insert("args".into(), args_object(&inst.args));
            out.push(e)?;
        }
        for c in &w.counters {
            let mut e = base_event(&c.name, "engine", "C", c.at_us, WALL_PID, 0);
            e.insert("args".into(), args_object(&c.series));
            out.push(e)?;
        }
    }
    out.w.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

/// [`write_chrome_trace`] into a string.
pub fn render_chrome_trace(sim: &[SimRecord], wall: Option<&WallTrace>) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(sim, wall, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("the trace is JSON text")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ServerRestarted, SessionEnd, SessionStart, Stall};
    use crate::span::canonicalize;
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

    fn parse_events(text: &str) -> Vec<Value> {
        let v = Value::parse_json(text).expect("trace parses");
        v.get("traceEvents")
            .and_then(|t| t.as_array())
            .expect("traceEvents array")
            .to_vec()
    }

    #[test]
    fn sim_spans_emit_matched_nested_pairs() {
        let mut records = vec![
            raw(4, None, SpanKind::Session, 0, 100_000),
            raw(4, Some(0), SpanKind::Chunk, 10_000, 60_000),
            raw(4, Some(0), SpanKind::CacheLookup, 12_000, 20_000),
            raw(4, Some(0), SpanKind::NetTransfer, 20_000, 50_000),
            raw(4, Some(0), SpanKind::Render, 50_000, 60_000),
            raw(4, Some(1), SpanKind::Chunk, 60_000, 95_000),
        ];
        canonicalize(&mut records);
        let text = render_chrome_trace(&records, None);
        let events = parse_events(&text);
        let mut depth = 0i64;
        let mut last_ts = 0u64;
        let mut begins = 0;
        for e in &events {
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").and_then(|t| t.as_u64()).unwrap();
            assert!(ts >= last_ts, "timestamps regressed: {last_ts} -> {ts}");
            last_ts = ts;
            match ph {
                "B" => {
                    depth += 1;
                    begins += 1;
                }
                "E" => depth -= 1,
                other => panic!("unexpected ph {other}"),
            }
            assert!(depth >= 0, "E without matching B");
        }
        assert_eq!(depth, 0, "unclosed B events");
        assert_eq!(begins, records.len());
    }

    #[test]
    fn events_merge_into_their_lane_by_timestamp() {
        let mut records = vec![
            raw(2, None, SpanKind::Session, 10_000, 50_000),
            raw(2, Some(0), SpanKind::Chunk, 10_000, 30_000),
            event(
                Some(2),
                50_000,
                AnyEvent::SessionEnd(SessionEnd { chunks: 1 }),
            ),
            event(
                Some(2),
                10_000,
                AnyEvent::SessionStart(SessionStart { server: 0 }),
            ),
            event(
                Some(2),
                40_500,
                AnyEvent::Stall(Stall {
                    count: 1,
                    duration: SimDuration::from_millis(3),
                }),
            ),
            event(
                None,
                20_000,
                AnyEvent::ServerRestarted(ServerRestarted { server: 9 }),
            ),
        ];
        canonicalize(&mut records);
        let events = parse_events(&render_chrome_trace(&records, None));
        let lane: Vec<(String, String, u64, u64)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) != Some("M"))
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap().to_owned();
                let num = |k: &str| e.get(k).and_then(|v| v.as_u64()).unwrap();
                (field("ph"), field("name"), num("ts"), num("tid"))
            })
            .collect();
        let expect =
            |ph: &str, name: &str, ts: u64, tid: u64| (ph.to_owned(), name.to_owned(), ts, tid);
        assert_eq!(
            lane,
            vec![
                expect("B", "session", 10, 2),
                expect("B", "chunk 0", 10, 2),
                expect("i", "SessionStart", 10, 2),
                expect("E", "chunk 0", 30, 2),
                expect("i", "Stall", 40, 2),
                expect("i", "SessionEnd", 50, 2),
                expect("E", "session", 50, 2),
                expect("i", "ServerRestarted", 20, FLEET_TID),
            ]
        );
        // The record keeps the exact sim time and the event's fields.
        let stall = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("Stall"))
            .unwrap();
        let args = stall.get("args").unwrap();
        assert_eq!(args.get("at_ns").and_then(|v| v.as_u64()), Some(40_500));
        assert_eq!(args.get("count").and_then(|v| v.as_u64()), Some(1));
        assert!(args.get("duration").is_some());
    }

    #[test]
    fn wall_trace_renders_slices_instants_and_counters() {
        let wall = WallTrace {
            lanes: vec![(0, "worker 0".into()), (9, "run".into())],
            spans: vec![WallSpan {
                lane: 0,
                name: "shard 3".into(),
                start_us: 100,
                dur_us: 900,
                args: vec![("events".into(), 1234)],
            }],
            instants: vec![WallInstant {
                lane: 0,
                name: "steal".into(),
                at_us: 150,
                args: vec![("job".into(), 3)],
            }],
            counters: vec![WallCounter {
                name: "heartbeat events".into(),
                at_us: 200,
                series: vec![("shard 3".into(), 500)],
            }],
        };
        let text = render_chrome_trace(&[], Some(&wall));
        let events = parse_events(&text);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
        assert!(text.contains("worker 0"));
        assert!(text.contains("\"dur\":900"));
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let text = render_chrome_trace(&[], None);
        let events = parse_events(&text);
        // Only the sim process-name metadata event.
        assert_eq!(events.len(), 1);
    }
}
