//! Dual-clock tracing contracts.
//!
//! Sim-time side: the rendered sim half of the trace (`session → chunk →
//! {cache_lookup, net_transfer, render}` spans plus one record per
//! simulation event) is **byte-identical at any `--threads` value**,
//! faulted or not, and the localization counters partition their parent
//! counters exactly. Wall-clock side: the Chrome trace the two are
//! rendered into is structurally valid — every `B` has a matching `E` on
//! the same lane with non-decreasing timestamps, event records sit on
//! their lanes in time order, and the engine process carries worker lanes.

use serde_json::Value;
use streamlab::obs::{render_chrome_trace, SimRecord, SimSpan, SpanKind, FLEET_TID};
use streamlab::{ObsOptions, RunOutput, Simulation, SimulationConfig};

/// The sim-time trace on; nothing else beyond the metrics.
const TRACE_OPTS: ObsOptions = ObsOptions { sim_trace: true };

fn tiny_cfg(seed: u64, threads: usize) -> SimulationConfig {
    let mut cfg = SimulationConfig::tiny(seed);
    cfg.threads = threads;
    cfg
}

/// The acceptance fault scenario: restarts, a PoP outage and a loss
/// burst inside the tiny window (same file `tests/determinism.rs` uses).
fn faulted_cfg(seed: u64, threads: usize) -> SimulationConfig {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/faults_outage_restart.json"
    );
    let mut cfg = tiny_cfg(seed, threads);
    cfg.faults = streamlab::faults::FaultScenario::from_json_file(path).expect("scenario parses");
    cfg
}

fn run_traced(cfg: SimulationConfig) -> RunOutput {
    Simulation::new(cfg).run_observed(TRACE_OPTS).expect("run")
}

/// The rendered sim half of the trace: spans and events, no wall clock.
fn sim_half(cfg: SimulationConfig) -> String {
    let out = run_traced(cfg);
    render_chrome_trace(out.sim_trace.as_deref().expect("trace requested"), None)
}

fn assert_sim_half_is_thread_invariant(cfg: fn(u64, usize) -> SimulationConfig) -> String {
    let trace_1 = sim_half(cfg(2016, 1));
    assert!(
        trace_1.contains(r#""ph":"B""#) && trace_1.contains(r#""ph":"i""#),
        "a tiny run must produce spans and events"
    );
    for threads in [2, 8] {
        let trace_n = sim_half(cfg(2016, threads));
        assert!(
            trace_1 == trace_n,
            "sim-time trace diverges between threads=1 and threads={threads}"
        );
    }
    trace_1
}

#[test]
fn span_stream_is_byte_identical_across_thread_counts() {
    assert_sim_half_is_thread_invariant(tiny_cfg);
}

#[test]
fn faulted_span_stream_is_byte_identical_across_thread_counts() {
    let trace = assert_sim_half_is_thread_invariant(faulted_cfg);
    // The scenario's restarts are session-less: they exercise the fleet lane.
    assert!(
        trace.contains(r#""name":"ServerRestarted","cat":"event","ph":"i""#),
        "faulted trace must carry the server restarts"
    );
    assert!(trace.contains(&format!("\"tid\":{FLEET_TID}")));
}

#[test]
fn span_tree_is_well_formed() {
    let records = run_traced(tiny_cfg(2016, 4)).sim_trace.expect("trace");
    let spans: Vec<SimSpan> = records
        .iter()
        .filter_map(SimRecord::span)
        .copied()
        .collect();
    let mut kinds_seen = [false; 5];
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.id, i as u64 + 1, "ids are 1-based canonical positions");
        assert!(
            s.end_ns >= s.start_ns,
            "span {} ends before it starts",
            s.id
        );
        kinds_seen[s.kind as usize] = true;
        match s.kind {
            SpanKind::Session => assert_eq!(s.parent, None),
            _ => {
                let p = s.parent.expect("non-session spans have parents");
                let parent: &SimSpan = &spans[(p - 1) as usize];
                assert!(p < s.id, "parent {p} not before child {}", s.id);
                assert_eq!(parent.session, s.session);
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "child {} escapes parent {p}",
                    s.id
                );
            }
        }
    }
    assert!(
        kinds_seen.iter().all(|&k| k),
        "a tiny run exercises every span kind: {kinds_seen:?}"
    );
}

/// Parse the rendered Chrome trace into its event list.
fn trace_events(out: &RunOutput) -> Vec<Value> {
    let records = out.sim_trace.as_deref().expect("trace");
    let text = render_chrome_trace(records, out.wall_trace.as_ref());
    let v = Value::parse_json(&text).expect("trace is valid JSON");
    v.get("traceEvents")
        .and_then(|t| t.as_array())
        .expect("traceEvents array")
        .to_vec()
}

#[test]
fn chrome_trace_pairs_match_and_timestamps_are_monotone_per_lane() {
    let out = run_traced(faulted_cfg(2016, 4));
    let events = trace_events(&out);

    // Per sim lane (pid 1, tid = session or the fleet lane): a valid B/E
    // stack, with event instants between, and non-decreasing timestamps
    // over every record.
    use std::collections::HashMap;
    let mut depth: HashMap<u64, i64> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut begins = 0usize;
    let mut instants: HashMap<String, u64> = HashMap::new();
    for e in &events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
        let pid = e.get("pid").and_then(|p| p.as_u64()).expect("pid");
        if ph == "M" || pid != 1 {
            continue;
        }
        let tid = e.get("tid").and_then(|t| t.as_u64()).expect("tid");
        let ts = e.get("ts").and_then(|t| t.as_u64()).expect("ts");
        let last = last_ts.entry(tid).or_insert(0);
        assert!(
            *last <= ts,
            "lane {tid} timestamps regressed: {last} -> {ts}"
        );
        *last = ts;
        let d = depth.entry(tid).or_insert(0);
        match ph {
            "B" => {
                *d += 1;
                begins += 1;
            }
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "lane {tid} has E without matching B");
            }
            "i" => {
                let name = e.get("name").and_then(|n| n.as_str()).expect("name");
                let at_ns = e
                    .get("args")
                    .and_then(|a| a.get("at_ns"))
                    .and_then(|a| a.as_u64())
                    .expect("event records carry their exact sim time");
                assert_eq!(at_ns / 1000, ts, "{name} ts is its sim time in µs");
                *instants.entry(name.to_owned()).or_insert(0) += 1;
            }
            other => panic!("unexpected sim ph {other}"),
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unclosed B events");
    let records = out.sim_trace.as_deref().unwrap();
    assert_eq!(
        begins,
        records.iter().filter_map(SimRecord::span).count(),
        "every span opens exactly once"
    );
    assert_eq!(
        instants.values().sum::<u64>() as usize,
        records.len() - begins,
        "every event is one record"
    );
    let m = &out.metrics.as_ref().expect("metrics").sim;
    let count = |name: &str| instants.get(name).copied().unwrap_or(0);
    assert_eq!(count("ChunkServed"), m.chunks_served.get());
    assert_eq!(count("SessionStart"), m.sessions_started.get());
    assert_eq!(count("ServerRestarted"), m.server_restarts.get());
    assert!(m.server_restarts.get() > 0, "scenario must restart servers");
}

#[test]
fn chrome_trace_carries_both_clock_processes() {
    let out = run_traced(tiny_cfg(2016, 2));
    let events = trace_events(&out);
    let names: Vec<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_owned))
        .collect();
    assert!(
        names.iter().any(|n| n.contains("sim-time")),
        "sim process metadata missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.contains("wall-clock")),
        "engine process metadata missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("worker ")),
        "worker lane metadata missing: {names:?}"
    );
    // The engine process carries at least the run-phase slices.
    let wall_slices = events
        .iter()
        .filter(|e| {
            e.get("pid").and_then(|p| p.as_u64()) == Some(2)
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
        })
        .count();
    assert!(
        wall_slices >= 3,
        "expected run phases + shard jobs, got {wall_slices}"
    );
}

#[test]
fn localization_counters_partition_their_parents_and_are_thread_invariant() {
    let collect = |threads: usize| {
        let out = Simulation::new(faulted_cfg(2016, threads))
            .run_observed(ObsOptions::default())
            .expect("run");
        out.metrics.expect("observed run carries metrics").sim
    };
    let m1 = collect(1);
    assert!(m1.stall_events.get() > 0, "scenario must produce rebuffers");
    assert!(
        m1.sessions_aborted.get() > 0,
        "scenario must produce aborts"
    );
    assert_eq!(
        m1.loc_rebuffers_total(),
        m1.stall_events.get(),
        "every rebuffer lands in exactly one problem class"
    );
    assert_eq!(
        m1.loc_aborts_total(),
        m1.sessions_aborted.get(),
        "every abort lands in exactly one problem class"
    );
    assert_eq!(
        m1.loc_sessions_total(),
        m1.sessions_ended.get(),
        "every ended session gets exactly one diagnosis"
    );
    for threads in [2, 8] {
        let mn = collect(threads);
        let fingerprint = |m: &streamlab::obs::SimMetrics| {
            [
                m.loc_rebuffers_server.get(),
                m.loc_rebuffers_network.get(),
                m.loc_rebuffers_stack.get(),
                m.loc_aborts_server.get(),
                m.loc_aborts_network.get(),
                m.loc_sessions_server.get(),
                m.loc_sessions_network.get(),
                m.loc_sessions_stack.get(),
                m.loc_sessions_rendering.get(),
                m.loc_sessions_healthy.get(),
            ]
        };
        assert_eq!(
            fingerprint(&m1),
            fingerprint(&mn),
            "localization counters diverge between threads=1 and threads={threads}"
        );
    }
}
