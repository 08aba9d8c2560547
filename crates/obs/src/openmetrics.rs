//! OpenMetrics text exporter (`--metrics-format openmetrics`).
//!
//! Renders the run's metrics in the OpenMetrics text exposition format so
//! long-running `sweep` (and a future `serve`) runs scrape cleanly into
//! Prometheus-family tooling. Layout:
//!
//! 1. every numeric [`SimMetrics`] field as a `counter` (deterministic —
//!    the same byte-identity contract as the JSON block),
//! 2. the four latency histograms as `summary` quantiles,
//! 3. when a [`RunProfile`] is supplied, the wall-clock phase gauges and
//!    the scheduler counters — explicitly non-deterministic, flagged as
//!    such in their HELP text,
//! 4. the mandatory `# EOF` terminator.
//!
//! Field names come from the serialized [`SimMetrics`] map itself, so a
//! counter added to the struct shows up here without touching this file.

use crate::metrics::{LogLinearHistogram, SimMetrics};
use crate::profile::RunProfile;
use serde::Serialize;
use std::fmt::Write as _;

const PREFIX: &str = "streamlab";
const QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

fn histogram_summary(out: &mut String, name: &str, h: &LogLinearHistogram) {
    let _ = writeln!(out, "# TYPE {PREFIX}_{name} summary");
    for q in QUANTILES {
        let _ = writeln!(
            out,
            "{PREFIX}_{name}{{quantile=\"{q}\"}} {}",
            h.quantile(q).unwrap_or(0)
        );
    }
    let _ = writeln!(out, "{PREFIX}_{name}_count {}", h.count());
}

/// Render `sim` (and, when given, the wall-clock `profile`) as an
/// OpenMetrics text exposition, `# EOF` included.
pub fn render(sim: &SimMetrics, profile: Option<&RunProfile>) -> String {
    let mut out = String::new();
    // Counters: walk the serialized map so the field list can never
    // drift from the struct. Histograms serialize as arrays and are
    // handled below.
    let value = sim.to_value();
    let fields = value.as_object().expect("SimMetrics serializes as a map");
    for (key, v) in fields.iter() {
        if let Some(n) = v.as_u64() {
            let _ = writeln!(out, "# TYPE {PREFIX}_{key} counter");
            let _ = writeln!(out, "{PREFIX}_{key}_total {n}");
        }
    }
    histogram_summary(&mut out, "serve_latency_ns", &sim.serve_latency_ns);
    histogram_summary(&mut out, "first_byte_ns", &sim.first_byte_ns);
    histogram_summary(&mut out, "download_ns", &sim.download_ns);
    histogram_summary(&mut out, "retry_backoff_ns", &sim.retry_backoff_ns);
    if let Some(p) = profile {
        let _ = writeln!(
            out,
            "# HELP {PREFIX}_run_info wall-clock engine facts; non-deterministic"
        );
        let _ = writeln!(out, "# TYPE {PREFIX}_run_info gauge");
        let _ = writeln!(out, "{PREFIX}_run_info{{threads=\"{}\"}} 1", p.threads);
        for (name, v) in [
            ("wall_setup_ms", p.setup_ms),
            ("wall_event_loop_ms", p.event_loop_ms),
            ("wall_merge_ms", p.merge_ms),
            ("events_per_sec", p.events_per_sec),
        ] {
            let _ = writeln!(out, "# HELP {PREFIX}_{name} wall-clock; non-deterministic");
            let _ = writeln!(out, "# TYPE {PREFIX}_{name} gauge");
            let _ = writeln!(out, "{PREFIX}_{name} {v}");
        }
        let _ = writeln!(out, "# TYPE {PREFIX}_peak_queue_depth gauge");
        let _ = writeln!(out, "{PREFIX}_peak_queue_depth {}", p.peak_queue_depth);
        let s = &p.scheduler;
        for (name, v) in [
            ("sched_jobs_dealt", s.jobs_dealt),
            ("sched_owner_pops", s.owner_pops),
            ("sched_steals", s.steals),
            ("sched_steal_failures", s.steal_failures),
            ("sched_workers", s.workers),
            ("sched_workers_clamped", s.workers_clamped),
        ] {
            let _ = writeln!(
                out,
                "# HELP {PREFIX}_{name} work-stealing scheduler; timing-dependent"
            );
            let _ = writeln!(out, "# TYPE {PREFIX}_{name} counter");
            let _ = writeln!(out, "{PREFIX}_{name}_total {v}");
        }
    }
    out.push_str("# EOF\n");
    out
}

/// One sample in a free-form exposition: `(metric name, HELP text, value)`.
/// The name is suffixed per OpenMetrics conventions by the renderer
/// (`_total` for counters, bare for gauges) and prefixed with
/// `streamlab_`.
pub type Sample<'a> = (&'a str, &'a str, u64);

/// Render a free-form set of counters and gauges as an OpenMetrics text
/// exposition, `# EOF` included — the job-level metrics endpoint of the
/// `streamlab serve` daemon (`GET /metrics`). Unlike [`render`], which
/// walks a [`SimMetrics`] block, this takes explicit samples so a daemon
/// can expose queue/job/admission state without the service layer
/// depending on the simulator's metric types.
pub fn render_exposition(counters: &[Sample<'_>], gauges: &[Sample<'_>]) -> String {
    let mut out = String::new();
    for (name, help, value) in counters {
        let _ = writeln!(out, "# HELP {PREFIX}_{name} {help}");
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} counter");
        let _ = writeln!(out, "{PREFIX}_{name}_total {value}");
    }
    for (name, help, value) in gauges {
        let _ = writeln!(out, "# HELP {PREFIX}_{name} {help}");
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} gauge");
        let _ = writeln!(out, "{PREFIX}_{name} {value}");
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SchedulerCounters;

    #[test]
    fn sim_counters_and_quantiles_render() {
        let mut sim = SimMetrics::default();
        sim.chunks_served.add(42);
        sim.loc_rebuffers_network.add(3);
        sim.serve_latency_ns.record(1_000_000);
        let text = render(&sim, None);
        assert!(text.contains("# TYPE streamlab_chunks_served counter"));
        assert!(text.contains("streamlab_chunks_served_total 42"));
        assert!(text.contains("streamlab_loc_rebuffers_network_total 3"));
        assert!(text.contains("streamlab_serve_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("streamlab_serve_latency_ns_count 1"));
        assert!(text.ends_with("# EOF\n"));
        // Without a profile, nothing wall-clock leaks in.
        assert!(!text.contains("run_info"));
        assert!(!text.contains("sched_"));
    }

    #[test]
    fn free_form_exposition_renders_counters_and_gauges() {
        let text = render_exposition(
            &[("jobs_completed", "jobs run to completion", 7)],
            &[("queue_depth", "jobs waiting for a worker", 2)],
        );
        assert!(text.contains("# TYPE streamlab_jobs_completed counter"));
        assert!(text.contains("streamlab_jobs_completed_total 7"));
        assert!(text.contains("# TYPE streamlab_queue_depth gauge"));
        assert!(text.contains("streamlab_queue_depth 2"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn profile_section_is_flagged_non_deterministic() {
        let sim = SimMetrics::default();
        let profile = RunProfile {
            threads: 4,
            setup_ms: 10.0,
            event_loop_ms: 200.0,
            merge_ms: 5.0,
            events_per_sec: 1000.0,
            peak_queue_depth: 9,
            scheduler: SchedulerCounters {
                jobs_dealt: 12,
                owner_pops: 10,
                steals: 2,
                steal_failures: 5,
                workers: 4,
                workers_clamped: 0,
            },
            shards: Vec::new(),
        };
        let text = render(&sim, Some(&profile));
        assert!(text.contains("streamlab_run_info{threads=\"4\"} 1"));
        assert!(text.contains("streamlab_sched_steals_total 2"));
        assert!(text.contains("non-deterministic"));
        let eof_at = text.find("# EOF").expect("terminator");
        assert_eq!(eof_at + 6, text.len(), "# EOF must be last");
    }
}
