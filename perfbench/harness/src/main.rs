//! Benchmark harness for `streamlab`, driven by `perfbench/run.py`.
//!
//! ```text
//! perfbench-harness size   --workload W --seed N [--tiny]
//! perfbench-harness setup  --workload W --seed N [--sessions S] [--tiny]
//! perfbench-harness stream --seed N --out DIR [--sessions S] [--tiny]
//! perfbench-harness traced --workload W --seed N --out DIR [--sessions S] [--tiny]
//! perfbench-harness observe --workload W --seed N --out DIR [--sessions S] [--tiny]
//! perfbench-harness calibrate --out DIR
//! ```
//!
//! `size` picks the session count of a seed's run. `setup` times the public set-up calls of a workload's world in a
//! fresh process. `stream` is one untraced repetition of `stream-30k`.
//! `traced` runs a workload's public call sequence inside spans; for
//! `report-small`, whose call sequence includes an observed run, it then
//! runs the probes (run profile, audit, in-loop replay) after the traced
//! region. `observe` runs the probes for the other workloads in a fresh
//! process. `setup --first-seed` probes the sweep's first seed alone.
//! `calibrate` times a fixed kernel that measures the host's speed. Each
//! prints one JSON object as its last line of stdout.

mod calibrate;
mod replay;
mod trace;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use streamlab::cdn::CdnFleet;
use streamlab::experiments::{full_report, run_experiment, ExperimentId};
use streamlab::sim::RngStream;
use streamlab::supervisor::atomic_write_with;
use streamlab::telemetry::{export, Dataset, SegmentMeta, SessionData};
use streamlab::workload::{Catalog, Population, SessionGenerator};
use streamlab::{ObsOptions, RunOutput, Simulation, SimulationConfig, SpillConfig};

use replay::World;
use trace::Tracer;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ReportSmall,
    SweepDefault,
    Stream30k,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "report-small" => Ok(Workload::ReportSmall),
            "sweep-default" => Ok(Workload::SweepDefault),
            "stream-30k" => Ok(Workload::Stream30k),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    /// Seeds the workload simulates: the sweep covers two consecutive
    /// seeds, as `streamlab sweep --seeds 2` does.
    fn seeds(self, seed: u64) -> Vec<u64> {
        match self {
            Workload::SweepDefault => vec![seed, seed + 1],
            _ => vec![seed],
        }
    }

    /// The workload's configuration, identical to what the CLI builds
    /// from the flags `perfbench/run.py` passes it. `tiny` shrinks every
    /// workload to test size.
    fn config(self, seed: u64, tiny: bool, spill_dir: &Path) -> SimulationConfig {
        self.config_with(seed, tiny, spill_dir, None)
    }

    /// [`Workload::config`] with the session count overridden, as the
    /// CLI's `--sessions` does.
    fn config_with(
        self,
        seed: u64,
        tiny: bool,
        spill_dir: &Path,
        sessions: Option<usize>,
    ) -> SimulationConfig {
        let mut cfg = match (self, tiny) {
            (_, true) => SimulationConfig::tiny(seed),
            (Workload::SweepDefault, false) => SimulationConfig::default_scale(seed),
            (_, false) => SimulationConfig::small(seed),
        };
        match self {
            Workload::ReportSmall => cfg.threads = 1,
            Workload::SweepDefault => {
                cfg.threads = 1;
                cfg.traffic.sessions = if tiny { 200 } else { 1_000 };
            }
            Workload::Stream30k => {
                cfg.threads = 2;
                cfg.traffic.sessions = if tiny { 600 } else { 30_000 };
                // Scaled so each shard seals a few segments, as the
                // default threshold does on a million-session run.
                cfg.spill = Some(SpillConfig {
                    dir: spill_dir.to_string_lossy().into_owned(),
                    threshold: if tiny { 512 } else { 8_192 },
                });
            }
        }
        if let Some(n) = sessions {
            cfg.traffic.sessions = n;
        }
        cfg
    }

    /// Planned chunks (the sum of sessions' watch lengths) a full-scale
    /// run is sized to. Watch lengths are heavy-tailed, so at a fixed
    /// session count the chunk total, and the run time with it, varies
    /// by about ±15% from seed to seed.
    fn target_chunks(self) -> Option<u64> {
        match self {
            Workload::ReportSmall => Some(110_000),
            Workload::Stream30k => Some(825_000),
            Workload::SweepDefault => None,
        }
    }
}

/// Metric name → value, in insertion order.
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn new() -> Metrics {
        Metrics(Vec::new())
    }

    pub fn put(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_owned(), value)),
        }
    }

    /// One JSON object: the metrics plus `extra` string fields.
    fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut fields: Vec<String> = extra
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        fields.extend(
            self.0
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), fmt_num(*v))),
        );
        format!("{{{}}}", fields.join(", "))
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    out: PathBuf,
    sessions: Option<usize>,
    first_seed: bool,
    tiny: bool,
}

impl Args {
    fn config(&self, spill_dir: &Path) -> SimulationConfig {
        self.workload
            .config_with(self.seed, self.tiny, spill_dir, self.sessions)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it
        .next()
        .ok_or("missing subcommand (size|setup|stream|traced|observe|calibrate)")?;
    let mut args = Args {
        cmd,
        workload: Workload::Stream30k,
        seed: 2016,
        out: PathBuf::from(".bench_out"),
        sessions: None,
        first_seed: false,
        tiny: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Workload::parse(&value()?)?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = PathBuf::from(value()?),
            "--sessions" => {
                args.sessions = Some(value()?.parse().map_err(|e| format!("--sessions: {e}"))?)
            }
            "--tiny" => args.tiny = true,
            "--first-seed" => args.first_seed = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|a| match a.cmd.as_str() {
        "size" => Ok(cmd_size(&a)),
        "setup" => Ok(cmd_setup(&a)),
        "observe" => cmd_observe(&a),
        "stream" => cmd_stream(&a),
        "traced" => cmd_traced(&a),
        "calibrate" => calibrate::run(&a.out).map(|parts| {
            let mut m = Metrics::new();
            for (name, secs) in parts {
                m.put(name, secs);
            }
            m.to_json(&[])
        }),
        other => Err(format!("unknown subcommand '{other}'")),
    });
    match result {
        Ok(line) => {
            let mut out = std::io::stdout().lock();
            writeln!(out, "{line}").expect("stdout is writable");
        }
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}

/// Resident set size of this process, MiB.
fn rss_mib() -> f64 {
    proc_status_kib("VmRSS:") / 1024.0
}

fn proc_status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// System CPU time of this process so far, seconds (`/proc/self/stat`
/// field 15, in clock ticks of 1/100 s).
fn sys_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .nth(12)
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn generate_world(cfg: &SimulationConfig) -> World {
    let catalog = Catalog::generate(&cfg.catalog, &mut RngStream::new(cfg.seed, "catalog"));
    let population =
        Population::generate(&cfg.population, &mut RngStream::new(cfg.seed, "population"));
    let mut sess_rng = RngStream::new(cfg.seed, &format!("sessions-day{}", cfg.day));
    let specs = SessionGenerator::new(&catalog, &population).generate(&cfg.traffic, &mut sess_rng);
    World {
        catalog,
        population,
        specs,
    }
}

/// Planned chunks of `cfg`'s world at `sessions` sessions.
fn planned_chunks(cfg: &SimulationConfig, world: &World, sessions: usize) -> u64 {
    let mut traffic = cfg.traffic.clone();
    traffic.sessions = sessions;
    let mut rng = RngStream::new(cfg.seed, &format!("sessions-day{}", cfg.day));
    SessionGenerator::new(&world.catalog, &world.population)
        .generate(&traffic, &mut rng)
        .iter()
        .map(|s| u64::from(s.chunks_watched))
        .sum()
}

/// The session count whose planned chunks come closest to the workload's
/// target: proportional steps from the preset's count, then a local scan,
/// since every session count redraws all arrivals and the total is not
/// monotone in it. Tiny runs and the sweep keep the preset's count.
fn cmd_size(a: &Args) -> String {
    let cfg = a.workload.config(a.seed, a.tiny, &a.out);
    let world = generate_world(&cfg);
    let mut n = cfg.traffic.sessions;
    let mut best = (n, planned_chunks(&cfg, &world, n));
    if let (Some(target), false) = (a.workload.target_chunks(), a.tiny) {
        let mut consider = |n: usize| {
            let p = planned_chunks(&cfg, &world, n);
            if p.abs_diff(target) < best.1.abs_diff(target) {
                best = (n, p);
            }
            p
        };
        for _ in 0..3 {
            let p = consider(n).max(1);
            n = ((n as f64) * target as f64 / p as f64).round().max(1.0) as usize;
        }
        let step = (n / 1000).max(1);
        for k in 0..=20 {
            consider((n + k * step).saturating_sub(10 * step).max(1));
        }
    }
    let mut m = Metrics::new();
    m.put("sessions", best.0 as f64);
    m.put("planned_chunks", best.1 as f64);
    m.to_json(&[])
}

/// The public set-up calls of every seed of the workload, one thread per
/// seed as the sweep runs them: world generation, then fleet creation and
/// cache warm-up. Barriers split the two phases so the warm-up's memory
/// is measured on its own.
fn cmd_setup(a: &Args) -> String {
    let mut seeds = a.workload.seeds(a.seed);
    if a.first_seed {
        seeds.truncate(1);
    }
    let cfgs: Vec<SimulationConfig> = seeds
        .iter()
        .map(|&s| {
            a.workload
                .config_with(s, a.tiny, &a.out.join("spill"), a.sessions)
        })
        .collect();
    let generated = Barrier::new(cfgs.len() + 1);
    let go = Barrier::new(cfgs.len() + 1);
    let started = Instant::now();
    let (phases, rss_before, rss_after) = std::thread::scope(|scope| {
        let handles: Vec<_> = cfgs
            .iter()
            .map(|cfg| {
                let (generated, go) = (&generated, &go);
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let world = generate_world(cfg);
                    let generate_ms = t0.elapsed().as_secs_f64() * 1.0e3;
                    generated.wait();
                    go.wait();
                    let t1 = Instant::now();
                    let mut fleet = CdnFleet::new(cfg.fleet.clone(), cfg.seed);
                    fleet.warm_parallel(&world.catalog, cfg.threads.max(1));
                    let warm_ms = t1.elapsed().as_secs_f64() * 1.0e3;
                    (generate_ms, warm_ms, world.specs.len(), world, fleet)
                })
            })
            .collect();
        generated.wait();
        let rss_before = rss_mib();
        go.wait();
        let phases: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect();
        (phases, rss_before, rss_mib())
    });
    let setup_s = started.elapsed().as_secs_f64();
    let n = phases.len() as f64;
    let mut m = Metrics::new();
    m.put("setup_s", setup_s);
    m.put(
        "workload.generate_ms",
        phases.iter().map(|p| p.0).sum::<f64>() / n,
    );
    m.put("workload.sessions", phases.iter().map(|p| p.2 as f64).sum());
    m.put("cdn.warm_ms", phases.iter().map(|p| p.1).sum::<f64>() / n);
    m.put("cdn.warm_rss_mib", rss_after - rss_before);
    drop(phases);
    m.to_json(&[])
}

/// FNV-1a over the fields of streamed sessions that the run determines.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn session(&mut self, s: &SessionData) {
        self.add(s.meta.session.raw());
        self.add(s.meta.server.raw());
        self.add(s.chunks.len() as u64);
        for c in &s.chunks {
            self.add(u64::from(c.player.chunk.0));
            self.add(u64::from(c.player.bitrate_kbps));
            self.add(c.player.requested_at.as_nanos());
            self.add(c.player.d_fb.as_nanos());
            self.add(c.player.d_lb.as_nanos());
            self.add(u64::from(c.player.dropped_frames));
            self.add(c.cdn.cache as u64);
            self.add(c.cdn.served_at.as_nanos());
            self.add(u64::from(c.cdn.segments));
            self.add(u64::from(c.cdn.retx_segments));
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

struct Drained {
    digest: Digest,
    sessions: u64,
    chunks: u64,
    errors: Vec<String>,
}

/// Drain the stream one session at a time, keeping only the digest.
fn drain(stream: streamlab::telemetry::SessionStream) -> Drained {
    let mut d = Drained {
        digest: Digest::new(),
        sessions: 0,
        chunks: 0,
        errors: Vec::new(),
    };
    for s in stream {
        match s {
            Ok(s) => {
                d.digest.session(&s);
                d.sessions += 1;
                d.chunks += s.chunks.len() as u64;
            }
            Err(e) => d.errors.push(e.to_string()),
        }
    }
    d
}

fn spill_bytes(segments: &[SegmentMeta]) -> u64 {
    segments
        .iter()
        .filter_map(|s| fs::metadata(&s.path).ok())
        .map(|m| m.len())
        .sum()
}

/// The fields `run.py` checks on a streamed run's output.
fn stream_fields(d: &Drained, expected: usize, shard_errors: usize) -> Vec<(&'static str, String)> {
    vec![
        ("digest", d.digest.hex()),
        ("sessions", d.sessions.to_string()),
        ("expected_sessions", expected.to_string()),
        ("chunks", d.chunks.to_string()),
        ("shard_errors", shard_errors.to_string()),
        ("stream_errors", d.errors.join("; ")),
    ]
}

/// One untraced repetition of `stream-30k`.
fn cmd_stream(a: &Args) -> Result<String, String> {
    let cfg = a.config(&a.out.join("spill"));
    let expected = cfg.traffic.sessions;
    let so = Simulation::new(cfg)
        .run_streaming()
        .map_err(|e| e.to_string())?;
    let segments = so.segments.len();
    let shard_errors = so.shard_errors.len();
    let d = drain(so.stream);
    let mut fields = stream_fields(&d, expected, shard_errors);
    fields.push(("segments", segments.to_string()));
    Ok(Metrics::new().to_json(&fields))
}

/// Per-layer metrics of the traced region, zero where the layer is not on
/// the workload's path.
const TRACED_METRICS: &[&str] = &[
    "telemetry.segments",
    "telemetry.spill_bytes",
    "telemetry.stream_ms",
    "telemetry.export_chunks_ms",
    "telemetry.export_sessions_ms",
    "telemetry.export_bytes",
    "telemetry.export_sys_s",
    "supervisor.durable_ms",
    "core.report_ms",
    "core.figures_ms",
    "core.plot_ms",
    "trace.wall_s",
    "trace.spans",
    "self.bench_ms",
    "self.core_ms",
    "self.telemetry_ms",
    "self.supervisor_ms",
];

/// Per-layer metrics of the probes: the observed run's profile and the
/// in-loop replay.
const PROBE_METRICS: &[&str] = &[
    "cdn.serve_calls",
    "cdn.serve_ns",
    "cdn.ram_hit_ratio",
    "cdn.miss_ratio",
    "cdn.replay_agreement",
    "cdn.loop_share",
    "net.transfer_calls",
    "net.transfer_ns",
    "net.segments_per_call",
    "net.retx_ratio",
    "net.loop_share",
    "client.abr_ns",
    "client.stack_ns",
    "client.render_ns",
    "client.dropped_frame_ratio",
    "client.loop_share",
    "sim.queue_ops",
    "sim.queue_ns",
    "sim.queue_peak_depth",
    "sim.loop_share",
    "core.setup_ms",
    "core.event_loop_ms",
    "core.merge_ms",
    "core.events",
    "core.events_per_s",
    "core.chunks",
    "core.peak_queue_depth",
    "core.steals",
    "core.shard_imbalance",
    "telemetry.push_ns",
    "telemetry.loop_share",
    "telemetry.join_ms",
];

/// `atomic_write_with` inside a `supervisor.atomic_write` span, its
/// closure inside a child span named `inner`.
fn traced_write(
    tr: &mut Tracer,
    path: &Path,
    inner: &'static str,
    write: impl FnOnce(&mut fs::File) -> std::io::Result<()>,
) -> Result<(), String> {
    tr.span("supervisor.atomic_write", |tr| {
        atomic_write_with(path, |f| tr.span(inner, |_| write(f)))
    })
    .map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_traced(a: &Args) -> Result<String, String> {
    let dir = a.out.join("output");
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut m = Metrics::new();
    for name in TRACED_METRICS {
        m.put(name, 0.0);
    }
    let mut tr = Tracer::new();
    let started = Instant::now();
    let mut fields: Vec<(&'static str, String)> = Vec::new();

    // --- traced region: the workload's public calls, in the CLI's order ---
    let observed: Option<RunOutput> = match a.workload {
        Workload::ReportSmall => {
            let cfg = a.config(&a.out.join("spill"));
            Some(tr.span("bench.run", |tr| traced_report(tr, cfg, &dir, &mut m))?)
        }
        Workload::SweepDefault => {
            let cfg = a.config(&a.out.join("spill"));
            let seeds = a.workload.seeds(a.seed);
            tr.span("bench.run", |tr| {
                let result = tr.span("core.sweep", |_| {
                    streamlab::sweep::run_seeds_checkpointed(&cfg, &seeds, &dir, false)
                })?;
                let json = serde_json::to_string_pretty(&result.summary)
                    .map_err(|e| e.to_string())?
                    + "\n";
                traced_write(tr, &dir.join("sweep.json"), "supervisor.write", |f| {
                    f.write_all(json.as_bytes())
                })?;
                let text = tr.span("core.sweep_render", |_| {
                    streamlab::sweep::render(&result.summary)
                });
                std::hint::black_box(text);
                Ok::<_, String>(())
            })?;
            None
        }
        Workload::Stream30k => {
            let cfg = a.config(&a.out.join("spill"));
            let expected = cfg.traffic.sessions;
            tr.span("bench.run", |tr| {
                let so = tr
                    .span("core.simulate", |_| Simulation::new(cfg).run_streaming())
                    .map_err(|e| e.to_string())?;
                m.put("telemetry.segments", so.segments.len() as f64);
                m.put("telemetry.spill_bytes", spill_bytes(&so.segments) as f64);
                let shard_errors = so.shard_errors.len();
                let d = tr.span("telemetry.stream", |_| drain(so.stream));
                fields.extend(stream_fields(&d, expected, shard_errors));
                Ok::<_, String>(())
            })?;
            None
        }
    };
    m.put("trace.wall_s", started.elapsed().as_secs_f64());
    m.put("trace.spans", tr.len() as f64);
    for (layer, ms) in tr.self_ms_by_layer() {
        m.put(&format!("self.{layer}_ms"), ms);
    }
    m.put("telemetry.stream_ms", tr.total_ms("telemetry.stream"));
    let closures_ms: f64 = [
        "supervisor.write",
        "telemetry.export_chunks",
        "telemetry.export_sessions",
    ]
    .iter()
    .map(|name| tr.total_ms(name))
    .sum();
    m.put(
        "supervisor.durable_ms",
        tr.total_ms("supervisor.atomic_write") - closures_ms,
    );
    let trace_path = a.out.join("trace.json");
    fs::write(&trace_path, tr.chrome_trace())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    fields.push(("trace_file", trace_path.to_string_lossy().into_owned()));

    // The probes run after the traced region. Only `streamlab run` returns
    // a run profile; the other workloads are probed by `observe`.
    if let Some(out) = observed {
        probe(a, &out, &mut m, &mut fields)?;
    }
    Ok(m.to_json(&fields))
}

/// An observed run of the workload's configuration (the sweep's first
/// seed) in a fresh process, then its probes.
fn cmd_observe(a: &Args) -> Result<String, String> {
    let cfg = a.config(&a.out.join("spill"));
    let out = Simulation::new(cfg)
        .run_observed(ObsOptions::default())
        .map_err(|e| e.to_string())?;
    let mut m = Metrics::new();
    let mut fields = Vec::new();
    probe(a, &out, &mut m, &mut fields)?;
    Ok(m.to_json(&fields))
}

/// The observed run's audit and profile, recorded as-is, then the in-loop
/// replay of its chunk stream.
fn probe(
    a: &Args,
    out: &RunOutput,
    m: &mut Metrics,
    fields: &mut Vec<(&'static str, String)>,
) -> Result<(), String> {
    for name in PROBE_METRICS {
        m.put(name, 0.0);
    }
    let audit = out
        .audit()
        .ok_or("observed run carries no metrics to audit")?;
    fields.push((
        "audit",
        if audit.is_clean() {
            "clean".to_owned()
        } else {
            audit.render()
        },
    ));
    fields.push(("probe_shard_errors", out.shard_errors.len().to_string()));
    let metrics = out.metrics.as_ref().ok_or("observed run has no metrics")?;
    let p = &metrics.profile;
    m.put("core.setup_ms", p.setup_ms);
    m.put("core.event_loop_ms", p.event_loop_ms);
    m.put("core.merge_ms", p.merge_ms);
    m.put("telemetry.join_ms", p.merge_ms);
    m.put("core.events", metrics.sim.events_processed.get() as f64);
    m.put("core.events_per_s", p.events_per_sec);
    m.put("core.chunks", out.dataset.chunk_count() as f64);
    m.put("core.peak_queue_depth", p.peak_queue_depth as f64);
    m.put("core.steals", p.scheduler.steals as f64);
    let walls: Vec<f64> = p.shards.iter().map(|s| s.wall_ms).collect();
    let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    let max = walls.iter().copied().fold(0.0, f64::max);
    m.put(
        "core.shard_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
    );

    let cfg = a.config(&a.out.join("probe-spill"));
    let world = generate_world(&cfg);
    replay::replay(&cfg, &world, &out.dataset, p.event_loop_ms, m);
    Ok(())
}

/// `streamlab run`'s sequence: observed run, report, every experiment,
/// the CSV exports through `atomic_write_with`, the plots. `atomic_write`
/// is `atomic_write_with` around one `write_all`, so the report and the
/// figures go through the latter to time their closures.
fn traced_report(
    tr: &mut Tracer,
    cfg: SimulationConfig,
    dir: &Path,
    m: &mut Metrics,
) -> Result<RunOutput, String> {
    let out = tr
        .span("core.simulate", |_| {
            Simulation::new(cfg).run_observed(ObsOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let report = tr.span("core.report", |_| full_report(&out));
    traced_write(tr, &dir.join("report.txt"), "supervisor.write", |f| {
        f.write_all(report.as_bytes())
    })?;
    let figures = tr.span("core.figures", |tr| {
        let mut all = serde_json::Map::new();
        for &id in ExperimentId::all() {
            let json = tr.span("core.experiment", |_| run_experiment(id, &out).json);
            all.insert(format!("{id:?}"), json);
        }
        serde_json::to_string_pretty(&all).map_err(|e| e.to_string())
    })?;
    traced_write(tr, &dir.join("figures.json"), "supervisor.write", |f| {
        f.write_all(figures.as_bytes())
    })?;
    let sys0 = sys_cpu_s();
    let ds: &Dataset = &out.dataset;
    let chunks_path = dir.join("chunks.csv");
    traced_write(tr, &chunks_path, "telemetry.export_chunks", |f| {
        export::write_chunks_csv(ds, f)
    })?;
    let sessions_path = dir.join("sessions.csv");
    traced_write(tr, &sessions_path, "telemetry.export_sessions", |f| {
        export::write_sessions_csv(ds, f)
    })?;
    m.put("telemetry.export_sys_s", sys_cpu_s() - sys0);
    tr.span("core.plot", |_| {
        streamlab::plot::emit_all(&out, &dir.join("plots"))
    })
    .map_err(|e| e.to_string())?;
    if let Some(metrics) = &out.metrics {
        std::hint::black_box(metrics.summary_with(8));
    }

    m.put("core.report_ms", tr.total_ms("core.report"));
    m.put("core.figures_ms", tr.total_ms("core.figures"));
    m.put("core.plot_ms", tr.total_ms("core.plot"));
    m.put(
        "telemetry.export_chunks_ms",
        tr.total_ms("telemetry.export_chunks"),
    );
    m.put(
        "telemetry.export_sessions_ms",
        tr.total_ms("telemetry.export_sessions"),
    );
    let bytes: u64 = [&chunks_path, &sessions_path]
        .iter()
        .filter_map(|p| fs::metadata(p).ok())
        .map(|md| md.len())
        .sum();
    m.put("telemetry.export_bytes", bytes as f64);
    Ok(out)
}
