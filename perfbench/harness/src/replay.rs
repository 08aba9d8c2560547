//! In-loop replay: the workload's own recorded chunk stream fed, one
//! layer at a time, through the public per-chunk functions the event
//! loop calls. Each layer runs as its own pass so its time is measured
//! in batches, without a clock read around every call.
//!
//! The replay rebuilds each layer's state from public constructors, so
//! it reproduces the layer's cost, not the run's exact outcomes: the CDN
//! pass reports how often its cache outcome agrees with the recorded
//! one, and the network and client passes use the prefix's nominal path
//! and fresh random streams.

use std::collections::HashMap;
use std::time::Instant;

use streamlab::cdn::{CacheStatus, CdnFleet, ObjectKey};
use streamlab::client::{Abr, AbrContext, DownloadStack, RenderPath};
use streamlab::net::{PathProfile, TcpConnection};
use streamlab::obs::NoopSubscriber;
use streamlab::sim::{EventQueue, RngStream, SimTime};
use streamlab::telemetry::records::CacheOutcome;
use streamlab::telemetry::{Dataset, TelemetrySink};
use streamlab::workload::{Catalog, Population, SessionSpec};
use streamlab::SimulationConfig;

use crate::Metrics;

/// Records cloned per batch of the telemetry pass; the clones are made
/// outside the timed region.
const PUSH_BATCH: usize = 65_536;

pub struct World {
    pub catalog: Catalog,
    pub population: Population,
    pub specs: Vec<SessionSpec>,
}

/// Replay `ds` through every in-loop layer and report calls, ns per
/// call, outcome ratios and each layer's share of `event_loop_ms`.
pub fn replay(
    cfg: &SimulationConfig,
    world: &World,
    ds: &Dataset,
    event_loop_ms: f64,
    m: &mut Metrics,
) {
    let share = |ms: f64| {
        if event_loop_ms > 0.0 {
            ms / event_loop_ms
        } else {
            0.0
        }
    };

    let cdn_ms = cdn_pass(cfg, world, ds, m);
    m.put("cdn.loop_share", share(cdn_ms));

    let net_ms = net_pass(cfg, world, ds, m);
    m.put("net.loop_share", share(net_ms));

    let client_ms = client_pass(cfg, world, ds, m);
    m.put("client.loop_share", share(client_ms));

    let (queue_ms, ops, peak) = queue_pass(ds);
    m.put("sim.queue_ops", ops as f64);
    m.put("sim.queue_ns", per_call_ns(queue_ms, ops as f64));
    m.put("sim.queue_peak_depth", peak as f64);
    m.put("sim.loop_share", share(queue_ms));

    let (push_ms, pushes) = push_pass(ds);
    m.put("telemetry.push_ns", per_call_ns(push_ms, pushes as f64));
    m.put("telemetry.loop_share", share(push_ms));
}

fn per_call_ns(ms: f64, calls: f64) -> f64 {
    if calls > 0.0 {
        ms * 1.0e6 / calls
    } else {
        0.0
    }
}

fn cdn_pass(cfg: &SimulationConfig, world: &World, ds: &Dataset, m: &mut Metrics) -> f64 {
    let mut fleet = CdnFleet::new(cfg.fleet.clone(), cfg.seed);
    fleet.warm_parallel(&world.catalog, cfg.threads.max(1));
    let index: HashMap<_, usize> = fleet
        .servers()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id(), i))
        .collect();
    // The loop serves requests in time order across the whole fleet.
    let mut order: Vec<(SimTime, usize, usize)> = Vec::with_capacity(ds.chunk_count());
    for (si, s) in ds.sessions.iter().enumerate() {
        for (ci, c) in s.chunks.iter().enumerate() {
            order.push((c.cdn.served_at, si, ci));
        }
    }
    order.sort_unstable();

    let (mut ram, mut miss, mut agree) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    for &(at, si, ci) in &order {
        let s = &ds.sessions[si];
        let c = &s.chunks[ci];
        let key = ObjectKey {
            video: s.meta.video,
            chunk: c.player.chunk,
            bitrate_kbps: c.player.bitrate_kbps,
        };
        let prefetch = fleet.prefetch_list(&world.catalog, key);
        let out = fleet.server_mut(index[&s.meta.server]).serve_with(
            key,
            c.cdn.size_bytes,
            s.meta.video.rank(),
            at,
            &prefetch,
            Some(s.meta.session.raw()),
            &mut NoopSubscriber,
        );
        let recorded = match c.cdn.cache {
            CacheOutcome::RamHit => CacheStatus::RamHit,
            CacheOutcome::DiskHit => CacheStatus::DiskHit,
            CacheOutcome::Miss => CacheStatus::Miss,
        };
        match out.status {
            CacheStatus::RamHit => ram += 1,
            CacheStatus::Miss => miss += 1,
            CacheStatus::DiskHit => {}
        }
        agree += u64::from(out.status == recorded);
    }
    let ms = started.elapsed().as_secs_f64() * 1.0e3;
    let calls = order.len() as f64;
    m.put("cdn.serve_calls", calls);
    m.put("cdn.serve_ns", per_call_ns(ms, calls));
    m.put("cdn.ram_hit_ratio", ratio(ram as f64, calls));
    m.put("cdn.miss_ratio", ratio(miss as f64, calls));
    m.put("cdn.replay_agreement", ratio(agree as f64, calls));
    ms
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn session_rng(cfg: &SimulationConfig, session: u64) -> RngStream {
    RngStream::new(cfg.seed, "perfbench-replay").fork_indexed(session)
}

fn net_pass(cfg: &SimulationConfig, world: &World, ds: &Dataset, m: &mut Metrics) -> f64 {
    let (mut calls, mut segments, mut retx) = (0u64, 0u64, 0u64);
    let mut ms = 0.0;
    for s in &ds.sessions {
        let p = &world.population.prefix(s.meta.prefix).path;
        let path = PathProfile::from_parts(
            &cfg.propagation,
            s.meta.distance_km,
            p.last_mile_ms,
            p.overhead_ms,
            p.bottleneck_mbps,
            p.buffer_bdp,
            p.random_loss,
            p.jitter_sigma,
            p.spike_prob,
            p.spike_mult,
        )
        .with_congestion(p.congestion_prob, p.congestion_severity);
        let rng = session_rng(cfg, s.meta.session.raw()).fork("tcp");
        let mut conn = TcpConnection::new(path, cfg.tcp, s.meta.arrival, rng);
        let started = Instant::now();
        let mut ready = s.meta.arrival;
        for c in &s.chunks {
            let send_start = (c.cdn.served_at + c.cdn.server_total()).max(ready);
            let t = conn.transfer(send_start, c.cdn.size_bytes);
            ready = t.last_byte_at;
            segments += u64::from(t.segments);
            retx += u64::from(t.retx);
        }
        ms += started.elapsed().as_secs_f64() * 1.0e3;
        calls += s.chunks.len() as u64;
    }
    m.put("net.transfer_calls", calls as f64);
    m.put("net.transfer_ns", per_call_ns(ms, calls as f64));
    m.put(
        "net.segments_per_call",
        ratio(segments as f64, calls as f64),
    );
    m.put("net.retx_ratio", ratio(retx as f64, segments as f64));
    ms
}

fn client_pass(cfg: &SimulationConfig, world: &World, ds: &Dataset, m: &mut Metrics) -> f64 {
    let specs: HashMap<u64, &SessionSpec> = world.specs.iter().map(|s| (s.id.raw(), s)).collect();
    let ladder = world.catalog.ladder();
    let (mut abr_ms, mut stack_ms, mut render_ms) = (0.0, 0.0, 0.0);
    let (mut frames, mut dropped, mut calls) = (0u64, 0u64, 0u64);
    let mut throughputs = Vec::new();
    let mut buffers = Vec::new();
    for s in &ds.sessions {
        let Some(spec) = specs.get(&s.meta.session.raw()) else {
            continue;
        };
        // Recorded inputs: the throughput history the ABR sees, and a
        // buffer level reconstructed from request times.
        throughputs.clear();
        buffers.clear();
        let first = s
            .chunks
            .first()
            .map_or(SimTime::ZERO, |c| c.player.requested_at);
        let mut media_s = 0.0;
        for c in &s.chunks {
            let elapsed = c.player.requested_at.duration_since(first).as_secs_f64();
            buffers.push((media_s - elapsed).max(0.0));
            media_s += c.player.chunk_secs;
            throughputs.push(c.player.observed_throughput_kbps());
        }

        let abr = Abr::new(cfg.abr, ladder);
        let started = Instant::now();
        for (j, _) in s.chunks.iter().enumerate() {
            std::hint::black_box(abr.choose(&AbrContext {
                ladder,
                throughput_kbps: &throughputs[..j],
                buffer_s: buffers[j],
                next_chunk: j as u32,
            }));
        }
        abr_ms += started.elapsed().as_secs_f64() * 1.0e3;

        let rng = session_rng(cfg, s.meta.session.raw());
        let mut stack = DownloadStack::new(s.meta.os, s.meta.browser, cfg.stack, rng.fork("stack"));
        let started = Instant::now();
        for c in &s.chunks {
            let nic_first = c.player.requested_at + c.player.d_fb;
            std::hint::black_box(stack.deliver(
                c.player.chunk,
                nic_first,
                nic_first + c.player.d_lb,
            ));
        }
        stack_ms += started.elapsed().as_secs_f64() * 1.0e3;

        let mut render = RenderPath::new(
            s.meta.os,
            s.meta.browser,
            s.meta.gpu,
            spec.client.cpu_cores,
            spec.client.background_load,
            rng.fork("render"),
        );
        let started = Instant::now();
        for (c, &buffer_s) in s.chunks.iter().zip(&buffers) {
            let r = render.render_chunk(
                c.player.chunk_secs,
                c.player.bitrate_kbps,
                c.player.download_rate(),
                s.meta.visible,
                buffer_s,
            );
            frames += u64::from(r.frames);
            dropped += u64::from(r.dropped);
        }
        render_ms += started.elapsed().as_secs_f64() * 1.0e3;
        calls += s.chunks.len() as u64;
    }
    let n = calls as f64;
    m.put("client.abr_ns", per_call_ns(abr_ms, n));
    m.put("client.stack_ns", per_call_ns(stack_ms, n));
    m.put("client.render_ns", per_call_ns(render_ms, n));
    m.put(
        "client.dropped_frame_ratio",
        ratio(dropped as f64, frames as f64),
    );
    abr_ms + stack_ms + render_ms
}

/// Every session's chunk requests through one event calendar, one
/// pending request per session as in the engine: returns (ms, ops, peak
/// depth).
fn queue_pass(ds: &Dataset) -> (f64, u64, usize) {
    let mut next = vec![0usize; ds.sessions.len()];
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut ops = 0u64;
    let started = Instant::now();
    for (si, s) in ds.sessions.iter().enumerate() {
        if let Some(c) = s.chunks.first() {
            q.schedule(c.player.requested_at, si);
            ops += 1;
        }
    }
    while let Some(ev) = q.pop() {
        ops += 1;
        let si = ev.event;
        next[si] += 1;
        if let Some(c) = ds.sessions[si].chunks.get(next[si]) {
            q.schedule(c.player.requested_at.max(ev.at), si);
            ops += 1;
        }
    }
    (started.elapsed().as_secs_f64() * 1.0e3, ops, q.peak_len())
}

/// Every recorded record pushed into a fresh sink: returns (ms, pushes).
fn push_pass(ds: &Dataset) -> (f64, u64) {
    let mut sink = TelemetrySink::with_capacity(ds.sessions.len(), ds.chunk_count());
    let mut ms = 0.0;
    let mut pushes = 0u64;
    let mut batch = Vec::with_capacity(PUSH_BATCH);
    let all: Vec<_> = ds.chunks().map(|(_, c)| c).collect();
    for part in all.chunks(PUSH_BATCH) {
        batch.clear();
        batch.extend(part.iter().map(|c| (c.player.clone(), c.cdn.clone())));
        let started = Instant::now();
        for (p, c) in batch.drain(..) {
            sink.player_chunk(p);
            sink.cdn_chunk(c);
        }
        ms += started.elapsed().as_secs_f64() * 1.0e3;
        pushes += 2 * part.len() as u64;
    }
    let metas: Vec<_> = ds.sessions.iter().map(|s| s.meta.clone()).collect();
    let started = Instant::now();
    for meta in metas {
        sink.session(meta);
    }
    ms += started.elapsed().as_secs_f64() * 1.0e3;
    pushes += ds.sessions.len() as u64;
    std::hint::black_box(sink.counts());
    (ms, pushes)
}
