//! Shard watchdog: wall-clock deadline over per-shard sim-time progress.
//!
//! The engine publishes each shard's progress (events popped,
//! current sim-time) into a [`ProgressCell`]. [`run`] polls those cells:
//! a shard that is `Running` but whose **sim-time has not advanced** for
//! longer than the deadline is cancelled (cooperatively — the shard loop
//! checks the cell's cancel flag between events) and reported as a
//! [`StallReport`]. The engine turns the report into a structured
//! `ShardError::Stalled`, so a wedged PoP degrades into the partial-
//! results path instead of hanging the whole run forever.
//!
//! The deadline is on *sim-time* progress, not events: a shard can pop
//! bookkeeping events without moving time, but a healthy shard always
//! advances its clock, and a deadlocked or livelocked one never does.
//!
//! Limitation: cancellation is cooperative. A shard thread wedged *inside*
//! one event (e.g. an infinite loop in a handler, rather than between
//! events) cannot be killed from safe Rust; the watchdog will still
//! report the stall, but the engine only regains control when the thread
//! next reaches an event-pop boundary.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamlab_obs::{ProgressCell, ShardState};

/// One heartbeat observation: a `Running` shard's progress as seen at a
/// watchdog poll tick. Wall-clock data — the engine turns these into
/// Chrome-trace counter events (`--trace-out`), never into the
/// deterministic metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatSample {
    /// Poll time, milliseconds after the epoch passed to [`run_observed`].
    pub at_ms: f64,
    /// Canonical shard index the sample describes.
    pub shard_index: usize,
    /// Events the shard had popped at the tick.
    pub events: u64,
    /// Sim-time (ns) the shard had reached at the tick.
    pub sim_ns: u64,
}

/// Watchdog tuning.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// How long a `Running` shard's sim-time may sit still before the
    /// shard is declared stalled and cancelled.
    pub deadline: Duration,
    /// How often the cells are polled.
    pub poll: Duration,
}

impl WatchdogConfig {
    /// A config for `deadline` with the poll interval derived from it
    /// (deadline/8, clamped to 10–250 ms): frequent enough to catch a
    /// stall soon after the deadline, cheap enough to never matter.
    pub fn with_deadline(deadline: Duration) -> WatchdogConfig {
        let poll = (deadline / 8).clamp(Duration::from_millis(10), Duration::from_millis(250));
        WatchdogConfig { deadline, poll }
    }
}

/// One stalled shard, as observed when the deadline expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallReport {
    /// Canonical shard index in the engine's shard order.
    pub shard_index: usize,
    /// Events the shard had popped when it was declared stalled.
    pub events: u64,
    /// The sim-time (ns) the shard was stuck at.
    pub sim_ns: u64,
}

struct Watch {
    shard_index: usize,
    cell: Arc<ProgressCell>,
    last_sim_ns: u64,
    fresh_at: Instant,
    stalled: bool,
}

/// Watch `cells` (pairs of shard index and progress cell) until every
/// cell reaches `Done`, cancelling and reporting any that stall.
///
/// Runs on the calling thread; the engine spawns it inside the same
/// scope as the shard workers. It terminates on its own because workers
/// mark their cell `Done` in **every** outcome — completion, panic
/// (caught), or cancellation — so the scope never deadlocks joining it.
/// Returns the stalls in shard-index order.
pub fn run(cells: &[(usize, Arc<ProgressCell>)], cfg: WatchdogConfig) -> Vec<StallReport> {
    run_impl(cells, cfg, None)
}

/// [`run`], but every poll tick also appends one [`HeartbeatSample`] per
/// `Running` shard to `log`, timestamped against `epoch`. The log is a
/// shared `Mutex` because the watchdog runs on its own thread inside the
/// engine's worker scope; the engine drains it after the scope joins.
pub fn run_observed(
    cells: &[(usize, Arc<ProgressCell>)],
    cfg: WatchdogConfig,
    epoch: Instant,
    log: &Mutex<Vec<HeartbeatSample>>,
) -> Vec<StallReport> {
    run_impl(cells, cfg, Some((epoch, log)))
}

fn run_impl(
    cells: &[(usize, Arc<ProgressCell>)],
    cfg: WatchdogConfig,
    observer: Option<(Instant, &Mutex<Vec<HeartbeatSample>>)>,
) -> Vec<StallReport> {
    let start = Instant::now();
    let mut watches: Vec<Watch> = cells
        .iter()
        .map(|(shard_index, cell)| Watch {
            shard_index: *shard_index,
            cell: cell.clone(),
            last_sim_ns: 0,
            fresh_at: start,
            stalled: false,
        })
        .collect();
    let mut stalls = Vec::new();

    loop {
        let now = Instant::now();
        let mut all_done = true;
        let mut tick_samples: Vec<HeartbeatSample> = Vec::new();
        for w in &mut watches {
            let snap = w.cell.snapshot();
            if let (Some((epoch, _)), ShardState::Running) = (observer, snap.state) {
                tick_samples.push(HeartbeatSample {
                    at_ms: now.saturating_duration_since(epoch).as_secs_f64() * 1.0e3,
                    shard_index: w.shard_index,
                    events: snap.events,
                    sim_ns: snap.sim_ns,
                });
            }
            match snap.state {
                ShardState::Done => continue,
                ShardState::Pending => {
                    // Not picked up yet: queue delay is not a stall. Keep
                    // the freshness clock current so the deadline only
                    // starts once the shard actually runs.
                    all_done = false;
                    w.fresh_at = now;
                }
                ShardState::Running => {
                    all_done = false;
                    if snap.sim_ns != w.last_sim_ns {
                        w.last_sim_ns = snap.sim_ns;
                        w.fresh_at = now;
                    } else if !w.stalled && now.duration_since(w.fresh_at) >= cfg.deadline {
                        w.stalled = true;
                        w.cell.cancel();
                        stalls.push(StallReport {
                            shard_index: w.shard_index,
                            events: snap.events,
                            sim_ns: snap.sim_ns,
                        });
                    }
                }
            }
        }
        if let (Some((_, log)), false) = (observer, tick_samples.is_empty()) {
            log.lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(tick_samples);
        }
        if all_done {
            break;
        }
        std::thread::sleep(cfg.poll);
    }
    stalls.sort_unstable_by_key(|s| s.shard_index);
    stalls
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn fast_cfg() -> WatchdogConfig {
        WatchdogConfig {
            deadline: Duration::from_millis(60),
            poll: Duration::from_millis(5),
        }
    }

    #[test]
    fn poll_interval_derivation_clamps() {
        let c = WatchdogConfig::with_deadline(Duration::from_secs(30));
        assert_eq!(c.poll, Duration::from_millis(250));
        let c = WatchdogConfig::with_deadline(Duration::from_millis(16));
        assert_eq!(c.poll, Duration::from_millis(10));
        let c = WatchdogConfig::with_deadline(Duration::from_millis(800));
        assert_eq!(c.poll, Duration::from_millis(100));
    }

    #[test]
    fn beating_shard_is_never_stalled() {
        let cell = Arc::new(ProgressCell::new());
        let cells = vec![(0usize, cell.clone())];
        let stop = Arc::new(AtomicBool::new(false));
        let beater = {
            let (cell, stop) = (cell.clone(), stop.clone());
            std::thread::spawn(move || {
                cell.start();
                let mut t = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    t += 1;
                    cell.beat(t, t);
                    std::thread::sleep(Duration::from_millis(5));
                }
                cell.finish();
            })
        };
        let watcher = std::thread::spawn(move || run(&cells, fast_cfg()));
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        beater.join().unwrap();
        let stalls = watcher.join().unwrap();
        assert!(
            stalls.is_empty(),
            "healthy shard reported stalled: {stalls:?}"
        );
        assert!(!cell.cancelled());
    }

    #[test]
    fn observed_run_logs_heartbeats_for_running_shards() {
        let cell = Arc::new(ProgressCell::new());
        let cells = vec![(7usize, cell.clone())];
        let stop = Arc::new(AtomicBool::new(false));
        let beater = {
            let (cell, stop) = (cell.clone(), stop.clone());
            std::thread::spawn(move || {
                cell.start();
                let mut t = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    t += 1;
                    cell.beat(t, t * 1_000);
                    std::thread::sleep(Duration::from_millis(5));
                }
                cell.finish();
            })
        };
        let log = Mutex::new(Vec::new());
        let epoch = Instant::now();
        let stalls = {
            let stop = stop.clone();
            std::thread::scope(|s| {
                let log = &log;
                let h = s.spawn(move || run_observed(&cells, fast_cfg(), epoch, log));
                std::thread::sleep(Duration::from_millis(100));
                stop.store(true, Ordering::Relaxed);
                h.join().unwrap()
            })
        };
        beater.join().unwrap();
        assert!(stalls.is_empty());
        let samples = log.into_inner().unwrap();
        assert!(!samples.is_empty(), "no heartbeats logged");
        assert!(samples.iter().all(|s| s.shard_index == 7));
        assert!(samples.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn silent_shard_is_cancelled_and_reported() {
        let cell = Arc::new(ProgressCell::new());
        let cells = vec![(3usize, cell.clone())];
        let wedged = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                cell.start();
                cell.beat(42, 9_000);
                // Sim-time now sits still; a cooperative shard notices the
                // cancel flag and gives up.
                while !cell.cancelled() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                cell.finish();
            })
        };
        let stalls = run(&cells, fast_cfg());
        wedged.join().unwrap();
        assert_eq!(
            stalls,
            vec![StallReport {
                shard_index: 3,
                events: 42,
                sim_ns: 9_000
            }]
        );
    }

    #[test]
    fn pending_shard_does_not_accumulate_deadline() {
        // A shard stuck in the queue for longer than the deadline must not
        // be reported: the clock starts when it starts running.
        let cell = Arc::new(ProgressCell::new());
        let cells = vec![(0usize, cell.clone())];
        let worker = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150)); // > deadline
                cell.start();
                for t in 1..=20u64 {
                    cell.beat(t, t * 1_000);
                    std::thread::sleep(Duration::from_millis(5));
                }
                cell.finish();
            })
        };
        let stalls = run(&cells, fast_cfg());
        worker.join().unwrap();
        assert!(stalls.is_empty(), "queued shard misreported: {stalls:?}");
    }

    #[test]
    fn each_stall_is_reported_once() {
        let a = Arc::new(ProgressCell::new());
        let b = Arc::new(ProgressCell::new());
        a.start();
        a.beat(1, 100);
        b.start();
        b.beat(2, 200);
        let cells = vec![(0usize, a.clone()), (1usize, b.clone())];
        let finisher = {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                while !(a.cancelled() && b.cancelled()) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                // Linger past a few more polls to prove no duplicates.
                std::thread::sleep(Duration::from_millis(40));
                a.finish();
                b.finish();
            })
        };
        let stalls = run(&cells, fast_cfg());
        finisher.join().unwrap();
        assert_eq!(stalls.len(), 2);
        assert_eq!(stalls[0].shard_index, 0);
        assert_eq!(stalls[1].shard_index, 1);
    }
}
