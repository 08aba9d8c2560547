//! Work-stealing job scheduler for the engine's shard jobs.
//!
//! The engine's shard jobs are coarse, independent and of wildly uneven
//! size (one PoP can hold most of a day's sessions). A fixed round-robin
//! deal — or the plain `fetch_add` claim loop this module replaced —
//! leaves workers idle while the largest shard finishes alone. The
//! [`WorkQueue`] here deals jobs LPT-style (longest processing time
//! first) onto per-worker deques by a static cost estimate, then lets
//! idle workers *steal* from the tail of a loaded worker's deque.
//!
//! Determinism contract: the queue only decides **which worker runs
//! which job when**. Callers write each job's result into a
//! pre-allocated slot indexed by job id, so the steal order — which is
//! timing-dependent and not reproducible — can never reach the output.
//! Every job id in `0..jobs` is handed out exactly once; the property
//! test in `tests/scheduler_steal.rs` drives adversarial interleavings
//! against exactly this contract.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use streamlab_obs::SchedulerCounters;

/// Cost floor per worker for the LPT deal, in scheduler cost units (one
/// unit ≈ one chunk event). Below roughly this much work per worker the
/// fixed parallel overhead — thread spawn, per-shard queue setup, steal
/// scans, per-shard sink merge — outweighs the event-loop work each extra
/// worker takes on, and throughput *drops* as threads are added (the
/// measured tiny-fleet regression: 77 k chunks/s at 1 thread → 58 k at 4).
/// [`effective_workers`] clamps the worker count so each worker keeps at
/// least this much estimated work.
pub const MIN_COST_PER_WORKER: u64 = 16_384;

/// The worker count the engine should actually spin up: the
/// requested `threads`, capped by the job count and by the
/// [`MIN_COST_PER_WORKER`] floor on estimated per-worker work.
///
/// Purely a wall-clock decision: the deal changes, but results land in
/// job-indexed slots and the merged output is byte-identical at any
/// worker count, so the clamp can never affect simulation output. The
/// clamp is recorded in the scheduler counters (`workers`,
/// `workers_clamped`) so profiles show it.
pub fn effective_workers(threads: usize, jobs: usize, costs: &[u64]) -> usize {
    let cap = threads.min(jobs).max(1);
    let total: u64 = costs.iter().sum();
    let by_cost = usize::try_from(total / MIN_COST_PER_WORKER).unwrap_or(usize::MAX);
    cap.min(by_cost.max(1))
}

/// One successful steal, timestamped against the queue's epoch (the
/// moment of the deal). Wall-clock data: feeds the engine trace lanes
/// and [`SchedulerCounters`], never the deterministic metrics.
#[derive(Debug, Clone, Copy)]
pub struct StealEvent {
    /// Worker that took the job.
    pub thief: usize,
    /// Job id that moved.
    pub job: usize,
    /// Milliseconds after [`WorkQueue::epoch`].
    pub at_ms: f64,
}

/// A fixed set of jobs (ids `0..n`) dealt across per-worker deques, with
/// stealing between them. Create with [`WorkQueue::deal`], drain with
/// [`WorkQueue::pop`].
///
/// The queue also keeps its own flight recorder: how many pops were
/// owner pops vs steals, failed steal scans, and a timestamped log of
/// every steal. All of it is timing-dependent, so it is exported on the
/// wall-clock side only ([`WorkQueue::counters`],
/// [`WorkQueue::steal_events`]).
#[derive(Debug)]
pub struct WorkQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
    epoch: Instant,
    jobs_dealt: u64,
    owner_pops: AtomicU64,
    steals: AtomicU64,
    steal_failures: AtomicU64,
    steal_log: Mutex<Vec<StealEvent>>,
}

impl WorkQueue {
    /// Deal jobs `0..costs.len()` across `workers` deques by LPT: jobs
    /// sorted by descending cost (ties: ascending id) are assigned
    /// greedily to the currently lightest worker (ties: lowest worker
    /// index). The deal is a pure function of `costs`, so the *initial*
    /// assignment is reproducible; only steal timing is not.
    pub fn deal(workers: usize, costs: &[u64]) -> WorkQueue {
        assert!(workers >= 1, "a work queue needs at least one worker");
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut loads = vec![0u64; workers];
        for job in order {
            let lightest = (0..workers)
                .min_by_key(|&w| (loads[w], w))
                .expect("workers >= 1");
            loads[lightest] += costs[job].max(1);
            deques[lightest].push_back(job);
        }
        WorkQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
            epoch: Instant::now(),
            jobs_dealt: costs.len() as u64,
            owner_pops: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            steal_failures: AtomicU64::new(0),
            steal_log: Mutex::new(Vec::new()),
        }
    }

    /// The queue's wall-clock epoch (the moment of the deal). Shard job
    /// start times and steal timestamps are measured from here so they
    /// land on one shared trace timeline.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Snapshot of the scheduler counters accumulated so far.
    pub fn counters(&self) -> SchedulerCounters {
        SchedulerCounters {
            jobs_dealt: self.jobs_dealt,
            owner_pops: self.owner_pops.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            steal_failures: self.steal_failures.load(Ordering::Relaxed),
            workers: self.deques.len() as u64,
            // The queue only sees the post-clamp worker count; the engine
            // fills this in from the requested thread count.
            workers_clamped: 0,
        }
    }

    /// The timestamped steal log accumulated so far, in claim order.
    pub fn steal_events(&self) -> Vec<StealEvent> {
        self.steal_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// The current contents of every deque, front to back — the full deal
    /// when called before any pop. Test/introspection helper.
    pub fn assignments(&self) -> Vec<Vec<usize>> {
        self.deques
            .iter()
            .map(|d| {
                d.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .copied()
                    .collect()
            })
            .collect()
    }

    /// Claim the next job from `worker`'s own deque (front — its largest
    /// remaining job, per the LPT deal order).
    pub fn pop_own(&self, worker: usize) -> Option<usize> {
        let job = self.deques[worker]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        if job.is_some() {
            self.owner_pops.fetch_add(1, Ordering::Relaxed);
        }
        job
    }

    /// Steal a job for `worker` from another deque's tail (the victim's
    /// cheapest remaining job — the owner keeps draining its front, so
    /// the two ends never contend on the same job). Victims are scanned
    /// in ring order starting after `worker`.
    pub fn steal(&self, worker: usize) -> Option<usize> {
        let n = self.deques.len();
        for d in 1..n {
            let victim = (worker + d) % n;
            let job = self.deques[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back();
            if let Some(job) = job {
                self.steals.fetch_add(1, Ordering::Relaxed);
                let at_ms = self.epoch.elapsed().as_secs_f64() * 1.0e3;
                self.steal_log
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(StealEvent {
                        thief: worker,
                        job,
                        at_ms,
                    });
                return Some(job);
            }
        }
        self.steal_failures.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Claim the next job for `worker`: its own deque first, then steal.
    /// `None` means every deque was empty at scan time — with independent
    /// jobs (no job enqueues another) that worker is done.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        self.pop_own(worker).or_else(|| self.steal(worker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_deal_balances_known_loads() {
        // Costs 10, 9, 2, 2, 2, 2: LPT over two workers puts the 10 alone
        // against {9, 2, ...} — never 10+9 on one side.
        let q = WorkQueue::deal(2, &[10, 9, 2, 2, 2, 2]);
        let a = q.assignments();
        let load = |w: &Vec<usize>| -> u64 { w.iter().map(|&j| [10u64, 9, 2, 2, 2, 2][j]).sum() };
        let (l0, l1) = (load(&a[0]), load(&a[1]));
        assert_eq!(l0 + l1, 27);
        assert!(l0.abs_diff(l1) <= 5, "unbalanced deal: {a:?}");
        assert!(a[0].contains(&0) != a[1].contains(&0));
    }

    #[test]
    fn deal_is_deterministic_and_total() {
        let costs = [5u64, 0, 3, 3, 8, 1, 1];
        let a = WorkQueue::deal(3, &costs).assignments();
        let b = WorkQueue::deal(3, &costs).assignments();
        assert_eq!(a, b);
        let mut all: Vec<usize> = a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..costs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn own_pops_drain_front_steals_drain_back() {
        let q = WorkQueue::deal(2, &[8, 7, 1, 1]);
        let before = q.assignments();
        // Worker 0 pops its own front; worker 1 then steals worker 0's
        // back once its own deque is dry.
        let own = q.pop_own(0).unwrap();
        assert_eq!(own, before[0][0]);
        while q.pop_own(1).is_some() {}
        let stolen = q.steal(1).unwrap();
        assert_eq!(stolen, *before[0].last().unwrap());
    }

    #[test]
    fn every_job_claimed_exactly_once_under_concurrent_drain() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let costs: Vec<u64> = (0..97).map(|i| (i * 37) % 11 + 1).collect();
        let claims: Vec<AtomicU32> = (0..costs.len()).map(|_| AtomicU32::new(0)).collect();
        let q = WorkQueue::deal(4, &costs);
        std::thread::scope(|s| {
            for w in 0..4 {
                let (q, claims) = (&q, &claims);
                s.spawn(move || {
                    while let Some(job) = q.pop(w) {
                        claims[job].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i} claim count");
        }
    }

    #[test]
    fn more_workers_than_jobs_leaves_spares_idle() {
        let q = WorkQueue::deal(8, &[3, 1]);
        assert_eq!(q.workers(), 8);
        assert_eq!(q.pop(5), Some(3 - 3)); // steals job 0 (cost 3)
        assert_eq!(q.pop(5), Some(1));
        assert_eq!(q.pop(5), None);
        for w in 0..8 {
            assert_eq!(q.pop(w), None);
        }
    }

    #[test]
    fn counters_partition_the_claims() {
        let costs: Vec<u64> = (0..31).map(|i| (i * 13) % 7 + 1).collect();
        let q = WorkQueue::deal(3, &costs);
        std::thread::scope(|s| {
            for w in 0..3 {
                let q = &q;
                s.spawn(move || while q.pop(w).is_some() {});
            }
        });
        let c = q.counters();
        assert_eq!(c.jobs_dealt, costs.len() as u64);
        // Every job was claimed exactly once, either by its owner or a
        // thief — the two counters partition the deal.
        assert_eq!(c.owner_pops + c.steals, c.jobs_dealt);
        assert_eq!(q.steal_events().len() as u64, c.steals);
        // Each worker's terminating pop saw every deque empty.
        assert!(c.steal_failures >= 3);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let q = WorkQueue::deal(3, &[]);
        for w in 0..3 {
            assert_eq!(q.pop(w), None);
        }
    }

    #[test]
    fn effective_workers_clamps_small_fleets() {
        // A tiny fleet (total work far below one worker's floor) runs on
        // one worker no matter how many threads were requested.
        let tiny = vec![700u64; 18]; // ≈12.6k cost, the tiny preset's shape
        assert_eq!(effective_workers(4, tiny.len(), &tiny), 1);
        assert_eq!(effective_workers(1, tiny.len(), &tiny), 1);
        // A fleet with ~8 workers' worth of work keeps all 8.
        let big = vec![MIN_COST_PER_WORKER; 40];
        assert_eq!(effective_workers(8, big.len(), &big), 8);
        // Worker count still caps at the job count and stays >= 1.
        assert_eq!(effective_workers(8, 3, &[MIN_COST_PER_WORKER * 10; 3]), 3);
        assert_eq!(effective_workers(0, 0, &[]), 1);
        // The clamp bites exactly at the floor: 2 full floors of work
        // allow 2 workers, one unit less allows only 1.
        let two = vec![MIN_COST_PER_WORKER, MIN_COST_PER_WORKER];
        assert_eq!(effective_workers(4, 2, &two), 2);
        let almost = vec![MIN_COST_PER_WORKER, MIN_COST_PER_WORKER - 1];
        assert_eq!(effective_workers(4, 2, &almost), 1);
    }
}
