//! A fixed kernel that measures how fast the host runs right now.
//!
//! On a shared host the same repetition can take 1.3 to 1.7 times as long
//! in one stretch of minutes as in another, in user and system time alike,
//! while steal time stays under 1%: the vCPU itself runs slower, and its
//! kernel-mode work (page faults, system calls) does not slow by the same
//! factor as its user-mode work. `run.py` times this kernel next to a
//! workload's repetitions and scales each repetition's user and system
//! time by the kernel's matching part, so the end-to-end metrics follow
//! the program, not the host.
//!
//! The kernel depends on nothing in `streamlab`, so no change to the
//! program moves it. Its user part does dependent loads over a working
//! set larger than the caches, hash-map and heap operations and
//! floating-point maths (the caches, the event queue, the network
//! model); its kernel part faults in fresh pages (the cache warm-up) and
//! makes small unbuffered writes (the CSV export). Both are fixed amounts
//! of work.

use std::collections::{BinaryHeap, HashMap};
use std::fs::{self, File};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Runs the kernel once, writing its scratch file in `dir`. Returns the
/// wall seconds of its user part, its kernel part and the whole kernel.
pub fn run(dir: &Path) -> Result<[(&'static str, f64); 3], String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("calibrate.tmp");
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let started = Instant::now();

    // Kernel part: one write to each page of 256 MiB, all fresh, ...
    let kernel = Instant::now();
    let mut pages = vec![0u8; 256 << 20];
    for i in (0..pages.len()).step_by(4096) {
        pages[i] = i as u8 | 1;
    }
    black_box(&pages);
    drop(pages);
    // ... and small unbuffered writes.
    let mut file = File::create(&path).map_err(io)?;
    for i in 0..60_000u64 {
        write!(file, "{i},{},", i % 97).map_err(io)?;
    }
    drop(file);
    let kernel_s = kernel.elapsed().as_secs_f64();

    // User part: a sort, then dependent loads around one cycle through 4M
    // slots (16 MiB): an LCG with an odd increment and a multiplier of
    // 1 mod 4 visits every slot ...
    let user = Instant::now();
    let mut v: Vec<u64> = (0..1 << 20).map(|_| next()).collect();
    v.sort_unstable();
    black_box(&v);
    let n = 4usize << 20;
    let succ: Vec<u32> = (0..n as u64)
        .map(|i| {
            (i.wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F) as usize
                & (n - 1)) as u32
        })
        .collect();
    let mut at = 0u32;
    for _ in 0..(1 << 20) {
        at = succ[at as usize];
    }
    black_box(at);
    // ... hash-map inserts and lookups, heap pushes and pops, and
    // floating-point maths.
    let mut map = HashMap::new();
    for i in 0..400_000u64 {
        map.insert(next() % 600_000, i);
    }
    let hits = (0..400_000)
        .filter(|_| map.contains_key(&(next() % 600_000)))
        .count();
    black_box(hits);
    let mut heap = BinaryHeap::new();
    for _ in 0..500_000 {
        heap.push(next() >> 16);
        if heap.len() > 2_000 {
            heap.pop();
        }
    }
    black_box(heap.len());
    let mut x = 0.0f64;
    for i in 1..2_000_000u32 {
        let f = f64::from(i);
        x += (f.ln() * 0.5).exp().sqrt() / f;
    }
    black_box(x);
    let user_s = user.elapsed().as_secs_f64();

    let total_s = started.elapsed().as_secs_f64();
    fs::remove_file(&path).map_err(io)?;
    Ok([
        ("calibrate.user_s", user_s),
        ("calibrate.kernel_s", kernel_s),
        ("calibrate_s", total_s),
    ])
}
