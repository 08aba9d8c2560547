//! Deterministic storage failpoints: a seam over the handful of file
//! operations every persistence path uses, plus a JSON-declared, seeded
//! fault plan that can fail any of them on demand.
//!
//! The crash-safety story of PRs 4 and 8 — atomic emission, fingerprinted
//! checkpoints, quarantine-and-continue recovery — was only ever proven
//! under clean SIGKILLs and corruption at rest. The host filesystem is
//! "layer zero" of the end-to-end pipeline, and real disks fail *live*:
//! `ENOSPC` mid-run, `EIO` on an fsync, a torn write that leaves half a
//! file, an fsync the kernel acknowledged but never performed. This
//! module makes those failures deterministic and replayable:
//!
//! * [`StorageOps`] — the storage operations the persistence paths go
//!   through (create / write / fsync / rename / dir-fsync / read /
//!   remove). [`Storage`] implements it; `atomic_write`, checkpoint run
//!   directories, and the service registry route every byte through it.
//! * [`StorageFaultPlan`] — a JSON-declared, seeded list of
//!   [`FaultRule`]s, loaded from `--storage-faults FILE` and inert by
//!   default (mirroring the session-level `--faults` scenario). Each
//!   rule matches an operation class and a path substring, and fires at
//!   the Nth matching operation: `eio`, `enospc`,
//!   torn-write-truncate-at-byte-k, lost-fsync, slow-io, or `crash`.
//! * Crash-point sweeps — [`Storage::faulty_soft`] turns the `crash`
//!   kind into an in-process simulated death (the storage goes
//!   permanently dead instead of calling `abort()`), so a test can kill
//!   a persistence protocol at *every* failpoint in turn
//!   (FoundationDB-style) and assert recovery invariants after each,
//!   thousands of times per second, in one process.
//!
//! Faults are injected at the *operation* level, not the syscall level:
//! a torn write truncates the staging file while reporting success,
//! which is exactly the damage an ill-timed power cut produces — and
//! exactly what the atomic-write protocol's rename barrier plus the
//! readers' fingerprint checks must catch.

use serde::Value;
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use streamlab_obs::storage::StorageFaultSnapshot;

/// The operation classes a [`FaultRule`] can match. `Any` matches every
/// instrumented operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageOp {
    /// Matches every operation class.
    Any,
    /// Creating a staging file (rules match on the *target* path).
    Create,
    /// Writing payload bytes into a staging file.
    Write,
    /// Fsyncing a staging file.
    Sync,
    /// Renaming a staging file over its target.
    Rename,
    /// Fsyncing the parent directory after a rename.
    SyncDir,
    /// Reading a persisted file back.
    Read,
    /// Removing a file.
    Remove,
}

impl StorageOp {
    fn parse(text: &str) -> Result<StorageOp, String> {
        Ok(match text {
            "any" => StorageOp::Any,
            "create" => StorageOp::Create,
            "write" => StorageOp::Write,
            "sync" => StorageOp::Sync,
            "rename" => StorageOp::Rename,
            "sync_dir" => StorageOp::SyncDir,
            "read" => StorageOp::Read,
            "remove" => StorageOp::Remove,
            other => {
                return Err(format!(
                    "unknown storage op {other:?} (expected any, create, write, sync, \
                     rename, sync_dir, read or remove)"
                ))
            }
        })
    }

    /// The lowercase name used in fault-plan JSON.
    pub fn name(self) -> &'static str {
        match self {
            StorageOp::Any => "any",
            StorageOp::Create => "create",
            StorageOp::Write => "write",
            StorageOp::Sync => "sync",
            StorageOp::Rename => "rename",
            StorageOp::SyncDir => "sync_dir",
            StorageOp::Read => "read",
            StorageOp::Remove => "remove",
        }
    }
}

/// What an injected fault does to the matched operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail the operation with an I/O error (`ErrorKind::Other`), the
    /// shape of a device-level `EIO`. Not transient: retries don't help.
    Eio,
    /// Fail the operation with `ErrorKind::StorageFull` (`ENOSPC`).
    /// Transient in the retry taxonomy, so `with_retry` will re-attempt
    /// — each attempt is a fresh matching operation that consumes the
    /// rule's window.
    Enospc,
    /// Report success but truncate the written file to `keep_bytes`:
    /// the damage an ill-timed power cut produces. Only meaningful on
    /// `write` operations; a no-op elsewhere.
    TornWrite {
        /// Bytes of the write that actually reach the file.
        keep_bytes: u64,
    },
    /// Report success without syncing anything: an fsync the kernel
    /// acknowledged and dropped. Only meaningful on `sync` / `sync_dir`
    /// operations; a no-op elsewhere.
    LostFsync,
    /// Delay the operation by `delay_ms`, then let it through.
    SlowIo {
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
    /// Kill the process at this failpoint (`std::process::abort()`) —
    /// or, for storage built with [`Storage::faulty_soft`], simulate the
    /// death in-process: this and every later operation on the handle
    /// fails, as if the process had died here.
    Crash,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Eio => "eio",
            FaultKind::Enospc => "enospc",
            FaultKind::TornWrite { .. } => "torn_write",
            FaultKind::LostFsync => "lost_fsync",
            FaultKind::SlowIo { .. } => "slow_io",
            FaultKind::Crash => "crash",
        }
    }
}

/// One declarative fault: *which* operations it matches, *when* it
/// fires, and *what* it does.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Operation class to match (`"any"` matches all). JSON key `op`.
    pub op: StorageOp,
    /// Substring the operation's target path must contain; empty
    /// matches everything. JSON key `path_contains`.
    pub path_contains: String,
    /// 1-based index of the first matching operation that fires.
    /// JSON key `nth`, default 1.
    pub nth: u64,
    /// How many consecutive matching operations fire from `nth` on;
    /// `0` means forever. JSON key `count`, default 1.
    pub count: u64,
    /// Chance an eligible operation actually fires, drawn from the
    /// plan's seeded generator. JSON key `probability`, default 1.0.
    pub probability: f64,
    /// What happens when the rule fires. JSON key `kind` (string),
    /// with `keep_bytes` / `delay_ms` as sibling keys where relevant.
    pub kind: FaultKind,
}

/// A seeded, JSON-declared storage fault plan: the `--storage-faults`
/// counterpart of the session-level `--faults` scenario. An empty plan
/// is inert — loading one changes nothing.
///
/// ```json
/// {
///   "seed": 7,
///   "rules": [
///     { "op": "write", "path_contains": "jobs/", "nth": 3, "kind": "enospc", "count": 0 },
///     { "op": "sync", "kind": "lost_fsync", "probability": 0.5 },
///     { "op": "any", "nth": 12, "kind": "crash" }
///   ]
/// }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageFaultPlan {
    /// Seed for the probability draws; plans with the same seed and
    /// rules inject identically.
    pub seed: u64,
    /// Rules, evaluated in order; the first rule whose window fires
    /// decides the operation's fate (all matching rules still advance
    /// their counters).
    pub rules: Vec<FaultRule>,
}

impl StorageFaultPlan {
    /// A plan whose only rule crashes at the `nth` matching operation —
    /// the unit of a crash-point sweep.
    pub fn crash_at(nth: u64) -> StorageFaultPlan {
        StorageFaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                op: StorageOp::Any,
                path_contains: String::new(),
                nth,
                count: 1,
                probability: 1.0,
                kind: FaultKind::Crash,
            }],
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parse a plan from JSON text and validate it.
    pub fn from_json_str(text: &str) -> Result<StorageFaultPlan, String> {
        let value = Value::parse_json(text).map_err(|e| e.to_string())?;
        let plan = Self::from_value(&value)?;
        plan.validate()?;
        Ok(plan)
    }

    /// Load a plan from a JSON file, tagging errors with the path.
    pub fn from_json_file(path: &str) -> Result<StorageFaultPlan, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading storage faults {path}: {e}"))?;
        Self::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    fn from_value(value: &Value) -> Result<StorageFaultPlan, String> {
        let obj = value
            .as_object()
            .ok_or_else(|| format!("storage fault plan must be an object, got {}", value.kind()))?;
        let seed = match obj.get("seed") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| "seed must be a non-negative integer".to_string())?,
        };
        let mut rules = Vec::new();
        if let Some(raw) = obj.get("rules") {
            let list = raw
                .as_array()
                .ok_or_else(|| format!("rules must be an array, got {}", raw.kind()))?;
            for (i, entry) in list.iter().enumerate() {
                rules.push(Self::rule_from_value(entry, i)?);
            }
        }
        for key in obj.keys() {
            if key != "seed" && key != "rules" {
                return Err(format!("unknown storage fault plan key {key:?}"));
            }
        }
        Ok(StorageFaultPlan { seed, rules })
    }

    fn rule_from_value(value: &Value, index: usize) -> Result<FaultRule, String> {
        let tag = |msg: String| format!("rules[{index}]: {msg}");
        let obj = value
            .as_object()
            .ok_or_else(|| tag(format!("must be an object, got {}", value.kind())))?;
        let str_key = |key: &str, default: &str| -> Result<String, String> {
            match obj.get(key) {
                None => Ok(default.to_string()),
                Some(v) => v
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| tag(format!("{key} must be a string"))),
            }
        };
        let u64_key = |key: &str, default: u64| -> Result<u64, String> {
            match obj.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| tag(format!("{key} must be a non-negative integer"))),
            }
        };
        let op = StorageOp::parse(&str_key("op", "any")?).map_err(tag)?;
        let path_contains = str_key("path_contains", "")?;
        let nth = u64_key("nth", 1)?;
        let count = u64_key("count", 1)?;
        let probability = match obj.get("probability") {
            None => 1.0,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| tag("probability must be a number".to_string()))?,
        };
        let kind = match str_key("kind", "")?.as_str() {
            "" => return Err(tag("missing required key \"kind\"".to_string())),
            "eio" => FaultKind::Eio,
            "enospc" => FaultKind::Enospc,
            "torn_write" => FaultKind::TornWrite {
                keep_bytes: u64_key("keep_bytes", 0)?,
            },
            "lost_fsync" => FaultKind::LostFsync,
            "slow_io" => FaultKind::SlowIo {
                delay_ms: u64_key("delay_ms", 10)?,
            },
            "crash" => FaultKind::Crash,
            other => {
                return Err(tag(format!(
                    "unknown fault kind {other:?} (expected eio, enospc, torn_write, \
                     lost_fsync, slow_io or crash)"
                )))
            }
        };
        Ok(FaultRule {
            op,
            path_contains,
            nth,
            count,
            probability,
            kind,
        })
    }

    /// Reject plans whose rules can never behave sensibly.
    pub fn validate(&self) -> Result<(), String> {
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.nth == 0 {
                return Err(format!("rules[{i}]: nth is 1-based and must be >= 1"));
            }
            if !rule.probability.is_finite() || !(0.0..=1.0).contains(&rule.probability) {
                return Err(format!(
                    "rules[{i}]: probability must be within [0, 1], got {}",
                    rule.probability
                ));
            }
            if let FaultKind::SlowIo { delay_ms } = rule.kind {
                if delay_ms > 10_000 {
                    return Err(format!(
                        "rules[{i}]: slow_io delay_ms must be <= 10000, got {delay_ms}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// What a fired rule tells the operation to do (beyond plain errors).
enum Action {
    Proceed,
    Torn(u64),
    SkipSync,
}

#[derive(Debug)]
struct FaultState {
    plan: StorageFaultPlan,
    /// `crash` rules simulate death in-process instead of aborting.
    soft_crash: bool,
    enabled: AtomicBool,
    dead: AtomicBool,
    ops: AtomicU64,
    /// Per-rule count of matching operations seen (drives `nth`/`count`).
    hits: Vec<AtomicU64>,
    rng: Mutex<u64>,
    /// Injected-fault counters: eio, enospc, torn, lost_fsync, slow_io, crash.
    injected: [AtomicU64; 6],
}

/// xorshift64*: deterministic, seedable, plenty for fault probability
/// draws. Never returns the same stream for two different seeds.
fn next_f64(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

fn dead_error() -> io::Error {
    io::Error::other(
        "storage crashed at an injected failpoint; all subsequent I/O on this handle fails",
    )
}

/// A cloneable storage handle: either the real filesystem (the default,
/// zero-cost path) or the real filesystem wrapped in a
/// [`StorageFaultPlan`]. Clones share fault state, so one handle
/// threaded through a daemon injects a single coherent fault history.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    faults: Option<Arc<FaultState>>,
}

impl Storage {
    /// The real filesystem: no interception, no counters.
    pub fn real() -> Storage {
        Storage { faults: None }
    }

    /// Storage governed by `plan`; `crash` rules call
    /// `std::process::abort()`, exactly like the service chaos hook.
    pub fn faulty(plan: StorageFaultPlan) -> Storage {
        Storage::with_plan(plan, false)
    }

    /// Storage governed by `plan` with *soft* crashes: a `crash` rule
    /// marks the handle dead instead of aborting, and every later
    /// operation fails. This simulates process death in-process, which
    /// is what makes systematic crash-point sweeps cheap.
    pub fn faulty_soft(plan: StorageFaultPlan) -> Storage {
        Storage::with_plan(plan, true)
    }

    /// Storage with an empty plan: behaves exactly like the real
    /// filesystem but counts operations — used to enumerate the
    /// failpoints of a protocol before sweeping them.
    pub fn counting() -> Storage {
        Storage::with_plan(StorageFaultPlan::default(), true)
    }

    fn with_plan(plan: StorageFaultPlan, soft_crash: bool) -> Storage {
        let mut seed = plan.seed ^ 0x9E37_79B9_7F4A_7C15;
        if seed == 0 {
            seed = 1; // xorshift must not start at the absorbing state
        }
        let hits = (0..plan.rules.len()).map(|_| AtomicU64::new(0)).collect();
        Storage {
            faults: Some(Arc::new(FaultState {
                plan,
                soft_crash,
                enabled: AtomicBool::new(true),
                dead: AtomicBool::new(false),
                ops: AtomicU64::new(0),
                hits,
                rng: Mutex::new(seed),
                injected: Default::default(),
            })),
        }
    }

    /// Whether the plan is consulted at all. Disabling leaves rule
    /// counters frozen, so a fault can be armed later deterministically.
    pub fn set_enabled(&self, enabled: bool) {
        if let Some(st) = &self.faults {
            st.enabled.store(enabled, Ordering::SeqCst);
        }
    }

    /// True once a soft crash has fired: the handle refuses all I/O.
    pub fn is_dead(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|st| st.dead.load(Ordering::SeqCst))
    }

    /// Total instrumented operations seen (faulted or not). Zero for
    /// [`Storage::real`], which does not count.
    pub fn ops_seen(&self) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |st| st.ops.load(Ordering::SeqCst))
    }

    /// Injected-fault counts by kind, for OpenMetrics export.
    pub fn fault_snapshot(&self) -> StorageFaultSnapshot {
        let Some(st) = &self.faults else {
            return StorageFaultSnapshot::default();
        };
        let n = |i: usize| st.injected[i].load(Ordering::SeqCst);
        StorageFaultSnapshot {
            eio: n(0),
            enospc: n(1),
            torn_writes: n(2),
            lost_fsyncs: n(3),
            slow_ios: n(4),
            crashes: n(5),
        }
    }

    /// Consult the plan for one operation. Every matching rule advances
    /// its counter (so windows stay aligned across rules); the first
    /// rule whose window fires decides the outcome.
    fn decide(&self, op: StorageOp, path: &Path) -> io::Result<Action> {
        let Some(st) = &self.faults else {
            return Ok(Action::Proceed);
        };
        st.ops.fetch_add(1, Ordering::SeqCst);
        if st.dead.load(Ordering::SeqCst) {
            return Err(dead_error());
        }
        if !st.enabled.load(Ordering::SeqCst) {
            return Ok(Action::Proceed);
        }
        let path_text = path.to_string_lossy();
        let mut fired: Option<FaultKind> = None;
        for (rule, hits) in st.plan.rules.iter().zip(&st.hits) {
            if rule.op != StorageOp::Any && rule.op != op {
                continue;
            }
            if !rule.path_contains.is_empty() && !path_text.contains(&rule.path_contains) {
                continue;
            }
            let n = hits.fetch_add(1, Ordering::SeqCst) + 1; // 1-based
            if fired.is_some() || n < rule.nth {
                continue;
            }
            if rule.count != 0 && n >= rule.nth + rule.count {
                continue;
            }
            if rule.probability < 1.0 {
                let u = next_f64(&mut st.rng.lock().unwrap());
                if u >= rule.probability {
                    continue;
                }
            }
            fired = Some(rule.kind);
        }
        let Some(kind) = fired else {
            return Ok(Action::Proceed);
        };
        let count = |i: usize| {
            st.injected[i].fetch_add(1, Ordering::SeqCst);
        };
        match kind {
            FaultKind::Eio => {
                count(0);
                Err(io::Error::other(format!(
                    "injected EIO on {} {}",
                    op.name(),
                    path.display()
                )))
            }
            FaultKind::Enospc => {
                count(1);
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("injected ENOSPC on {} {}", op.name(), path.display()),
                ))
            }
            FaultKind::TornWrite { keep_bytes } => {
                count(2);
                Ok(Action::Torn(keep_bytes))
            }
            FaultKind::LostFsync => {
                count(3);
                Ok(Action::SkipSync)
            }
            FaultKind::SlowIo { delay_ms } => {
                count(4);
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                Ok(Action::Proceed)
            }
            FaultKind::Crash => {
                count(5);
                if st.soft_crash {
                    st.dead.store(true, Ordering::SeqCst);
                    Err(dead_error())
                } else {
                    std::process::abort();
                }
            }
        }
    }
}

/// The staging file as a writer closure sees it: writes are buffered,
/// and the storage `write` stage flushes them before it reports, so a
/// failed flush is a failed write stage.
///
/// It dereferences to the underlying [`fs::File`] for callers that need
/// the file itself. Mutable access flushes the pending bytes first (a
/// flush error surfaces when the stage ends), so bytes written through
/// the file land after those written through the buffer.
pub struct StagingWriter<'a> {
    buf: BufWriter<&'a mut fs::File>,
    deferred: Option<io::Error>,
}

impl<'a> StagingWriter<'a> {
    fn new(file: &'a mut fs::File) -> Self {
        StagingWriter {
            buf: BufWriter::with_capacity(1 << 16, file),
            deferred: None,
        }
    }

    /// Flush the buffer, reporting any error deferred by `deref_mut`.
    fn finish(mut self) -> io::Result<()> {
        match self.deferred.take() {
            Some(e) => Err(e),
            None => self.buf.flush(),
        }
    }
}

impl Write for StagingWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.buf.flush()
    }
}

impl Deref for StagingWriter<'_> {
    type Target = fs::File;

    fn deref(&self) -> &fs::File {
        self.buf.get_ref()
    }
}

impl DerefMut for StagingWriter<'_> {
    fn deref_mut(&mut self) -> &mut fs::File {
        if let Err(e) = self.buf.flush() {
            self.deferred.get_or_insert(e);
        }
        self.buf.get_mut()
    }
}

/// The storage operations every persistence path goes through — the
/// supervisor's VFS seam. `atomic_write`, checkpoint run directories and
/// the service registry call these instead of `std::fs`, so one
/// [`StorageFaultPlan`] observes (and can fail) every create / write /
/// fsync / rename / read they perform.
pub trait StorageOps: Send + Sync {
    /// Create (truncating) the staging file `tmp` for target `target`.
    /// Fault rules match on the target path.
    fn create(&self, target: &Path, tmp: &Path) -> io::Result<fs::File>;

    /// Run the caller's writer over the staging file, buffered, and
    /// flush it. The writer runs at most once. A torn-write fault
    /// truncates the result and reports success — the protocol then
    /// publishes damage that a reader's fingerprint check must catch.
    fn write(
        &self,
        target: &Path,
        file: &mut fs::File,
        writer: &mut dyn FnMut(&mut StagingWriter<'_>) -> io::Result<()>,
    ) -> io::Result<()>;

    /// Fsync the staging file for `target`. A lost-fsync fault reports
    /// success without syncing.
    fn sync_file(&self, target: &Path, file: &fs::File) -> io::Result<()>;

    /// Rename `from` over `to` (fault rules match on `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsync directory `dir`, making a completed rename durable.
    /// Platforms or filesystems that cannot fsync a directory report
    /// success — the barrier is advisory there.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Read `path` to a string.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Remove `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

impl StorageOps for Storage {
    fn create(&self, target: &Path, tmp: &Path) -> io::Result<fs::File> {
        self.decide(StorageOp::Create, target)?;
        fs::File::create(tmp)
    }

    fn write(
        &self,
        target: &Path,
        file: &mut fs::File,
        writer: &mut dyn FnMut(&mut StagingWriter<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        let action = self.decide(StorageOp::Write, target)?;
        let mut staged = StagingWriter::new(file);
        writer(&mut staged)?;
        staged.finish()?;
        if let Action::Torn(keep_bytes) = action {
            // The bytes past `keep_bytes` never reach the disk, but the
            // writer is told everything succeeded.
            let len = file.metadata()?.len();
            file.set_len(len.min(keep_bytes))?;
        }
        Ok(())
    }

    fn sync_file(&self, target: &Path, file: &fs::File) -> io::Result<()> {
        match self.decide(StorageOp::Sync, target)? {
            Action::SkipSync => Ok(()),
            _ => file.sync_all(),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.decide(StorageOp::Rename, to)?;
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if let Action::SkipSync = self.decide(StorageOp::SyncDir, dir)? {
            return Ok(());
        }
        let handle = match fs::File::open(dir) {
            Ok(handle) => handle,
            // Directories cannot be opened for fsync everywhere; the
            // durability barrier is advisory on such platforms.
            Err(_) => return Ok(()),
        };
        match handle.sync_all() {
            Ok(()) => Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.decide(StorageOp::Read, path)?;
        fs::read_to_string(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.decide(StorageOp::Remove, path)?;
        fs::remove_file(path)
    }
}

static AMBIENT: RwLock<Option<Storage>> = RwLock::new(None);

/// Install `storage` as the process-wide default used by
/// [`crate::atomic_write`] (and everything layered on it) when no
/// explicit handle is given. Called once at CLI startup when
/// `--storage-faults` is present; tests pass explicit handles to the
/// `*_in` variants instead, so parallel tests never share fault state.
pub fn install_ambient_storage(storage: Storage) {
    *AMBIENT.write().unwrap() = Some(storage);
}

/// The process-wide default storage: real, unless
/// [`install_ambient_storage`] ran.
pub fn ambient_storage() -> Storage {
    AMBIENT.read().unwrap().clone().unwrap_or_default()
}

impl fmt::Display for StorageFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inert() {
            return write!(f, "inert storage fault plan");
        }
        write!(f, "seed {} with {} rule(s):", self.seed, self.rules.len())?;
        for rule in &self.rules {
            write!(
                f,
                " [{} op={} path~{:?} nth={} count={}]",
                rule.kind.name(),
                rule.op.name(),
                rule.path_contains,
                rule.nth,
                rule.count
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "streamlab-failpoint-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_via(storage: &Storage, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut file = storage.create(path, &tmp)?;
        storage.write(path, &mut file, &mut |f| f.write_all(bytes))?;
        storage.sync_file(path, &file)?;
        storage.rename(&tmp, path)?;
        storage.sync_dir(path.parent().unwrap())
    }

    #[test]
    fn parse_applies_defaults() {
        let plan =
            StorageFaultPlan::from_json_str(r#"{ "rules": [ { "kind": "eio" } ] }"#).unwrap();
        assert_eq!(plan.seed, 0);
        let rule = &plan.rules[0];
        assert_eq!(rule.op, StorageOp::Any);
        assert_eq!(rule.path_contains, "");
        assert_eq!(rule.nth, 1);
        assert_eq!(rule.count, 1);
        assert_eq!(rule.probability, 1.0);
        assert_eq!(rule.kind, FaultKind::Eio);
    }

    #[test]
    fn parse_rejects_bad_plans() {
        for (text, needle) in [
            (r#"[]"#, "must be an object"),
            (r#"{ "rules": [ {} ] }"#, "missing required key"),
            (
                r#"{ "rules": [ { "kind": "meteor" } ] }"#,
                "unknown fault kind",
            ),
            (
                r#"{ "rules": [ { "kind": "eio", "op": "chmod" } ] }"#,
                "unknown storage op",
            ),
            (
                r#"{ "rules": [ { "kind": "eio", "nth": 0 } ] }"#,
                "nth is 1-based",
            ),
            (
                r#"{ "rules": [ { "kind": "eio", "probability": 1.5 } ] }"#,
                "probability",
            ),
            (
                r#"{ "rules": [ { "kind": "slow_io", "delay_ms": 99999 } ] }"#,
                "delay_ms",
            ),
            (r#"{ "surprise": 1 }"#, "unknown storage fault plan key"),
        ] {
            let err = StorageFaultPlan::from_json_str(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn empty_plan_is_inert_and_counts_ops() {
        let dir = scratch("inert");
        let storage = Storage::counting();
        assert!(StorageFaultPlan::default().is_inert());
        write_via(&storage, &dir.join("out.json"), b"payload").unwrap();
        assert_eq!(fs::read(dir.join("out.json")).unwrap(), b"payload");
        // create + write + sync + rename + sync_dir
        assert_eq!(storage.ops_seen(), 5);
        assert_eq!(storage.fault_snapshot().total(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eio_fires_at_nth_matching_op_only() {
        let dir = scratch("eio");
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "sync", "nth": 2, "kind": "eio" } ] }"#,
        )
        .unwrap();
        let storage = Storage::faulty_soft(plan);
        write_via(&storage, &dir.join("a.json"), b"a").unwrap();
        let err = write_via(&storage, &dir.join("b.json"), b"b").unwrap_err();
        assert!(err.to_string().contains("injected EIO"), "{err}");
        // Third sync is past the window again.
        write_via(&storage, &dir.join("c.json"), b"c").unwrap();
        assert_eq!(storage.fault_snapshot().eio, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_keeps_storage_full_error_kind() {
        let dir = scratch("enospc");
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "write", "kind": "enospc", "count": 0 } ] }"#,
        )
        .unwrap();
        let storage = Storage::faulty_soft(plan);
        let err = write_via(&storage, &dir.join("full.json"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_truncates_but_reports_success() {
        let dir = scratch("torn");
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "write", "kind": "torn_write", "keep_bytes": 3 } ] }"#,
        )
        .unwrap();
        let storage = Storage::faulty_soft(plan);
        // The protocol reports success end to end...
        write_via(&storage, &dir.join("torn.json"), b"0123456789").unwrap();
        // ...but the published file is truncated: exactly the damage a
        // power cut produces, and what fingerprint checks must catch.
        assert_eq!(fs::read(dir.join("torn.json")).unwrap(), b"012");
        assert_eq!(storage.fault_snapshot().torn_writes, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn soft_crash_kills_the_handle_permanently() {
        let dir = scratch("softcrash");
        // Crash at the 4th operation: create(1) write(2) sync(3) rename(4).
        let storage = Storage::faulty_soft(StorageFaultPlan::crash_at(4));
        let err = write_via(&storage, &dir.join("out.json"), b"payload").unwrap_err();
        assert!(err.to_string().contains("crashed"), "{err}");
        assert!(storage.is_dead());
        // Every later op fails too, like a dead process.
        let err = storage.read_to_string(&dir.join("out.json")).unwrap_err();
        assert!(err.to_string().contains("crashed"), "{err}");
        // The target was never published; the staging file is orphaned,
        // exactly as a real crash between create and rename leaves it.
        assert!(!dir.join("out.json").exists());
        assert!(dir.join("out.tmp").exists());
        assert_eq!(storage.fault_snapshot().crashes, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probability_draws_are_seed_deterministic() {
        let plan_text = r#"{ "seed": 42, "rules": [ { "op": "write", "kind": "eio", "count": 0, "probability": 0.5 } ] }"#;
        let outcomes = |storage: &Storage| -> Vec<bool> {
            let dir = scratch("prob");
            let hits = (0..32)
                .map(|i| write_via(storage, &dir.join(format!("f{i}.json")), b"x").is_err())
                .collect();
            let _ = fs::remove_dir_all(&dir);
            hits
        };
        let a = outcomes(&Storage::faulty_soft(
            StorageFaultPlan::from_json_str(plan_text).unwrap(),
        ));
        let b = outcomes(&Storage::faulty_soft(
            StorageFaultPlan::from_json_str(plan_text).unwrap(),
        ));
        assert_eq!(a, b);
        assert!(a.iter().any(|&hit| hit), "seed 42 never fired in 32 draws");
        assert!(
            !a.iter().all(|&hit| hit),
            "probability 0.5 fired every time"
        );
    }

    #[test]
    fn set_enabled_arms_and_disarms_the_plan() {
        let dir = scratch("arm");
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "write", "kind": "enospc", "count": 0 } ] }"#,
        )
        .unwrap();
        let storage = Storage::faulty_soft(plan);
        storage.set_enabled(false);
        write_via(&storage, &dir.join("ok.json"), b"fine").unwrap();
        storage.set_enabled(true);
        assert!(write_via(&storage, &dir.join("no.json"), b"nope").is_err());
        storage.set_enabled(false);
        write_via(&storage, &dir.join("ok2.json"), b"fine again").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ambient_defaults_to_real_storage() {
        // Never install in tests (the global is shared across threads);
        // just check the default shape.
        let storage = ambient_storage();
        assert_eq!(storage.ops_seen(), 0);
        assert!(!storage.is_dead());
    }
}
