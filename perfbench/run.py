#!/usr/bin/env python3
"""The streamlab benchmark.

    python3 perfbench/run.py --workload report-small --seed 2016 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 2016 --seconds 38

Run from the root of a checkout. The script builds the `streamlab` CLI
and the benchmark harness (`perfbench/harness`) with Cargo, then runs the
workload for `--seconds` seconds, every repetition in a fresh process
and all of them pinned to one CPU:

* `--trace 0` prints the end-to-end metrics: the medians of `wall_s`,
  `cpu_s` and `peak_rss_mib` over the repetitions, and the median of
  `setup_s` over as many set-up probes, each in its own process. The
  timed ones are brought to a reference host speed, measured by a
  calibration kernel run before every repetition (see USER_REF_S).
* `--trace 1` runs one traced repetition (spans kept in memory, written
  as a Chrome Trace Event file under `.bench_out/traces/`), its probes,
  and untraced repetitions for the tracing overhead, and prints the
  per-layer metrics.

Every repetition's output is checked: its digest must be the same across
repetitions of a seed and equal the pinned digest for seed 2016, no
session may be lost, and the traced run's audit must be clean. The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Host and provenance go with every result into
`.bench_out/results/`; `perfbench/compare.py` compares two such results
and refuses results from different hosts.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 2016
OUT_DIR = ".bench_out"
# Fewest repetitions a run makes, however short `--seconds` is.
MIN_REPS = 3
# Set-up probes per untraced run; `setup_s` is their median.
SETUP_PROBES = 3
MIN_TRACED_BASELINE_REPS = 2
# Times of the calibration kernel's user and kernel parts (`perfbench-
# harness calibrate`) at the reference host speed, seconds. The host's
# speed changes by up to 1.7 times over minutes, user-mode and kernel-mode
# work by different factors; each repetition's user time is scaled by
# USER_REF_S / (the user part's median time in the run) and its system
# time by KERNEL_REF_S / (the kernel part's), so the timed end-to-end
# metrics read as seconds at the reference speed.
USER_REF_S = 0.4
KERNEL_REF_S = 0.35

# Each workload: the threads one repetition uses, and how a repetition is
# run. `cli` workloads run the `streamlab` binary exactly as a user does;
# `harness` workloads run the harness, for API paths the CLI has no verb for.
WORKLOADS = {
    "report-small": {"threads": 1, "kind": "cli", "outputs": ["report.txt", "figures.json", "chunks.csv", "sessions.csv"]},
    "sweep-default": {"threads": 1, "kind": "cli", "outputs": ["sweep.json"]},
    "stream-30k": {"threads": 2, "kind": "harness", "outputs": []},
}


class BenchError(Exception):
    """A condition under which the benchmark refuses to produce a result."""


def cli_args(workload, seed, sessions, out, tiny):
    """The `streamlab` command line of one repetition of a CLI workload."""
    if workload == "report-small":
        return ["run", "--scale", "tiny" if tiny else "small", "--sessions", str(sessions),
                "--threads", "1", "--seed", str(seed), "--out", out]
    if workload == "sweep-default":
        return ["sweep", "--scale", "tiny" if tiny else "default", "--seeds", "2",
                "--sessions", str(sessions), "--threads", "1", "--seed", str(seed), "--out", out]
    raise ValueError(workload)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Spec, host and provenance
# ---------------------------------------------------------------------------

def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def host_info():
    """What identifies the machine a result was measured on."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_kib = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kib = int(line.split()[1])
                    break
    except OSError:
        pass
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "mem_total_kib": mem_kib,
        "machine": platform.machine(),
    }
    host["host_id"] = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]
    return host


def source_digest(root):
    """Digest of the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for base, dirs, files in os.walk(os.path.join(root, "crates")):
        dirs.sort()
        paths += [os.path.relpath(os.path.join(base, f), root) for f in sorted(files)]
    for rel in paths:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            h.update(rel.encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(root, seed, tiny):
    commit = None
    # Only the checkout's own repository: git would otherwise report an
    # enclosing directory's.
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_commit": commit,
        "source_digest": source_digest(root),
        "build_profile": "release",
        "seed": seed,
        "scale": "tiny" if tiny else "full",
    }


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def target_dir(root):
    return os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build(root):
    """Build the CLI (the repository's workspace) and the harness (its own
    workspace). Returns (streamlab, harness) binary paths."""
    target = target_dir(root)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "streamlab", "--bin", "streamlab"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(root, "perfbench", "harness", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "streamlab"),
            os.path.join(target, "release", "perfbench-harness"))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def spawn(cmd, log_dir, tag):
    """Run `cmd` to completion in a fresh process. Returns wall seconds
    (spawn to exit), user and system CPU seconds, peak RSS (MiB), exit
    code, stdout and stderr text."""
    out_path = os.path.join(log_dir, f"{tag}.stdout")
    err_path = os.path.join(log_dir, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        stdout = f.read()
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    os.remove(out_path)
    os.remove(err_path)
    return {
        "wall_s": wall,
        "user_s": ru.ru_utime,
        "sys_s": ru.ru_stime,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mib": ru.ru_maxrss / 1024.0,
        "code": p.returncode,
        "stdout": stdout,
        "stderr": stderr,
    }


def last_json(text):
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def digest_files(directory, names):
    """One digest over the named output files of a run, in order."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_pinned():
    with open(os.path.join(BENCH_DIR, "pinned.json")) as f:
        return json.load(f)


def reference_digest(digests, workload, seed, tiny, pinned):
    """The digest every repetition must match: the pinned one for the
    default seed, else the most common one among the repetitions."""
    if seed == DEFAULT_SEED:
        return pinned["tiny" if tiny else "full"][workload]
    present = [d for d in digests if d]
    if not present:
        return None
    return max(sorted(set(present)), key=present.count)


def check_reps(reps, workload, seed, tiny, pinned):
    """Mark each repetition failed or not; returns the failure messages."""
    ref = reference_digest([r.get("digest") for r in reps], workload, seed, tiny, pinned)
    problems = []
    for i, r in enumerate(reps):
        why = list(r.get("problems", []))
        if r.get("digest") != ref:
            why.append(f"output digest {r.get('digest')} != expected {ref}")
        r["failed"] = bool(why)
        problems += [f"{r.get('label', 'rep')} {i}: {w}" for w in why]
    return problems


def rep_problems(res, info):
    """Problems visible in one finished repetition."""
    problems = []
    if res["code"] != 0:
        problems.append(f"exit code {res['code']}: {res['stderr'].strip()[-500:]}")
    for line in res["stderr"].splitlines():
        # Partial results (lost shards) and degraded spills are warnings.
        if line.startswith("warning:"):
            problems.append(line)
    if info is not None:
        if str(info.get("sessions")) != str(info.get("expected_sessions")):
            problems.append(f"{info.get('sessions')} of {info.get('expected_sessions')} sessions streamed")
        if str(info.get("shard_errors", "0")) != "0":
            problems.append(f"{info['shard_errors']} shard errors")
        if info.get("stream_errors"):
            problems.append(f"stream errors: {info['stream_errors']}")
    return problems


# ---------------------------------------------------------------------------
# Repetitions and probes
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, root, workload, seed, tiny, bins):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.streamlab, self.harness = bins
        self.work = os.path.join(root, OUT_DIR, "work", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.n = 0
        self.size = self._size()
        self.sessions = int(self.size["sessions"])

    def _size(self):
        """The seed's session count: chosen so the planned chunk count
        hits the workload's target (see `perfbench-harness size`)."""
        res = spawn([self.harness, "size", "--workload", self.workload, "--seed", str(self.seed)]
                    + self._tiny(), self.work, "size")
        if res["code"] != 0:
            raise BenchError(f"sizing failed: {res['stderr'].strip()[-500:]}")
        return last_json(res["stdout"])

    def _workdir(self, tag):
        self.n += 1
        d = os.path.join(self.work, f"{tag}-{self.n}")
        os.makedirs(d, exist_ok=True)
        return d

    def _tiny(self):
        return ["--tiny"] if self.tiny else []

    def _harness(self, cmd, d):
        return [self.harness, cmd, "--workload", self.workload, "--seed", str(self.seed),
                "--sessions", str(self.sessions), "--out", d] + self._tiny()

    def rep(self):
        """One untraced repetition in a fresh process."""
        d = self._workdir("rep")
        spec = WORKLOADS[self.workload]
        if spec["kind"] == "cli":
            out = os.path.join(d, "out")
            res = spawn([self.streamlab] + cli_args(self.workload, self.seed, self.sessions, out, self.tiny),
                        d, "rep")
            info = None
            try:
                res["digest"] = digest_files(out, spec["outputs"])
            except OSError as e:
                res["digest"] = None
                res["stderr"] += f"\n{e}"
        else:
            res = spawn(self._harness("stream", d), d, "rep")
            try:
                info = last_json(res["stdout"])
            except ValueError:
                info = {}
            res["digest"] = info.get("digest")
        res["problems"] = rep_problems(res, info)
        res["label"] = "repetition"
        shutil.rmtree(d, ignore_errors=True)
        return res

    def setup_probe(self, first_seed=False):
        """The workload's public set-up calls, timed in a fresh process;
        with `first_seed`, those of the sweep's first seed alone. The
        probe process's own figures (see `spawn`) go under "process"."""
        d = self._workdir("setup")
        res = spawn(self._harness("setup", d) + (["--first-seed"] if first_seed else []), d, "setup")
        shutil.rmtree(d, ignore_errors=True)
        if res["code"] != 0:
            raise BenchError(f"set-up probe failed: {res['stderr'].strip()[-500:]}")
        out = last_json(res["stdout"])
        out["process"] = res
        return out

    def traced(self):
        """The traced repetition in a fresh process; for `report-small`,
        whose calls include an observed run, with its probes."""
        d = self._workdir("traced")
        res = spawn(self._harness("traced", d), d, "traced")
        try:
            info = last_json(res["stdout"])
        except ValueError:
            info = {}
        spec = WORKLOADS[self.workload]
        if spec["kind"] == "cli":
            try:
                res["digest"] = digest_files(os.path.join(d, "output"), spec["outputs"])
            except OSError:
                res["digest"] = None
        else:
            res["digest"] = info.get("digest")
        res["problems"] = rep_problems(res, info if spec["kind"] == "harness" else None)
        res["label"] = "traced repetition"
        res["info"] = info
        trace_src = os.path.join(d, "trace.json")
        if os.path.isfile(trace_src):
            traces = os.path.join(self.root, OUT_DIR, "traces")
            os.makedirs(traces, exist_ok=True)
            res["trace_file"] = os.path.join(
                traces, f"{self.workload}-seed{self.seed}{'-tiny' if self.tiny else ''}.json")
            shutil.move(trace_src, res["trace_file"])
        shutil.rmtree(d, ignore_errors=True)
        return res

    def calibrate(self):
        """The calibration kernel's part times, in a fresh process."""
        d = self._workdir("calibrate")
        res = spawn([self.harness, "calibrate", "--out", d], d, "calibrate")
        shutil.rmtree(d, ignore_errors=True)
        if res["code"] != 0:
            raise BenchError(f"calibration failed: {res['stderr'].strip()[-500:]}")
        return last_json(res["stdout"])

    def observe(self):
        """An observed run of the workload's configuration and the in-loop
        replay, in a fresh process (`streamlab run` has its own)."""
        d = self._workdir("observe")
        res = spawn(self._harness("observe", d), d, "observe")
        shutil.rmtree(d, ignore_errors=True)
        if res["code"] != 0:
            raise BenchError(f"observed probe failed: {res['stderr'].strip()[-500:]}")
        return last_json(res["stdout"])

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def time_left(deadline, reps):
    """True while another repetition, of the mean length so far, would
    end before `deadline` overshoots by more than half a repetition."""
    mean = sum(r["wall_s"] for r in reps) / len(reps) if reps else 0.0
    return deadline - time.perf_counter() > 0.5 * mean


def host_speed(cals):
    """Factors that bring user and system time to the reference speed."""
    return (USER_REF_S / statistics.median(c["calibrate.user_s"] for c in cals),
            KERNEL_REF_S / statistics.median(c["calibrate.kernel_s"] for c in cals))


def at_reference_speed(seconds, proc, speed):
    """`seconds` spent by process `proc`, scaled as its CPU time scales:
    its user time by the user factor, its system time by the kernel one."""
    cpu = proc["user_s"] + proc["sys_s"]
    scaled = proc["user_s"] * speed[0] + proc["sys_s"] * speed[1]
    return seconds * scaled / cpu if cpu > 0 else seconds * speed[0]


def run_untraced(bench, seconds, spec):
    """Repetitions until `seconds` have passed and at least MIN_REPS ran,
    each after a run of the calibration kernel, with a set-up probe after
    each of the first SETUP_PROBES."""
    reps, setups, cals = [], [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time_left(deadline, reps):
        cals.append(bench.calibrate())
        reps.append(bench.rep())
        if len(setups) < SETUP_PROBES:
            setups.append(bench.setup_probe())
    problems = check_reps(reps, bench.workload, bench.seed, bench.tiny, load_pinned())
    ok = [r for r in reps if not r["failed"]] or reps
    speed = host_speed(cals)
    values = {
        "wall_s": statistics.median(at_reference_speed(r["wall_s"], r, speed) for r in ok),
        "setup_s": statistics.median(at_reference_speed(s["setup_s"], s["process"], speed)
                                     for s in setups),
        "cpu_s": statistics.median(at_reference_speed(r["cpu_s"], r, speed) for r in ok),
        "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in ok]),
    }
    samples = {
        "calibration": cals,
        "speed": list(speed),
        "user_s": [r["user_s"] for r in reps],
        "sys_s": [r["sys_s"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        "setup_s": [s["setup_s"] for s in setups],
    }
    return reps, values, samples, problems, spec["end_to_end"]


def run_traced(bench, seconds, spec):
    """The traced repetition first, then the probes, then untraced
    repetitions for the overhead baseline until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    traced = bench.traced()
    info = traced["info"]
    if "core.setup_ms" not in info:
        info.update(bench.observe())
    # The probed run's audit counts against the traced repetition.
    if traced["code"] == 0 and info.get("audit") != "clean":
        traced["problems"].append(f"audit: {info.get('audit')}")
    if str(info.get("probe_shard_errors", "0")) != "0":
        traced["problems"].append(f"{info['probe_shard_errors']} shard errors in the observed probe")
    # One seed, matching the observed run, so the set-up split below holds.
    setup = bench.setup_probe(first_seed=True)
    reps = []
    while len(reps) < MIN_TRACED_BASELINE_REPS or time_left(deadline, reps):
        reps.append(bench.rep())
    everything = [traced] + reps
    problems = check_reps(everything, bench.workload, bench.seed, bench.tiny, load_pinned())
    failed = sum(r["failed"] for r in everything)
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in info:
            values[name] = float(info[name])
        elif name in setup:
            values[name] = float(setup[name])
    values["error_rate"] = failed / len(everything)
    # Both set-up timings come from fresh processes running one seed's
    # config; what the observed run spent beyond them built the sessions.
    values["core.runtime_build_ms"] = (values["core.setup_ms"] - values["workload.generate_ms"]
                                       - values["cdn.warm_ms"])
    untraced_wall = statistics.median([r["wall_s"] for r in reps])
    values["trace.overhead_s"] = values.get("trace.wall_s", 0.0) - untraced_wall
    samples = {"untraced_wall_s": [r["wall_s"] for r in reps]}
    if "trace_file" in traced:
        samples["trace_file"] = os.path.relpath(traced["trace_file"], bench.root)
    return everything, values, samples, problems, spec["per_layer"]


def pin_to_one_cpu():
    """Pin this process, and with it every repetition and probe it spawns,
    to one CPU. The threads of a repetition then take turns on that CPU
    instead of each needing a vCPU of its own: on a shared host a second
    vCPU is often late, and two-thread repetitions measured that."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(root, spec, workload, seed, seconds, trace, tiny, bins, host):
    threads = WORKLOADS[workload]["threads"]
    if threads > host["nproc"]:
        raise BenchError(f"{workload} uses {threads} threads but this host has nproc = {host['nproc']}")
    bench = Bench(root, workload, seed, tiny, bins)
    try:
        runner = run_traced if trace else run_untraced
        reps, values, samples, problems, wanted = runner(bench, seconds, spec)
    finally:
        bench.close()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "trace": trace,
        "host": host,
        "provenance": provenance(root, seed, tiny),
        "size": bench.size,
        "samples": samples,
        "problems": problems,
        "result": result,
    }
    results = os.path.join(root, OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    for p in problems:
        log(f"check failed: {p}")
    return result, record, path


def print_result(workload, result, record, path):
    host, prov = record["host"], record["provenance"]
    print(f"# {workload}: host {host['host_id']} (nproc {host['nproc']}, {host['cpu_model']}), "
          f"commit {prov['git_commit'] or 'n/a'}, source {prov['source_digest']}, "
          f"{prov['build_profile']} build, seed {prov['seed']}, "
          f"{result['attempted']} repetitions, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# record: {os.path.relpath(path)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run the streamlab benchmark.")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics; 1: traced run and per-layer metrics "
                         "(default with --workload all: both)")
    ap.add_argument("--tiny", action="store_true", help="shrink every workload to test size")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
                and os.path.isdir(os.path.join(root, "crates", "core"))):
            raise BenchError("run from the root of a streamlab checkout: no program sources here")
        spec = load_spec(root)
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if args.workload == "all" else [args.workload]
        for w in workloads:
            if w not in WORKLOADS or w not in names:
                raise BenchError(f"unknown workload '{w}' (one of {', '.join(names)}, or all)")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        modes = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
        host = host_info()
        bins = build(root)
        host["pinned_cpu"] = pin_to_one_cpu()
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        result = None
        for w in workloads:
            for trace in modes:
                result, record, path = run_one(root, spec, w, args.seed, seconds, trace, args.tiny, bins, host)
                print_result(w, result, record, path)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    combined["metrics"][f"{w}/{name}"] = m
        final = result if len(workloads) == 1 and len(modes) == 1 else combined
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
