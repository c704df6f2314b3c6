"""bifrac benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload verify-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from a checkout: the package is imported from its `src/`.  A plain
run (`--trace 0`) times set-up (median of nine, eight of them in fresh
child processes so no cache survives), then cycles through the op list
for `--seconds` (at least three whole passes), then checks every op
against its oracle.  Latency metrics come from each op's median over its
passes, so a burst of load on a shared host moves them little, and every
time is scaled to a reference host speed (see HostProbe).  It prints the
end-to-end metrics; the last stdout line is one JSON object.  `--trace 1` is a
separate run that gives the per-layer metrics (see tracing.py) and
never reports end-to-end numbers.  `--workload all` runs the four
workloads one after another, each in its own process, and prints a table.
"""

from __future__ import annotations

import os
import sys

# Single-threaded on purpose: pinned before numpy is imported.
for _var in (
    "BIFRAC_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages for large arrays by default; whether
# it gets them depends on how fragmented the host's memory is, which moved
# the pair-constant ops by up to 13% from one process to the next.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True
# String hashing is randomised per process by default, which changes the
# order of set and dict iteration and so the order of allocations: with it,
# verify-1d flipped between 78 and 84 MB peak and between 34 and 40 ms p90
# from one process to the next, and with a fixed seed it did not.  A hash
# seed only takes effect at start-up, so the process re-executes itself.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9
MIN_PASSES = 3
SETUP_PROBES = 100
# Probe time that defines the reference host speed (see HostProbe).
REFERENCE_PROBE_S = 250e-6
CHILD_TIMEOUT_S = 170
MAX_TRACE_PAIRS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("verify-1d", "domination-1d", "grid-2d", "constants-1d")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    if not (SRC / "bifrac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'bifrac'}; run from a bifrac checkout")
    sys.path.insert(0, str(SRC))
    import bifrac

    if Path(bifrac.__file__).resolve().parent != (SRC / "bifrac").resolve():
        raise SystemExit(f"perfbench: imported bifrac from {bifrac.__file__}, not from {SRC}")
    return bifrac


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "bifrac").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "threads": {
            k: os.environ[k]
            for k in ("BIFRAC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE", "PYTHONHASHSEED")
        },
    }


def git_sha():
    """HEAD of the checkout's own .git, or None when it is not a git clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


class HostProbe:
    """Times a fixed piece of work that shares no code with the package.

    A shared host runs the same code up to about 40% faster or slower from
    one minute to the next.  The probe is timed next to the measured work,
    and a time measured alongside it is scaled by REFERENCE_PROBE_S / probe
    time: the time on a host where the probe takes REFERENCE_PROBE_S.  It
    has two parts of about equal time, because the host's swings hit them
    differently: bulk numpy work (cumulative sums and a gather on a 64 x 64
    array) moved least, and a Python loop of small numpy slice sums (the
    package's per-cube pattern) moved most.  A change to the package never
    moves the probe.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.grid = rng.random((64, 64))
        self.idx = rng.integers(0, self.grid.size, 3000)
        self.small = rng.random((32, 32))
        self.samples = []
        for _ in range(20):  # warm-up, not recorded
            self.time()
        self.samples.clear()

    def time(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        s = np.cumsum(np.cumsum(self.grid, axis=0), axis=1).ravel()
        np.max(np.abs(s[self.idx] - s[self.idx[::-1]]) ** 0.5)
        for i in range(60):
            j = i % 28
            float(self.small[j : j + 4, j // 2 : j // 2 + 4].sum())
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        """Factor that turns a time measured alongside these probes into the
        time at the reference host speed."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def timed_setup(wl) -> tuple[float, float]:
    """Set-up time (raw, scaled to the reference host speed)."""
    probe = HostProbe()
    for _ in range(SETUP_PROBES):
        probe.time()
    t0 = time.perf_counter()
    wl.setup()
    raw = time.perf_counter() - t0
    for _ in range(SETUP_PROBES):
        probe.time()
    return raw, raw * probe.scale()


def child_setups(args, count) -> list[dict]:
    """Set-up timed in fresh processes, so no in-process cache is warm."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_op(wl, idx, runs):
    """Run op `idx` once; append (result, error) to runs[idx]; return its latency."""
    t0 = time.perf_counter()
    try:
        obs, err = wl.run(wl.op_list[idx]), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        obs, err = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    runs[idx].append((obs, err))
    return latency


def timed_phase(wl, seconds, runs, probe):
    """Closed loop over the op list (cycling) until `seconds` have passed and
    every op has run MIN_PASSES times, with one host probe after each op.
    Returns each op's latencies, each scaled by the median probe time of
    its pass (the host's speed changes within a run too)."""
    n = len(wl.op_list)
    records = []  # (op index, latency, probe time) per execution
    start = time.perf_counter()
    while len(records) < MIN_PASSES * n or time.perf_counter() - start < seconds:
        idx = len(records) % n
        records.append((idx, run_op(wl, idx, runs), probe.time()))
    elapsed = time.perf_counter() - start
    latencies = [[] for _ in range(n)]
    for first in range(0, len(records), n):
        one_pass = records[first : first + n]
        scale = REFERENCE_PROBE_S / statistics.median(p for _, _, p in one_pass)
        for idx, latency, _ in one_pass:
            latencies[idx].append(latency * scale)
    return latencies, elapsed


def check_all(wl, runs):
    """Check every op once over all its executions; returns (ops checked, failures)."""
    failures = []
    checked = 0
    for idx, executions in enumerate(runs):
        if not executions:
            continue
        checked += 1
        try:
            problem = wl.check(idx, executions)
        except Exception as exc:  # a result the oracle cannot even compare is wrong
            problem = ("uncheckable", f"{wl.op_list[idx]}: {type(exc).__name__}: {exc}")
        if problem is not None:
            failures.append(problem)
    return checked, failures


def nearest_rank(sorted_vals, pct):
    return sorted_vals[max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)]


def report(wl, args, env, digest, attempted, failures, metrics, extra_lines):
    from workloads import KNOWN_DEFECTS

    kinds = {}
    for kind, _ in failures:
        kinds[kind] = kinds.get(kind, 0) + 1
    correct = attempted > 0 and all(k in KNOWN_DEFECTS for k in kinds)
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256={digest} ops_in_list={len(wl.op_list)}")
    for line in extra_lines:
        print(line)
    frac = len(failures) / attempted if attempted else 0.0
    print(f"ops attempted={attempted} failed={len(failures)} failed_frac={frac:.6g} (ratio) by kind={kinds}")
    if wl.verdicts:
        tallies = ", ".join(f"{k} {above}/{n}" for k, (n, above) in sorted(wl.verdicts.items()))
        print(f"held-out verdicts above the calibrated bound (a protocol outcome, not an op failure): {tallies}")
    for kind, detail in failures[:8]:
        print(f"  failed [{kind}] {detail}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))


def main_plain(args, bifrac, wl_cls):
    children = child_setups(args, SETUP_SAMPLES - 1)
    wl = wl_cls(bifrac, args.seed)
    setup_main = timed_setup(wl)
    digest = wl.digest()
    if any(c["digest"] != digest for c in children):
        raise RuntimeError("set-up children generated different inputs for the same seed")
    setup_raw = [c["setup_raw_s"] for c in children] + [setup_main[0]]
    setup_samples = [c["setup_s"] for c in children] + [setup_main[1]]

    runs = [[] for _ in wl.op_list]
    probe = HostProbe()
    latencies, elapsed = timed_phase(wl, args.seconds, runs, probe)
    rss = peak_rss_mb()  # before the oracles run, which allocate their own tables

    attempted, failures = check_all(wl, runs)
    # one latency per op: its median over the passes, at the reference host speed
    lat = sorted(statistics.median(samples) for samples in latencies)
    executed = sum(map(len, latencies))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / math.fsum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * nearest_rank(lat, 90),
        "peak_rss_mb": rss,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    extra = [
        "setup_s samples, scaled " + json.dumps([round(s, 6) for s in setup_samples])
        + " raw " + json.dumps([round(s, 6) for s in setup_raw]),
        f"latency: {len(lat)} ops, each the median of {min(map(len, latencies))}-{max(map(len, latencies))} "
        f"executions; {executed} executions in timed_s={elapsed:.3f} ({executed / elapsed:.4g} ops/s raw)",
        f"host probe: median {1e6 * statistics.median(probe.samples):.1f} us over {len(probe.samples)} probes; "
        f"times are scaled pass by pass to the reference {1e6 * REFERENCE_PROBE_S:g} us",
    ]
    report(wl, args, environment(), digest, attempted, failures, metrics, extra)


def main_traced(args, bifrac, wl_cls):
    from tracing import Tracer, per_layer_metrics

    start = time.perf_counter()
    tracer = Tracer(bifrac)
    wl = wl_cls(bifrac, args.seed)
    tracer.install()
    wl.setup()
    setup_spans = len(tracer.spans)
    tracer.uninstall()
    digest = wl.digest()

    ops = range(len(wl.op_list))
    runs = [[] for _ in ops]
    overheads = []
    first_pass = None
    while True:
        t0 = time.perf_counter()
        for idx in ops:
            run_op(wl, idx, runs)
        untraced = time.perf_counter() - t0
        skipped0 = wl.infinite_skipped
        tracer.install()
        span0 = len(tracer.spans)
        for idx in ops:
            tracer.op_id = idx
            run_op(wl, idx, runs)
        tracer.op_id = -1
        tracer.uninstall()
        traced = time.perf_counter() - t0 - untraced
        overheads.append((traced - untraced) / untraced)
        if first_pass is None:
            first_pass = (span0, len(tracer.spans), dict(tracer.counts), wl.infinite_skipped - skipped0)
        if time.perf_counter() - start >= args.seconds or len(overheads) >= MAX_TRACE_PAIRS:
            break

    span0, span1, counts, skipped = first_pass
    self_s = tracer.self_times(0, setup_spans)
    for name, v in tracer.self_times(span0, span1).items():
        self_s[name] += v
    tracer.counts = counts
    metrics = per_layer_metrics(tracer, self_s, skipped, statistics.median(overheads))
    attempted, failures = check_all(wl, runs)
    env = environment()

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.write(path, {
        "workload": wl.name, "seed": args.seed, "env": env, "inputs_sha256": digest,
        "setup_spans": setup_spans, "first_traced_pass_spans": [span0, span1],
        "overhead_fracs": overheads, "self_s": dict(self_s), "metrics": metrics,
    })
    extra = [
        f"trace pass = all {len(ops)} ops; {len(overheads)} untraced/traced pairs; "
        f"per-layer values cover set-up plus the first traced pass; spans in {path.relative_to(ROOT)}",
    ]
    report(wl, args, env, digest, attempted, failures, metrics, extra)


def main_setup_only(args, bifrac, wl_cls):
    wl = wl_cls(bifrac, args.seed)
    raw, scaled = timed_setup(wl)
    print(json.dumps({"setup_raw_s": raw, "setup_s": scaled, "digest": wl.digest()}))


def main_all(args):
    """Each workload in its own process; print the six metrics per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 2 * args.seconds + 60,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} failed with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    if args.trace:
        names = list(next(iter(results.values()))["metrics"])
    else:
        names = list(END_TO_END_UNITS) + ["failed_frac"]
        for res in results.values():
            res["metrics"]["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
    print(f"{'metric':40s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in WORKLOAD_NAMES))
    for m in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][m]["unit"]
        print(f"{m:40s} {unit:6s} " + " ".join(f"{results[n]['metrics'][m]['value']:14.6g}" for n in WORKLOAD_NAMES))
    print("correct " + " ".join(f"{n}={results[n]['correct']}" for n in WORKLOAD_NAMES))
    print(json.dumps(results))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        main_all(args)
        return 0
    bifrac = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    wl_cls = WORKLOADS[args.workload]
    if args.setup_only:
        main_setup_only(args, bifrac, wl_cls)
    elif args.trace:
        main_traced(args, bifrac, wl_cls)
    else:
        main_plain(args, bifrac, wl_cls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
