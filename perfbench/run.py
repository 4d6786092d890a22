"""Benchmark of the degenma CLI: two workloads, end-to-end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 56 --trace 0

Each workload is one `degenma <experiment> --seed N --out DIR` invocation.
Every timed call runs in a fresh interpreter (perfbench/call.py) that calls
`degenma.cli.main(argv)` once, as a user's `degenma` command does, repeated
until the time budget is spent. Every call's verdicts must pass, and every
call's metrics.csv must hash to the same sha256 (same workload, same seed,
separate processes). The last line of standard output is one JSON object with
keys `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: `wall_s` (median wall clock of one
call, timed around main()), `setup_s` (median time from spawning a fresh
interpreter to degenma.cli imported) and `peak_rss_mb` (median peak resident
memory of the process that runs a call). Both times are given at the reference
host speed: on a shared host the CPU runs up to a third slower for minutes at
a time. So the run keeps itself and its children on one CPU, stops each
running child every PAUSE_EVERY_S to time one unit of a fixed sparse-LU kernel
of its own (HostSpeed) on that CPU, takes the pauses back out of the child's
times, and divides the medians by how much slower than REF_UNIT_S the kernel
ran.

--trace 1 alternates untraced and traced calls and reports the per-layer
metrics of tracing.METRICS, medians over the traced calls.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# workload name -> CLI arguments before --seed/--out. Only `scan` draws its
# inputs from the seed; `pipeline` is deterministic for every seed.
WORKLOADS = {
    "scan": ["harnack-scan"],
    "pipeline": ["liouville-fit", "--save-fields"],
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_CALLS = 3
SETUP_SAMPLES = 12  # each call is one set-up sample; import-only probes make up the rest
CALL_TIMEOUT_S = 120
PROBE = "import degenma.cli"
REF_UNIT_S = 0.026  # one HostSpeed unit on an unloaded core of a 2-vCPU Xeon VM
PAUSE_EVERY_S = 0.5  # a timed child is stopped this often for one HostSpeed unit


def cap_threads(env: dict) -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # A random hash seed in every call, so the digest check also catches
    # output that depends on set or dict iteration order across processes.
    env.pop("PYTHONHASHSEED", None)
    return env


class HostSpeed:
    """How fast the host runs while the calls run: a fixed kernel that uses
    none of the package, timed in this process while the child it runs beside
    is stopped, on the same CPU. One unit is a sparse LU factorization of a
    2-D anisotropic Laplacian (81 x 81 grid, like `scan`'s smaller one) and 20
    triangular solves with elementwise work between them (like the `ma`
    fixed point)."""

    def __init__(self):
        n = 81
        t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = scipy.sparse.identity(n)
        self.matrix = (scipy.sparse.kron(eye, t) + 0.5 * scipy.sparse.kron(t, eye)).tocsc()
        self.rhs = np.linspace(1.0, 2.0, n * n)
        self.units: list[float] = []

    def unit(self) -> None:
        start = time.perf_counter()
        lu = splu(self.matrix)
        x = self.rhs
        for _ in range(20):
            x = np.sqrt(np.abs(lu.solve(x)) + 1.0)
        self.units.append(time.perf_counter() - start)

    def slowdown(self) -> float:
        """Mean unit time over REF_UNIT_S: what a run's times are divided by.
        The mean, not the median: under contention unit times are bimodal,
        and the mean follows the share of time the CPU was slow."""
        return statistics.fmean(self.units) / REF_UNIT_S


def spawn(args: list[str], host: HostSpeed | None = None) -> tuple[float, subprocess.CompletedProcess, list]:
    """Run a fresh interpreter to completion; with `host`, stop it every
    PAUSE_EVERY_S for one host unit. Return the clock reading taken just
    before the spawn, the finished process and the (stop, continue) clock
    readings of the pauses. A child still running after CALL_TIMEOUT_S is
    killed."""
    WORK.mkdir(exist_ok=True)
    pauses = []
    with tempfile.TemporaryFile("w+", dir=WORK) as out, tempfile.TemporaryFile("w+", dir=WORK) as err:
        start = time.perf_counter()
        deadline = start + CALL_TIMEOUT_S
        with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(), stdout=out, stderr=err, text=True) as proc:
            try:
                while True:
                    try:
                        proc.wait(timeout=max(0.0, min(deadline - time.perf_counter(), PAUSE_EVERY_S if host else CALL_TIMEOUT_S)))
                        break
                    except subprocess.TimeoutExpired:
                        if host is None or time.perf_counter() >= deadline:
                            raise
                    stopped = time.perf_counter()
                    proc.send_signal(signal.SIGSTOP)
                    host.unit()
                    proc.send_signal(signal.SIGCONT)
                    pauses.append((stopped, time.perf_counter()))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        out.seek(0)
        err.seek(0)
        return start, subprocess.CompletedProcess(proc.args, proc.returncode, out.read(), err.read()), pauses


def paused(pauses: list, begin: float, end: float) -> float:
    """How much of [begin, end] the pauses cover."""
    return sum(max(0.0, min(b, end) - max(a, begin)) for a, b in pauses)


def probe_setup(host: HostSpeed | None = None) -> float:
    """Seconds from spawning a fresh interpreter to degenma.cli imported."""
    start, proc, pauses = spawn(["-c", f"import time; {PROBE}; print(time.perf_counter())"], host)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter could not import degenma.cli (exit {proc.returncode}):\n{proc.stderr}")
    ready = float(proc.stdout.split()[-1])
    return ready - start - paused(pauses, start, ready)


def check_sources() -> None:
    if not (SRC / "degenma" / "cli.py").is_file():
        raise RuntimeError(f"no degenma sources under {SRC}")
    probe_setup()  # untimed: fails early on a broken tree and fills the bytecode cache


def invoke(workload: str, seed: int, trace: bool = False, host: HostSpeed | None = None) -> dict:
    """One CLI call in a fresh interpreter, into a fresh output directory.
    Returns call.py's report plus `setup_s`, `exit`, `verdicts` and the
    metrics.csv `digest`, with `host`'s pauses taken out of `setup_s` and
    `wall_s`; the directory is removed."""
    out = tempfile.mkdtemp(dir=WORK)
    args = [str(HERE / "call.py"), *(["--trace"] if trace else []), *WORKLOADS[workload], "--seed", str(seed), "--out", out]
    result = {"exit": None, "verdicts": {}, "digest": None, "trace": trace}
    try:
        start, proc, pauses = spawn(args, host)
        sys.stderr.write(proc.stderr)
        result.update(json.loads(proc.stdout.splitlines()[-1]))
        ready, begin = result.pop("ready"), result.pop("start")
        result["setup_s"] = ready - start - paused(pauses, start, ready)
        result["wall_s"] -= paused(pauses, begin, begin + result["wall_s"])
        with open(os.path.join(out, "metrics.csv"), "rb") as fh:
            result["digest"] = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            result["verdicts"] = json.load(fh)["verdicts"]
    except (OSError, ValueError, IndexError, KeyError, subprocess.TimeoutExpired) as exc:
        # a call that crashed, hung or wrote no output is a failed operation, not a crashed benchmark
        print(f"perfbench: {workload} call failed: {exc!r}", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result


def judge(runs: list[dict]) -> tuple[int, int, int]:
    """Mark each call ok or not and count (failed calls, failing verdicts,
    verdicts evaluated). A call fails on a non-zero exit, a failing verdict, a
    missing output or a metrics.csv digest unlike the first one written."""
    reference = next((r["digest"] for r in runs if r["digest"]), None)
    failed = bad = total = 0
    for r in runs:
        verdicts = r["verdicts"] or {"completed": False}
        bad += sum(not v for v in verdicts.values())
        total += len(verdicts)
        r["ok"] = r["exit"] == 0 and all(verdicts.values()) and r["digest"] is not None and r["digest"] == reference
        failed += not r["ok"]
    return failed, bad, total


def timing_pool(calls: list[dict]) -> list[dict]:
    """The calls that passed every check; if none did, every call that
    reported, so the figures still show (and `correct` is false)."""
    return [r for r in calls if r["ok"]] or [r for r in calls if "wall_s" in r]


def environment(cpus: list[int]) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(cpus),
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_untraced(workload: str, seed: int, seconds: float, host: HostSpeed) -> tuple[list[dict], list[float]]:
    """Calls, each paused now and then for a `host` unit, while another call
    and the remaining set-up probes fit the budget (at least MIN_CALLS); then
    probes up to SETUP_SAMPLES set-ups."""
    runs, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs.append(invoke(workload, seed, host=host))
        call_s = time.perf_counter() - t0
        probes_left = max(0, SETUP_SAMPLES - len(runs))
        setup_guess = runs[-1].get("setup_s", 1.0)
        if len(runs) >= MIN_CALLS and time.perf_counter() - start + call_s + probes_left * setup_guess > seconds:
            break
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    setups += [probe_setup(host) for _ in range(SETUP_SAMPLES - len(setups))]
    return runs, setups


def run_traced(workload: str, seed: int, seconds: float) -> list[dict]:
    """Alternate untraced and traced calls, switching which goes first, for
    at least one pair and while another pair fits the budget."""
    runs, start, pair_s = [], time.perf_counter(), 0.0
    while not runs or time.perf_counter() - start + pair_s <= seconds:
        t0 = time.perf_counter()
        first_traced = len(runs) % 4 == 2
        runs += [invoke(workload, seed, first_traced), invoke(workload, seed, not first_traced)]
        pair_s = time.perf_counter() - t0
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an error, so every started child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for the run and its children, so that HostSpeed times the CPU the calls ran on
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    cap_threads(os.environ)
    try:
        check_sources()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(cpus), sort_keys=True))
    print(f"workload {args.workload}: degenma {' '.join(WORKLOADS[args.workload])} --seed {args.seed} --out DIR")

    try:
        if args.trace == 0:
            host = HostSpeed()
            runs, setups = run_untraced(args.workload, args.seed, args.seconds, host)
        else:
            runs = run_traced(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed, bad, total = judge(runs)
    digests = sorted({r["digest"] for r in runs if r["digest"]})
    print(f"metrics.csv sha256 {' '.join(digests) or 'none'} over {len(runs)} calls in separate processes")
    print(f"verdict_fail_ratio {bad}/{total} = {bad / total:.4g} (failing verdicts / verdicts evaluated, {len(runs)} calls)")

    plain = timing_pool([r for r in runs if not r["trace"]])
    traced = timing_pool([r for r in runs if r["trace"]])
    if not plain or (args.trace == 1 and not traced):
        print(f"perfbench: no {args.workload} call produced a report", file=sys.stderr)
        return 1
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"wall_s {label} samples " + " ".join(f"{r['wall_s']:.3f}" for r in group))

    if args.trace == 0:
        print("setup_s samples " + " ".join(f"{s:.3f}" for s in setups))
        slow = host.slowdown()
        walls = [r["wall_s"] for r in plain]
        rss = [r["peak_rss_mb"] for r in plain]
        print(
            f"host slowdown {slow:.4f} = mean of {len(host.units)} reference units {slow * REF_UNIT_S * 1e3:.2f} ms "
            f"/ {REF_UNIT_S * 1e3:g} ms; as measured: wall_s {statistics.median(walls):.4f} s, "
            f"setup_s {statistics.median(setups):.4f} s"
        )
        at_ref = f"at reference host speed (measured / {slow:.4f})"
        metrics = {
            "wall_s": (statistics.median(walls) / slow, "s", f"median of {len(walls)} calls, {at_ref}"),
            "setup_s": (statistics.median(setups) / slow, "s", f"median of {len(setups)} set-ups, {at_ref}"),
            "peak_rss_mb": (statistics.median(rss), "MiB", f"median of {len(rss)} calls"),
        }
    else:
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        for r in traced:
            r["layers"][tracing.OVERHEAD] = r["wall_s"] / untraced_wall
        metrics = {
            name: (statistics.median(r["layers"][name] for r in traced), unit, f"median of {len(traced)} traced calls")
            for name, unit in tracing.METRICS.items()
        }
        first = traced[0]
        print(f"self time of traced call 1 ({first['wall_s']:.3f} s):")
        for name, t, share in first["shares"]:
            print(f"  {name:40s} {t:9.4f} s {100 * share:6.2f} %")

    for name, (value, unit, how) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} {how}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
