"""compseries benchmark: times four workloads from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify_roster, enumerate_e26, lattice_a5xs4, sweep_1e6, or
``all`` for each of them in turn.  Run from the root of a source checkout;
the package is imported from ``src`` with nothing installed.

Every pass runs in a fresh interpreter (one closed-loop client, no pool),
with COMPSERIES_CACHE and COMPSERIES_ELEMENT_CAP unset.  Passes repeat until
S seconds have gone by and the medians are reported.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each step is a pair of
passes, one plain and one traced, and the metrics are the per-layer ones
plus the tracing overhead.  Set-up time is measured between the passes by
starting interpreters that only import compseries.  The end-to-end times
are scaled to a reference host speed (see hostspeed.py); the summary line
shows the raw times next to them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("verify_roster", "enumerate_e26", "lattice_a5xs4", "sweep_1e6")
SETUP_PROBES_PER_PASS = 3
SETUP_PROBES_MIN = 15
# A pass still running this long after its workload began is killed, so that
# a run ends within three minutes.
WORKLOAD_BUDGET_S = 165


def child_env():
    env = dict(os.environ)
    env.pop("COMPSERIES_CACHE", None)
    env.pop("COMPSERIES_ELEMENT_CAP", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# Runs in the set-up interpreter: the clock reading right after the import,
# then the host's speed, probed once the import is done.
SETUP_CODE = (
    "import time, compseries\n"
    "t = time.perf_counter()\n"
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hostspeed\n"
    "print(t, hostspeed.speed_now())\n"
)


def setup_probe(env):
    """(raw, scaled) time of starting an interpreter and importing compseries.

    perf_counter is the system-wide monotonic clock, so the child's reading
    after its import and the parent's before the start are comparable.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(HERE)],
        env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True,
    )
    t, speed = map(float, proc.stdout.split())
    return t - t0, (t - t0) * speed


def one_pass(workload, seed, trace, env, deadline):
    """Run one pass in a fresh interpreter; the worker's result, or None."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--work", str(WORK),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass killed at the {WORKLOAD_BUDGET_S} s budget", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"{workload}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: unreadable worker result {lines[-1]!r}", file=sys.stderr)
        return None


class Tally:
    """Output checks attempted and failed over the passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, workload, res):
        if res is None:
            self.attempted += 1
            self.failed += 1
            return
        for name, ok, detail in res["checks"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"{workload}: check failed: {name}: {detail}", file=sys.stderr)


def repeat(step, seconds):
    """Call ``step`` until ``seconds`` have gone by, to within half a call.

    ``step`` returns False to stop early.  It is called at least once.
    """
    t0 = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        if not step():
            return
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(durations) / 2 > seconds:
            return


def measure(workload, seed, seconds, env, tally):
    """End-to-end metrics of one workload."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setup_probe(env)  # compiles the .pyc files, not counted
    setups, passes = [], []

    def step():
        setups.extend(setup_probe(env) for _ in range(SETUP_PROBES_PER_PASS))
        res = one_pass(workload, seed, 0, env, deadline)
        tally.add(workload, res)
        if res is None:
            return False
        passes.append(res)
        return True

    repeat(step, seconds)
    while len(setups) < SETUP_PROBES_MIN:
        setups.append(setup_probe(env))
    metrics = {"setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"}}
    if passes:
        for key, unit in (("wall_s", "s"), ("peak_rss_mb", "MB")):
            metrics[key] = {"value": statistics.median(p[key] for p in passes), "unit": unit}
    summary = " ".join(f"{k}={m['value']:.4f} {m['unit']}" for k, m in metrics.items())
    raw = f"raw setup_s={statistics.median(r for r, _ in setups):.4f} s"
    if passes:
        raw += (
            f" raw wall_s={statistics.median(p['raw_wall_s'] for p in passes):.4f} s"
            f" probe={statistics.median(p['probe_ms'] for p in passes):.3f} ms"
        )
    print(
        f"{workload}: {summary} fail_ratio={tally.failed / tally.attempted:.4f}"
        f" ({tally.failed}/{tally.attempted}) passes={len(passes)} ({raw})"
    )
    return metrics


def measure_traced(workload, seed, seconds, env, tally, layer_units):
    """Per-layer metrics of one workload, from pairs of plain and traced passes."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    plain, traced, raw, layers = [], [], [], []

    def step():
        a = one_pass(workload, seed, 0, env, deadline)
        tally.add(workload, a)
        b = one_pass(workload, seed, 1, env, deadline) if a is not None else None
        tally.add(workload, b)
        if b is None:
            return False
        plain.append(a["wall_s"])
        traced.append(b["wall_s"])
        raw.append((a["raw_wall_s"], b["raw_wall_s"]))
        layers.append(b["layers"])
        return True

    repeat(step, seconds)
    if not layers:
        return {}
    metrics = {}
    for name, unit in layer_units.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name == "trace.wall_s":
            value = statistics.median(traced)
        else:
            value = statistics.median(x[name] for x in layers)
        metrics[name] = {"value": value, "unit": unit}
    print(
        f"{workload}: traced wall_s={statistics.median(traced):.4f} s"
        f" plain wall_s={statistics.median(plain):.4f} s"
        f" overhead={metrics['trace.overhead_s']['value']:.4f} s"
        f" (raw traced wall_s={statistics.median(b for _, b in raw):.4f} s"
        f" raw plain wall_s={statistics.median(a for a, _ in raw):.4f} s)"
        f" fail_ratio={tally.failed / tally.attempted:.4f} pairs={len(layers)}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    return metrics


def commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env):
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy or "missing",
        "commit": commit(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Stopped from outside, the run still ends its worker: subprocess.run
    # kills the child when an exception interrupts the wait.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "compseries" / "__init__.py").is_file():
        print(f"error: no compseries package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    WORK.mkdir(exist_ok=True)
    env = child_env()
    print("env " + json.dumps(environment(env)))
    attempted = failed = 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    for w in names:
        tally = Tally()
        if args.trace:
            got = measure_traced(w, args.seed, args.seconds, env, tally, units)
        else:
            got = measure(w, args.seed, args.seconds, env, tally)
        prefix = "" if len(names) == 1 else w + "."
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += tally.attempted
        failed += tally.failed
    correct = failed == 0 and all(
        (w + "." if len(names) > 1 else "") + k in metrics for w in names for k in units
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
