"""Self-test of the benchmark: its counters and its output checks.

    python3 bench/selftest.py

Run from the root of a source checkout.  Exits non-zero on the first failed
assertion.  It checks that

* the traced series count of E(2,7) visits one memo node per subspace of
  F_2^7, which is sum_j [7 choose j]_2 = 29212;
* the host-speed sampler scales each stretch of a pass by the probe that
  ends it, and leaves the probes' own time out;
* each workload's checks reject a corrupted output;
* run.py exits non-zero when the program's output is corrupted, and when
  the checkout holds no compseries sources.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from compseries import catalog, series  # noqa: E402
from compseries.bounds import SweepResult  # noqa: E402
from compseries.verification import CheckResult  # noqa: E402


def failed(rows):
    return [name for name, ok, _ in rows if not ok]


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_memo_nodes():
    # Runs last: install() patches the compseries modules of this process.
    tracer = tracing.Tracer()
    tracer.install()
    series.count_series(catalog.realize_text("E(2,7)"))
    layers = tracer.layer_metrics()
    subspaces = sum(gaussian_binomial(7, j, 2) for j in range(8))
    assert subspaces == 29212, subspaces
    assert layers["series.memo_nodes"] == subspaces, layers["series.memo_nodes"]
    # every non-trivial subspace returns its 2^d - 1 hyperplanes
    children = sum(gaussian_binomial(7, d, 2) * (2**d - 1) for d in range(1, 8))
    assert layers["lattice.maximal_normal_member_sets.children"] == children
    assert layers["series.memo_hits"] == children - (subspaces - 1)
    assert layers["lattice.branch.abelian.calls"] == subspaces - 1


def test_scaled_times():
    nominal = hostspeed.PROBE_NOMINAL_S
    s = hostspeed.Sampler()
    # the first half of the pass at the reference speed, the rest at half of it
    s.t0, s.t1 = 0.0, 1.0
    s.samples = [(0.5, 0.5 + 2 * nominal, nominal), (1.0, 1.0 + 2 * nominal, 2 * nominal)]
    raw, scaled = s.times()
    assert abs(raw - (1.0 - 2 * nominal)) < 1e-12, raw
    assert abs(scaled - (0.5 + (0.5 - 2 * nominal) / 2)) < 1e-12, scaled

    s = hostspeed.Sampler(interval=0.05)
    s.start()
    # start() has run the probe once, so the handler imports nothing
    assert "numpy.ma" in sys.modules
    time.sleep(0.3)
    s.stop()
    raw, scaled = s.times()
    assert len(s.samples) >= 4, s.samples
    probing = sum(end - start for start, end, _ in s.samples[:-1])
    assert abs(raw + probing - (s.t1 - s.t0)) < 1e-9, (raw, probing)
    assert scaled > 0


def test_checks_reject_corruption():
    WORK.mkdir(parents=True, exist_ok=True)
    seed = 7

    # enumerate: sampled chains whose order-2 term is not inside their
    # order-4 term; the lines stay well-formed and distinct
    workloads.ENUM_LIMIT = 40
    out = workloads.run_enumerate_e26(str(WORK))
    assert not failed(workloads.check_enumerate_e26(out, seed, str(WORK)))
    picks = random.Random(seed).sample(range(workloads.ENUM_LIMIT), workloads.ENUM_SAMPLE)
    path = Path(out["path"])
    lines = path.read_text().splitlines()
    for i in picks:
        obj = json.loads(lines[i])
        four = set(obj["subgroups"][2])
        obj["subgroups"][1] = [0, next(x for x in range(64) if x not in four)]
        lines[i] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    bad = failed(workloads.check_enumerate_e26(out, seed, str(WORK)))
    assert sorted(bad) == sorted(f"validate_chain line {i}" for i in picks), bad

    # sweep: one extra attainer
    assert not failed(workloads.check_sweep_1e6({"result": sweep_result()}, seed, str(WORK)))
    res = sweep_result()
    res.equality_attainers.append(3)
    assert failed(workloads.check_sweep_1e6({"result": res}, seed, str(WORK))) == ["attainers"]

    # lattice: a wrong series count
    out = workloads.run_lattice_a5xs4(str(WORK))
    assert not failed(workloads.check_lattice_a5xs4(out, seed, str(WORK)))
    out["count"] = 14
    assert failed(workloads.check_lattice_a5xs4(out, seed, str(WORK))) == ["series count"]

    # verify: one failing row
    rows = [CheckResult(f"{f}x", "PASS", "") for f in workloads._VERIFY_FAMILIES[1:]]
    for name, count in (("Z2", 1), ("Z3", 1), ("Z4", 1), ("Z6", 2), ("E(2,2)", 3)):
        rows.append(CheckResult(f"series count {name}", "PASS", f"brute={count} formula={count}"))
    assert not failed(workloads.check_verify_roster(
        {"verify": rows, "agreement": [CheckResult("series count E(2,7)", "PASS", "")]},
        seed, str(WORK)))
    rows.append(CheckResult("bound check Z2", "FAIL", "unexpected equality at Z2"))
    out = {"verify": rows, "agreement": [CheckResult("series count E(2,7)", "PASS", "")]}
    bad = failed(workloads.check_verify_roster(out, seed, str(WORK)))
    assert "row bound check Z2" in bad, bad


def sweep_result():
    """A well-formed sweep result, built without running the sweep."""
    return SweepResult(
        n=workloads.SWEEP_N,
        violations=[],
        equality_attainers=[524288],
        max_ratio="1.000000",
        elapsed_ms=0,
        per_order_attainers=[2**k for k in range(2, 20)],
    )


def run_bench(cwd, workload, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


def test_command_fails_on_corrupt_output():
    shim = WORK / "shim"
    shim.mkdir(parents=True, exist_ok=True)
    (shim / "sitecustomize.py").write_text(
        "import compseries.bounds as b\n"
        "_sweep = b.sweep_theorem_43\n"
        "def sweep(*args, **kwargs):\n"
        "    res = _sweep(*args, **kwargs)\n"
        "    res.equality_attainers.append(3)\n"
        "    return res\n"
        "b.sweep_theorem_43 = sweep\n"
    )
    env = dict(os.environ, PYTHONPATH=str(shim))
    proc = run_bench(ROOT, "sweep_1e6", env)
    assert proc.returncode != 0, proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["failed"] >= 1 and not last["correct"], last


def test_command_fails_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "lattice_a5xs4")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout


def main():
    for test in (
        test_scaled_times,
        test_checks_reject_corruption,
        test_command_fails_on_corrupt_output,
        test_command_fails_without_sources,
        test_memo_nodes,
    ):
        test()
        print(f"ok {test.__name__}", flush=True)


if __name__ == "__main__":
    main()
