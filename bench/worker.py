"""One pass of one workload in a fresh interpreter; started by run.py.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N --trace 0|1 --work DIR

Prints, as its last line, a JSON object with the pass's wall time, the
process's peak resident memory at the end of the pass, the output checks and,
when traced, the per-layer metrics.  The checks run after the pass and are
not timed.  The pass's time is also reported scaled to the reference host
speed (see hostspeed.py).  An untraced pass is probed while it runs; a
traced pass is probed only just before and after, so that the probes do not
land in its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed
import workloads


def _checks(check, out, seed, work):
    try:
        rows = check(out, seed, work)
    except Exception as exc:  # a check that raises counts as failed
        rows = [("check raised", False, f"{type(exc).__name__}: {exc}")]
    return [(name, bool(ok), detail) for name, ok, detail in rows]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    run, check = workloads.WORKLOADS[args.workload]
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        speed = hostspeed.speed_now()
    else:
        sampler = hostspeed.Sampler()
        sampler.start()
    t0 = time.perf_counter()
    out = run(args.work)
    wall = time.perf_counter() - t0
    if args.trace:
        result = {"raw_wall_s": wall, "wall_s": wall * (speed + hostspeed.speed_now()) / 2}
    else:
        sampler.stop()
        raw, scaled = sampler.times()
        result = {"raw_wall_s": raw, "wall_s": scaled, "probe_ms": sampler.median_probe_s() * 1000}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(args.work, f"{args.workload}.spans.tsv"))
    result["checks"] = _checks(check, out, args.seed, args.work)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
