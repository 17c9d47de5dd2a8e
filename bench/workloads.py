"""The four benchmark workloads and the checks on their outputs.

Each workload has a ``run`` function, the timed pass, which returns the
outputs, and a ``check`` function, run after the pass, which returns a list
of ``(name, ok, detail)`` rows.  The workloads are fixed; the seed only picks
which outputs are re-validated by a second, independent route.

Only public names and stable CLI flags are used, ``jobs``/``--jobs`` is never
passed and ``enumerate`` output is consumed by iterating over it, so the
workloads keep working when those internals change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from compseries import bounds, catalog, cli, formulas, group_core, lattice, series, verification
from compseries.errors import DomainError

ENUM_LIMIT = 20000
ENUM_ORDERS = [1, 2, 4, 8, 16, 32, 64]
ENUM_SAMPLE = 4
SWEEP_N = 10**6


# ---------------------------------------------------------------------------
# verify_roster: what `compseries verify` runs, plus the formula agreement at
# order 128, which adds the series count of E(2,7)


def run_verify_roster(work):
    return {
        "verify": verification.run_verify(64),
        "agreement": verification.check_formula_oracle_agreement(128),
    }


_VERIFY_FAMILIES = (
    "series count ",
    "normal lattice ",
    "maximal count ",
    "coprime additivity ",
    "simple product ",
    "bound check ",
)


def check_verify_roster(out, seed, work):
    rows = []
    for r in out["verify"] + out["agreement"]:
        rows.append((f"row {r.name}", r.ok, f"{r.status} {r.detail}"))
    for family in _VERIFY_FAMILIES:
        n = sum(r.name.startswith(family) for r in out["verify"])
        rows.append((f"family {family.strip()}", n > 0, f"{n} rows"))
    names = {r.name for r in out["agreement"]}
    rows.append(("agreement covers E(2,7)", "series count E(2,7)" in names, ""))
    # Re-validate a few series counts by walking the chains instead of the memo.
    counts = {
        r.name[len("series count "):]: int(r.detail.split()[0].split("=")[1])
        for r in out["verify"]
        if r.name.startswith("series count ")
    }
    pool = [
        (name, spec)
        for name, spec in catalog.standard_roster(64)
        if name in counts and counts[name] <= 3000
    ]
    for name, spec in random.Random(seed).sample(pool, 3):
        got = sum(1 for _ in series.enumerate_series(catalog.realize(spec)))
        rows.append((f"chains of {name}", got == counts[name], f"{got} vs {counts[name]}"))
    return rows


# ---------------------------------------------------------------------------
# enumerate_e26: the `enumerate` command on E(2,6) with a fixed chain budget


def _enum_path(work):
    return os.path.join(work, "enumerate_e26.jsonl")


def run_enumerate_e26(work):
    path = _enum_path(work)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(
            [
                "enumerate",
                "--group",
                "E(2,6)",
                "--limit",
                str(ENUM_LIMIT),
                "--output",
                path,
                "--json",
            ]
        )
    return {"code": code, "report": report.getvalue(), "path": path}


def check_enumerate_e26(out, seed, work):
    rows = [("exit code", out["code"] == 0, str(out["code"]))]
    report = json.loads(out["report"].strip().splitlines()[-1])
    chains = report["result"]["chains"]
    rows.append(("report chains", chains == ENUM_LIMIT, str(chains)))
    picks = set(random.Random(seed).sample(range(ENUM_LIMIT), ENUM_SAMPLE))
    lines = 0
    seen = set()
    bad = []
    sampled = []
    with open(out["path"]) as fh:
        for i, line in enumerate(fh):
            lines += 1
            seen.add(line)
            obj = json.loads(line)
            subs = obj["subgroups"]
            if obj["orders"] != ENUM_ORDERS or [len(s) for s in subs] != ENUM_ORDERS:
                bad.append(i)
            if i in picks:
                sampled.append((i, subs))
    rows.append(("file lines", lines == ENUM_LIMIT, str(lines)))
    rows.append(("distinct lines", len(seen) == ENUM_LIMIT, str(len(seen))))
    rows.append(("well-formed lines", not bad, f"bad lines {bad[:5]}"))
    G = catalog.realize_text("E(2,6)")
    for i, subs in sampled:
        try:
            chain = series.CompositionChain(tuple(group_core.Subgroup(G, s) for s in subs))
            rows.append((f"validate_chain line {i}", series.validate_chain(chain), ""))
        except DomainError as exc:
            rows.append((f"validate_chain line {i}", False, str(exc)))
    return rows


# ---------------------------------------------------------------------------
# lattice_a5xs4: normal and maximal normal subgroups and the series count of
# A5 x S4 (order 1440, above the small-order split of group_core)


def run_lattice_a5xs4(work):
    G = catalog.realize_text("A5xS4")
    return {
        "group": G,
        "normal": lattice.normal_subgroups(G),
        "maximal": lattice.maximal_normal_subgroups(G),
        "count": series.count_series(G).value,
    }


def check_lattice_a5xs4(out, seed, work):
    # Normal subgroups of A5 x S4 are N1 x N2 with N1 in {1, A5} and N2 in
    # {1, V4, A4, S4}: 8 of them.  The maximal ones are A5 x A4 (index 2) and
    # 1 x S4 (quotient A5).  Series: c(A5xS4) = c(A5xA4) + c(S4) = 12 + 3,
    # with c(A5xA4) = c(A5xV4) + c(A4) = (3*2 + 3) + 3.
    G = out["group"]
    normal, maximal = out["normal"], out["maximal"]
    rows = [
        ("normal subgroups", len(normal) == 8, str(len(normal))),
        ("maximal normal subgroups", len(maximal) == 2, str(len(maximal))),
        ("maximal normal orders", maximal.orders() == [24, 720], str(maximal.orders())),
        ("series count", out["count"] == 15, str(out["count"])),
        (
            "normal orders",
            normal.orders() == [1, 4, 12, 24, 60, 240, 720, 1440],
            str(normal.orders()),
        ),
    ]
    for H in random.Random(seed).sample(list(normal), 2):
        rows.append((f"is_normal order {H.order}", group_core.is_normal(G, H), ""))
    return rows


# ---------------------------------------------------------------------------
# sweep_1e6: the paper's order sweep to 10^6 with the per-order equality scan


def run_sweep_1e6(work):
    return {"result": bounds.sweep_theorem_43(SWEEP_N, per_order=True)}


def check_sweep_1e6(out, seed, work):
    res = out["result"]
    powers = [2**k for k in range(2, 20)]
    rows = [
        ("no violations", not res.violations, str(len(res.violations))),
        ("attainers", res.equality_attainers == [524288], str(res.equality_attainers)),
        ("per-order attainers", res.per_order_attainers == powers, str(res.per_order_attainers)),
        ("max ratio", res.max_ratio == "1.000000", res.max_ratio),
    ]
    # Recompute a few orders through the closed forms instead of the sieve.
    bound_n = bounds.bound(SWEEP_N)
    attainers = set(res.per_order_attainers)
    for m in random.Random(seed).sample(range(4, SWEEP_N + 1), 3):
        cand = formulas.count_abelian_elem_sylow(formulas.factorize(m))
        ok = cand <= bound_n and (m in attainers) == (cand == bounds.bound(m))
        rows.append((f"order {m}", ok, f"candidate {cand}"))
    return rows


WORKLOADS = {
    "verify_roster": (run_verify_roster, check_verify_roster),
    "enumerate_e26": (run_enumerate_e26, check_enumerate_e26),
    "lattice_a5xs4": (run_lattice_a5xs4, check_lattice_a5xs4),
    "sweep_1e6": (run_sweep_1e6, check_sweep_1e6),
}
