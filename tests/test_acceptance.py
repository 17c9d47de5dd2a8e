"""Acceptance gate: the nine headline requirements, one pass/fail line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL — <summary>` so the suite output
doubles as the acceptance report.  Expensive shared work (brute counts of the
order-256 roster) flows through the session-scoped fixtures in conftest.py.
"""

import random
import time
from collections import Counter

import pytest

from compseries import (
    bound,
    composition_factor_orders,
    count_series,
    enumerate_series,
    maximal_normal_subgroups,
    maximal_subgroups_count,
    normal_subgroups,
    validate_chain,
)
from compseries.bounds import InequalityParams, check_induction_base, check_inequality_1, check_inequality_2, check_step4, ilog, lemma41_ratio_exceeds_one, primes_upto, sweep_theorem_43
from compseries.catalog import realize_text
from compseries.formulas import (
    count_cyclic,
    count_elem_abelian,
    maximal_subgroup_count_formula,
)
from compseries import series as series_mod
from compseries.verification import check_formula_oracle_agreement


# one line per criterion; echoed in the terminal summary by conftest so the
# report survives pytest's output capture
ACCEPTANCE_LINES = []


def report(n, ok, summary):
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} — {summary}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, f"acceptance criterion {n}: {summary}"


def test_acceptance_1_elementary_abelian_64():
    """E(2,6): formula and brute force both give 615195, under 5 seconds."""
    t0 = time.monotonic()
    formula = count_elem_abelian(2, 6)
    brute = count_series(realize_text("E(2,6)")).value
    elapsed = time.monotonic() - t0
    ok = formula == brute == 615195 and elapsed < 5.0
    report(1, ok, f"formula={formula} brute={brute} in {elapsed:.2f}s (< 5s)")


def test_acceptance_2_cyclic_360():
    """Z360: formula and brute force both give 60, under 1 second."""
    t0 = time.monotonic()
    formula = count_cyclic(360)
    brute = count_series(realize_text("Z360")).value
    elapsed = time.monotonic() - t0
    ok = formula == brute == 60 and elapsed < 1.0
    report(2, ok, f"formula={formula} brute={brute} in {elapsed:.2f}s (< 1s)")


def test_acceptance_3_maximal_subgroup_counts():
    """m(3600) = 25 by formula; scaled brute cross-check on Z2xZ2xZ3 gives 4."""
    big = maximal_subgroup_count_formula(3600)
    small_formula = maximal_subgroup_count_formula(12)
    small_brute = maximal_subgroups_count(realize_text("Z2xZ2xZ3"))
    ok = big == 25 and small_formula == small_brute == 4
    report(3, ok, f"m(3600)={big} (want 25); m(12) formula={small_formula} brute={small_brute}")


def test_acceptance_4_a5_x_a5_normal_structure():
    """A5xA5 has exactly 4 normal and 2 maximal normal subgroups, under 60 s."""
    t0 = time.monotonic()
    G = realize_text("A5xA5")
    normals = len(normal_subgroups(G))
    maximal = len(maximal_normal_subgroups(G))
    elapsed = time.monotonic() - t0
    ok = normals == 4 and maximal == 2 and elapsed < 60.0
    report(4, ok, f"normals={normals} (want 4) maximal={maximal} (want 2) in {elapsed:.1f}s (< 60s)")


def test_acceptance_5_abelian_oracle_formula_equivalence(tables):
    """Every abelian roster spec of order <= 256: brute count = formula values."""
    rows = check_formula_oracle_agreement(256, tables)
    bad = [(r.name, r.detail) for r in rows if r.status != "PASS"]
    ok = len(rows) >= 30 and not bad
    report(5, ok, f"{len(rows)} abelian specs checked, {len(bad)} mismatches {bad[:3]}")


def test_acceptance_6_million_order_sweep():
    """Sweep to 10^6: zero violations, unique attainer 524288, under 2 minutes."""
    t0 = time.monotonic()
    res = sweep_theorem_43(10**6)
    elapsed = time.monotonic() - t0
    ok = res.violations == [] and res.equality_attainers == [524288] and elapsed < 120.0
    report(
        6,
        ok,
        f"violations={len(res.violations)} attainers={res.equality_attainers} "
        f"max_ratio={res.max_ratio} in {elapsed:.1f}s (< 120s)",
    )


def test_acceptance_7_inequality_grids():
    """All inequality checkers hold on their full grids, under 10 seconds."""
    t0 = time.monotonic()
    failures = []

    # monotone-ratio and product-factorial grids: p in {3,5,7,11,13},
    # alpha_r 1..6 (>= 2 when p = 3), alpha1 0..20
    for p in (3, 5, 7, 11, 13):
        for ar in range(1, 7):
            if p == 3 and ar == 1:
                continue
            if not check_induction_base(p, ar):
                failures.append(("induction-base", p, ar))
            for a1 in range(21):
                params = InequalityParams.make(a1, ar, p)
                if not lemma41_ratio_exceeds_one(params):
                    failures.append(("ratio", p, ar, a1))
                if not check_inequality_2(params):
                    failures.append(("inequality-2", p, ar, a1))

    # inequality (1) over 4 <= n <= 10^5, all odd primes p <= n, via the exact
    # block reduction (RHS constant and LHS minimal at n = max(p^e, 4))
    limit = 10**5
    for p in primes_upto(limit)[1:]:
        pe = p
        while pe <= limit:
            if not check_inequality_1(max(pe, 4), p):
                failures.append(("inequality-1", pe, p))
            pe *= p

    for a1 in range(1, 41):
        if not check_step4(a1):
            failures.append(("step4", a1))

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    report(7, ok, f"{len(failures)} grid failures in {elapsed:.2f}s (< 10s)")


def test_acceptance_8_random_chain_validity(roster_tables):
    """1000 random enumerated chains (orders <= 128) all validate; the
    factor-order multiset is constant per group."""
    rng = random.Random(20260825)
    pool = []
    jh_bad = []
    for name, spec, G in roster_tables:
        if G.order > 128:
            continue
        chains = list(enumerate_series(G, limit=60))
        ref = composition_factor_orders(chains[0])
        for ch in chains:
            if composition_factor_orders(ch) != ref:
                jh_bad.append(name)
        pool.extend(chains)
    picks = [rng.choice(pool) for _ in range(1000)]
    invalid = 0
    for ch in picks:
        try:
            validate_chain(ch)
        except Exception:
            invalid += 1
    ok = invalid == 0 and not jh_bad and len(pool) >= 500
    report(
        8,
        ok,
        f"validated 1000 chains drawn from a pool of {len(pool)}: "
        f"{invalid} invalid, {len(set(jh_bad))} factor-multiset violations",
    )


def test_acceptance_9_catalog_bound_check(roster_tables):
    """Every roster group of order <= 256 stays within bound(256); equality
    exactly on E(2,8)."""
    b = bound(256)
    over = []
    attainers = []
    for name, spec, G in roster_tables:
        cnt = count_series(G).value
        if cnt > b:
            over.append((name, cnt))
        elif cnt == b:
            attainers.append(name)
    ok = not over and attainers == ["E(2,8)"]
    report(
        9,
        ok,
        f"{len(roster_tables)} groups vs bound(256)={b}: "
        f"{len(over)} over, equality on {attainers}",
    )
