"""Cross-checks between the brute-force lattice/series oracles and the
closed-form counts, packaged so both the CLI `verify` command and the test
suite can run them.

Each check returns a CheckResult row; ``status`` is PASS, FAIL, SKIP, or
FINDING (a surprising-but-not-failing observation, e.g. a concrete group
beating the bound, which would contradict the main theorem).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds, catalog, formulas, group_core, lattice, series


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP | FINDING
    detail: str = ""

    @property
    def ok(self):
        return self.status in ("PASS", "SKIP", "FINDING")


# lattice-equivalence checks walk the full subgroup lattice; elementary abelian
# groups past these sizes have hundreds of thousands of subgroups
_LATTICE_HEAVY = {"E(2,7)", "E(2,8)", "Z9xZ9", "E(3,4)"}


def _table(tables, name, spec):
    """The table of ``spec``, realized on first use and kept in ``tables`` under ``name``."""
    if name not in tables:
        tables[name] = catalog.realize(spec)
    return tables[name]


def _realized(roster, tables):
    if tables is None:
        tables = {}
    for name, spec in roster:
        yield name, spec, _table(tables, name, spec)


def check_formula_oracle_agreement(order_cap=256, tables=None):
    """Brute series count vs the cyclic / elementary / abelian formulas.

    Each Sylow type (p, partition) is counted on one table: the roster's own
    p-group of that type when there is one, else a table realized once.

    ``tables``, when given, maps canonical names to realized tables; the check
    reads its groups from it and adds those it realizes, so the checks of one
    run share each table and its cached counts.
    """
    if tables is None:
        tables = {}
    roster = [
        (n, s) for n, s in catalog.standard_roster(order_cap) if catalog.is_abelian_spec(s)
    ]
    groups = [
        (name, spec, G, catalog.abelian_prime_partitions(spec))
        for name, spec, G in _realized(roster, tables)
    ]
    sylow = {}
    for _, _, G, parts in groups:
        if len(parts) == 1:
            (key,) = parts.items()
            sylow.setdefault(key, G)
    rows = []
    for name, spec, G, parts in groups:
        brute = series.count_series(G).value
        fac = formulas.Factorization(tuple((p, sum(es)) for p, es in parts.items()))
        sylow_counts = []
        for key in parts.items():
            if key not in sylow:
                spec = catalog.Abelian((key,))
                sylow[key] = _table(tables, catalog.print_spec(spec), spec)
            sylow_counts.append(series.count_series(sylow[key]).value)
        expect = formulas.count_abelian(fac, sylow_counts) if parts else 1
        ok = brute == expect
        if ok and catalog.is_elem_sylow_spec(spec):
            ok = brute == formulas.count_abelian_elem_sylow(fac)
        if ok and catalog.is_cyclic_spec(spec):
            ok = brute == formulas.count_cyclic(fac)
        rows.append(
            CheckResult(
                f"series count {name}",
                "PASS" if ok else "FAIL",
                f"brute={brute} formula={expect}",
            )
        )
    return rows


def check_lattices(order_cap=256, tables=None):
    """Each roster group's subgroup lattice, built once, against two oracles.

    ``normal lattice`` rows: the masks of ``lattice.normal_member_sets`` on
    the whole group agree with filtering the lattice by is_normal.  On an
    abelian group that compares the descent through maximal subgroups with
    the join closure of the cyclic subgroups, on any other the class-seed
    join closure with the filter.  Every filtered mask is a validated
    ``Subgroup``, so a mask that is not a subgroup fails the row.
    ``maximal count`` rows, after them: the number of maximal proper
    subgroups agrees with the elementary-Sylow formula, for the groups it
    covers.
    """
    roster = [
        (n, s) for n, s in catalog.standard_roster(min(order_cap, 128)) if n not in _LATTICE_HEAVY
    ]
    normal_rows, maximal_rows = [], []
    for name, spec, G in _realized(roster, tables):
        subs = lattice.all_subgroups(G)
        filtered = {s.mask for s in subs if group_core.is_normal(G, s)}
        direct = set(lattice.normal_member_sets(G, (1 << G.order) - 1, G._gens))
        normal_rows.append(
            CheckResult(
                f"normal lattice {name}",
                "PASS" if filtered == direct else "FAIL",
                f"filter={len(filtered)} direct={len(direct)}",
            )
        )
        if G.order == 1 or not catalog.is_elem_sylow_spec(spec):
            continue
        brute = len(lattice._maximal_among(subs.masks(), G.order))
        expect = formulas.maximal_subgroup_count_formula(formulas.factorize(G.order))
        maximal_rows.append(
            CheckResult(
                f"maximal count {name}",
                "PASS" if brute == expect else "FAIL",
                f"brute={brute} formula={expect}",
            )
        )
    return normal_rows + maximal_rows


def check_coprime_additivity():
    """m(P1 x P2) = m(P1) + m(P2) for coprime-order pairs."""
    pairs = [("Z4", "Z3"), ("E(2,2)", "Z3"), ("S3", "Z5"), ("Q8", "Z3"), ("Z9", "Z8")]
    rows = []
    for t1, t2 in pairs:
        g1 = catalog.realize_text(t1)
        g2 = catalog.realize_text(t2)
        gp = catalog.realize_text(f"{t1}x{t2}")
        lhs = lattice.maximal_subgroups_count(gp)
        rhs = lattice.maximal_subgroups_count(g1) + lattice.maximal_subgroups_count(g2)
        rows.append(
            CheckResult(
                f"coprime additivity {t1}x{t2}",
                "PASS" if lhs == rhs else "FAIL",
                f"product={lhs} sum={rhs}",
            )
        )
    return rows


def check_simple_products(order_cap=256):
    """Products of k simple groups: 2^k normal subgroups, k maximal normal."""
    rows = []
    cases = [("A5", 1)]
    if order_cap >= 3600:
        cases.append(("A5xA5", 2))
    for text, k in cases:
        G = catalog.realize_text(text)
        nn = len(lattice.normal_subgroups(G))
        mn = len(lattice.maximal_normal_subgroups(G))
        ok = nn == 2**k and mn == k
        rows.append(
            CheckResult(
                f"simple product {text}",
                "PASS" if ok else "FAIL",
                f"normals={nn} (want {2**k}) maximal={mn} (want {k})",
            )
        )
    rows.append(
        CheckResult(
            "simple product A5xA5xA5", "SKIP", "order 216000 exceeds the element cap"
        )
    )
    return rows


def check_bound_over_catalog(order_cap=256, tables=None):
    """count_series(G) <= bound(order_cap) for every catalog group.

    An excess would contradict the main bound; it is reported as a FINDING so
    the verify report surfaces it rather than hiding it behind an assertion.
    """
    rows = []
    cap = max(order_cap, 4)
    b = bounds.bound(cap)
    alpha = bounds.ilog(2, cap)
    expected_attainer = catalog.print_spec(catalog.parse_spec(f"E(2,{alpha})"))
    for name, spec, G in _realized(catalog.standard_roster(order_cap), tables):
        cnt = series.count_series(G).value
        if cnt > b:
            rows.append(
                CheckResult(
                    f"bound check {name}",
                    "FINDING",
                    f"count {cnt} exceeds bound {b}",
                )
            )
        elif cnt == b and name != expected_attainer:
            rows.append(
                CheckResult(
                    f"bound check {name}", "FAIL", f"unexpected equality at {name}"
                )
            )
        else:
            rows.append(CheckResult(f"bound check {name}", "PASS", f"{cnt} <= {b}"))
    return rows


def run_verify(order_cap=64):
    """Every check, sharing one table per roster entry."""
    tables = {}
    rows = []
    rows += check_formula_oracle_agreement(order_cap, tables)
    rows += check_lattices(order_cap, tables)
    rows += check_coprime_additivity()
    rows += check_simple_products(order_cap)
    rows += check_bound_over_catalog(order_cap, tables)
    return rows
