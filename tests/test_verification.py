"""The cross-check suite behind the CLI `verify` command."""

import hashlib
from collections import Counter

from compseries import catalog, lattice, series, verification


def test_run_verify_small_cap_all_ok():
    rows = verification.run_verify(order_cap=32)
    assert rows
    bad = [r for r in rows if not r.ok]
    assert bad == [], bad


def test_verify_includes_skip_for_triple_product():
    rows = verification.run_verify(order_cap=32)
    skips = [r for r in rows if r.status == "SKIP"]
    assert any("A5xA5xA5" in r.name for r in skips)


def test_check_result_ok_semantics():
    assert verification.CheckResult("x", "PASS").ok
    assert verification.CheckResult("x", "SKIP").ok
    assert verification.CheckResult("x", "FINDING").ok
    assert not verification.CheckResult("x", "FAIL").ok


def test_agreement_realizes_each_sylow_type_once(monkeypatch):
    realized = Counter()
    realize = catalog.realize

    def counted(spec):
        realized[catalog.print_spec(spec)] += 1
        return realize(spec)

    monkeypatch.setattr(catalog, "realize", counted)
    rows = verification.check_formula_oracle_agreement(128)
    roster = [s for _, s in catalog.standard_roster(128) if catalog.is_abelian_spec(s)]
    types, roster_types = set(), set()
    for spec in roster:
        parts = catalog.abelian_prime_partitions(spec).items()
        types.update(parts)
        if len(parts) == 1:
            roster_types.update(parts)
    assert sum(realized.values()) == len(roster) + len(types - roster_types)
    assert set(realized.values()) == {1}
    assert len(rows) == 51 and all(r.status == "PASS" for r in rows)
    details = {r.name: r.detail for r in rows}
    assert details["series count E(2,7)"] == "brute=78129765 formula=78129765"
    # the rows as they read when every Sylow type was realized afresh per group
    text = "\n".join(f"{r.name}\t{r.status}\t{r.detail}" for r in rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "84a7712ae7ffc91d9b63637d613aa02d5abfbd3f5a959689113f3179f67bb118"


def test_run_verify_walks_each_group_once(monkeypatch):
    made, walks, lattices = {}, Counter(), Counter()
    realize, count_series = catalog.realize, series.count_series
    all_subgroups = lattice.all_subgroups

    def realized(spec):
        G = realize(spec)
        made[id(G)] = (catalog.print_spec(spec), G)  # G kept alive: ids stay unique
        return G

    def counted(G):
        result = count_series(G)
        if result.method == "brute-force":
            walks[made[id(G)][0]] += 1
        return result

    def enumerated(G):
        lattices[id(G)] += 1
        made.setdefault(id(G), (f"order {G.order}", G))
        return all_subgroups(G)

    monkeypatch.setattr(catalog, "realize", realized)
    monkeypatch.setattr(series, "count_series", counted)
    monkeypatch.setattr(lattice, "all_subgroups", enumerated)
    rows = verification.run_verify(128)
    assert rows and all(r.ok for r in rows)
    assert {name for name, _ in catalog.standard_roster(128)} <= set(walks)
    assert set(walks.values()) == {1}, [n for n, c in walks.items() if c > 1]
    # one subgroup lattice per table serves its normal-lattice and maximal-count rows
    repeated = [made[i][0] for i, c in lattices.items() if c > 1]
    assert len(lattices) == 92 and repeated == []


def test_a_normal_lattice_mask_that_is_no_subgroup_fails_its_row(monkeypatch):
    # the row compares masks: a mask the lattice routine adds is checked
    # against the validated subgroups of the filtered side, not validated twice
    normal_member_sets = lattice.normal_member_sets

    def one_more(G, mask, gens):
        # bit 0 clear: {1} holds no identity, so it is no subgroup
        return normal_member_sets(G, mask, gens) + [0b10]

    rows = verification.check_lattices(16)
    normal = [r for r in rows if r.name.startswith("normal lattice ")]
    assert normal and all(r.status == "PASS" for r in normal)
    monkeypatch.setattr(lattice, "normal_member_sets", one_more)
    rows = verification.check_lattices(16)
    normal = [r for r in rows if r.name.startswith("normal lattice ")]
    assert normal and all(r.status == "FAIL" for r in normal), normal
