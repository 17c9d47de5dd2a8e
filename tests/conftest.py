"""Shared fixtures: a session-wide cache of realized catalog groups.

Realized tables carry per-instance caches (normal subgroups, series counts),
so sharing one GroupTable per spec across test modules avoids recounting the
expensive groups (E(2,8) brute force dominates the suite otherwise).
"""

import sys

import pytest

from compseries import catalog, group_core


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criteria report lines after the run."""
    for name, mod in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(mod, "ACCEPTANCE_LINES", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            break


@pytest.fixture(scope="session")
def tables():
    """Spec text -> GroupTable, shared by the whole session."""
    return {}


@pytest.fixture(scope="session")
def realized(tables):
    """Memoized realize-by-text: realized('E(2,6)') -> shared GroupTable.

    The table is keyed on the text it is given and numbered as that text is,
    so realized('A5xS4') is A5xS4, not the S4xA5 of its canonical name.  A
    roster name is canonical, and realizes the roster spec's numbering.
    """

    def get(text):
        if text not in tables:
            tables[text] = catalog.realize_text(text)
        return tables[text]

    return get


@pytest.fixture(scope="session")
def roster_tables(realized):
    """[(canonical name, spec, shared GroupTable)] for roster orders <= 256."""
    out = []
    for name, spec in catalog.standard_roster(256):
        out.append((name, spec, realized(name)))
    return out


@pytest.fixture(scope="session")
def heisenberg3():
    """The Heisenberg group mod 3 (order 27, exponent 3), acting on Z3^2."""
    pt = [(a, b) for a in range(3) for b in range(3)]
    x = [pt.index(((a + 1) % 3, b)) for a, b in pt]
    y = [pt.index((a, (b + a) % 3)) for a, b in pt]
    return group_core.build_from_generators(9, [x, y])
