"""Shared fixtures: a session-wide cache of realized catalog groups.

Realized tables carry per-instance caches (normal subgroups, series counts),
so sharing one GroupTable per spec across test modules avoids recounting the
expensive groups (E(2,8) brute force dominates the suite otherwise).
"""

import sys

import pytest

from compseries import catalog


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
    """Canonical name -> GroupTable, shared by the whole session."""
    return {}


@pytest.fixture(scope="session")
def realized(tables):
    """Memoized realize-by-text: realized('E(2,6)') -> shared GroupTable."""

    def get(text):
        key = catalog.print_spec(catalog.parse_spec(text))
        if key not in tables:
            tables[key] = catalog.realize_text(key)
        return tables[key]

    return get


@pytest.fixture(scope="session")
def roster_tables(realized):
    """[(canonical name, spec, shared GroupTable)] for roster orders <= 256."""
    out = []
    for name, spec in catalog.standard_roster(256):
        out.append((name, spec, realized(name)))
    return out
