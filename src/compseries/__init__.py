"""Exact counting and enumeration of composition series of small finite groups.

Brute-force lattice oracles, closed-form counts, and exact inequality
checkers for the global bound prod_{i<=log2 n} (2^i - 1), all in exact
integer arithmetic.

A package-level name binds on first access (PEP 562): ``import
compseries`` loads no submodule but ``errors``, and the first read of
``compseries.count_series`` imports ``compseries.series`` and binds the
name.  So a caller pays at import only for the modules it uses.
"""

from .errors import CapacityError, CompseriesError, DomainError, SpecParseError

__version__ = "0.1.0"

# each lazy public name, by the submodule that defines it
_LAZY = {
    name: module
    for module, names in (
        (
            "group_core",
            "GroupTable Subgroup build_from_generators conjugacy_classes"
            " generated_subgroup is_normal quotient",
        ),
        (
            "lattice",
            "SubgroupSet all_subgroups is_simple maximal_normal_subgroups"
            " maximal_subgroups_count normal_subgroups",
        ),
        (
            "series",
            "CompositionChain SeriesCount composition_factor_orders count_series"
            " enumerate_series validate_chain",
        ),
        (
            "formulas",
            "Factorization count_abelian count_abelian_elem_sylow count_cyclic"
            " count_elem_abelian factorize maximal_subgroup_count_formula multinomial",
        ),
        (
            "bounds",
            "InequalityParams SweepRecord SweepResult bound check_induction_base"
            " check_inequality_1 check_inequality_2 check_step4"
            " lemma41_ratio_exceeds_one sweep_theorem_43",
        ),
        ("catalog", "parse_spec print_spec realize realize_text standard_roster"),
    )
    for name in names.split()
}

__all__ = ["CapacityError", "CompseriesError", "DomainError", "SpecParseError", *_LAZY]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
