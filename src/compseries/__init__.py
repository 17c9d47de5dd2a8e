"""Exact counting and enumeration of composition series of small finite groups.

Brute-force lattice oracles, closed-form counts, and exact inequality
checkers for the global bound prod_{i<=log2 n} (2^i - 1), all in exact
integer arithmetic.
"""

from .errors import CapacityError, CompseriesError, DomainError, SpecParseError
from .group_core import (
    GroupTable,
    Subgroup,
    build_from_generators,
    conjugacy_classes,
    generated_subgroup,
    is_normal,
    quotient,
)
from .lattice import (
    SubgroupSet,
    all_subgroups,
    is_simple,
    maximal_normal_subgroups,
    maximal_subgroups_count,
    normal_subgroups,
)
from .series import (
    CompositionChain,
    SeriesCount,
    composition_factor_orders,
    count_series,
    enumerate_series,
    validate_chain,
)
from .formulas import (
    Factorization,
    count_abelian,
    count_abelian_elem_sylow,
    count_cyclic,
    count_elem_abelian,
    factorize,
    maximal_subgroup_count_formula,
    multinomial,
)
from .bounds import (
    InequalityParams,
    SweepRecord,
    SweepResult,
    bound,
    check_induction_base,
    check_inequality_1,
    check_inequality_2,
    check_step4,
    lemma41_ratio_exceeds_one,
    sweep_theorem_43,
)
from .catalog import parse_spec, print_spec, realize, realize_text, standard_roster

__version__ = "0.1.0"
