"""Group spec mini-language: parsing, canonical printing, realization, roster."""

import hashlib

import numpy as np
import pytest

from compseries import (
    DomainError,
    GroupTable,
    SpecParseError,
    parse_spec,
    print_spec,
    realize,
    realize_text,
)
from compseries.catalog import (
    Abelian,
    Alternating,
    Cyclic,
    Dihedral,
    DirectProduct,
    ElemAbelian,
    QuaternionQ8,
    Symmetric,
    abelian_prime_partitions,
    is_abelian_spec,
    is_cyclic_spec,
    is_elem_sylow_spec,
    standard_roster,
)
from compseries.config import element_cap_in_force
from compseries.errors import CapacityError


# ---------------------------------------------------------------------------
# parsing


def test_parse_cyclic():
    assert parse_spec("Z360") == Cyclic(360)


def test_parse_product_of_alternating():
    spec = parse_spec("A5xA5")
    assert spec == DirectProduct((Alternating(5), Alternating(5)))
    assert spec.order() == 3600


def test_parse_mixed_elementary_product():
    spec = parse_spec("E(2,4)xE(3,2)xE(5,2)")
    assert spec.order() == 3600
    assert is_abelian_spec(spec) and is_elem_sylow_spec(spec)


def test_parse_ignores_whitespace():
    assert parse_spec(" Z 12 ") == Cyclic(12)
    assert parse_spec("E( 2 , 3 ) x Z5") == parse_spec("E(2,3)xZ5")


def test_parse_abelian_partitions():
    spec = parse_spec("Ab(2^2+1;3^1)")
    assert spec == Abelian(((2, (2, 1)), (3, (1,))))
    assert spec.order() == 24


def test_parse_syntax_errors_carry_position():
    for text in ["", "Zx", "Z12x", "W5", "Ab()", "Ab(2^)"]:
        with pytest.raises(SpecParseError) as exc:
            parse_spec(text)
        assert exc.value.position is not None


def test_parse_unsupported_degrees_are_domain_errors():
    for text in ["S6", "A6", "S0", "D5", "D4", "E(4,2)", "Ab(6^2)"]:
        with pytest.raises(DomainError):
            parse_spec(text)


# ---------------------------------------------------------------------------
# canonical printing


def test_print_sorts_product_factors():
    assert print_spec(parse_spec("A5xZ2")) == "Z2xA5"
    # ties on order break on spec text: "E(2,2)" < "Z4"
    assert print_spec(parse_spec("S3xZ4xE(2,2)")) == "E(2,2)xZ4xS3"


def test_print_round_trip():
    for text in ["Z360", "A5xA5", "Ab(2^2+1;3^1)", "D12xQ8", "E(2,4)xE(3,2)xE(5,2)"]:
        spec = parse_spec(text)
        again = parse_spec(print_spec(spec))
        assert print_spec(again) == print_spec(spec)
        assert again.order() == spec.order()


# ---------------------------------------------------------------------------
# structural predicates


def test_is_abelian_spec():
    assert is_abelian_spec(parse_spec("Z12xE(3,2)"))
    assert is_abelian_spec(parse_spec("S2"))  # S2 is Z2
    assert not is_abelian_spec(parse_spec("S3"))
    assert not is_abelian_spec(parse_spec("Z5xQ8"))


def test_abelian_prime_partitions():
    assert abelian_prime_partitions(parse_spec("Ab(2^2+1;3^1)")) == {
        2: (2, 1),
        3: (1,),
    }
    assert abelian_prime_partitions(parse_spec("Z12")) == {2: (2,), 3: (1,)}
    assert abelian_prime_partitions(parse_spec("E(2,3)xZ9")) == {2: (1, 1, 1), 3: (2,)}
    assert abelian_prime_partitions(parse_spec("S2xA3xZ4")) == {2: (2, 1), 3: (1,)}
    with pytest.raises(DomainError):
        abelian_prime_partitions(parse_spec("S4"))


def test_is_cyclic_and_elem_sylow_predicates():
    assert is_cyclic_spec(parse_spec("Z360"))
    assert is_cyclic_spec(parse_spec("Z4xZ3"))  # coprime factors, still cyclic
    assert not is_cyclic_spec(parse_spec("E(2,2)"))
    assert is_elem_sylow_spec(parse_spec("E(2,3)xE(3,2)"))
    assert is_elem_sylow_spec(parse_spec("Z30"))  # squarefree order
    assert not is_elem_sylow_spec(parse_spec("Z4"))


# ---------------------------------------------------------------------------
# realization


def test_realize_cyclic_is_modular_addition():
    G = realize_text("Z12")
    ar = np.arange(12)
    assert np.array_equal(G.mult, (ar[:, None] + ar[None, :]) % 12)


def test_realize_orders():
    for text, order in [
        ("S4", 24),
        ("S5", 120),
        ("A4", 12),
        ("A5", 60),
        ("D12", 12),
        ("Q8", 8),
        ("E(3,3)", 27),
        ("Ab(2^2+1;3^1)", 24),
        ("S3xZ4", 24),
    ]:
        assert realize_text(text).order == order, text


def test_realize_dihedral_and_symmetric_nonabelian():
    assert not realize_text("D12").is_abelian
    assert not realize_text("S3").is_abelian
    assert not realize_text("Q8").is_abelian


def test_realize_q8_structure():
    G = realize_text("Q8")
    # exactly one element of order 2 (the central -1)
    order2 = [x for x in range(1, 8) if G.mult[x, x] == 0]
    assert len(order2) == 1
    # every subgroup of Q8 is normal
    from compseries import all_subgroups, is_normal

    assert all(is_normal(G, H) for H in all_subgroups(G))


def test_realize_abelian_specs_commute():
    for text in ["E(2,4)", "Ab(2^3+2)", "Z4xZ6", "E(3,2)xZ5"]:
        assert realize_text(text).is_abelian, text


def test_realize_product_order_is_lexicographic():
    G = realize_text("Z2xZ3")
    # element (i, j) sits at index 3*i + j; (1,0)*(0,1) = (1,1) -> index 4
    assert G.mult[3, 1] == 4


def test_realize_cap():
    with element_cap_in_force(100), pytest.raises(CapacityError):
        realize_text("A5xA5")


def test_realize_trivial_atoms():
    assert realize_text("Z1").order == 1
    assert realize_text("S1").order == 1
    assert realize_text("A2").order == 1
    assert realize_text("E(2,0)").order == 1


def test_realized_tables_keep_their_numbering():
    def digest(G):
        return hashlib.sha256(str(G.mult.dtype).encode() + G.mult.tobytes()).hexdigest()

    lines = [f"{name} {digest(realize(spec))}\n" for name, spec in standard_roster(4096)]
    lines.append(f"A5xS4 {digest(realize_text('A5xS4'))}\n")
    # one digest per table, of its index dtype and its multiplication table,
    # as every table read when products were built in int64 and cast down
    combined = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert combined == "0f2318d70b30a5243786f126676b5aed5b8be8037fbfc337972aa741f5e2eb37"


# MD5 of mult.tobytes() for each permutation atom of the roster, and for two
# dihedral groups past it, as recorded when every table entry was composed
# from two permutation tuples
_PERMUTATION_TABLE_MD5 = {
    "D6": "50347c27fe545cb98599d34324fd4336",
    "D8": "3fa19c3bd40112ae29e57968ab1fa986",
    "D10": "b5bf0105cce0cc0ed8fae7a136bdac55",
    "D12": "63a4d77aa1a0bdb40c1c848f90d2fa29",
    "D16": "e9de70a067ab7341e2f396b93c5915c2",
    "D24": "5d68540397d947f861dd619a2d314073",
    "D32": "bd160ab2c3ab1a04a574cd323005267b",
    "D64": "3b492e99d4a72c3454a42a99b9e220f7",
    "Q8": "ce244565a8d547ae010223df70bbe2a8",
    "S3": "50347c27fe545cb98599d34324fd4336",
    "S4": "3c5270e84d2c8303c423e75da3d822f7",
    "S5": "b44b78d5e4798e440484ca39d0960a31",
    "A4": "f5e522d656a67ac6c1b3febddc80725b",
    "A5": "71729573ec2ff5e3dc05e48d739eb66a",
    "D510": "ab94a6bc1311ef0c742f1ce1ba6d857e",
    "D512": "c2a61679b6ee7ee0353d1fc1e07adb99",
}


def test_permutation_atom_tables_are_pinned():
    atoms = [
        name
        for name, spec in standard_roster(4096)
        if isinstance(spec, (Dihedral, QuaternionQ8, Symmetric, Alternating))
    ]
    assert sorted(atoms + ["D510", "D512"]) == sorted(_PERMUTATION_TABLE_MD5)
    for name, want in _PERMUTATION_TABLE_MD5.items():
        G = realize_text(name)
        assert G.mult.dtype == np.int16, name
        assert hashlib.md5(G.mult.tobytes()).hexdigest() == want, name


# MD5 of mult.tobytes() and the number of generators validation picked, for
# products of order up to 3,600, the tables as recorded when each product was
# validated over the least unreached indices (4, 4, 4, 4, 7 and 4 of them)
_PRODUCT_TABLE_PINS = {
    "A5xS4": ("769c3d4b90a926d5840d2bb03c947783", 2),
    "A5xA5": ("6ba569f6a13ba6a525a92993a5c1bee0", 3),
    "S4xS4": ("825f6ae644ad6226bff20b7989bc9563", 3),
    "Q8xQ8": ("8eea5004b3e8142f212fa4163fb5f70d", 4),
    "E(2,5)xA5": ("5887b7f5a6dceb85c4568d414a0c068b", 6),
    "S3xD10": ("9b66072c119cb9f01c0671246ba4382e", 3),
}


@pytest.mark.parametrize("text", sorted(_PRODUCT_TABLE_PINS))
def test_product_tables_are_pinned_whatever_generators_validate_them(text):
    digest, n_gens = _PRODUCT_TABLE_PINS[text]
    G = realize_text(text)
    assert hashlib.md5(G.mult.tobytes()).hexdigest() == digest
    assert len(G._gens) == n_gens


def test_product_candidates_pair_each_factors_generators():
    # S3 and D10 are each generated by their indices 1 and 2: the pairs are
    # (1, 1) = 11 and (2, 2) = 22; Z2xZ3xZ4 gets (1, 1, 1) = 12 + 4 + 1 = 17
    assert realize_text("S3xD10")._gens[:2] == [11, 22]
    assert realize_text("Z2xZ3xZ4")._gens[0] == 17


def test_roster_specs_and_names_realize_one_numbering():
    # tables are shared under their canonical name, whichever route realized them
    for name, spec in standard_roster(4096):
        assert np.array_equal(realize(spec).mult, realize_text(name).mult), name


@pytest.mark.parametrize(
    "text, calls", [("S4", 1), ("A5", 1), ("Q8", 1), ("D64", 1), ("A5xS4", 3)]
)
def test_realize_validates_each_table_once(monkeypatch, text, calls):
    validate, orders = GroupTable._validate, []

    def counted(self):
        orders.append(self.order)
        return validate(self)

    monkeypatch.setattr(GroupTable, "_validate", counted)
    realize_text(text)
    assert len(orders) == calls, orders


# ---------------------------------------------------------------------------
# roster


def test_roster_orders_match_arithmetic():
    roster = standard_roster(4096)
    assert len(roster) > 60
    for name, spec in roster:
        assert spec.order() <= 4096
        assert print_spec(spec) == name  # each roster text is canonical


def test_roster_realized_orders(roster_tables):
    for name, spec, G in roster_tables:
        assert G.order == spec.order(), name


def test_roster_contains_key_groups():
    names = {name for name, _ in standard_roster(4096)}
    assert {"E(2,6)", "E(2,8)", "S4", "S5", "A5", "Q8", "Z256"} <= names


def test_roster_max_order_filters():
    assert all(spec.order() <= 24 for _, spec in standard_roster(24))
