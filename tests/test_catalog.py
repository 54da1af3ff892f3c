"""Variable catalog: stable family/key -> atom assignments."""

import pytest

from bimodal.catalog import VariableCatalog, CatalogError
from bimodal import formula as fm


def test_assign_and_lookup():
    cat = VariableCatalog()
    cat.assign("B", None, 0)
    cat.assign("A", 0, 1)
    cat.assign("A", 1, 2)
    assert cat.atom("B") == 0
    assert cat.atom("A", 1) == 2
    assert cat.formula("A", 0) is fm.Atom(1)
    assert ("A", 1, 2) in cat.entries()
    assert len(cat) == 3


def test_assign_next_is_sequential():
    cat = VariableCatalog()
    assert cat.assign_next("A", 0) == 0
    assert cat.assign_next("A", 1) == 1
    assert cat.assign_next("X", "q0") == 2


def test_double_assignment_rejected():
    cat = VariableCatalog()
    cat.assign("A", 0, 1)
    with pytest.raises(CatalogError):
        cat.assign("A", 0, 2)
    with pytest.raises(CatalogError):
        cat.assign("X", 5, 1)


def test_missing_lookup_raises():
    cat = VariableCatalog()
    with pytest.raises(CatalogError):
        cat.atom("A", 0)


def test_vector_is_msb_first():
    cat = VariableCatalog()
    for k in range(3):
        cat.assign_next("A", k)
    vec = cat.vector("A", 3)
    assert len(vec) == 3
    # entry 0 is the most significant bit; .bit indexes from the lsb
    assert vec.bit(2) is fm.Atom(cat.atom("A", 2))
    assert vec.bit(0) is fm.Atom(cat.atom("A", 0))


def test_bits_are_the_atoms_at_the_ones_of_a_value():
    cat = VariableCatalog()
    for k in range(4):
        cat.assign_next("A", k)
    assert cat.bits("A", 0) == []
    assert cat.bits("A", 0b1011) == [cat.atom("A", 3), cat.atom("A", 1),
                                     cat.atom("A", 0)]
    with pytest.raises(ValueError, match="bits of 'A' need a natural number, got -1"):
        cat.bits("A", -1)


def test_dump_load_round_trip():
    cat = VariableCatalog()
    cat.assign("B", None, 0)
    cat.assign_next("A_time", 0)
    cat.assign_next("A_state", "q0")
    text = cat.dump()
    back = VariableCatalog.load(text)
    assert back.entries() == cat.entries()
    assert back.dump() == text
