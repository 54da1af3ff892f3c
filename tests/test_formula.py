"""Formula AST, parser/renderer, and macro expanders.

The macro tests enumerate every assignment of the vector atoms for all
lengths up to 4 and compare the expansion's propositional truth value
against the arithmetic predicate the macro implements.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from bimodal import formula as fm
from bimodal.formula import (Atom, Not, And, Or, Implies, Iff, K, Box, L,
                             Diamond, FormulaVector, true_formula,
                             false_formula)


def peval(f, assign):
    """Propositional evaluation; modal operators are not allowed here."""
    if f.kind == fm.ATOM:
        return assign[f.value]
    if f.kind == fm.NOT:
        return not peval(f.left, assign)
    if f.kind == fm.AND:
        return peval(f.left, assign) and peval(f.right, assign)
    raise AssertionError(f"modal operator in propositional context: {f.kind}")


def vectors(l):
    """Two disjoint atom vectors of length l (msb-first entries)."""
    F = FormulaVector.of_atoms(range(l - 1, -1, -1))
    G = FormulaVector.of_atoms(range(2 * l - 1, l - 1, -1))
    return F, G


def decode(value_bits, base, l):
    """Number encoded by atoms base..base+l-1 under an assignment."""
    return sum(1 << k for k in range(l) if value_bits[base + k])


def assignments(width):
    for bits in itertools.product([False, True], repeat=width):
        yield dict(enumerate(bits))


# --- constructors and structure -------------------------------------------

def test_interning_gives_identity_equality():
    assert And(Atom(1), Not(Atom(2))) is And(Atom(1), Not(Atom(2)))
    assert Atom(3) is not Atom(4)


def test_derived_connectives_expand_to_core():
    a, b = Atom(0), Atom(1)
    assert Or(a, b) is Not(And(Not(a), Not(b)))
    assert Implies(a, b) is Not(And(a, Not(b)))
    assert Iff(a, b) is And(Implies(a, b), Implies(b, a))
    assert L(a) is Not(K(Not(a)))
    assert Diamond(a) is Not(Box(Not(a)))


def test_true_false_canonical_forms():
    assert fm.render(true_formula()) == "!(x0 & !x0)"
    assert fm.render(false_formula()) == "(x0 & !x0)"


def test_subformulas_and_atoms():
    f = And(K(Atom(2)), Not(Box(Atom(5))))
    subs = fm.subformulas(f)
    assert Atom(2) in subs and Box(Atom(5)) in subs and f in subs
    assert fm.atoms(f) == {2, 5}


def test_node_count_and_rendered_size():
    f = And(Atom(0), Not(Atom(1)))
    assert fm.rendered_size(f) == len(fm.render(f))


# --- parser / renderer ------------------------------------------------------

@pytest.mark.parametrize("text", [
    "x0", "!x1100", "(x0 & x1)", "(x0 | x1)", "(x0 -> x1)", "(x0 <-> x1)",
    "Kx0", "[]x0", "Lx0", "<>x0", "K[]!(x11 & !x100)",
])
def test_parse_render_round_trip(text):
    f = fm.parse(text)
    assert fm.parse(fm.render(f)) is f


def test_parse_errors_carry_offset():
    with pytest.raises(fm.ParseError) as err:
        fm.parse("(x0 & )")
    assert err.value.offset == 6


def test_parse_rejects_trailing_garbage():
    with pytest.raises(fm.ParseError):
        fm.parse("x0 x1")


# At least one input per reachable message; a lexical error (the first two
# messages) comes ahead of any grammar error, and an atom's offset is its x.
@pytest.mark.parametrize("text,message,offset", [
    ("xa", "atom symbol x must be followed by a binary numeral", 0),
    ("(x0 & x", "atom symbol x must be followed by a binary numeral", 6),
    ("x0 $", "unexpected character '$'", 3),
    (") <", "unexpected character '<'", 2),
    ("x0 x1", "expected an operator or closing parenthesis", 3),
    ("x0 !x1", "expected an operator or closing parenthesis", 3),
    ("x0 (x1)", "expected an operator or closing parenthesis", 3),
    ("(x0 & x1 x0)", "expected a closing parenthesis", 9),
    ("(& x0)", "operator with no left operand", 1),
    ("(!& x0)", "operator with no left operand", 2),
    ("(x0 & & x1)", "operand expected before second operator", 6),
    ("(x0 & x1 & x0)", "chained operators require parentheses", 9),
    ("x0 & x1", "binary operators require parentheses", 3),
    ("x0)", "unmatched closing parenthesis", 2),
    ("()", "empty or incomplete parenthesized formula", 1),
    ("(x0 & !)", "empty or incomplete parenthesized formula", 7),
    ("(x0 & )", "operator missing its right operand", 6),
    ("(x0", "unclosed parenthesis", 0),
    ("(x0 & (x1", "unclosed parenthesis", 6),
    ("!", "incomplete formula", 1),
    ("", "incomplete formula", 0),
    ("K \u00a0", "incomplete formula", 3),
])
def test_parse_error_message_and_offset(text, message, offset):
    with pytest.raises(fm.ParseError) as err:
        fm.parse(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@given(st.lists(st.sampled_from([
    "x", "0", "1", "x0", "x101", "(", ")", "&", "|", "!", "K", "L", "T", "F",
    "[]", "<>", "->", "<->", " ", "\t", "\u00a0", "<", "-", "[", "]", "$", "y",
]), max_size=20).map("".join))
def test_parse_returns_a_formula_or_raises_parse_error(text):
    try:
        f = fm.parse(text)
    except fm.ParseError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert fm.parse(fm.render(f)) is f


formula_strategy = st.deferred(lambda: st.one_of(
    st.integers(min_value=0, max_value=5).map(Atom),
    formula_strategy.map(Not),
    formula_strategy.map(K),
    formula_strategy.map(Box),
    st.tuples(formula_strategy, formula_strategy).map(lambda p: And(*p)),
))


@given(formula_strategy)
def test_render_parse_is_identity(f):
    assert fm.parse(fm.render(f)) is f


@given(formula_strategy)
def test_rendered_size_matches_render(f):
    assert fm.rendered_size(f) == len(fm.render(f))


# --- numeric helpers ---------------------------------------------------------

def test_ones_bit_bin_str():
    assert fm.ones(0) == set()
    assert fm.ones(5) == {0, 2}
    assert fm.bit(2, 5) == 1 and fm.bit(1, 5) == 0


# --- comparison and bit macros: exhaustive truth tables ---------------------

@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_eq_vector_truth_table(l):
    F, G = vectors(l)
    for k in range(-1, l):
        expansion = fm.eq_vector(F, G, k)
        for a in assignments(2 * l):
            x, y = decode(a, 0, l), decode(a, l, l)
            expected = (x >> (k + 1)) == (y >> (k + 1))
            assert peval(expansion, a) == expected


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_eq_binary_truth_table(l):
    F, _ = vectors(l)
    for i in range(2 ** l):
        expansion = fm.eq_binary(F, i)
        for a in assignments(l):
            assert peval(expansion, a) == (decode(a, 0, l) == i)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_rightmost_zero_and_one_truth_tables(l):
    F, _ = vectors(l)
    for k in range(l):
        zero = fm.rightmost_zero(F, k)
        one = fm.rightmost_one(F, k)
        for a in assignments(l):
            x = decode(a, 0, l)
            low_zero = min((h for h in range(l) if not (x >> h) & 1),
                           default=None)
            low_one = min((h for h in range(l) if (x >> h) & 1), default=None)
            assert peval(zero, a) == (low_zero == k)
            assert peval(one, a) == (low_one == k)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_unique_truth_table(l):
    F, _ = vectors(l)
    expansion = fm.unique(F)
    for a in assignments(l):
        assert peval(expansion, a) == (sum(a.values()) == 1)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("op,pred", [
    (fm.neq, lambda x, y: x != y),
    (fm.lt, lambda x, y: x < y),
    (fm.leq, lambda x, y: x <= y),
    (fm.plus1, lambda x, y: x == y + 1),
    (fm.neq_plus1, lambda x, y: x != y + 1),
])
def test_vector_comparison_truth_tables(l, op, pred):
    F, G = vectors(l)
    expansion = op(F, G)
    for a in assignments(2 * l):
        x, y = decode(a, 0, l), decode(a, l, l)
        assert peval(expansion, a) == pred(x, y)


def test_plus1_is_false_on_overflow():
    # the successor macro has no carry out of the top bit: G all-ones
    # never satisfies it, whatever F encodes
    l = 3
    F, G = vectors(l)
    expansion = fm.plus1(F, G)
    for a in assignments(2 * l):
        if decode(a, l, l) == 2 ** l - 1:
            assert not peval(expansion, a)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("op,pred", [
    (fm.lt_binary, lambda x, i: x < i),
    (fm.leq_binary, lambda x, i: x <= i),
    (fm.gt_binary, lambda x, i: x > i),
], ids=lambda f: f.__name__.removesuffix("_binary"))
def test_constant_comparison_truth_tables(l, op, pred):
    F, _ = vectors(l)
    for i in range(2 ** l):
        expansion = op(F, i)
        for a in assignments(l):
            assert peval(expansion, a) == pred(decode(a, 0, l), i)


def test_macro_argument_validation():
    F, _ = vectors(2)
    H, _ = vectors(3)
    with pytest.raises(ValueError):
        fm.eq_vector(F, H)
    with pytest.raises(ValueError):
        fm.eq_binary(F, 4)
    with pytest.raises(ValueError):
        fm.rightmost_zero(F, 2)


# --- modal macros: structural expansions ------------------------------------

def test_persistent_macro_expansion():
    F = FormulaVector.of_atoms([0])
    assert fm.persistent_macro(F) is K(Or(Box(Atom(0)), Box(Not(Atom(0)))))
    G = FormulaVector.of_atoms([1, 0])
    assert fm.persistent_macro(G) is And(
        K(Or(Box(Atom(1)), Box(Not(Atom(1))))),
        K(Or(Box(Atom(0)), Box(Not(Atom(0))))))
    assert fm.persistent_macro(G, 0) is K(Or(Box(Atom(1)), Box(Not(Atom(1)))))


def test_shared_variable_shapes():
    a, b = Atom(3), Atom(9)
    assert fm.shared_ssl(a, b) is L(And(a, Box(L(b))))
    assert fm.shared_s4s5(a) is L(a)


def test_conj_disj_unit_handling():
    parts = [Atom(1), true_formula(), Atom(2)]
    assert fm.conj(parts) is And(Atom(1), Atom(2))
    assert fm.conj([]) is true_formula()
    assert fm.disj([]) is false_formula()
    assert fm.disj([false_formula(), Atom(1)]) is Atom(1)
    # only the neutral element is dropped; annihilators stay explicit
    assert fm.conj([false_formula(), Atom(1)]) is And(false_formula(), Atom(1))
    assert fm.disj([true_formula(), Atom(1)]) is Or(true_formula(), Atom(1))
