"""Formula AST, parser/renderer, and macro expanders.

The macro tests enumerate every assignment of the vector atoms for all
lengths up to 4 and compare the expansion's propositional truth value
against the arithmetic predicate the macro implements.
"""

import hashlib
import itertools
import pathlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from bimodal import formula as fm
from bimodal import atm, red_s4s5, red_ssl, translations
from bimodal.formula import (Atom, Not, And, Or, Implies, Iff, K, Box, L,
                             Diamond, FormulaVector, true_formula,
                             false_formula)
from bimodal.reduction import ReductionParams, gen_formula

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def test_each_connective_interns_its_own_nodes():
    """Each connective has its own table keyed by the operands alone, so
    nodes of different connectives over one operand, or a conjunction with
    its operands swapped, never meet."""
    f = And(Atom(0), Atom(1))
    assert len({id(Not(f)), id(K(f)), id(Box(f))}) == 3
    assert (Not(f).kind, K(f).kind, Box(f).kind) == (fm.NOT, fm.KMOD, fm.BOXMOD)
    assert And(Atom(0), Atom(1)) is not And(Atom(1), Atom(0))


def intern_table_size():
    return sum(map(len, (fm._atoms, fm._nots, fm._ands, fm._ks, fm._boxes)))


def test_units_are_built_once():
    assert true_formula() is true_formula()
    assert false_formula() is false_formula()
    parts = [Atom(1), Atom(2), true_formula()]
    fm.conj(parts), fm.disj(parts)
    before = intern_table_size()
    for _ in range(1000):
        fm.conj(parts)
        fm.disj(parts)
        fm.conj([])
        fm.disj([])
    assert intern_table_size() == before


def test_derived_connectives_expand_to_core():
    a, b = Atom(0), Atom(1)
    assert Or(a, b) is Not(And(Not(a), Not(b)))
    assert Implies(a, b) is Not(And(a, Not(b)))
    assert Iff(a, b) is And(Implies(a, b), Implies(b, a))
    assert L(a) is Not(K(Not(a)))
    assert Diamond(a) is Not(Box(Not(a)))


CONSTRUCTORS = [(Not, 1), (And, 2), (K, 1), (Box, 1), (Or, 2), (Implies, 2),
                (Iff, 2), (L, 1), (Diamond, 1)]


@pytest.mark.parametrize("constructor, arity", CONSTRUCTORS,
                         ids=[c.__name__ for c, _ in CONSTRUCTORS])
@pytest.mark.parametrize("bad", ["x0", None, 3, [Atom(0)]],
                         ids=["str", "None", "int", "list"])
def test_constructors_reject_a_non_formula_operand(constructor, arity, bad):
    """A node's operands are checked when it is first built, one bad
    operand at a time in each place; a list cannot even be hashed."""
    for place in range(arity):
        operands = [Atom(0), Not(Atom(1))][:arity]
        operands[place] = bad
        with pytest.raises(TypeError) as err:
            constructor(*operands)
        assert str(err.value) == f"expected Formula, got {type(bad).__name__}"


@pytest.mark.parametrize("index", [True, False, -1, 1.0, "1", None])
def test_atom_rejects_a_non_natural_index(index):
    """True == 1, so without its own check Atom(True) would find Atom(1)
    in the intern table."""
    Atom(1), Atom(0)
    with pytest.raises(ValueError, match="atom index must be a natural number"):
        Atom(index)


def test_true_false_canonical_forms():
    assert fm.render(true_formula()) == "!(x0 & !x0)"
    assert fm.render(false_formula()) == "(x0 & !x0)"


def test_subformulas_and_atoms():
    f = And(K(Atom(2)), Not(Box(Atom(5))))
    subs = fm.subformulas(f)
    assert Atom(2) in subs and Box(Atom(5)) in subs and f in subs
    assert fm.atoms(f) == {2, 5}


def reference_subformulas(f):
    """The subformulas of f by recursion on its tree."""
    return {f}.union(*(reference_subformulas(t) for t in (f.left, f.right)
                       if t is not None))


@pytest.mark.parametrize("seed", range(3))
def test_postorder_lists_each_subformula_once_after_its_operands(seed):
    rng = random.Random(seed)
    for _ in range(100):
        f = random_formula(rng, rng.randint(0, 8))
        order = fm.postorder(f)
        assert order[-1] is f
        assert len(set(order)) == len(order)
        assert set(order) == reference_subformulas(f) == fm.subformulas(f)
        position = {t: i for i, t in enumerate(order)}
        for i, t in enumerate(order):
            assert all(position[c] < i for c in (t.left, t.right)
                       if c is not None)
        assert fm.postorder(f) is order  # computed once


def test_postorder_of_a_deep_chain_needs_no_recursion():
    f = Atom(1)
    for _ in range(100_000):
        f = Not(f)
    order = fm.postorder(f)
    assert len(order) == 100_001
    assert order[0] is Atom(1) and order[-1] is f
    assert all(t.left is order[i] for i, t in enumerate(order[1:]))
    assert fm.atoms(f) == {1}


def test_postorder_rejects_a_non_formula():
    with pytest.raises(TypeError, match="expected Formula, got str"):
        fm.postorder("x0")


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


# --- reference text syntax ------------------------------------------------
# A tree walk that renders every occurrence of a subformula, and a parser
# that scans the whole text before it runs the grammar: render and parse
# work per shared subformula instead and must give the same text, the same
# formula and the same error, message and offset.

def reference_render(f):
    out = []
    stack = [f]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
            continue
        if t.kind == fm.ATOM:
            out.append("x" + format(t.value, "b"))
        elif t.kind == fm.NOT:
            out.append("!")
            stack.append(t.left)
        elif t.kind == fm.KMOD:
            out.append("K")
            stack.append(t.left)
        elif t.kind == fm.BOXMOD:
            out.append("[]")
            stack.append(t.left)
        else:
            out.append("(")
            stack.extend([")", t.right, " & ", t.left])
    return "".join(out)


REFERENCE_TOKEN = re.compile(r"\s*(?:(x[01]+|<->|->|\[\]|<>|[()&|!KLTF])|(x)|(\S))")
REFERENCE_CONSTANTS = {"T": true_formula, "F": false_formula}
REFERENCE_PREFIX = {"!": Not, "K": K, "[]": Box, "L": L, "<>": Diamond}
REFERENCE_BINOP = {"&": And, "|": Or, "->": Implies, "<->": Iff}


def reference_tokens(text):
    for m in REFERENCE_TOKEN.finditer(text):
        tok, bare_x, other = m.groups()
        if bare_x:
            raise fm.ParseError("atom symbol x must be followed by a binary numeral",
                                m.start(2))
        if other:
            raise fm.ParseError(f"unexpected character {other!r}", m.start(3))
        yield tok, m.start(1)


def reference_parse(text):
    tokens = list(reference_tokens(text))
    frames = [[None, None, None, [], 0]]

    def settle(value, off):
        fr = frames[-1]
        for p in reversed(fr[3]):
            value = REFERENCE_PREFIX[p](value)
        fr[3] = []
        if fr[0] is None:
            fr[0] = value
        elif fr[2] is None:
            fr[2] = value
        else:
            raise fm.ParseError("expected a closing parenthesis", off)

    for tok, off in tokens:
        fr = frames[-1]
        if tok in REFERENCE_BINOP:
            if fr[0] is None or fr[3]:
                raise fm.ParseError("operator with no left operand", off)
            if fr[1] is not None and fr[2] is None:
                raise fm.ParseError("operand expected before second operator", off)
            if fr[1] is not None:
                raise fm.ParseError("chained operators require parentheses", off)
            if len(frames) == 1:
                raise fm.ParseError("binary operators require parentheses", off)
            fr[1] = tok
        elif tok == ")":
            if len(frames) == 1:
                raise fm.ParseError("unmatched closing parenthesis", off)
            if fr[0] is None or fr[3]:
                raise fm.ParseError("empty or incomplete parenthesized formula", off)
            if fr[1] is not None and fr[2] is None:
                raise fm.ParseError("operator missing its right operand", off)
            combined = fr[0]
            if fr[1] is not None:
                combined = REFERENCE_BINOP[fr[1]](fr[0], fr[2])
            frames.pop()
            settle(combined, off)
        elif fr[0] is not None and fr[1] is None:
            raise fm.ParseError("expected an operator or closing parenthesis", off)
        elif tok == "(":
            frames.append([None, None, None, [], off])
        elif tok in REFERENCE_PREFIX:
            fr[3].append(tok)
        elif tok in REFERENCE_CONSTANTS:
            settle(REFERENCE_CONSTANTS[tok](), off)
        else:
            settle(Atom(int(tok[1:], 2)), off)

    if len(frames) != 1:
        raise fm.ParseError("unclosed parenthesis", frames[-1][4])
    fr = frames[0]
    if fr[0] is None or fr[3]:
        raise fm.ParseError("incomplete formula", len(text))
    return fr[0]


def outcome(parser, text):
    """The formula parsed, or the error's message and offset."""
    try:
        return parser(text)
    except fm.ParseError as err:
        return str(err), err.offset


def reduction_texts():
    """Canonical texts of f-ssl, f-s4s5 and their translations for m1 on
    ab and bounce on bab at counter widths 4 and 5."""
    machines = {"m1": ROOT / "fixtures" / "m1.atm",
                "bounce": ROOT / "bench" / "machines" / "bounce.atm"}
    words = {"m1": "ab", "bounce": "bab"}
    out = {}
    for name, path in machines.items():
        machine = atm.parse_atm(path.read_text())
        w = words[name]
        for N in (4, 5):
            params = ReductionParams(machine, [N - len(w), 1], w)
            f_ssl, _ = gen_formula(red_ssl.SSL, params)
            f_s4s5, _ = gen_formula(red_s4s5.S4S5, params)
            out[f"{name}-N{N}-f-ssl"] = f_ssl
            out[f"{name}-N{N}-f-s4s5"] = f_s4s5
            out[f"{name}-N{N}-t-ssl-s4s5"] = translations.t_ssl_to_s4s5(f_ssl).formula
            out[f"{name}-N{N}-t-s4s5-k4s5"] = translations.t_s4s5_to_k4s5(f_s4s5).formula
    return out


def same_text(got, expected):
    """got == expected, failing with the first differing offset: pytest's
    own diff of two texts this long would take minutes."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        pytest.fail(f"texts of {len(got)} and {len(expected)} characters "
                    f"differ from offset {at}")


def test_render_matches_the_tree_walk_on_the_reductions():
    for name, f in reduction_texts().items():
        text = fm.render(f)
        same_text(text, reference_render(f))
        assert fm.rendered_size(f) == len(text), name
        if "-f-" in name:
            assert fm.parse(text) is f, name
            assert reference_parse(text) is f, name


# SHA-256 prefixes of the rendered texts of generated formulas, as
# written when each connective had a checked and an unchecked builder:
# the texts must not change.
FORMULA_DIGESTS = {
    "f-ssl-m1-ab-2,1": "0383e9ba9a91740ec357b95df3c4d76f",
    "f-s4s5-m1-ab-2,1": "2f59cdb03ac1fd7ad479d0a03a4ad9ea",
    "t-ssl-s4s5-m1-ab-2,1": "be5648d645fbe52cfd6fe8191ac49d79",
    "t-s4s5-k4s5-m1-ab-2,1": "f649487327963934282a58dd4d55f0e2",
    "f-ssl-bounce-bab-1,1": "638ebc8ac1dc4a8f2081177ef29c7b84",
    "f-s4s5-bounce-bab-1,1": "33cd5bcc0b40583b92b31fe36f5b2933",
    "f-ssl-bounce-bab-2,1": "8820ff70d6c3becfb7f6e17e738a53a4",
    "f-s4s5-bounce-bab-2,1": "6b074037ee4748fc0d9f23a04e55b6ac",
    "counter-ssl-1": "1e81eea3b4aa2e4109388b1e4528bc2d",
    "counter-s4s5-1": "c43abbb7a5f722b9295e8b273ef7bc57",
    "counter-ssl-2": "d3a68f5842a6c3c33cbdb2bc5ff4d002",
    "counter-s4s5-2": "f947372a967198b6136240542645a17e",
    "counter-ssl-3": "2ecffb864618d8ca40a730bdad524d1b",
    "counter-s4s5-3": "b2ac16235440f1c8c50a96212fb42620",
    "counter-ssl-4": "4c5fd3e2f426742a6e2f9d627f9ec7cc",
    "counter-s4s5-4": "8091ee371b8cea8f827e2f98f88b21f5",
    "counter-ssl-5": "07639a0513271391517f7a22570c8dea",
    "counter-s4s5-5": "b62022b68a2f61051d81acdb2ee3a94e",
}


def generated_formulas():
    """name -> formula for every entry of FORMULA_DIGESTS."""
    machines = {"m1": ROOT / "fixtures" / "m1.atm",
                "bounce": ROOT / "bench" / "machines" / "bounce.atm"}
    out = {}
    for name, w, poly in [("m1", "ab", (2, 1)), ("bounce", "bab", (1, 1)),
                          ("bounce", "bab", (2, 1))]:
        params = ReductionParams(atm.parse_atm(machines[name].read_text()),
                                 poly, w)
        tag = f"{name}-{w}-{poly[0]},{poly[1]}"
        f_ssl, _ = red_ssl.gen_f_ssl(params)
        f_s4s5, _ = red_s4s5.gen_f_s4s5(params)
        out[f"f-ssl-{tag}"] = f_ssl
        out[f"f-s4s5-{tag}"] = f_s4s5
        if name == "m1":
            out[f"t-ssl-s4s5-{tag}"] = translations.t_ssl_to_s4s5(f_ssl).formula
            out[f"t-s4s5-k4s5-{tag}"] = translations.t_s4s5_to_k4s5(f_s4s5).formula
    for n in range(1, 6):
        out[f"counter-ssl-{n}"] = red_ssl.gen_counter_ssl(n)[0]
        out[f"counter-s4s5-{n}"] = red_s4s5.gen_counter_s4s5(n)[0]
    return out


def test_generated_texts_are_unchanged():
    digests = {name: hashlib.sha256(fm.render(f).encode()).hexdigest()[:32]
               for name, f in generated_formulas().items()}
    assert digests == FORMULA_DIGESTS


def test_render_all_matches_one_render_per_formula():
    """One walk over several formulas reuses a long subformula's text
    across them and gives each formula the text `render` gives it."""
    long = And(Implies(Atom(5), K(Atom(6))), Box(Or(Atom(7), Atom(4))))
    pair = And(long, Not(long))
    assert fm.rendered_size(long) >= 32
    short = [Atom(0), Not(Atom(1)), Box(And(Atom(2), Atom(3)))]
    assert all(fm.rendered_size(f) < 32 for f in short)
    rng = random.Random(31)
    formulas = ([And(long, Atom(1)), K(long)] + short
                + [long, long, Box(pair), pair, pair, Diamond(pair)]
                + [random_formula(rng, 6) for _ in range(20)])
    texts = list(fm.render_all(formulas))
    assert texts == [fm.render(f) for f in formulas]
    assert texts == [reference_render(f) for f in formulas]
    assert all(fm.parse(text) is f for text, f in zip(texts, formulas))
    assert list(fm.render_all([])) == []


def test_rendered_size_builds_no_text():
    f = Atom(0)
    for k in range(1, 61):
        f = And(f, f)
        if k == 12:  # 28,667 characters: small enough to render
            same_text(fm.render(f), reference_render(f))
            assert fm.parse(fm.render(f)) is f
    # "x0" is 2 characters and each doubling adds "(", " & " and ")"
    assert fm.rendered_size(f) == 7 * 2 ** 60 - 5


EDIT_CHARACTERS = "x01()&|!KLTF[]<>- \t$y"


def edited(rng, text, edits):
    """text with up to `edits` random insertions, deletions or replacements."""
    chars = list(text)
    for _ in range(rng.randint(0, edits)):
        i = rng.randrange(len(chars) + 1)
        what = rng.choice(["insert", "delete", "replace"])
        if what == "insert" or i == len(chars):
            chars.insert(i, rng.choice(EDIT_CHARACTERS))
        elif what == "delete":
            del chars[i]
        else:
            chars[i] = rng.choice(EDIT_CHARACTERS)
    return "".join(chars)


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.1:
        return Atom(rng.randrange(4))
    op = rng.choice([Not, K, Box, And, And, And])
    if op is And:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return op(random_formula(rng, depth - 1))


# Contexts for two copies A and B of one parenthesized span.
TWO_COPIES = ["({A} & {B})", "K({A} -> !{B})", "(({A} & x1) | {B})", "{A} {B}",
              "({A} & ({B} <-> {A}))", "!{A}", "(x0 & {B})", "L({A} & [](x0 & {B}))"]


@pytest.mark.parametrize("seed", range(4))
def test_parse_matches_reference_on_repeated_spans(seed):
    rng = random.Random(seed)
    for _ in range(250):
        span = fm.render(And(random_formula(rng, 6), random_formula(rng, 6)))
        text = rng.choice(TWO_COPIES).format(A=span, B=edited(rng, span, 2))
        if rng.random() < 0.25:
            text = edited(rng, text, 2)
        assert outcome(fm.parse, text) == outcome(reference_parse, text), text


S = "(((x0 & x1) & (x10 & !x11)) & Kx0)"  # long enough to be reused


# A grammar error ahead of a lexical error that sits after a reused span:
# the lexical error is reported.
@pytest.mark.parametrize("text,message,offset", [
    (f"({S} & {S} x1) $", "unexpected character '$'", 77),
    (f"({S} & x0 {S}) $", "unexpected character '$'", 77),
    (f"(({S} & {S}) x0 y)", "unexpected character 'y'", 78),
    (f"(({S} & {S}) x0 x)", "atom symbol x must be followed by a binary numeral", 78),
    (f"({S} & x0 {S})", "expected a closing parenthesis", 74),
])
def test_grammar_error_after_reused_span_yields_to_lexical(monkeypatch, text,
                                                           message, offset):
    reused = []

    def spy(*args):
        reused.append(repeated_span(*args))
        return reused[-1]

    repeated_span = fm._repeated_span
    monkeypatch.setattr(fm, "_repeated_span", spy)
    expected = (f"{message} (at offset {offset})", offset)
    assert outcome(fm.parse, text) == expected
    assert any(reused)
    assert outcome(reference_parse, text) == expected



def test_parse_finds_spans_that_share_their_first_32_characters(monkeypatch):
    """Chains of 40 to 80 conjuncts over the same atoms, conjoined: every
    chain's text opens with at least 32 parentheses, so all their spans
    share their first 32 characters and differ in length.  Each chain is
    the one before it with one more conjunct, so after the first chain the
    parser finds each shorter chain inside the next one in one lookup."""
    atoms = [Atom(i) for i in range(80)]
    f = fm.conj([fm.conj(atoms[:m]) for m in range(40, 81)])
    text = fm.render(f)
    found = []

    def spy(*args):
        found.append(repeated_span(*args))
        return found[-1]

    repeated_span = fm._repeated_span
    monkeypatch.setattr(fm, "_repeated_span", spy)
    assert fm.parse(text) is f
    assert [length for length, _ in filter(None, found)] == [
        len(fm.render(fm.conj(atoms[:m]))) for m in range(40, 80)]
    # nothing is looked up before the first chain is parsed; then each
    # longer chain misses at its own opening parenthesis and finds the
    # chain before it at the next one
    assert len(found) == 2 * 40
    # the same spans in a different order, and one chain of another
    # length that shares them, parse like the reference
    again = fm.render(fm.conj([fm.conj(atoms[:m]) for m in (70, 45, 70, 60, 45)]))
    assert outcome(fm.parse, again) == outcome(reference_parse, again)

# --- repr ----------------------------------------------------------------------

def test_repr_of_a_short_formula_is_its_text():
    f = And(Atom(0), K(Not(Atom(5))))
    assert repr(f) == "Formula((x0 & K!x101))"
    exact = f
    while exact.size < 120:
        exact = Not(exact)
    assert repr(exact) == f"Formula({fm.render(exact)})"
    longer = Not(exact)
    assert repr(longer) == "Formula(" + fm.render(longer)[:117] + "...)"


def test_repr_of_a_long_formula_walks_only_its_prefix():
    f = Atom(0)
    for _ in range(20):
        f = And(f, f)
    assert f.size > 7_000_000
    tracemalloc.start()
    try:
        text = repr(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert text == "Formula(" + fm.render(f)[:117] + "...)"
    g = Box(Diamond(Atom(3)))
    for i in range(40):
        g = And(Atom(2 ** 40 + i), g)
    assert repr(g) == "Formula(" + fm.render(g)[:117] + "...)"


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
