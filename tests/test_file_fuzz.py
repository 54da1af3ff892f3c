"""File contents fuzzed with Hypothesis: the model, machine, tree and
formula readers refuse a bad text with a ValueError or a KeyError and
nothing else, what they accept behaves, and `check` and `atm run` on any
such file end in an exit code.

Texts are built from each reader's line forms, mostly well formed, and
bent by CRLF line ends, stray whitespace, `|` and non-ASCII characters in
names and now and then a line that fits no form.  The examples are
derandomized, so every run tries the same texts."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from bimodal import atm as am, formula as fm
from bimodal.cli import main
from bimodal.semantics import FRAME_CLASSES, load_model, save_model, validate

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

SPACE = st.sampled_from([" ", "  ", "\t", " \t"])
JUNK = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)),
               max_size=8)


def rarely(draw, strategy, usual, odds=10):
    """A draw of strategy one time in odds, else usual."""
    return draw(strategy) if draw(st.integers(1, odds)) == 1 else usual


@st.composite
def texts(draw, lines):
    """The lines drawn by lines, each field list joined by a space (now
    and then by other whitespace, with whitespace around it, or replaced
    by junk), with LF or CRLF line ends and maybe no final line end."""
    out = []
    for fields in draw(lines):
        text = rarely(draw, SPACE, " ").join(fields)
        text = rarely(draw, SPACE, "") + text + rarely(draw, SPACE, "")
        out.append(rarely(draw, JUNK, text, odds=40))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from([end, ""]))


@st.composite
def model_lines(draw):
    """World lines, pairs and val lines over a few names, an optional class
    and designated line, in any order; a name now and then not a world."""
    names = ["a", "b", "w0", "a|b", "b|a", "0|x", "é", "ü|1", "ß"]
    worlds = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4,
                           unique=True))

    def name():
        return rarely(draw, st.sampled_from(names),
                      draw(st.sampled_from(worlds)))

    lines = [["world", w] for w in worlds]
    lines += [[draw(st.sampled_from("dl")), name(), name()]
              for _ in range(draw(st.integers(0, 8)))]
    lines += [["val", draw(st.sampled_from(["0", "1", "12"])), name()]
              for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        lines.append(["class", rarely(draw, st.just("nope"),
                                      draw(st.sampled_from(FRAME_CLASSES)))])
    if draw(st.booleans()):
        lines.append(["designated", name()])
    lines.append(draw(st.sampled_from([["#", "note"], [""], ["world", "a"]])))
    return draw(st.permutations(lines))


def run_cli(argv):
    """main's exit code on argv, asserting that it is 0, 1 or 2 and that no
    traceback was printed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


@FUZZ
@given(text=texts(model_lines()))
def test_model_texts(tmp_path_factory, text):
    """An accepted model saves to a fixed point of save-then-load and
    validates against every class; `check` on its file ends in an exit
    code."""
    try:
        model = load_model(text)
    except (ValueError, KeyError):
        model = None
    if model is not None:
        saved = save_model(model)
        assert save_model(load_model(saved)) == saved
        for frame_class in FRAME_CLASSES:
            validate(model, frame_class)
    root = tmp_path_factory.getbasetemp()
    path, formula = root / "fuzz.model", root / "fuzz.formula"
    path.write_bytes(text.encode("utf-8"))
    formula.write_text("(x0 & K[]x1)\n")
    run_cli(["check", "--model", str(path), "--formula", str(formula)])


STATES = ["q0", "q1", "qa", "qr"]


@st.composite
def machine_lines(draw):
    """A four-state machine over # a b with one or two transitions for each
    inner state and symbol, in any order, now and then with a field
    dropped, a line repeated, or a transition cut or bent."""
    exists, forall = draw(st.permutations(["q0", "q1"]))
    lines = [["symbols:", "#", "a", "b"], ["input:", "a", "b"],
             ["states:", *STATES], ["exists:", exists], ["forall:", forall],
             ["accept:", "qa"], ["reject:", "qr"],
             ["init:", rarely(draw, st.sampled_from(["q9", "qa"]), "q0")]]
    for q in ("q0", "q1"):
        for a in "#ab":
            for _ in range(draw(st.integers(1, 2))):
                lines.append(["delta:", q, a, "->", draw(st.sampled_from(STATES)),
                              draw(st.sampled_from("#ab")),
                              rarely(draw, st.just("S"), draw(st.sampled_from("LR")),
                                     odds=40)])
    lines = draw(st.permutations(lines))
    if draw(st.integers(0, 9)) == 0:
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    if draw(st.integers(0, 9)) == 0:
        lines.append(lines[draw(st.integers(0, len(lines) - 1))][:-1])
    if draw(st.integers(0, 9)) == 0:
        lines.append(lines[draw(st.integers(0, len(lines) - 1))])
    return lines


@FUZZ
@given(text=texts(machine_lines()), w=st.text("ab", max_size=3),
       fuel=st.integers(0, 6))
def test_machine_texts(tmp_path_factory, text, w, fuel):
    """A parsed machine renders to a fixed point and searches for a tree on
    any word within fuel <= 6; `atm run` on its file ends in an exit
    code."""
    try:
        machine = am.parse_atm(text)
    except (ValueError, KeyError):
        machine = None
    if machine is not None:
        rendered = am.render_atm(machine)
        assert am.render_atm(am.parse_atm(rendered)) == rendered
        try:
            tree = am.find_accepting_tree(machine, w, fuel)
        except (ValueError, KeyError):
            tree = None
        assert tree is None or am.validate_tree(machine, w, tree).ok
    path = tmp_path_factory.getbasetemp() / "fuzz.atm"
    path.write_bytes(text.encode("utf-8"))
    run_cli(["atm", "run", "--atm", str(path), "--w", w, "--fuel", str(fuel)])


@st.composite
def tree_lines(draw):
    """Nodes listed in id order, each child under an earlier node, now and
    then with a bad id, parent, head or cell."""
    integer = st.sampled_from(["0", "1", "-1", "x", "01"])

    def bent(strategy, usual):
        return rarely(draw, strategy, usual, odds=30)

    lines = []
    for v in range(draw(st.integers(1, 5))):
        parent = "-" if v == 0 else str(draw(st.integers(0, v - 1)))
        cells = [f"{draw(st.integers(-2, 3))}={draw(st.sampled_from('ab'))}"
                 for _ in range(draw(st.integers(0, 2)))]
        lines.append(["node", bent(integer, str(v)),
                      bent(st.sampled_from(["-", "9"]), parent),
                      draw(st.sampled_from(STATES + ["é"])),
                      bent(integer, str(draw(st.integers(-2, 3)))),
                      *cells, *bent(st.just(["3", "4=", "=b"]), [])])
    return lines


@FUZZ
@given(text=texts(tree_lines()))
def test_tree_texts(text):
    """An accepted tree saves to a text that reads back to the same text."""
    try:
        tree = am.load_tree(text)
    except (ValueError, KeyError):
        return
    saved = am.save_tree(tree)
    assert am.save_tree(am.load_tree(saved)) == saved


PREFIXES = ["!", "K", "[]", "L", "<>"]
BINARY = ["&", "|", "->", "<->"]
NOISE = ["(", ")", "x", "x2", "é", "&", "!"]


def formula_texts():
    """Formula texts from atoms, units, prefixes and parenthesized binary
    connectives, with stray whitespace; now and then a token of noise."""
    leaf = st.sampled_from(["x0", "x1", "x10", "T", "F"])
    space = st.sampled_from(["", "", " ", "\t"])
    text = st.recursive(leaf, lambda kids: st.one_of(
        st.tuples(st.sampled_from(PREFIXES), space, kids).map("".join),
        st.tuples(kids, space, st.sampled_from(BINARY), space, kids)
        .map(lambda t: f"({''.join(t)})")), max_leaves=8)
    return st.tuples(text, st.lists(st.tuples(st.integers(0), st.sampled_from(NOISE)),
                                    max_size=1))


@FUZZ
@given(drawn=formula_texts())
def test_formula_texts(drawn):
    """A parsed formula renders to a text that parses to the same node."""
    text, noise = drawn
    for at, token in noise:
        at %= len(text) + 1
        text = text[:at] + token + text[at:]
    try:
        f = fm.parse(text)
    except (ValueError, KeyError):
        return
    assert fm.parse(fm.render(f)) is f
