"""The command-line surface, pinned option by option, and a Hypothesis
fuzz of `cli.main` over that surface: no argument list and no input file
may end in anything but an exit code of the README's contract."""

import argparse
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bimodal import formula as fm, satbound
from bimodal.cli import build_parser, main
from bimodal.red_ssl import build_counter_ssl_model, gen_counter_ssl
from bimodal.semantics import FRAME_CLASSES, save_model
from tests.conftest import M1_PATH
from tests.test_cli import SCANNER


def subcommands():
    """{name: its actions but --help} for each subcommand of the CLI."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


def arg(dest, required=False, choices=None, default=None, type=None):
    return (dest, required, choices, default, type)


MACHINE = {"--atm": arg("atm"), "--w": arg("w"), "--poly": arg("poly")}
MODEL = {"--model": arg("model", True), "--point": arg("point")}
FORMULA = {"--formula": arg("formula", True)}
OUT = {"--out": arg("out")}
LOGIC = {"--logic": arg("logic", True, ("ssl", "s4s5"))}
WIDTH = {"--n": arg("n", type="int")}

SURFACE = {
    "gen": {"kind": arg("kind", True, ("counter-ssl", "counter-s4s5",
                                       "f-ssl", "f-s4s5")),
            **WIDTH, **MACHINE, **OUT, "--catalog": arg("catalog")},
    "build": {"what": arg("what", True, ("model",)), **LOGIC, **MACHINE, **OUT,
              "--tree-out": arg("tree_out")},
    "check": {**MODEL, **FORMULA,
              "--class": arg("frame_class", False, FRAME_CLASSES)},
    "extract": {"kind": arg("kind", True, ("trace", "tree")), **LOGIC, **MODEL,
                **WIDTH, **MACHINE, **OUT},
    "translate": {"kind": arg("kind", True, ("ssl-s4s5", "s4s5-k4s5")),
                  **FORMULA, **OUT},
    "lift": {**MODEL, **FORMULA, **OUT},
    "restrict": {**MODEL, **FORMULA, **OUT},
    "sat": {**FORMULA, "--class": arg("frame_class", True, FRAME_CLASSES),
            "--bound": arg("bound", default=satbound.DEFAULT_MAX_POINTS,
                           type="int"),
            "--max-atoms": arg("max_atoms", default=satbound.DEFAULT_MAX_ATOMS,
                               type="int"),
            **OUT},
    "atm": {"what": arg("what", True, ("run",)), "--atm": arg("atm", True),
            "--w": arg("w", True), "--fuel": arg("fuel", True, type="int"),
            **OUT},
    "verify": {"what": arg("what", True, ("pipeline",)), **MACHINE},
}


def test_cli_surface_is_pinned():
    """Every subcommand keeps its options and positionals with their
    dest, required flag, choices, default and type.  The machine options
    of the reductions are optional to argparse and checked by the
    commands themselves, so that a missing one is named the same way by
    every command that needs it."""
    got = {name: {(a.option_strings[0] if a.option_strings else a.dest):
                  (a.dest, a.required,
                   None if a.choices is None else tuple(a.choices),
                   a.default, a.type and a.type.__name__) for a in actions}
           for name, actions in subcommands().items()}
    assert list(got) == list(SURFACE)
    for name, options in SURFACE.items():
        assert got[name] == options, name


# --- fuzzing cli.main over the pinned surface --------------------------------

@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files each file option draws from: well-formed and malformed
    ones of its own kind, one of another kind, and a missing file, a
    directory and a non-UTF-8 file; and the paths an output goes to."""
    root = tmp_path_factory.mktemp("fuzz")
    counter_model, _ = build_counter_ssl_model(1)
    texts = {
        "model": {
            "witness": save_model(counter_model),
            "one": "class cross-axiom\ndesignated w\nworld w\nd w w\nl w w\n",
            "no-point": "class cross-axiom\nworld w\nd w w\nl w w\n",
            "unknown-world": "class cross-axiom\nworld w\nd w v\nl w w\n",
            "bad-val": "class cross-axiom\nworld w\nl w w\nval x w\n",
            "bad-class": "class cross-axoim\nworld w\nl w w\n"},
        "formula": {
            "atom": "x0\n",
            "cloud": "(x0 & !Kx0)\n",
            "counter": fm.render(gen_counter_ssl(1)[0]) + "\n",
            "broken": "(x0 &\n"},
        "atm": {
            "m1": M1_PATH.read_text(),
            "scan": SCANNER,
            "twice": M1_PATH.read_text() + "init: q1\n"}}
    paths = {}
    for dest, files in texts.items():
        paths[dest] = []
        for name, text in files.items():
            path = root / f"{name}.{dest}"
            path.write_text(text)
            paths[dest].append(str(path))
    (root / "latin1.bin").write_bytes(b"\xff\xfe x0 \xe9\n")
    (root / "outputs").mkdir()
    bad = [str(root / name) for name in ("missing", "outputs", "latin1.bin")]
    paths["model"] += bad + paths["atm"][:1]
    paths["formula"] += bad + paths["model"][:1]
    paths["atm"] += bad + paths["formula"][:1]
    paths["out"] = [str(root / "outputs" / "out.txt"), str(root / "outputs")]
    return paths


def rarely(draw, good, bad):
    """One of good, or one time in twenty one of bad."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 19)) == 0 else good))


def value(draw, dest, inputs):
    """The value drawn for the option with this dest: small ones, so that
    every run is short, and a few that must be refused."""
    small = {"n": range(-1, 4), "bound": range(-1, 4), "max_atoms": range(-1, 4),
             "fuel": range(-1, 65)}
    if dest in small:
        return rarely(draw, [str(v) for v in small[dest]], ["x", ""])
    if dest in ("model", "formula", "atm"):
        return draw(st.sampled_from(inputs[dest]))
    if dest in ("out", "catalog", "tree_out"):
        return draw(st.sampled_from(inputs["out"]))
    if dest == "poly":
        return rarely(draw, ["2,1", "0,1", "1", "3"], ["0", "2,x", "", "-1,1"])
    return draw({"w": st.text("ab#", max_size=3),
                 "point": st.sampled_from(["w", "nope", "p0", "p0'"])}[dest])


@st.composite
def command_lines(draw, inputs):
    """A subcommand with each of its positionals and a drawn subset of its
    options, read off the parser; now and then a value outside the
    choices, a missing required option, an unknown option or `--help`."""
    commands = subcommands()
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in commands[name]:
        if action.choices is not None:
            arg = rarely(draw, list(action.choices), ["nonsense"])
        else:
            arg = value(draw, action.dest, inputs)
        if not action.option_strings:
            argv.append(arg)
        elif rarely(draw, [True] if action.required else [True] * 9 + [False],
                    [False]):
            argv += [action.option_strings[0], arg]
    return argv + rarely(draw, [[]], [["--bogus"], ["--help"]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_main_ends_in_an_exit_code_on_any_arguments(inputs, data):
    """Every command line ends in 0 (pass), 1 (a failed check or a bad
    input) or 2 (a usage error), or in argparse's exit 0 (`--help`) or 2,
    and never in a traceback."""
    argv = data.draw(command_lines(inputs))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return
    assert code in (0, 1, 2), argv
    assert (code == 0) == (err.getvalue() == ""), argv
