"""Rejected inputs through the reductions: the "only if" direction.

fan's universal state q0 has two moves on b.  The near-miss machine
points one of them, `q0 b -> q0 a R`, at the rejecting state, so every
run on a word with a b in the universal phase has a rejecting branch and
the mutant accepts neither "bbb" nor "abbb", where fan accepts both.  The
formula of the mutant must then be false at every world of fan's
witnesses, of those witnesses saved and read back, and of their renamed
and copied variants read back, and the CLI must refuse to build a
witness for it.

The m1 and bounce fixtures get the same treatment: each near miss points
the move its accepting runs end with at the rejecting state.
"""

import functools
import random

import pytest

from bimodal import atm as am
from bimodal import red_s4s5, red_ssl
from bimodal.cli import main
from bimodal.reduction import ReductionParams
from bimodal.semantics import load_model, save_model
from tests.conftest import FAN_PATH, M1_PATH, ROOT
from tests.test_extraction_variants import LOGICS as VARIANT_LOGICS, renamed, with_copies

FAN_TEXT = FAN_PATH.read_text()
NEAR_MISS_TEXT = FAN_TEXT.replace("delta: q0 b -> q0 a R\n",
                                  "delta: q0 b -> qrej a R\n")
# machine -> (text, the move pointed at qrej, word, witness worlds by logic)
FIXTURES = {
    "m1": (M1_PATH.read_text(), "delta: q1 a -> qacc b L", "ab",
           {"ssl": 118, "s4s5": 16}),
    "bounce": ((ROOT / "bench" / "machines" / "bounce.atm").read_text(),
               "delta: q1 # -> qacc # R", "bab", {"ssl": 342, "s4s5": 100}),
}
LOGICS = {"ssl": (red_ssl.gen_f_ssl, red_ssl.build_f_ssl_model),
          "s4s5": (red_s4s5.gen_f_s4s5, red_s4s5.build_f_s4s5_model)}


def test_near_miss_differs_in_one_transition():
    assert NEAR_MISS_TEXT != FAN_TEXT
    changed = set(NEAR_MISS_TEXT.splitlines()) ^ set(FAN_TEXT.splitlines())
    assert changed == {"delta: q0 b -> q0 a R", "delta: q0 b -> qrej a R"}


@functools.lru_cache(maxsize=None)
def fan_near_miss(w, logic):
    """fan's witness for w in logic, its designated point, fan's formula
    and the near miss's, at the same window size, so the same vocabulary
    over the same atoms."""
    gen, build = LOGICS[logic]
    fan = am.parse_atm(FAN_TEXT)
    near_miss = am.parse_atm(NEAR_MISS_TEXT)
    params = ReductionParams(fan, [0, 1], w)
    bound = 2 ** params.N - 1
    assert am.find_accepting_tree(near_miss, w, bound) is None
    model, point = build(params, am.find_accepting_tree(fan, w, bound))
    return model, point, gen(params)[0], gen(ReductionParams(near_miss, [0, 1], w))[0]


@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("w, worlds", [("bbb", {"ssl": 701, "s4s5": 576}),
                                       ("abbb", {"ssl": 812, "s4s5": 625})])
def test_near_miss_formula_holds_nowhere_on_the_witness(w, worlds, logic):
    model, point, f, f_near_miss = fan_near_miss(w, logic)
    assert len(model.worlds) == worlds[logic]
    assert model.eval(point, f)
    assert model.sat_set(f_near_miss) == []


@pytest.mark.parametrize("variant", [None, renamed, with_copies],
                         ids=["witness", "renamed", "copies"])
@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("w", ["bbb", "abbb"])
def test_near_miss_formula_holds_nowhere_after_a_read(w, logic, variant):
    """The witness, or a seeded variant of it, saved and read back: the
    reader must not make a world where the near miss's formula holds."""
    model, point, f, f_near_miss = fan_near_miss(w, logic)
    if variant is not None:
        rng = random.Random(f"{w}/{logic}/{variant.__name__}")
        frame_class = VARIANT_LOGICS[logic][3]  # the class every variant keeps
        model, point = variant(model, point, rng, frame_class)
    text = save_model(model)
    loaded = load_model(text)
    assert save_model(loaded) == text
    assert loaded.eval(point, f)
    assert loaded.sat_set(f_near_miss) == []


@pytest.mark.parametrize("logic", sorted(LOGICS))
def test_build_model_refuses_a_rejected_input(tmp_path, capsys, logic):
    atm_file = tmp_path / "near_miss.atm"
    atm_file.write_text(NEAR_MISS_TEXT)
    out_file = tmp_path / "model.txt"
    code = main(["build", "model", "--logic", logic, "--atm", str(atm_file),
                 "--w", "bbb", "--poly", "0,1", "--out", str(out_file)])
    assert code == 1
    assert ("the machine does not accept 'bbb' within 7 steps"
            in capsys.readouterr().err)
    assert not out_file.exists()


def fixture_near_miss(machine):
    """The fixture's text and its near miss's."""
    text, move, _, _ = FIXTURES[machine]
    return text, text.replace(move + "\n", move.replace("qacc", "qrej") + "\n")


@pytest.mark.parametrize("machine", sorted(FIXTURES))
def test_fixture_near_miss_differs_in_one_transition(machine):
    text, near_miss = fixture_near_miss(machine)
    move = FIXTURES[machine][1]
    changed = set(near_miss.splitlines()) ^ set(text.splitlines())
    assert changed == {move, move.replace("qacc", "qrej")}


@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("machine", sorted(FIXTURES))
def test_fixture_near_miss_formula_holds_nowhere_on_the_witness(machine, logic):
    gen, build = LOGICS[logic]
    text, near_miss_text = fixture_near_miss(machine)
    _, _, w, worlds = FIXTURES[machine]
    machine_spec = am.parse_atm(text)
    near_miss = am.parse_atm(near_miss_text)
    params = ReductionParams(machine_spec, [1, 1], w)
    bound = 2 ** params.N - 1
    assert am.find_accepting_tree(near_miss, w, bound) is None
    model, point = build(params, am.find_accepting_tree(machine_spec, w, bound))
    assert len(model.worlds) == worlds[logic]
    assert model.eval(point, gen(params)[0])
    f_near_miss, _ = gen(ReductionParams(near_miss, [1, 1], w))
    assert model.sat_set(f_near_miss) == []


@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("machine", sorted(FIXTURES))
def test_build_model_refuses_a_fixture_near_miss(tmp_path, capsys, machine,
                                                 logic):
    _, near_miss = fixture_near_miss(machine)
    w = FIXTURES[machine][2]
    atm_file = tmp_path / "near_miss.atm"
    atm_file.write_text(near_miss)
    code = main(["build", "model", "--logic", logic, "--atm", str(atm_file),
                 "--w", w, "--poly", "1,1"])
    assert code == 1
    steps = 2 ** (1 + len(w)) - 1
    assert (f"the machine does not accept {w!r} within {steps} steps"
            in capsys.readouterr().err)
