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
the move its accepting runs end with at the rejecting state.  Extracting
a near miss's tree from its fixture's witness fails, and so does each of
the extractors' other refusals on a model that reaches it.
"""

import functools
import random

import pytest

from bimodal import atm as am
from bimodal import red_s4s5, red_ssl
from bimodal.cli import main
from bimodal.reduction import (ExtractionError, ReductionParams, build_counter,
                               extract_counter, grow_tree, node_table)
from bimodal.semantics import BimodalModel, load_model, save_model, submodel
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
REDUCTIONS = {"ssl": red_ssl.SSL, "s4s5": red_s4s5.S4S5}


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


# ---------------------------------------------------------------------------
# The extractors' refusals.

def refusal(red, model, point, params):
    """The message `grow_tree` raises on the model, which must raise."""
    with pytest.raises(ExtractionError) as err:
        grow_tree(red, model, point, params)
    return str(err.value)


@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("w, node", [("bbb", 1), ("abbb", 2)])
def test_near_miss_tree_is_not_extracted_from_fan_witness(w, node, logic):
    model, point, _, _ = fan_near_miss(w, logic)
    params = ReductionParams(am.parse_atm(NEAR_MISS_TEXT), [0, 1], w)
    assert refusal(REDUCTIONS[logic], model, point, params) == (
        f"witness-not-found: computation: compstep for ('qrej', 'a', 'R') "
        f"at node {node}")


@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("machine, failure", [
    ("m1", "compstep for ('qrej', 'b', 'L') at node 1"),
    ("bounce", "no applicable step at node 8"),
])
def test_near_miss_tree_is_not_extracted_from_fixture_witness(machine, failure,
                                                              logic):
    text, near_miss_text = fixture_near_miss(machine)
    w = FIXTURES[machine][2]
    spec = am.parse_atm(text)
    params = ReductionParams(spec, [1, 1], w)
    tree = am.find_accepting_tree(spec, w, 2 ** params.N - 1)
    model, point = REDUCTIONS[logic].build_model(params, tree)
    near_miss = ReductionParams(am.parse_atm(near_miss_text), [1, 1], w)
    assert (refusal(REDUCTIONS[logic], model, point, near_miss)
            == f"witness-not-found: computation: {failure}")


# A machine that moves right forever and never halts.
LOOP_TEXT = """symbols: # a
input: a
states: q0 qacc qrej
exists: q0
forall:
accept: qacc
reject: qrej
init: q0
delta: q0 # -> q0 # R
delta: q0 a -> q0 a R
"""


@pytest.mark.parametrize("logic", sorted(LOGICS))
def test_run_that_outlasts_the_time_bound_is_refused(monkeypatch, logic):
    """The witness construction over the loop's run up to the time bound
    (one step at N = 1), which no accepting-tree check guards here: every
    conjunct but the computation holds, and the extractor stops at the
    node on the bound."""
    loop = am.parse_atm(LOOP_TEXT)
    params = ReductionParams(loop, [0, 1], "a")
    tree = am.ComputationTree()
    root = am.initial_config(loop, "a")
    tree.add_root(root)
    tree.add_child(0, am.apply_entry(root, ("q0", "#", "R")))
    module = red_ssl if logic == "ssl" else red_s4s5
    monkeypatch.setattr(module, "witness_data", node_table)
    model, point = REDUCTIONS[logic].build_model(params, tree)
    assert refusal(REDUCTIONS[logic], model, point, params) == (
        "witness-not-found: computation: node at the time bound (1)")


def test_rejecting_root_is_refused():
    """A machine that starts in its rejecting state, on one point with no
    []-successor: start holds there and every K[] conjunct holds vacuously,
    so the root itself rejects.  (On a []-reflexive frame no_reject would
    fail at the root first.)"""
    machine = am.parse_atm(LOOP_TEXT.replace("init: q0", "init: qrej"))
    params = ReductionParams(machine, [0, 1], "a")
    cat = red_ssl.f_ssl_catalog(params)
    atoms = ([cat.atom("B"), cat.atom("A_state", "qrej"), cat.atom("A_read", "#")]
             + cat.bits("A_pos", 2 ** params.N - 1))
    model = BimodalModel.from_rows(["r"], [0], [1], dict.fromkeys(atoms, 1))
    assert (refusal(red_ssl.SSL, model, "r", params)
            == "witness-not-found: no_reject: node 0 rejects")


def test_cleared_marker_fails_the_morphism_check():
    """m1's witness on "a" with the class marker B cleared at node 1's own
    point: the steps are still found, but that point no longer shows node
    1's configuration."""
    spec = am.parse_atm(M1_PATH.read_text())
    params = ReductionParams(spec, [2, 1], "a")
    model, point = red_ssl.build_f_ssl_model(
        params, am.find_accepting_tree(spec, "a", 2 ** params.N - 1))
    masks = dict(model._atom_masks)
    masks[red_ssl.f_ssl_catalog(params).atom("B")] ^= 1 << model.index["p_1_1"]
    cleared = BimodalModel.from_rows(model.worlds, model._succ_d, model._succ_l,
                                     masks, frame_class=model.frame_class,
                                     designated=model.designated)
    assert refusal(red_ssl.SSL, cleared, point, params) == (
        "witness-not-found: morphism check failed: ['root-anchored: pass', "
        "'edges-preserved: pass', 'written-symbols: pass', "
        "'configurations: fail 1', 'result: fail']")


@pytest.mark.parametrize("logic", sorted(LOGICS))
def test_repeated_universal_move_adds_one_child(logic):
    """m1 with a universal move written twice: the extractor finds the
    same successor twice and keeps it once, as the tree search does."""
    move = "delta: q1 a -> qacc a R\n"
    spec = am.parse_atm(M1_PATH.read_text().replace(move, move * 2))
    params = ReductionParams(spec, [1, 1], "ab")
    tree = am.find_accepting_tree(spec, "ab", 2 ** params.N - 1)
    model, point = REDUCTIONS[logic].build_model(params, tree)
    extracted, _ = grow_tree(REDUCTIONS[logic], model, point, params)
    assert am.trees_label_equal(extracted, tree)
    assert len(extracted.children[1]) == 2


@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("step", [0, 1, 2])
def test_counter_without_a_staircase_step_is_refused(step, logic):
    red = REDUCTIONS[logic]
    model, p0 = build_counter(red, 2)
    p_points, p_primes = extract_counter(red, model, p0, 2)
    keep = (1 << len(model.worlds)) - 1 & ~(1 << model.index[p_primes[step]])
    cut = submodel(model, keep, model.frame_class, p0)
    with pytest.raises(ExtractionError) as err:
        extract_counter(red, cut, p0, 2)
    assert str(err.value) == (
        f"extraction-failure: step {step}: no staircase witness for value "
        f"{step + 1} from {p_points[step]}")
