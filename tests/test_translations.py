"""Between-class translations and their witnessing model transforms."""

import random

import pytest

from bimodal import atm, red_s4s5
from bimodal import formula as fm
from bimodal.formula import Atom, Not, And, Or, K, Box, L, Diamond, Implies
from bimodal.semantics import (validate, CROSS_AXIOM, S4S5_COMMUTATOR,
                               K4S5_COMMUTATOR, BimodalModel, save_model)
from bimodal.translations import (TranslationResult, main_var, t_ssl_to_s4s5,
                                  lift_model_ssl_to_s4s5,
                                  restrict_model_s4s5_to_ssl,
                                  t_s4s5_to_k4s5, k4_to_s4_model)
from bimodal.satbound import bounded_sat
from bimodal.red_ssl import gen_counter_ssl, build_counter_ssl_model
from bimodal.reduction import ReductionParams
from tests.conftest import M1_PATH, ROOT


UNARY = {"not": Not, "K": K, "box": Box, "dia": Diamond, "L": L}


def random_formula(rng, max_atoms=2, depth=3, ops=("not", "and", "K", "box")):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.randrange(max_atoms))
    op = rng.choice(list(ops))
    if op == "and":
        return And(random_formula(rng, max_atoms, depth - 1, ops),
                   random_formula(rng, max_atoms, depth - 1, ops))
    child = random_formula(rng, max_atoms, depth - 1, ops)
    return UNARY[op](child)


def test_main_var_picks_first_unused():
    assert main_var(And(Atom(0), Atom(2))) == 1
    assert main_var(Atom(1)) == 0
    assert main_var(And(Atom(0), Atom(1))) == 2


def test_relativized_shape():
    result = t_ssl_to_s4s5(K(Atom(0)))
    main = Atom(result.main_atom)
    assert result.main_atom == 1
    # modal subformulas are guarded by the main atom
    expected_body = K(Not(And(main, Not(Atom(0)))))
    assert expected_body in fm.subformulas(result.formula)
    # the translated formula asserts main at the evaluation point
    assert result.formula.kind == fm.AND


def test_translation_is_deterministic():
    f, _ = gen_counter_ssl(1)
    a = t_ssl_to_s4s5(f)
    b = t_ssl_to_s4s5(f)
    assert fm.render(a.formula) == fm.render(b.formula)
    assert a.main_atom == b.main_atom


def test_lift_and_restrict_counter():
    f, _ = gen_counter_ssl(2)
    model, p0 = build_counter_ssl_model(2)
    result = t_ssl_to_s4s5(f)
    lifted, lp = lift_model_ssl_to_s4s5(model, p0, result.main_atom)
    assert validate(lifted, S4S5_COMMUTATOR).ok
    assert lifted.eval(lp, result.formula)
    back, bp = restrict_model_s4s5_to_ssl(lifted, lp, f)
    assert validate(back, CROSS_AXIOM).ok
    assert back.eval(bp, f)


def test_lift_adds_one_point_per_cloud():
    model, p0 = build_counter_ssl_model(1)
    f, _ = gen_counter_ssl(1)
    result = t_ssl_to_s4s5(f)
    from bimodal.semantics import clouds
    lifted, _ = lift_model_ssl_to_s4s5(model, p0, result.main_atom)
    assert len(lifted.worlds) == len(model.worlds) + len(clouds(model))
    # new points carry no main atom
    assert lifted.valuation[result.main_atom] == set(model.worlds)


def test_lift_rejects_invalid_input():
    worlds = ["w", "v"]
    m = BimodalModel(worlds, {("w", "v")}, {(w, w) for w in worlds}, {},
                     frame_class=CROSS_AXIOM)
    with pytest.raises(ValueError):
        lift_model_ssl_to_s4s5(m, "w", 0)  # d not reflexive


def test_restrict_requires_translated_formula_true():
    model, p0 = build_counter_ssl_model(1)
    f, _ = gen_counter_ssl(1)
    result = t_ssl_to_s4s5(f)
    lifted, lp = lift_model_ssl_to_s4s5(model, p0, result.main_atom)
    with pytest.raises(ValueError):
        restrict_model_s4s5_to_ssl(lifted, lp, Not(f))


@pytest.mark.parametrize("seed", range(5))
def test_random_round_trips_through_oracle(seed):
    rng = random.Random(seed)
    found = 0
    while found < 2:
        f = random_formula(rng)
        verdict = bounded_sat(f, CROSS_AXIOM, max_points=3)
        if not verdict.satisfiable:
            continue
        found += 1
        result = t_ssl_to_s4s5(f)
        lifted, lp = lift_model_ssl_to_s4s5(verdict.model, verdict.point,
                                            result.main_atom)
        assert validate(lifted, S4S5_COMMUTATOR).ok
        assert lifted.eval(lp, result.formula)
        back, bp = restrict_model_s4s5_to_ssl(lifted, lp, f)
        assert validate(back, CROSS_AXIOM).ok
        assert back.eval(bp, f)


def test_every_cross_axiom_hit_lifts_to_a_model_of_the_translation():
    # g & <>h asks for a []-step, where an atom that changes value along
    # [] would make the lifted model miss the translated formula
    rng = random.Random(2026)
    ops = ("and",) + tuple(UNARY)
    hits = 0
    for _ in range(150):
        f = And(random_formula(rng, depth=2, ops=ops),
                Diamond(random_formula(rng, depth=2, ops=ops)))
        verdict = bounded_sat(f, CROSS_AXIOM, max_points=3)
        if not verdict.satisfiable:
            continue
        hits += 1
        result = t_ssl_to_s4s5(f)
        lifted, lp = lift_model_ssl_to_s4s5(verdict.model, verdict.point,
                                            result.main_atom)
        assert validate(lifted, S4S5_COMMUTATOR).ok
        assert lifted.eval(lp, result.formula), fm.render(f)
    assert hits > 50


def test_box_free_formula_translates_unchanged():
    f = And(Atom(0), K(Not(Atom(1))))
    result = t_s4s5_to_k4s5(f)
    assert result.formula is f
    assert result.box_subformulas == ()


def test_box_translation_adds_reflexivity_instances():
    f = Box(Atom(0))
    result = t_s4s5_to_k4s5(f)
    assert result.box_subformulas == (f,)
    inst = Implies(f, Atom(0))
    assert result.formula is And(f, K(And(inst, Box(inst))))


def reference_k4s5(f):
    """The box subformulas of f sorted by their texts, one render each,
    and the translation built from them."""
    boxes = sorted((t for t in fm.subformulas(f) if t.kind == fm.BOXMOD),
                   key=fm.render)
    insts = [Implies(b, b.left) for b in boxes]
    return tuple(boxes), fm.conj([f] + [K(And(i, Box(i))) for i in insts])


def k4s5_inputs():
    rng = random.Random(2027)
    for _ in range(60):
        a = random_formula(rng, max_atoms=3, depth=4)
        b = random_formula(rng, max_atoms=3, depth=4)
        # nested boxes, and a box shared by two places
        yield And(Box(And(a, Box(b))), K(Not(Box(b))))
    bounce = ROOT / "bench" / "machines" / "bounce.atm"
    for path, w, poly in [(M1_PATH, "ab", (2, 1)), (bounce, "bab", (1, 1))]:
        params = ReductionParams(atm.parse_atm(path.read_text()), poly, w)
        yield red_s4s5.gen_f_s4s5(params)[0]


def test_box_translation_keeps_the_render_sorted_order():
    for f in k4s5_inputs():
        boxes, expected = reference_k4s5(f)
        assert len(boxes) >= 2
        result = t_s4s5_to_k4s5(f)
        assert result.box_subformulas == boxes
        assert result.formula is expected


def test_s4_witnesses_satisfy_translation_unchanged():
    # on reflexive-d models the added axioms are tautologies
    f = And(Box(Atom(0)), Atom(0))
    verdict = bounded_sat(f, S4S5_COMMUTATOR, max_points=3)
    assert verdict.satisfiable
    result = t_s4s5_to_k4s5(f)
    assert verdict.model.eval(verdict.point, result.formula)


@pytest.mark.parametrize("seed", range(5))
def test_k4_witnesses_restore_s4_models(seed):
    rng = random.Random(100 + seed)
    found = 0
    while found < 2:
        f = random_formula(rng)
        result = t_s4s5_to_k4s5(f)
        verdict = bounded_sat(result.formula, K4S5_COMMUTATOR, max_points=3)
        if not verdict.satisfiable:
            continue
        found += 1
        out, p = k4_to_s4_model(verdict.model, verdict.point, f)
        assert validate(out, S4S5_COMMUTATOR).ok
        assert out.eval(p, f)


def newpoint_model():
    """Clouds {newpoint_0, newpoint_1} and {v}: two of the names the lift
    would give its new points are taken."""
    worlds = ["newpoint_0", "newpoint_1", "v"]
    rel_l = {(a, b) for a in worlds[:2] for b in worlds[:2]} | {("v", "v")}
    rel_d = {(a, a) for a in worlds} | {("newpoint_0", "v")}
    return BimodalModel(worlds, rel_d, rel_l, {0: {"newpoint_0", "v"}},
                        frame_class=CROSS_AXIOM, designated="v")


def test_lift_prefixes_new_point_names_that_are_taken():
    lifted, p = lift_model_ssl_to_s4s5(newpoint_model(), "v", 1)
    assert p == "v"
    assert save_model(lifted) == "\n".join([
        "class s4s5-commutator", "designated v",
        "world _newpoint_0", "world _newpoint_1", "world newpoint_0",
        "world newpoint_1", "world v",
        "d _newpoint_0 _newpoint_0", "d _newpoint_0 _newpoint_1",
        "d _newpoint_1 _newpoint_1",
        "d newpoint_0 _newpoint_0", "d newpoint_0 _newpoint_1",
        "d newpoint_0 newpoint_0", "d newpoint_0 v",
        "d newpoint_1 _newpoint_0", "d newpoint_1 _newpoint_1",
        "d newpoint_1 newpoint_1",
        "d v _newpoint_1", "d v v",
        "l _newpoint_0 _newpoint_0", "l _newpoint_0 newpoint_0",
        "l _newpoint_0 newpoint_1",
        "l _newpoint_1 _newpoint_1", "l _newpoint_1 v",
        "l newpoint_0 _newpoint_0", "l newpoint_0 newpoint_0",
        "l newpoint_0 newpoint_1",
        "l newpoint_1 _newpoint_0", "l newpoint_1 newpoint_0",
        "l newpoint_1 newpoint_1",
        "l v _newpoint_1", "l v v",
        "val 0 newpoint_0 v", "val 1 newpoint_0 newpoint_1 v", ""])


def _k4_model_off_class():
    """Atom 0 holds at w, but L is not symmetric: not a K4xS5 model."""
    return BimodalModel(["v", "w"], set(), {("v", "v"), ("w", "w"), ("w", "v")},
                        {0: {"w"}}, frame_class=K4S5_COMMUTATOR)


@pytest.mark.parametrize("call, error, message", [
    (lambda: lift_model_ssl_to_s4s5(newpoint_model(), "v", 0), ValueError,
     "atom 0 is already in use and cannot mark the base"),
    (lambda: k4_to_s4_model(_k4_model_off_class(), "v", Atom(0)), ValueError,
     "the translated formula does not hold at the given point"),
    (lambda: k4_to_s4_model(_k4_model_off_class(), "w", Atom(0)), ValueError,
     "input is not a valid K4xS5 commutator model: ['class: k4s5-commutator'"),
], ids=["lift-main-atom-in-use", "k4-formula-false", "k4-off-class"])
def test_transform_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)
