"""Finite bimodal models: evaluation, frame validation, clouds, products,
and the model text format."""

import random

import pytest

from bimodal import formula as fm, relations, semantics
from bimodal.formula import Atom, Not, And, K, Box, L, Diamond
from bimodal.relations import Check, Report
from bimodal.semantics import (BimodalModel, validate, clouds,
                               product_grid,
                               product_point, product_rows, save_model,
                               load_model,
                               CROSS_AXIOM, S4S5_COMMUTATOR, K4S5_COMMUTATOR,
                               S4S5_PRODUCT, FRAME_CLASSES, D_REFLEXIVE,
                               RIGHT_COMMUTATIVE, PERSISTENT_ATOMS)
from bimodal.red_s4s5 import build_counter_s4s5_model
from bimodal.reduction import _reachable_restriction
from bimodal.translations import lift_model_ssl_to_s4s5
from tests.conftest import (mutants, reference_commutes, reference_transitive,
                            rewired)
from tests.test_model_rows import WITNESSES


def refl(worlds):
    return {(w, w) for w in worlds}


def equiv_closure(pairs, worlds):
    rel = set(refl(worlds)) | set(pairs) | {(b, a) for a, b in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


@pytest.fixture
def two_cloud_model():
    """Two clouds {a0,a1} and {b0,b1}; d moves point i of the first cloud
    to point i of the second, persistently carrying atom 0."""
    worlds = ["a0", "a1", "b0", "b1"]
    rel_l = equiv_closure([("a0", "a1"), ("b0", "b1")], worlds)
    rel_d = refl(worlds) | {("a0", "b0"), ("a1", "b1")}
    valuation = {0: {"a0", "a1", "b0", "b1"}, 1: {"a1", "b1"}}
    return BimodalModel(worlds, rel_d, rel_l, valuation,
                        frame_class=CROSS_AXIOM, designated="a0")


def test_eval_basic_connectives(two_cloud_model):
    m = two_cloud_model
    assert m.eval("a0", Atom(0))
    assert not m.eval("a0", Atom(1))
    assert m.eval("a1", And(Atom(0), Atom(1)))
    assert m.eval("a0", Not(Atom(1)))


def test_eval_modalities(two_cloud_model):
    m = two_cloud_model
    # K ranges over the cloud, box over the d-successors
    assert m.eval("a0", K(Atom(0)))
    assert not m.eval("a0", K(Atom(1)))
    assert m.eval("a0", L(Atom(1)))
    assert m.eval("a0", Box(Not(Atom(1))))
    assert m.eval("a1", Box(Atom(1)))
    assert m.eval("a0", Diamond(Atom(0)))
    # a d-step out of the first cloud can reach a point whose cloud
    # contains an atom-1 point
    assert m.eval("a0", Diamond(L(Atom(1))))


def test_sat_set(two_cloud_model):
    assert two_cloud_model.sat_set(Atom(1)) == ["a1", "b1"]


def test_successor_queries(two_cloud_model):
    m = two_cloud_model
    assert set(m.l_successors("a0")) == {"a0", "a1"}
    assert set(m.d_successors("a0")) == {"a0", "b0"}


def test_validate_cross_axiom(two_cloud_model):
    report = validate(two_cloud_model, CROSS_AXIOM)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "atom-persistence" in names and "d-reflexive" in names
    assert "right-commutativity" not in names


def test_validate_catches_broken_symmetry(two_cloud_model):
    m = two_cloud_model
    rel_l = set(m.rel_l) - {("a1", "a0")}
    broken = BimodalModel(m.worlds, m.rel_d, rel_l, m.valuation,
                          frame_class=CROSS_AXIOM)
    report = validate(broken, CROSS_AXIOM)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "l-symmetric" in failed


def test_validate_catches_broken_persistence(two_cloud_model):
    m = two_cloud_model
    valuation = dict(m.valuation)
    valuation[0] = valuation[0] - {"b0"}
    broken = BimodalModel(m.worlds, m.rel_d, m.rel_l, valuation,
                          frame_class=CROSS_AXIOM)
    failed = {c.name for c in validate(broken, CROSS_AXIOM).checks if not c.passed}
    assert "atom-persistence" in failed


def test_validate_names_a_gained_atom():
    # atom 1 is false at a and true at its []-successor b
    worlds = ["a", "b"]
    rel_d = refl(worlds) | {("a", "b")}
    m = BimodalModel(worlds, rel_d, refl(worlds), {0: {"a", "b"}, 1: {"b"}},
                     frame_class=CROSS_AXIOM)
    lines = validate(m, CROSS_AXIOM).lines()
    assert "atom-persistence: fail 1 a b" in lines
    assert lines[-1] == "result: fail"


def test_validate_catches_broken_left_commutativity():
    # d-step first, then an l-move with no matching l-then-d path
    worlds = ["w", "v", "u"]
    rel_l = equiv_closure([("v", "u")], worlds)
    rel_d = refl(worlds) | {("w", "v")}
    m = BimodalModel(worlds, rel_d, rel_l, {}, frame_class=CROSS_AXIOM)
    failed = {c.name for c in validate(m, CROSS_AXIOM).checks if not c.passed}
    assert "left-commutativity" in failed


def test_clouds_and_induced_relation(two_cloud_model):
    m = two_cloud_model
    cloud_list = clouds(m)
    assert [sorted(c) for c in cloud_list] == [["a0", "a1"], ["b0", "b1"]]
    assert cloud_list[1] == ("b0", "b1")
    # the lift adds a point per cloud, reached from the clouds stepping
    # into it: a steps to a and b, b only to b
    lifted, _ = lift_model_ssl_to_s4s5(m, "a0", 2)
    assert set(lifted.d_successors("newpoint_0")) == {"newpoint_0", "newpoint_1"}
    assert set(lifted.d_successors("newpoint_1")) == {"newpoint_1"}


def test_world_ids_must_be_strings():
    # save_model and load_model read and write worlds as names
    with pytest.raises(ValueError, match="must be strings"):
        BimodalModel([0, 1], [(0, 0)], [(0, 0)], {0: {0}})


def product_of(succ1, succ2, masks, designated=None):
    """The product of two factors on points 0, 1, ... given as rows, with
    atom masks over its cells."""
    _, _, names = product_grid(range(len(succ1)), range(len(succ2)))
    return BimodalModel.from_rows(names, *product_rows(succ1, succ2), masks,
                                  frame_class=S4S5_PRODUCT,
                                  designated=designated)


def test_product_model_construction():
    # 0 <= 1 on the first factor, the full relation on the second; atom 0
    # holds at (1, 1) only
    m = product_of([0b11, 0b10], [0b11, 0b11], {0: 1 << 3}, designated="0|0")
    assert len(m.worlds) == 4
    report = validate(m, S4S5_PRODUCT)
    assert "product-provenance: pass" in report.lines()
    assert report.ok
    assert m.eval("0|0", Diamond(L(Atom(0))))
    assert m.eval("0|0", L(Diamond(Atom(0))))


def test_product_rejects_bad_factors():
    # a first factor that is not a preorder or a second factor that is not
    # an equivalence fails the product class's frame checks, which name
    # the worlds
    m = product_of([0b1, 0b0], [0b1], {})
    assert "d-reflexive: fail 1|0" in validate(m, S4S5_PRODUCT).lines()
    m = product_of([0b1], [0b11, 0b10], {})
    assert "l-symmetric: fail 0|0 0|1" in validate(m, S4S5_PRODUCT).lines()


def test_product_valuation_holds_exactly_its_cells():
    # factor points of unequal length, so the grid order differs from
    # plain sorted order on the first factor ("10|" < "1|") and the names
    # come out sorted only in product_grid's order
    firsts, seconds, names = product_grid(["1", "10", "2"], ["10", "1", "2"])
    assert firsts == ["10", "1", "2"] and seconds == ["1", "10", "2"]
    assert names == sorted(names)
    rng = random.Random(7)
    masks = {a: rng.getrandbits(len(names)) for a in range(4)}
    model = BimodalModel.from_rows(names, *product_rows([1, 2, 4], [7] * 3),
                                   masks)
    assert model.valuation == {
        a: frozenset(product_point(firsts[i // 3], seconds[i % 3])
                     for i in range(9) if mask >> i & 1)
        for a, mask in masks.items()}
    assert validate(model, S4S5_PRODUCT).ok


def test_product_provenance_check(two_cloud_model):
    report = validate(two_cloud_model, S4S5_PRODUCT)
    failed = {c.name for c in report.checks if not c.passed}
    assert "product-provenance" in failed


def provenance_line(model):
    return next(line for line in validate(model, S4S5_PRODUCT).lines()
                if line.startswith("product-provenance"))


def test_product_provenance_is_read_from_the_names():
    model, _ = build_counter_s4s5_model(2)
    reloaded = load_model(save_model(model))
    assert provenance_line(reloaded) == "product-provenance: pass"
    assert validate(reloaded, S4S5_PRODUCT).ok
    # the part reachable from a point is the product of the factors' parts
    part = _reachable_restriction(model, "1|2")
    assert part is not model
    assert len(part.worlds) == 12 and validate(part, S4S5_PRODUCT).ok
    # without one []-pair the world it leaves has a row no product has
    dropped = BimodalModel(model.worlds, model.rel_d - {("1|2", "3|2")},
                           model.rel_l, model.valuation)
    assert provenance_line(dropped) == "product-provenance: fail 1|2"
    # without one world the names no longer fill the grid
    kept = [w for w in model.worlds if w != "1|2"]
    deleted = BimodalModel(
        kept, [(a, b) for a, b in model.rel_d if "1|2" not in (a, b)],
        [(a, b) for a, b in model.rel_l if "1|2" not in (a, b)],
        {a: s - {"1|2"} for a, s in model.valuation.items()})
    assert provenance_line(deleted) == "product-provenance: fail 1|2"
    assert "1|2" not in deleted.index


def test_k4_class_drops_d_reflexivity():
    worlds = ["w", "v"]
    rel_l = refl(worlds)
    rel_d = {("w", "v")}
    m = BimodalModel(worlds, rel_d, rel_l, {}, frame_class=K4S5_COMMUTATOR)
    # irreflexive d is fine for K4 but not for S4
    assert validate(m, K4S5_COMMUTATOR).ok
    failed = {c.name for c in validate(m, S4S5_COMMUTATOR).checks if not c.passed}
    assert "d-reflexive" in failed


def test_save_load_round_trip(two_cloud_model):
    text = save_model(two_cloud_model)
    back = load_model(text)
    assert back.worlds == two_cloud_model.worlds
    assert set(back.rel_d) == set(two_cloud_model.rel_d)
    assert set(back.rel_l) == set(two_cloud_model.rel_l)
    assert back.valuation == two_cloud_model.valuation
    assert back.designated == "a0"
    assert back.frame_class == CROSS_AXIOM
    assert save_model(back) == text


def test_validation_report_lines(two_cloud_model):
    lines = validate(two_cloud_model, CROSS_AXIOM).lines()
    assert lines[-1] == "result: pass"
    assert all(": " in line for line in lines)


# ---------------------------------------------------------------------------
# Witnesses of benchmark size against the row scans and the per-world
# evaluation that compositions and grouped rows replaced.

def row_scans(model):
    """Each frame check's counterexample as the row scans name it."""
    succ_d, succ_l = model._succ_d, model._succ_l
    return {"l-reflexive": relations.reflexive(succ_l),
            "l-symmetric": relations.symmetric(succ_l),
            "l-transitive": reference_transitive(succ_l),
            "d-transitive": reference_transitive(succ_d),
            "d-reflexive": relations.reflexive(succ_d),
            "left-commutativity": reference_commutes(succ_d, succ_l, succ_l, succ_d),
            "right-commutativity": reference_commutes(succ_l, succ_d, succ_d, succ_l)}


def scanned_lines(model, frame_class, scans):
    names = ["l-reflexive", "l-symmetric", "l-transitive", "d-transitive"]
    names += ["d-reflexive"] * (frame_class in D_REFLEXIVE)
    names += ["left-commutativity"]
    names += ["right-commutativity"] * (frame_class in RIGHT_COMMUTATIVE)
    checks = [Check(name, None if scans[name] is None
                    else " ".join(model.worlds[i] for i in scans[name]))
              for name in names]
    if frame_class in PERSISTENT_ATOMS:
        checks.append(Check("atom-persistence", semantics._persistence(model)))
    if frame_class == S4S5_PRODUCT:
        checks.append(Check("product-provenance", semantics._provenance(model)))
    return Report(checks, f"class: {frame_class}").lines()


def test_validate_keeps_one_report_per_model_and_class():
    """A model never changes, so it keeps its report of each class; every
    rewired copy of a witness is another model with its own report, which
    names the copy's own counterexamples."""
    rng = random.Random(20)
    new_lines = set()
    for name, _, witness, _, _ in WITNESSES:
        if name not in ("counter-ssl-3", "counter-s4s5-3", "m1-ab-ssl",
                        "m1-ab-s4s5"):
            continue
        reports = {c: validate(witness, c) for c in FRAME_CLASSES}
        for frame_class, report in reports.items():
            assert validate(witness, frame_class) is report
            assert type(report.checks) is tuple
        for copy in rewired(witness, rng, 4):
            scans = row_scans(copy)
            for frame_class in FRAME_CLASSES:
                report = validate(copy, frame_class)
                assert report is not reports[frame_class]
                assert validate(copy, frame_class) is report
                assert report.lines() == scanned_lines(copy, frame_class, scans)
                new_lines.update(set(report.lines())
                                 - set(reports[frame_class].lines()))
    assert any(": fail " in line for line in new_lines)


def test_witness_reports_match_row_scans(branch_witnesses):
    rng = random.Random(15)
    failed = set()
    for _, witness, *_ in branch_witnesses:
        for frame in [witness] + rewired(witness, rng, 2):
            scans = row_scans(frame)
            for model in [frame] + mutants(frame, rng, [], count=1):
                for frame_class in FRAME_CLASSES:
                    report = validate(model, frame_class)
                    assert report.lines() == scanned_lines(model, frame_class, scans)
                    failed.update(c.name for c in report.failures())
    assert {"l-transitive", "d-transitive", "left-commutativity",
            "right-commutativity"} <= failed


def per_world_mask(f, succ_d, succ_l, atom_masks, n):
    """The mask of f with each box decided one world at a time."""
    return per_world_masks(f, succ_d, succ_l, atom_masks, n)[f]


def per_world_masks(f, succ_d, succ_l, atom_masks, n):
    """The mask of every subformula of f, with each box decided one world
    at a time."""
    full = (1 << n) - 1
    mask = {}
    for t in sorted(fm.subformulas(f), key=lambda t: t.size):
        if t.kind == fm.ATOM:
            mask[t] = atom_masks.get(t.value, 0)
        elif t.kind == fm.NOT:
            mask[t] = full & ~mask[t.left]
        elif t.kind == fm.AND:
            mask[t] = mask[t.left] & mask[t.right]
        else:
            succ = succ_l if t.kind == fm.KMOD else succ_d
            miss = full & ~mask[t.left]
            mask[t] = sum(1 << i for i in range(n) if not succ[i] & miss)
    return mask


def test_witness_formulas_match_per_world_evaluation(branch_witnesses):
    rng = random.Random(16)
    for _, witness, _, point, f in branch_witnesses:
        assert witness.eval(point, f)
        for model in [witness] + mutants(witness, rng, [], count=2):
            assert model._mask(f) == per_world_mask(
                f, model._succ_d, model._succ_l, model._atom_masks,
                len(model.worlds))


def test_witness_boxes_match_per_world_evaluation(branch_witnesses):
    # every box of a witness formula, decided on the model's one cache;
    # among them are boxes whose body holds everywhere, which scan no rows,
    # and boxes that share their miss set with another box of the same kind
    rng = random.Random(17)
    everywhere = repeated = 0
    for _, witness, _, _, f in branch_witnesses:
        boxes = [t for t in fm.subformulas(f) if t.kind in (fm.KMOD, fm.BOXMOD)]
        for model in [witness] + mutants(witness, rng, [], count=2):
            full = (1 << len(model.worlds)) - 1
            want = per_world_masks(f, model._succ_d, model._succ_l,
                                   model._atom_masks, len(model.worlds))
            model._mask(f)
            decided = set()
            for t in boxes:
                assert model._mask(t) == want[t]
                miss = full & ~want[t.left]
                everywhere += not miss
                repeated += miss != 0 and (t.kind, miss) in decided
                decided.add((t.kind, miss))
    assert everywhere and repeated


@pytest.mark.parametrize("call, error, message", [
    (lambda m: m.eval("zz", Atom(0)), KeyError, "unknown world 'zz'"),
    (lambda m: m.eval("a0", "p0"), TypeError, "eval expects a Formula"),
    (lambda m: validate(m, "nope"), ValueError, "unknown frame class 'nope'"),
], ids=["eval-unknown-world", "eval-non-formula", "validate-unknown-class"])
def test_model_refusals(two_cloud_model, call, error, message):
    with pytest.raises(error) as info:
        call(two_cloud_model)
    assert info.value.args == (message,)
