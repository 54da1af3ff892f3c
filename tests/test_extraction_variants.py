"""The tree extractors on models no witness builder made.

Each witness is changed in one of two ways that keep every formula's
truth at corresponding points: its worlds are renamed so that their
sorted order changes, or some worlds are copied (the model with the
copies maps onto the witness by a bounded morphism that sends each copy
to its original).  Either variant satisfies the machine formula at the
designated point, so extraction must still return the machine's
accepting tree, with a morphism that passes its check.
"""

import functools
import pathlib
import random

import pytest

from bimodal import atm as am
from bimodal import red_s4s5, red_ssl
from bimodal.reduction import ReductionParams, check_morphism, grow_tree
from bimodal.semantics import (BimodalModel, validate, CROSS_AXIOM,
                               S4S5_COMMUTATOR)

ROOT = pathlib.Path(__file__).resolve().parent.parent
MACHINES = {"m1": ROOT / "fixtures" / "m1.atm",
            "bounce": ROOT / "bench" / "machines" / "bounce.atm",
            "fan": ROOT / "bench" / "machines" / "fan.atm"}
INPUTS = [("m1", "a", (2, 1)), ("m1", "ab", (2, 1)), ("bounce", "bab", (2, 1)),
          ("fan", "bbb", (0, 1))]
# builder, extractor, reduction, and the class every variant keeps
# (a product with renamed or copied worlds is no longer a grid)
LOGICS = {
    "ssl": (red_ssl.build_f_ssl_model, red_ssl.extract_accepting_tree_ssl,
            red_ssl.SSL, CROSS_AXIOM),
    "s4s5": (red_s4s5.build_f_s4s5_model, red_s4s5.extract_accepting_tree_s4s5,
             red_s4s5.S4S5, S4S5_COMMUTATOR),
}


@functools.lru_cache(maxsize=None)
def witness(machine, w, poly, logic):
    spec = am.parse_atm(MACHINES[machine].read_text())
    params = ReductionParams(spec, poly, w)
    tree = am.find_accepting_tree(spec, w, 2 ** params.N - 1)
    model, p0 = LOGICS[logic][0](params, tree)
    return params, tree, model, p0


def _model(worlds, rel_d, rel_l, valuation, frame_class, designated):
    return BimodalModel(worlds, rel_d, rel_l, valuation,
                        frame_class=frame_class, designated=designated)


def renamed(model, p0, rng, frame_class):
    """model with its worlds renamed by a seeded permutation of their
    indices that changes their sorted order, and the new name of p0."""
    order = list(range(len(model.worlds)))
    while order == sorted(order):
        rng.shuffle(order)
    name = {w: f"w{order[i]:06d}" for i, w in enumerate(model.worlds)}
    return _model(
        name.values(),
        [(name[a], name[b]) for a, b in model.rel_d],
        [(name[a], name[b]) for a, b in model.rel_l],
        {atom: {name[w] for w in members}
         for atom, members in model.valuation.items()},
        frame_class, name[p0]), name[p0]


def with_copies(model, p0, rng, frame_class):
    """model with one to four seeded worlds copied, and p0.  A copy has
    its original's atoms, []-successors, []-predecessors and K-class; a
    copy of a world with a []-loop also sees itself and its original, and
    is seen by it."""
    worlds = list(model.worlds)
    rel_d, rel_l = set(model.rel_d), set(model.rel_l)
    valuation = {atom: set(members) for atom, members in model.valuation.items()}
    for k in range(rng.randint(1, 4)):
        w = rng.choice(worlds)
        c = f"{w}+{k}"
        after = {b for a, b in rel_d if a == w}
        rel_d |= {(c, b) for b in after} | {(a, c) for a, b in rel_d if b == w}
        if w in after:
            rel_d |= {(c, c), (c, w), (w, c)}
        cloud = {b for a, b in rel_l if a == w} | {c}
        rel_l |= {(c, b) for b in cloud} | {(b, c) for b in cloud}
        for members in valuation.values():
            if w in members:
                members.add(c)
        worlds.append(c)
    return _model(worlds, rel_d, rel_l, valuation, frame_class, p0), p0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", [renamed, with_copies],
                         ids=["renamed", "copies"])
@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("machine, w, poly", INPUTS,
                         ids=[f"{m}-{w}" for m, w, _ in INPUTS])
def test_extraction_from_a_witness_variant(machine, w, poly, logic, variant, seed):
    params, tree, model, p0 = witness(machine, w, poly, logic)
    _, extract, red, frame_class = LOGICS[logic]
    rng = random.Random(f"{machine}/{w}/{logic}/{variant.__name__}/{seed}")
    changed, point = variant(model, p0, rng, frame_class)
    assert validate(changed, frame_class).ok
    got, pi = extract(changed, point, params)
    assert am.trees_label_equal(got, tree)
    assert check_morphism(red, changed, point, params, got, pi).ok


@pytest.mark.parametrize("logic, red", [("ssl", red_ssl.SSL), ("s4s5", red_s4s5.S4S5)],
                         ids=["ssl", "s4s5"])
def test_grow_tree_builds_each_step_query_once(logic, red):
    # fan on "bbb" takes 23 steps, which ask for 8 distinct (entry, k, l)
    params, tree, model, p0 = witness("fan", "bbb", (0, 1), logic)
    calls = []

    def step_query(v, entry, k, l):
        calls.append((entry, k, l))
        return red.step_query(v, entry, k, l)

    got, pi = grow_tree(red._replace(step_query=step_query), model, p0, params)
    assert len(calls) == len(set(calls)) == 8
    assert am.trees_label_equal(got, tree)
    assert pi == grow_tree(red, model, p0, params)[1]
