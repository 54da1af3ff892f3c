"""Bounded satisfiability search over the four frame classes."""

import itertools
import random
from functools import partial

import pytest

from bimodal import formula as fm, relations, satbound
from bimodal.formula import Atom, Not, And, K, Box, L, Diamond, Implies
from bimodal.semantics import (validate, CROSS_AXIOM, S4S5_COMMUTATOR,
                               K4S5_COMMUTATOR, S4S5_PRODUCT)
from bimodal.satbound import bounded_sat, ResourceCapError, DEFAULT_MAX_ATOMS


ALL_CLASSES = [CROSS_AXIOM, S4S5_COMMUTATOR, K4S5_COMMUTATOR, S4S5_PRODUCT]


@pytest.mark.parametrize("frame_class", ALL_CLASSES)
def test_atom_is_satisfiable_everywhere(frame_class):
    verdict = bounded_sat(Atom(0), frame_class, max_points=2)
    assert verdict.satisfiable
    assert verdict.model.eval(verdict.point, Atom(0))
    assert validate(verdict.model, frame_class).ok


@pytest.mark.parametrize("frame_class", ALL_CLASSES)
def test_contradiction_is_unsat(frame_class):
    verdict = bounded_sat(And(Atom(0), Not(Atom(0))), frame_class,
                          max_points=3)
    assert not verdict.satisfiable
    assert verdict.model is None


def test_diamond_needs_a_witness_successor():
    # a successor must both satisfy and falsify the atom: unsat everywhere
    f = And(Diamond(Atom(0)), Box(Not(Atom(0))))
    for frame_class in ALL_CLASSES:
        assert not bounded_sat(f, frame_class, max_points=3).satisfiable


def test_box_against_here_separates_k4():
    f = And(Atom(0), Box(Not(Atom(0))))
    # with reflexive d the two conjuncts clash; K4 allows a dead end
    for frame_class in (CROSS_AXIOM, S4S5_COMMUTATOR, S4S5_PRODUCT):
        assert not bounded_sat(f, frame_class, max_points=3).satisfiable
    verdict = bounded_sat(f, K4S5_COMMUTATOR, max_points=3)
    assert verdict.satisfiable
    assert validate(verdict.model, K4S5_COMMUTATOR).ok


def test_found_model_is_minimal_in_points():
    f = And(Atom(0), L(Not(Atom(0))))  # needs two points in one cloud
    verdict = bounded_sat(f, CROSS_AXIOM, max_points=4)
    assert verdict.satisfiable
    assert len(verdict.model.worlds) == 2


def test_atom_persistence_constrains_cross_axiom():
    # losing an atom along a proper d-step is impossible on cross-axiom
    # models but fine on products
    f = And(Atom(0), Diamond(And(Not(Atom(0)), Diamond(Atom(1)))))
    assert not bounded_sat(f, CROSS_AXIOM, max_points=4).satisfiable
    assert bounded_sat(f, S4S5_PRODUCT, max_points=4).satisfiable


def test_atoms_cannot_turn_true_along_box_on_cross_axiom():
    # atoms are constant along [] both ways: gaining one is as impossible
    # as losing one
    f = fm.parse("(!x0 & <>x0)")
    assert not bounded_sat(f, CROSS_AXIOM, max_points=4).satisfiable
    assert bounded_sat(f, S4S5_PRODUCT, max_points=4).satisfiable


def test_unsat_verdict_reports_bounds():
    verdict = bounded_sat(And(Atom(0), Not(Atom(0))), CROSS_AXIOM,
                          max_points=2)
    assert verdict.max_points == 2


@pytest.mark.parametrize("max_points, message", [
    (0, "max_points must be at least 1"),
    (satbound.MAX_POINTS + 1, "max_points must be at most 5"),
    (8, "max_points must be at most 5"),
])
def test_point_bounds_outside_the_frame_lists_are_refused(max_points, message):
    """The frame lists hold every transitive relation on m points, which
    outgrow memory from 6 points on; a bound above MAX_POINTS is refused
    before any list is built."""
    built = satbound._relation_lists.cache_info().currsize
    with pytest.raises(ValueError) as err:
        bounded_sat(And(Atom(0), Not(Atom(0))), CROSS_AXIOM,
                    max_points=max_points)
    assert str(err.value) == message
    assert satbound._relation_lists.cache_info().currsize == built


def test_atom_ceiling_enforced():
    f = fm.conj([Atom(i) for i in range(DEFAULT_MAX_ATOMS + 1)])
    with pytest.raises(ResourceCapError):
        bounded_sat(f, CROSS_AXIOM)
    verdict = bounded_sat(f, CROSS_AXIOM, max_atoms=DEFAULT_MAX_ATOMS + 1,
                          max_points=1)
    assert verdict.satisfiable


def test_candidate_budget_enforced():
    f = And(Atom(0), L(And(Not(Atom(0)), Diamond(Atom(1)))))
    with pytest.raises(ResourceCapError):
        bounded_sat(f, S4S5_COMMUTATOR, max_points=4, max_candidates=10)


def test_product_hits_are_products():
    f = And(Diamond(L(Atom(0))), K(Not(Atom(0))))
    verdict = bounded_sat(f, S4S5_PRODUCT, max_points=4)
    assert verdict.satisfiable
    report = validate(verdict.model, S4S5_PRODUCT)
    assert "product-provenance: pass" in report.lines()
    assert report.ok


def test_k_box_interaction_on_commutators():
    # right commutativity validates the commuting-diamond principle
    f = And(Diamond(L(Atom(0))), K(Box(Not(Atom(0)))))
    assert not bounded_sat(f, S4S5_COMMUTATOR, max_points=3).satisfiable


def test_reflexivity_axioms_hold_on_s4():
    f = Not(Implies(Box(Atom(0)), Atom(0)))
    assert not bounded_sat(f, S4S5_COMMUTATOR, max_points=3).satisfiable
    assert bounded_sat(f, K4S5_COMMUTATOR, max_points=3).satisfiable


# ---------------------------------------------------------------------------
# Parity with the one-valuation-at-a-time walk.

def product_frames(max_points):
    """Product frames by factor shapes ordered by total size, then
    preorders on the first factor and partitions on the second."""
    shapes = sorted((m1 * m2, m1, m2)
                    for m1 in range(1, max_points + 1)
                    for m2 in range(1, max_points + 1)
                    if m1 * m2 <= max_points)
    for m, m1, m2 in shapes:
        for succ1 in satbound._relation_lists(m1)[1]:
            for blocks in satbound._set_partitions(m2):
                succ2 = satbound._partition_succ(blocks, m2)
                # product point (v, x) -> index v * m2 + x
                succ_d = [0] * m
                succ_l = [0] * m
                for v in range(m1):
                    for x in range(m2):
                        i = v * m2 + x
                        for j in relations.bits(succ1[v]):
                            succ_d[i] |= 1 << (j * m2 + x)
                        for j in relations.bits(succ2[x]):
                            succ_l[i] |= 1 << (v * m2 + j)
                names = [f"{v}|{x}" for v in range(m1) for x in range(m2)]
                yield (m, succ_l, succ_d, range(1 << m),
                       partial(satbound._hit_model, S4S5_PRODUCT, names,
                               succ_l, succ_d))


def walk_candidates(f, frame_class, max_points):
    """Every candidate as (frame number, m, succ_l, succ_d, atom_masks,
    build) in canonical order, one valuation at a time: the walk the
    packed search must reproduce.  build(atom_masks, point) makes the
    model."""
    atom_ids = sorted(fm.atoms(f))
    if frame_class == S4S5_PRODUCT:
        frames = product_frames(max_points)
    else:
        frames = ((m, succ_l, succ_d,
                   satbound._persistent_masks(succ_d)
                   if frame_class == CROSS_AXIOM else range(1 << m),
                   partial(satbound._hit_model, frame_class, names, succ_l, succ_d))
                  for m in range(1, max_points + 1)
                  for succ_l, succ_ds, names, _ in satbound._frames(frame_class, m)
                  for succ_d in succ_ds)
    for number, (m, succ_l, succ_d, allowed, build) in enumerate(frames, 1):
        for combo in itertools.product(allowed, repeat=len(atom_ids)):
            atom_masks = dict(zip(atom_ids, combo))
            yield number, m, succ_l, succ_d, atom_masks, build


def walk(f, frame_class, max_points):
    """(hit, frame_ends): hit is (candidate number, model, point index) of
    the first candidate where f holds, or None; frame_ends lists the
    candidate count at the end of each frame walked."""
    frame_ends = []
    count = 0
    for number, m, succ_l, succ_d, atom_masks, build in walk_candidates(
            f, frame_class, max_points):
        if number > len(frame_ends):
            frame_ends.append(count)
        count += 1
        frame_ends[-1] = count
        hit = relations.eval_masks(f, succ_d, succ_l, atom_masks, m, {})
        if hit:
            point = relations.bits(hit)[0]
            return (count, build(atom_masks, point), point), frame_ends
    return None, frame_ends


def outcome(f, frame_class, max_points, max_candidates):
    try:
        verdict = bounded_sat(f, frame_class, max_points=max_points,
                              max_candidates=max_candidates)
    except ResourceCapError:
        return "cap"
    if not verdict.satisfiable:
        return "unsat"
    model = verdict.model
    return (verdict.point, model.worlds, model.rel_d, model.rel_l,
            model.valuation)


def expected(hit, frame_ends, max_candidates):
    """What the walk gives under a candidate ceiling: it raises on the
    first candidate past the ceiling."""
    if hit is not None and hit[0] <= max_candidates:
        _, model, _ = hit
        return (model.designated, model.worlds, model.rel_d, model.rel_l,
                model.valuation)
    return "cap" if frame_ends[-1] > max_candidates else "unsat"


def random_formula(rng, n_atoms, depth):
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.randrange(n_atoms))
    op = rng.choice("!&KB")
    if op == "&":
        return And(random_formula(rng, n_atoms, depth - 1),
                   random_formula(rng, n_atoms, depth - 1))
    return {"!": Not, "K": K, "B": Box}[op](random_formula(rng, n_atoms, depth - 1))


def formulas_with_atoms(rng, count):
    """count random formulas of depth at most 4 over exactly 1, 2 or 3
    atoms, in turn."""
    out = []
    while len(out) < count:
        n_atoms = len(out) % 3 + 1
        f = random_formula(rng, n_atoms, 4)
        if len(fm.atoms(f)) == n_atoms:
            out.append(f)
    return out


@pytest.fixture
def set_lanes(monkeypatch):
    """Sets the chunk size; the packed masks cached for the old size are
    dropped, and again at the end."""
    def set_to(lanes):
        monkeypatch.setattr(satbound, "LANES", lanes)
        satbound._lanes.cache_clear()
    yield set_to
    satbound._lanes.cache_clear()


@pytest.mark.parametrize("frame_class", ALL_CLASSES)
def test_packed_search_matches_one_valuation_walk(set_lanes, frame_class):
    # verdict, model and point agree, and the ceiling bites at the same
    # candidate: around the hit and the ends of the first three and the last
    # frames; with 16-lane chunks queries on two or more points over two
    # or more atoms cross chunk boundaries
    sizes = (satbound.LANES, 16)
    for f in formulas_with_atoms(random.Random(f"{frame_class}-parity"), 24):
        hit, frame_ends = walk(f, frame_class, 3)
        caps = {satbound.DEFAULT_MAX_CANDIDATES}
        boundaries = frame_ends[:3] + frame_ends[-1:]
        if hit is not None:
            boundaries.append(hit[0])
        for count in boundaries:
            caps.update((count - 1, count, count + 1))
        for lanes in sizes:
            set_lanes(lanes)
            for cap in sorted(caps):
                assert (outcome(f, frame_class, 3, cap)
                        == expected(hit, frame_ends, cap)), (fm.render(f), lanes, cap)


def test_packed_search_crosses_chunk_boundaries(set_lanes):
    # two atoms on one point have four valuations; with two-lane chunks x1
    # fills the lanes, x0 is fixed per chunk, and the hit (x0 true, x1
    # false) is valuation 3, lane 0 of the second chunk
    set_lanes(2)
    assert satbound._lanes((0, 1), 2, 1) == (0b11, [0b10])
    verdict = bounded_sat(And(Atom(0), Not(Atom(1))), K4S5_COMMUTATOR,
                          max_points=1)
    assert (verdict.frames, verdict.candidates) == (1, 3)
    assert verdict.model.valuation == {0: frozenset({"0"}), 1: frozenset()}
    for cap in (2, 0, -1):
        with pytest.raises(ResourceCapError):
            bounded_sat(And(Atom(0), Not(Atom(1))), K4S5_COMMUTATOR,
                        max_points=1, max_candidates=cap)


def test_verdict_counts_frames_and_candidates():
    # the contradiction walks every frame: on one point there is one
    # cross-axiom frame with the two persistent masks of the atom
    verdict = bounded_sat(And(Atom(0), Not(Atom(0))), CROSS_AXIOM, max_points=1)
    assert (verdict.frames, verdict.candidates) == (1, 2)
    verdict = bounded_sat(Atom(0), CROSS_AXIOM, max_points=2)
    assert (verdict.frames, verdict.candidates) == (1, 2)
