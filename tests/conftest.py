import functools
import pathlib

import pytest

from bimodal import (atm as atm_mod, red_s4s5, red_ssl, relations, satbound,
                     translations)
from bimodal.semantics import (BimodalModel, CROSS_AXIOM, S4S5_COMMUTATOR,
                               S4S5_PRODUCT)

ROOT = pathlib.Path(__file__).resolve().parent.parent
M1_PATH = ROOT / "fixtures" / "m1.atm"
FAN_PATH = ROOT / "bench" / "machines" / "fan.atm"


@pytest.fixture(scope="session")
def m1():
    return atm_mod.parse_atm(M1_PATH.read_text())


@pytest.fixture(scope="session")
def m1_path():
    return str(M1_PATH)


@pytest.fixture(scope="session")
def branch_witnesses():
    """The witnesses the `branch` benchmark checks, at its sizes (576 to
    1,024 worlds), as (name, model, frame class, point, formula true
    there): counter-ssl and counter-s4s5 at n = 5, fan on "bbb" in both
    logics, and the subset-space fan witness lifted to s4s5."""
    out = []
    for name, gen, build, cls in (
            ("counter-ssl", red_ssl.gen_counter_ssl,
             red_ssl.build_counter_ssl_model, CROSS_AXIOM),
            ("counter-s4s5", red_s4s5.gen_counter_s4s5,
             red_s4s5.build_counter_s4s5_model, S4S5_PRODUCT)):
        model, point = build(5)
        out.append((name, model, cls, point, gen(5)[0]))
    fan = atm_mod.parse_atm(FAN_PATH.read_text())
    params = red_ssl.ReductionParams(fan, [0, 1], "bbb")
    tree = atm_mod.find_accepting_tree(fan, "bbb", 2 ** params.N - 1)
    for name, gen, build, cls in (
            ("fan-ssl", red_ssl.gen_f_ssl, red_ssl.build_f_ssl_model, CROSS_AXIOM),
            ("fan-s4s5", red_s4s5.gen_f_s4s5, red_s4s5.build_f_s4s5_model,
             S4S5_PRODUCT)):
        model, point = build(params, tree)
        out.append((name, model, cls, point, gen(params)[0]))
    _, ssl_model, _, ssl_point, ssl_f = out[2]
    result = translations.t_ssl_to_s4s5(ssl_f)
    lifted, point = translations.lift_model_ssl_to_s4s5(ssl_model, ssl_point,
                                                        result.main_atom)
    out.append(("lifted-fan-ssl", lifted, S4S5_COMMUTATOR, point, result.formula))
    return out


@pytest.fixture
def five_point_frames():
    """For a test that builds the oracle's 5-point frame lists: drops them
    (tens of MB) from the module caches afterwards, with the smaller lists,
    which rebuild in a few hundredths of a second."""
    yield
    satbound._relation_lists.cache_clear()
    satbound._frames.cache_clear()


def flipped(model, flips):
    """Copy of model with each (atom, world) in flips flipped.  An atom set
    true at a world is set true at all its []-successors too, and one set
    false is set false at all its []-predecessors; on cross-axiom models,
    where atoms are constant along [] both ways, the value is set on the
    world's whole []-component instead.  Atoms that were persistent along
    [] stay so and the frame keeps its class."""
    valuation = {a: set(s) for a, s in model.valuation.items()}
    for atom, w in flips:
        _pin(model, valuation[atom], w, w not in valuation[atom])
    return _revalued(model, valuation)


def pinned(model, atoms, worlds, value):
    """Copy of model with every atom in atoms set to value at every world
    in worlds, closed along [] as in `flipped`."""
    valuation = {a: set(s) for a, s in model.valuation.items()}
    for atom in atoms:
        for w in worlds:
            _pin(model, valuation[atom], w, value)
    return _revalued(model, valuation)


def _pin(model, members, w, value):
    if model.frame_class == CROSS_AXIOM:
        component = _d_component(model, w)
        if value:
            members |= component
        else:
            members -= component
    elif value:
        members |= set(model.d_successors(w)) | {w}
    else:
        members -= {a for a, b in model.rel_d if b == w} | {w}


@functools.lru_cache(maxsize=4)
def _d_links(model):
    """Each world's []-successors and []-predecessors."""
    linked = {}
    for a, b in model.rel_d:
        linked.setdefault(a, set()).add(b)
        linked.setdefault(b, set()).add(a)
    return linked


def _d_component(model, w):
    """The worlds joined to w by []-steps taken either way."""
    linked = _d_links(model)
    component = {w}
    todo = [w]
    while todo:
        for b in linked.get(todo.pop(), ()):
            if b not in component:
                component.add(b)
                todo.append(b)
    return component


def _revalued(model, valuation):
    """model's frame with another valuation, given by world names."""
    masks = {a: sum(1 << model.index[w] for w in members)
             for a, members in valuation.items()}
    return BimodalModel.from_rows(model.worlds, model._succ_d, model._succ_l,
                                  masks, frame_class=model.frame_class,
                                  designated=model.designated)


def mutants(model, rng, carriers, count=12):
    """Seeded valuation mutants of model: one for each single flip of a
    carrier atom at a world where some carrier atom is set, then `count`
    with one to four flips of any atom anywhere."""
    sites = sorted(set().union(*(model.valuation[a] for a in carriers)))
    out = [flipped(model, [(a, w)]) for a in carriers for w in sites]
    atom_ids = sorted(model.valuation)
    for _ in range(count):
        out.append(flipped(model, [(rng.choice(atom_ids), rng.choice(model.worlds))
                                   for _ in range(rng.randint(1, 4))]))
    return out


def rewired(model, rng, count):
    """count seeded copies of model, each with one []- or K-pair dropped
    or added, so that frame checks both keep passing and fail with a
    counterexample to name."""
    n = len(model.worlds)
    out = []
    for k in range(count):
        rows = [list(model._succ_d), list(model._succ_l)]
        succ = rows[rng.randrange(2)]
        i = rng.randrange(n)
        if k % 2 and succ[i]:  # drop one of row i's pairs
            succ[i] ^= 1 << rng.choice(relations.bits(succ[i]))
        else:
            succ[i] |= 1 << rng.randrange(n)
        out.append(BimodalModel.from_rows(model.worlds, *rows, model._atom_masks,
                                          frame_class=model.frame_class,
                                          designated=model.designated))
    return out


# The row scans frame validation ran before it composed each relation
# once: a union per row and successor, inside every check.  The
# compositions must name the same counterexamples.

def reference_transitive(succ):
    """First (i, j, k) with i -> j -> k but not i -> k: i is the first
    failing row, k the lowest point it misses, j its lowest successor
    reaching k."""
    for i, row in enumerate(succ):
        reach = 0
        for j in relations.bits(row):
            reach |= succ[j]
        extra = reach & ~row
        if extra:
            k = relations.lowest(extra)
            for j in relations.bits(row):
                if succ[j] >> k & 1:
                    return (i, j, k)
    return None


def reference_commutes(a, b, c, d):
    """From p -a-> q -b-> r there must be an s with p -c-> s -d-> r.
    Returns the first (p, q, r) without one."""
    for p, row in enumerate(a):
        reach = 0
        for s in relations.bits(c[p]):
            reach |= d[s]
        for q in relations.bits(row):
            missing = b[q] & ~reach
            if missing:
                return (p, q, relations.lowest(missing))
    return None
