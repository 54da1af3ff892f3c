import functools
import pathlib

import pytest

from bimodal import atm as atm_mod, satbound
from bimodal.semantics import BimodalModel, CROSS_AXIOM

ROOT = pathlib.Path(__file__).resolve().parent.parent
M1_PATH = ROOT / "fixtures" / "m1.atm"


@pytest.fixture(scope="session")
def m1():
    return atm_mod.parse_atm(M1_PATH.read_text())


@pytest.fixture(scope="session")
def m1_path():
    return str(M1_PATH)


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
