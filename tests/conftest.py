import pathlib

import pytest

from bimodal import atm as atm_mod
from bimodal.semantics import BimodalModel

ROOT = pathlib.Path(__file__).resolve().parent.parent
M1_PATH = ROOT / "fixtures" / "m1.atm"


@pytest.fixture(scope="session")
def m1():
    return atm_mod.parse_atm(M1_PATH.read_text())


@pytest.fixture(scope="session")
def m1_path():
    return str(M1_PATH)


def flipped(model, flips):
    """Copy of model with each (atom, world) in flips flipped.  An atom set
    true at a world is set true at all its []-successors too, and one set
    false is set false at all its []-predecessors, so atoms that were
    persistent along [] stay so and the frame keeps its class."""
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
    if value:
        members |= set(model.d_successors(w)) | {w}
    else:
        members -= {a for a, b in model.rel_d if b == w} | {w}


def _revalued(model, valuation):
    return BimodalModel(model.worlds, model.rel_d, model.rel_l, valuation,
                        frame_class=model.frame_class,
                        designated=model.designated,
                        is_product=model.is_product)


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
