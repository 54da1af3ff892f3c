"""Both directions of the reductions' "iff" on every one-transition mutant.

A mutant M' of a machine M changes one transition's target state, written
symbol or move to every other value, or drops the transition.  It keeps
M's states and symbols, so f(M', w) lives on the same atoms as f(M, w)
and can be evaluated on M's witness for w.  Wherever f(M', w) holds
there, M' must accept w within 2^N - 1 steps, and the tree extracted at
such a world must be an accepting tree of M'.  Mutants the machine
parser refuses (a state left without a move on some symbol) are counted
and skipped.
"""

import functools

import pytest

from bimodal import atm as am
from bimodal import red_s4s5, red_ssl
from bimodal.reduction import ReductionParams, gen_formula, grow_tree
from tests.conftest import FAN_PATH, M1_PATH, ROOT

MACHINES = {"fan": (FAN_PATH, "bbb", (0, 1)),
            "m1": (M1_PATH, "ab", (1, 1)),
            "bounce": (ROOT / "bench" / "machines" / "bounce.atm", "bab", (1, 1))}
REDUCTIONS = {"ssl": red_ssl.SSL, "s4s5": red_s4s5.S4S5}


def mutant_texts(text):
    """Every one-transition mutant of a machine text, in line order."""
    spec = am.parse_atm(text)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("delta:"):
            continue
        lhs, rhs = line.split("->")
        r, b, d = rhs.split()
        changed = ([(q, b, d) for q in spec.states if q != r]
                   + [(r, a, d) for a in spec.symbols if a != b]
                   + [(r, b, am.LEFT if d == am.RIGHT else am.RIGHT)])
        for rhs in [f"{lhs}-> {' '.join(t)}" for t in changed] + [None]:
            edited = lines[:i] + ([] if rhs is None else [rhs]) + lines[i + 1:]
            yield "\n".join(edited) + "\n"


@functools.lru_cache(maxsize=None)
def machine_mutants(machine):
    """The machine's mutants the parser accepts, and the number refused."""
    parsed, refused = [], 0
    for text in mutant_texts(MACHINES[machine][0].read_text()):
        try:
            parsed.append(am.parse_atm(text))
        except am.AtmError:
            refused += 1
    return parsed, refused


@functools.lru_cache(maxsize=None)
def witness(machine, logic):
    path, w, poly = MACHINES[machine]
    params = ReductionParams(am.parse_atm(path.read_text()), poly, w)
    tree = am.find_accepting_tree(params.atm, w, 2 ** params.N - 1)
    return REDUCTIONS[logic].build_model(params, tree)


@pytest.mark.parametrize("machine, parsed, refused", [
    ("fan", 44, 5), ("m1", 44, 5), ("bounce", 63, 9)])
def test_every_one_transition_mutant_is_made(machine, parsed, refused):
    # seven mutants per transition (eight on bounce's five states); those
    # refused drop a state's only move on a symbol
    specs, refused_count = machine_mutants(machine)
    assert (len(specs), refused_count) == (parsed, refused)


@pytest.mark.parametrize("logic", sorted(REDUCTIONS))
@pytest.mark.parametrize("machine, tally", [
    ("fan", (22, 11, 11)), ("m1", (26, 14, 4)), ("bounce", (14, 28, 21))])
def test_mutant_formula_holds_only_where_the_mutant_accepts(machine, tally, logic):
    """tally counts the mutants whose f holds on the witness, those that
    accept while f holds nowhere there, and those that reject."""
    red = REDUCTIONS[logic]
    model, _ = witness(machine, logic)
    _, w, poly = MACHINES[machine]
    counts = [0, 0, 0]
    for spec in machine_mutants(machine)[0]:
        params = ReductionParams(spec, poly, w)
        holds = model.sat_set(gen_formula(red, params)[0])
        accepts = am.find_accepting_tree(spec, w, 2 ** params.N - 1) is not None
        counts[0 if holds else 1 if accepts else 2] += 1
        if holds:
            assert accepts
        for world in holds[:3]:
            tree, _ = grow_tree(red, model, world, params)
            assert am.validate_tree(spec, w, tree).ok
    assert tuple(counts) == tally
