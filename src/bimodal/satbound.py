"""Bounded-model satisfiability oracle by exhaustive enumeration.

Enumerates every model with up to a fixed number of points over the atoms
of the query formula, in a fixed canonical order: world count ascending,
then the L-relation as a set partition (restricted-growth strings in
lexicographic order), then the []-relation from the cached list of
transitive relations, then the valuation.  The first satisfying model is
returned; a negative answer is only "unsatisfiable within the bound".

Candidate evaluation works directly on relation bitmasks, so no model
object is built until a hit is found; the hit is then rebuilt as a
validated model.
"""

import itertools
import os

from .formula import atoms as formula_atoms
from . import relations
from .relations import bits, eval_masks
from .semantics import (BimodalModel, CROSS_AXIOM, S4S5_COMMUTATOR,
                        K4S5_COMMUTATOR, S4S5_PRODUCT, FRAME_CLASSES,
                        validate, product_model)

DEFAULT_MAX_POINTS = 4
DEFAULT_MAX_ATOMS = 3
DEFAULT_MAX_CANDIDATES = 50_000_000

ENV_MAX_POINTS = "SATBOUND_MAX_POINTS"
ENV_MAX_ATOMS = "SATBOUND_MAX_ATOMS"
ENV_MAX_CANDIDATES = "SATBOUND_MAX_CANDIDATES"


class ResourceCapError(RuntimeError):
    """The enumeration ceiling was hit before the search space was
    exhausted; unlike UnsatWithinBound this verdict means nothing."""


class SatVerdict:
    """Either Sat(model, point) or UnsatWithinBound(max_points, max_atoms)."""

    def __init__(self, satisfiable, model=None, point=None,
                 max_points=None, max_atoms=None):
        self.satisfiable = satisfiable
        self.model = model
        self.point = point
        self.max_points = max_points
        self.max_atoms = max_atoms

    def __repr__(self):
        if self.satisfiable:
            return f"Sat(point={self.point}, worlds={len(self.model.worlds)})"
        return f"UnsatWithinBound(max_points={self.max_points}, max_atoms={self.max_atoms})"


def _env_int(name, fallback):
    raw = os.environ.get(name)
    return fallback if raw is None else int(raw)


# ---------------------------------------------------------------------------
# Frame enumeration, cached per world count.

def _set_partitions(m):
    """Partitions of {0..m-1} as tuples of block indices per element,
    in restricted-growth-string lexicographic order."""
    out = []

    def grow(prefix, maxblock):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for b in range(maxblock + 2):
            prefix.append(b)
            grow(prefix, max(maxblock, b))
            prefix.pop()

    grow([0], 0) if m else out.append(())
    return out


def _partition_succ(blocks, m):
    """L-relation bitmasks of a partition given as block indices."""
    masks = {}
    for i, b in enumerate(blocks):
        masks[b] = masks.get(b, 0) | (1 << i)
    return [masks[blocks[i]] for i in range(m)]


_transitive_cache = {}
_preorder_cache = {}


def _transitive_relations(m):
    """All transitive relations on m points, ascending in the integer
    encoding that packs row i into bits [i*m, (i+1)*m).

    A transitive relation stays transitive on its first m-1 points, so
    each one is a transitive relation on m-1 points plus a column (which
    of them reach the new point) and a row (what the new point reaches)."""
    if m not in _transitive_cache:
        if m == 0:
            rels = [[]]
        else:
            new = 1 << (m - 1)
            rels = []
            for sub in _transitive_relations(m - 1):
                for column in range(new):
                    base = list(sub)
                    for i in bits(column):
                        base[i] |= new
                    for row in range(2 * new):
                        succ = base + [row]
                        if relations.transitive(succ) is None:
                            rels.append(succ)
            rels.sort(key=lambda succ: sum(r << (i * m) for i, r in enumerate(succ)))
        _transitive_cache[m] = rels
        _preorder_cache[m] = [succ for succ in rels
                              if relations.reflexive(succ) is None]
    return _transitive_cache[m]


def _preorders(m):
    _transitive_relations(m)
    return _preorder_cache[m]


_frame_cache = {}


def _frames(frame_class, m):
    """Valid (succ_l, succ_d) frame pairs for the class, canonical order."""
    key = (frame_class, m)
    if key in _frame_cache:
        return _frame_cache[key]
    need_reflexive = frame_class in (CROSS_AXIOM, S4S5_COMMUTATOR)
    need_right = frame_class in (S4S5_COMMUTATOR, K4S5_COMMUTATOR)
    rel_ds = _preorders(m) if need_reflexive else _transitive_relations(m)
    out = []
    for blocks in _set_partitions(m):
        succ_l = _partition_succ(blocks, m)
        for succ_d in rel_ds:
            if relations.commutes(succ_d, succ_l, succ_l, succ_d) is not None:
                continue
            if need_right and relations.commutes(
                    succ_l, succ_d, succ_d, succ_l) is not None:
                continue
            out.append((succ_l, succ_d))
    _frame_cache[key] = out
    return out


_persistent_cache = {}


def _persistent_masks(succ_d):
    """Valuation masks closed under the []-relation (atom persistence)."""
    key = tuple(succ_d)
    if key not in _persistent_cache:
        _persistent_cache[key] = [mask for mask in range(1 << len(succ_d))
                                  if relations.closed(succ_d, mask) is None]
    return _persistent_cache[key]


def _pairs(succ):
    return [(i, j) for i, row in enumerate(succ) for j in bits(row)]


def _build_hit(frame_class, succ_l, succ_d, atom_masks, point_index):
    """The candidate as a model whose worlds are named "0", "1", ..."""
    names = [str(i) for i in range(len(succ_d))]
    rel_d = [(names[i], names[j]) for i, j in _pairs(succ_d)]
    rel_l = [(names[i], names[j]) for i, j in _pairs(succ_l)]
    valuation = {a: {names[i] for i in bits(mask)}
                 for a, mask in atom_masks.items()}
    return BimodalModel(names, rel_d, rel_l, valuation,
                        frame_class=frame_class, designated=names[point_index])


def bounded_sat(f, frame_class, max_points=None, max_atoms=None,
                max_candidates=None):
    """Search for a model of f in the given frame class with at most
    max_points worlds.  A Sat verdict carries a validated model; an
    UnsatWithinBound verdict is one-sided."""
    if frame_class not in FRAME_CLASSES:
        raise ValueError(f"unknown frame class {frame_class!r}")
    if max_points is None:
        max_points = _env_int(ENV_MAX_POINTS, DEFAULT_MAX_POINTS)
    if max_atoms is None:
        max_atoms = _env_int(ENV_MAX_ATOMS, DEFAULT_MAX_ATOMS)
    if max_candidates is None:
        max_candidates = _env_int(ENV_MAX_CANDIDATES, DEFAULT_MAX_CANDIDATES)
    if max_points < 1:
        raise ValueError("max_points must be at least 1")
    atom_ids = sorted(formula_atoms(f))
    if len(atom_ids) > max_atoms:
        raise ResourceCapError(
            f"formula has {len(atom_ids)} atoms, ceiling is {max_atoms}")

    if frame_class == S4S5_PRODUCT:
        return _bounded_sat_product(f, atom_ids, max_points, max_atoms,
                                    max_candidates)

    budget = max_candidates
    for m in range(1, max_points + 1):
        all_masks = list(range(1 << m))
        for succ_l, succ_d in _frames(frame_class, m):
            if frame_class == CROSS_AXIOM:
                allowed = _persistent_masks(succ_d)
            else:
                allowed = all_masks
            for combo in itertools.product(allowed, repeat=len(atom_ids)):
                budget -= 1
                if budget < 0:
                    raise ResourceCapError(
                        f"exceeded the enumeration ceiling of {max_candidates} candidates")
                atom_masks = dict(zip(atom_ids, combo))
                hit = eval_masks(f, succ_d, succ_l, atom_masks, m, {})
                if hit:
                    point = bits(hit)[0]
                    model = _build_hit(frame_class, succ_l, succ_d,
                                       atom_masks, point)
                    report = validate(model, frame_class)
                    if not report.ok:
                        raise AssertionError(
                            f"enumerated frame failed validation: {report.lines()}")
                    return SatVerdict(True, model=model, point=model.designated)
    return SatVerdict(False, max_points=max_points, max_atoms=max_atoms)


def _bounded_sat_product(f, atom_ids, max_points, max_atoms, max_candidates):
    """Product-class search over factor pairs: preorders on the first
    factor, partitions on the second, ordered by total size."""
    shapes = sorted((m1 * m2, m1, m2)
                    for m1 in range(1, max_points + 1)
                    for m2 in range(1, max_points + 1)
                    if m1 * m2 <= max_points)
    budget = max_candidates
    for m, m1, m2 in shapes:
        for succ1 in _preorders(m1):
            for blocks in _set_partitions(m2):
                succ2 = _partition_succ(blocks, m2)
                # product point (v, x) -> index v * m2 + x
                succ_d = [0] * m
                succ_l = [0] * m
                for v in range(m1):
                    for x in range(m2):
                        i = v * m2 + x
                        for j in bits(succ1[v]):
                            succ_d[i] |= 1 << (j * m2 + x)
                        for j in bits(succ2[x]):
                            succ_l[i] |= 1 << (v * m2 + j)
                for combo in itertools.product(range(1 << m),
                                               repeat=len(atom_ids)):
                    budget -= 1
                    if budget < 0:
                        raise ResourceCapError(
                            f"exceeded the enumeration ceiling of {max_candidates} candidates")
                    atom_masks = dict(zip(atom_ids, combo))
                    hit = eval_masks(f, succ_d, succ_l, atom_masks, m, {})
                    if hit:
                        point = bits(hit)[0]
                        v, x = divmod(point, m2)
                        frame1 = (list(range(m1)), _pairs(succ1))
                        frame2 = (list(range(m2)), _pairs(succ2))
                        valuation = {a: {divmod(i, m2) for i in bits(mask)}
                                     for a, mask in atom_masks.items()}
                        model = product_model(frame1, frame2, valuation,
                                              designated=(v, x))
                        report = validate(model, S4S5_PRODUCT)
                        if not report.ok:
                            raise AssertionError(
                                f"enumerated product failed validation: {report.lines()}")
                        return SatVerdict(True, model=model,
                                          point=model.designated)
    return SatVerdict(False, max_points=max_points, max_atoms=max_atoms)
