"""Bounded-model satisfiability oracle by exhaustive enumeration.

Enumerates every model with up to a fixed number of points over the atoms
of the query formula, in a fixed canonical order: world count ascending,
then the L-relation as a set partition (restricted-growth strings in
lexicographic order), then the []-relation from the cached list of
transitive relations, then the valuation in itertools.product order over
the masks an atom may take, the first atom varying slowest.  Products
run over factor shapes by total size, then preorders on the first factor
and partitions on the second.  The first satisfying model is returned; a
negative answer is only "unsatisfiable within the bound".

All valuations of a frame are evaluated together.  On an m-point frame,
lane v of a packed mask (bits v*m .. v*m+m-1) holds valuation number v,
so one relations.eval_masks call over packed atom masks answers every
valuation at once.  The lowest set bit of the packed result is the first
valuation in canonical order and its first point, so the order and the
first hit are those of a one-valuation-at-a-time walk, and the candidate
ceiling still counts valuations tried.  A frame's valuations come in
chunks of at most LANES lanes: the fastest-varying atoms fill a chunk and
the slower ones are fixed per chunk.

No model object is built until a hit is found; the hit is then rebuilt
as a validated model.
"""

import itertools
from functools import lru_cache

from .formula import atoms as formula_atoms
from . import relations
from .relations import bits, eval_masks
from .semantics import (BimodalModel, S4S5_PRODUCT, FRAME_CLASSES,
                        D_REFLEXIVE, RIGHT_COMMUTATIVE, PERSISTENT_ATOMS,
                        validate, product_point, product_rows)

DEFAULT_MAX_POINTS = 4
DEFAULT_MAX_ATOMS = 3
DEFAULT_MAX_CANDIDATES = 50_000_000

# Most valuations one packed evaluation covers; bounds the width of the
# packed masks whatever the atom ceiling.
LANES = 4096


class ResourceCapError(RuntimeError):
    """The enumeration ceiling was hit before the search space was
    exhausted; unlike UnsatWithinBound this verdict means nothing."""


class SatVerdict:
    """Either Sat(model, point) or UnsatWithinBound(max_points, max_atoms),
    with the number of frames visited and valuations tried (up to and
    including the hit)."""

    def __init__(self, satisfiable, model=None, point=None,
                 max_points=None, max_atoms=None, frames=0, candidates=0):
        self.satisfiable = satisfiable
        self.model = model
        self.point = point
        self.max_points = max_points
        self.max_atoms = max_atoms
        self.frames = frames
        self.candidates = candidates

    def __repr__(self):
        if self.satisfiable:
            return f"Sat(point={self.point}, worlds={len(self.model.worlds)})"
        return f"UnsatWithinBound(max_points={self.max_points}, max_atoms={self.max_atoms})"


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


def _frame_groups(frame_class, m):
    """Valid frames of the class on m points in canonical order, as
    (succ_l, [succ_d, ...], names) groups, names naming the points of the
    group's frames: one group per partition with the points named "0",
    "1", ..., or for products one per frame with point v * m2 + x of an
    m1 x m2 product named "v|x".  Grouping keeps one reference per frame
    rather than a pair.  Products come by first factor size, then
    preorders on the first factor and partitions on the second."""
    key = (frame_class, m)
    if key in _frame_cache:
        return _frame_cache[key]
    out = []
    if frame_class == S4S5_PRODUCT:
        for m1 in range(1, m + 1):
            if m % m1:
                continue
            m2 = m // m1
            names = tuple(product_point(v, x)
                          for v in range(m1) for x in range(m2))
            for succ1 in _preorders(m1):
                for blocks in _set_partitions(m2):
                    succ_d, succ_l = product_rows(
                        succ1, _partition_succ(blocks, m2))
                    out.append((succ_l, [succ_d], names))
    else:
        need_right = frame_class in RIGHT_COMMUTATIVE
        rel_ds = (_preorders(m) if frame_class in D_REFLEXIVE
                  else _transitive_relations(m))
        names = tuple(map(str, range(m)))
        for blocks in _set_partitions(m):
            succ_l = _partition_succ(blocks, m)
            out.append((succ_l, [
                succ_d for succ_d in rel_ds
                if relations.commutes(succ_d, succ_l, succ_l, succ_d) is None
                and not (need_right and relations.commutes(
                    succ_l, succ_d, succ_d, succ_l) is not None)], names))
    _frame_cache[key] = out
    return out


_persistent_cache = {}


def _persistent_masks(succ_d):
    """Valuation masks constant along the []-relation (atom persistence:
    an atom keeps its value both ways along every []-step), that is the
    masks closed under it whose complement is closed too."""
    key = tuple(succ_d)
    if key not in _persistent_cache:
        full = (1 << len(succ_d)) - 1
        closed = {mask for mask in range(full + 1)
                  if relations.closed(succ_d, mask) is None}
        _persistent_cache[key] = tuple(
            mask for mask in range(full + 1)
            if mask in closed and full ^ mask in closed)
    return _persistent_cache[key]


def _build_hit(frame_class, names, succ_l, succ_d, atom_masks, point_index):
    """The candidate as a model whose point i is named names[i]; the
    sorted names need not be in index order (from 11 points on, "10"
    comes before "2")."""
    m = len(succ_d)
    order = sorted(range(m), key=names.__getitem__)
    targets = [0] * m
    for pos, i in enumerate(order):
        targets[i] = pos
    runs = relations.index_runs(targets)
    return BimodalModel.from_rows(
        [names[i] for i in order],
        [relations.remap(succ_d[i], runs) for i in order],
        [relations.remap(succ_l[i], runs) for i in order],
        {a: relations.remap(mask, runs) for a, mask in atom_masks.items()},
        frame_class=frame_class, designated=names[point_index])


def _hit_model(frame_class, names, succ_l, succ_d, atom_masks, point_index):
    """The hit as a validated model."""
    model = _build_hit(frame_class, names, succ_l, succ_d, atom_masks,
                       point_index)
    report = validate(model, frame_class)
    if not report.ok:
        raise AssertionError(
            f"enumerated frame failed validation: {report.lines()}")
    return model


# ---------------------------------------------------------------------------
# Valuations packed into lanes.

def _repeat(x, width, count):
    """x copied into count consecutive fields of width bits."""
    return x * (((1 << width * count) - 1) // ((1 << width) - 1))


# Bounded: there is an entry per distinct atom range, and cross-axiom
# frames have one per preorder.
@lru_cache(maxsize=2048)
def _lanes(allowed, k, m):
    """(lane, fast) for the valuations of k atoms over allowed on m
    points.  The last len(fast) atoms vary fastest and fill one chunk of
    len(allowed) ** len(fast) <= LANES lanes: lane has bit v*m set for
    each lane v, and fast holds those atoms' packed masks."""
    b = len(allowed)
    j = 0
    while j < k and b ** (j + 1) <= LANES:
        j += 1
    fast = []
    for t in range(j):
        run = b ** (j - 1 - t)
        block = 0
        for d, mask in enumerate(allowed):
            block |= _repeat(mask, m, run) << (d * run * m)
        fast.append(_repeat(block, b * run * m, b ** t))
    return _repeat(1, m, b ** j), fast


def _search(f, frame_class, atom_ids, max_points, max_atoms, max_candidates):
    """The one search loop: the first (frame, valuation, point) in
    canonical order where f holds, counting the valuations tried against
    max_candidates exactly as a one-at-a-time walk would."""
    k = len(atom_ids)
    frames = candidates = 0
    for m in range(1, max_points + 1):
        every = range(1 << m)
        for succ_l, succ_ds, names in _frame_groups(frame_class, m):
            for succ_d in succ_ds:
                frames += 1
                allowed = (_persistent_masks(succ_d)
                           if frame_class in PERSISTENT_ATOMS else every)
                lane, fast = _lanes(allowed, k, m)
                width = len(allowed) ** len(fast)
                for slow in itertools.product(allowed, repeat=k - len(fast)):
                    masks = [mask * lane for mask in slow] + fast
                    atom_masks = dict(zip(atom_ids, masks))
                    hit = eval_masks(f, succ_d, succ_l, atom_masks, m, {},
                                     lane)
                    left = max_candidates - candidates
                    if width > left:
                        hit &= (1 << max(left, 0) * m) - 1
                    if hit:
                        v, point = divmod((hit & -hit).bit_length() - 1, m)
                        valuation = {a: mask >> v * m & (1 << m) - 1
                                     for a, mask in atom_masks.items()}
                        model = _hit_model(frame_class, names, succ_l, succ_d,
                                           valuation, point)
                        return SatVerdict(True, model=model,
                                          point=model.designated,
                                          frames=frames,
                                          candidates=candidates + v + 1)
                    if width > left:
                        raise ResourceCapError(
                            f"exceeded the enumeration ceiling of "
                            f"{max_candidates} candidates")
                    candidates += width
    return SatVerdict(False, max_points=max_points, max_atoms=max_atoms,
                      frames=frames, candidates=candidates)


def bounded_sat(f, frame_class, max_points=DEFAULT_MAX_POINTS,
                max_atoms=DEFAULT_MAX_ATOMS,
                max_candidates=DEFAULT_MAX_CANDIDATES):
    """Search for a model of f in the given frame class with at most
    max_points worlds.  A Sat verdict carries a validated model; an
    UnsatWithinBound verdict is one-sided."""
    if frame_class not in FRAME_CLASSES:
        raise ValueError(f"unknown frame class {frame_class!r}")
    if max_points < 1:
        raise ValueError("max_points must be at least 1")
    atom_ids = sorted(formula_atoms(f))
    if len(atom_ids) > max_atoms:
        raise ResourceCapError(
            f"formula has {len(atom_ids)} atoms, ceiling is {max_atoms}")
    return _search(f, frame_class, atom_ids, max_points, max_atoms,
                   max_candidates)
