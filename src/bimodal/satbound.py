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

The frame lists are built once per world count with lane filters
(bitslicing): the candidates are the lanes of Python ints, one bit each,
and a frame condition is a few big-int AND/OR/NOT operations per pair or
triple of points over the masks of the candidates having each edge, not
a check per candidate.  Transitive relations on m points filter the
one-point extensions of those on m-1 points; the commutator frames of
one L-partition filter the list of transitive relations or preorders;
persistent valuation masks filter all masks of a frame.  Survivors are
read off in list order, so the lists are those of a candidate-by-
candidate walk.  They stop at MAX_POINTS points: at 6 the transitive
relations alone outgrow memory.

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
from functools import cache, lru_cache

from .formula import atoms as formula_atoms
from .relations import bits, eval_masks, lowest
from .semantics import (BimodalModel, S4S5_PRODUCT, FRAME_CLASSES,
                        D_REFLEXIVE, RIGHT_COMMUTATIVE, PERSISTENT_ATOMS,
                        validate, product_grid, product_rows)

DEFAULT_MAX_POINTS = 4
# The m-point frame lists hold every transitive relation on m points:
# 154,303 at 5, 9,415,189 at 6 (OEIS A006905), which outgrow memory, and
# they pack rows in bytes, so they cannot hold 8.
MAX_POINTS = 5
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


# ---------------------------------------------------------------------------
# Frame lists by lane filters: candidate v is bit v of a mask.  Rows are
# read and written as bytes (see MAX_POINTS).

_CLEAR = bytes.maketrans(b"01", b"\1\0")
# _BIT_CHARS[j] maps a byte to the character "1" if its bit j is set, else "0"
_BIT_CHARS = [bytes(b"01"[v >> j & 1] for v in range(256)) for j in range(8)]


def _survivors(items, fails):
    """The items whose lane is clear in fails, in list order."""
    lanes = format(fails, f"0{len(items)}b")[::-1]
    return list(itertools.compress(items, lanes.encode().translate(_CLEAR)))


def _bit_lanes(bit, size):
    """The lanes 0 .. 2^size - 1 whose index has the given bit set."""
    run = 1 << bit
    return _repeat(((1 << run) - 1) << run, 2 * run, 1 << size - bit - 1)


def _edge_lanes(rels, m):
    """lanes[i][j]: the relations of rels (on m points) with i -> j, as a
    mask whose bit r stands for rels[r].  With every row one byte, row i
    of every relation is one strided slice of the rows' bytes."""
    rows = bytes(itertools.chain.from_iterable(rels))
    return [[int(rows[i::m].translate(_BIT_CHARS[j])[::-1], 2)
             for j in range(m)] for i in range(m)]


@cache
def _relation_lists(m):
    """(transitive relations, preorders) on m points, each list ascending
    in the integer encoding that packs row i into bits [i*m, (i+1)*m).
    That is the order of the rows compared from the last one down, so the
    sort key packs row i into byte i instead, which also decodes in one
    step.

    A transitive relation stays transitive on its first m-1 points, so
    each one is a transitive relation on m-1 points plus a column (which
    of them reach the new point n = m-1) and a row (what n reaches).  For
    each relation on m-1 points the lanes are the (row, column) pairs,
    lane row*2^n + column, and only triples through n can fail:
    i -> j -> n without i -> n, n -> j -> k without n -> k,
    i -> n -> k without i -> k, and n -> j -> n without n -> n."""
    if m == 0:
        return [[]], [[]]
    n = m - 1
    # column[i]: the lanes whose column holds i; row[j]: whose row holds j
    column = [_bit_lanes(i, n + m) for i in range(n)]
    row = [_bit_lanes(n + j, n + m) for j in range(m)]
    # each lane's share of the key: its row as byte n, and its column as
    # bit n of bytes 0 .. n-1
    lanes = [r << 8 * n | sum(1 << 8 * i + n for i in bits(c))
             for r in range(1 << m) for c in range(1 << n)]
    keys = []
    for sub in _relation_lists(n)[0]:
        fails = 0
        for i, reach in enumerate(sub):
            for k in range(n):
                if reach >> k & 1:
                    fails |= column[k] & ~column[i] | row[i] & ~row[k]
                else:
                    fails |= column[i] & row[k]
            fails |= row[i] & column[i] & ~row[n]
        low = int.from_bytes(bytes(sub), "little")
        keys.extend(low | key for key in _survivors(lanes, fails))
    keys.sort()
    diagonal = int.from_bytes(bytes(1 << i for i in range(m)), "little")
    rels = []
    preorders = []
    for key in keys:
        # memoryview.tolist sizes the list exactly
        succ = memoryview(key.to_bytes(m, "little")).tolist()
        rels.append(succ)
        if key & diagonal == diagonal:
            preorders.append(succ)
    return rels, preorders


def _commutator_fails(blocks, lanes, need_right):
    """The lanes of the relations that do not commute with the partition
    given by block indices on the left (D;L within L;D) or, if
    need_right, on the right; lanes are the relations' edge lanes.  With
    a[p][c] the lanes where p reaches block c and b[c][r] those where r is
    reached from block c, left commutativity fails at (p, r) on
    a[p][[r]] & ~b[[p]][r], and right commutativity on
    b[[p]][r] & ~a[p][[r]]."""
    m = len(blocks)
    a = [[0] * m for _ in range(m)]
    b = [[0] * m for _ in range(m)]
    for q, c in enumerate(blocks):
        for p in range(m):
            a[p][c] |= lanes[p][q]
            b[c][p] |= lanes[q][p]
    fails = 0
    for p in range(m):
        for r in range(m):
            reach, back = a[p][blocks[r]], b[blocks[p]][r]
            fails |= reach ^ back if need_right else reach & ~back
    return fails


@cache
def _frames(frame_class, m):
    """Valid frames of the class on m points in canonical order, as
    (succ_l, [succ_d, ...], names, [allowed, ...]) groups, one per
    partition or, for products, one per frame.  names are the points'
    names, "0", "1", ... or for products the `product_grid` names "v|x"
    of the cells v * m2 + x; allowed gives, per frame, the masks an atom
    may take: all of them, or under atom persistence the frame's
    `_persistent_masks`.  Products come by first factor size, then
    preorders on the first factor and partitions on the second."""
    every = range(1 << m)
    out = []
    if frame_class == S4S5_PRODUCT:
        for m1 in range(1, m + 1):
            if m % m1:
                continue
            m2 = m // m1
            names = tuple(product_grid(range(m1), range(m2))[2])
            for succ1 in _relation_lists(m1)[1]:
                for blocks in _set_partitions(m2):
                    succ_d, succ_l = product_rows(
                        succ1, _partition_succ(blocks, m2))
                    out.append((succ_l, [succ_d], names, [every]))
        return out
    need_right = frame_class in RIGHT_COMMUTATIVE
    rels, preorders = _relation_lists(m)
    rel_ds = preorders if frame_class in D_REFLEXIVE else rels
    lanes = _edge_lanes(rel_ds, m)
    names = tuple(map(str, range(m)))
    allowed = (list(map(_persistent_masks, rel_ds))
               if frame_class in PERSISTENT_ATOMS else [every] * len(rel_ds))
    for blocks in _set_partitions(m):
        fails = _commutator_fails(blocks, lanes, need_right)
        out.append((_partition_succ(blocks, m), _survivors(rel_ds, fails),
                    names, _survivors(allowed, fails)))
    return out


def _persistent_masks(succ_d):
    """Valuation masks constant along the []-relation (atom persistence:
    an atom keeps its value both ways along every []-step), ascending.
    The lanes are the masks; mask v holds point i when bit i of v is set,
    and an edge i -> j rules out the lanes holding exactly one of i, j."""
    m = len(succ_d)
    holds = [_bit_lanes(i, m) for i in range(m)]
    fails = 0
    for i, reach in enumerate(succ_d):
        for j in bits(reach):
            fails |= holds[i] ^ holds[j]
    return tuple(_survivors(range(1 << m), fails))


def _hit_model(frame_class, names, succ_l, succ_d, atom_masks, point_index):
    """The hit as a validated model whose point i is named names[i].  The
    lists hold at most MAX_POINTS points, so the names "0", "1", ... and
    "v|x" sort in index order."""
    model = BimodalModel.from_rows(names, succ_d, succ_l, atom_masks,
                                   frame_class=frame_class,
                                   designated=names[point_index])
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


def bounded_sat(f, frame_class, max_points=DEFAULT_MAX_POINTS,
                max_atoms=DEFAULT_MAX_ATOMS,
                max_candidates=DEFAULT_MAX_CANDIDATES):
    """Search for a model of f in the given frame class with at most
    max_points worlds: the first (frame, valuation, point) in canonical
    order where f holds, counting the valuations tried against
    max_candidates exactly as a one-at-a-time walk would.  A Sat verdict
    carries a validated model; an UnsatWithinBound verdict is one-sided."""
    if frame_class not in FRAME_CLASSES:
        raise ValueError(f"unknown frame class {frame_class!r}")
    if max_points < 1:
        raise ValueError("max_points must be at least 1")
    if max_points > MAX_POINTS:
        raise ValueError(f"max_points must be at most {MAX_POINTS}")
    atom_ids = sorted(formula_atoms(f))
    k = len(atom_ids)
    if k > max_atoms:
        raise ResourceCapError(f"formula has {k} atoms, ceiling is {max_atoms}")
    frames = candidates = 0
    for m in range(1, max_points + 1):
        for succ_l, succ_ds, names, masks in _frames(frame_class, m):
            for succ_d, allowed in zip(succ_ds, masks):
                frames += 1
                lane, fast = _lanes(allowed, k, m)
                width = len(allowed) ** len(fast)
                for slow in itertools.product(allowed, repeat=k - len(fast)):
                    packed = [mask * lane for mask in slow] + fast
                    atom_masks = dict(zip(atom_ids, packed))
                    hit = eval_masks(f, succ_d, succ_l, atom_masks, m, {},
                                     lane)
                    left = max_candidates - candidates
                    if width > left:
                        hit &= (1 << max(left, 0) * m) - 1
                    if hit:
                        v, point = divmod(lowest(hit), m)
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
