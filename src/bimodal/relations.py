"""Finite binary relations as lists of int row bitmasks, the one formula
evaluator over them, and the one pass/fail report format.

Bit j of row i means i -> j.  Each check scans rows in ascending order and
the set bits of a row in ascending order, and returns the first
counterexample as a tuple of point indices, or None when the property
holds.  Transitivity and commutativity compare rows of compositions
made once by `compose`, looking into the first row that escapes only to
name the counterexample; the evaluator decides a box once per group of
equal rows.  Bit positions are read one way across the package: `bits`
caches the ascending set bits of the small rows asked for again and
again, a row visited once is decoded by `ones`, top bit first, and
`lowest` gives the lowest set bit (of ~x, the lowest zero of x); the
image of a set of points, the union of their rows, is `image`.
The model checker, the frame validators and the bounded oracle all work
through this module.  Frame validation, tree validation and the
extractor's morphism check all report through `Report`.
"""

from functools import lru_cache

from .formula import ATOM, NOT, AND, KMOD, postorder


# The oracle's frame search asks for the bits of the same few small rows
# hundreds of thousands of times, and the rows of an equivalence repeat
# within each class; a cache hit skips the Python loop.
@lru_cache(maxsize=64)
def bits(mask):
    """Indices of the set bits of mask, ascending, as a tuple."""
    return tuple(reversed(ones(mask)))


def ones(mask):
    """Indices of the set bits of mask, descending, as a list: the top bit
    is found by `bit_length` and cleared, so each step works on a mask no
    wider than the bit it finds, and no numeral is made or reversed.
    `compose` and the model file writer and reader decode the rows they
    visit once with it, where `bits`' cache would only miss.  A negative
    mask, which has no top bit, is refused."""
    if mask < 0:
        raise ValueError(f"mask must be a natural number, got {mask}")
    out = []
    while mask:
        j = mask.bit_length() - 1
        out.append(j)
        mask ^= 1 << j
    return out


def lowest(mask):
    """Index of the lowest set bit of mask, or -1 for 0; lowest(~x) is the
    lowest zero of a natural number x."""
    return (mask & -mask).bit_length() - 1


def groups(succ):
    """Each distinct row of succ mapped to the mask of the points that have
    it, in order of the row's first point."""
    members = {}
    bit = 1
    for row in succ:
        members[row] = members.get(row, 0) | bit
        bit <<= 1
    return members


def image(succ, mask):
    """Union of the rows of succ at the set bits of mask: the points one
    step from some point of mask."""
    out = 0
    for i in bits(mask):
        out |= succ[i]
    return out


def reflexive(succ):
    """First i with no i -> i."""
    for i, row in enumerate(succ):
        if not row >> i & 1:
            return (i,)
    return None


def symmetric(succ):
    """First (i, j) with i -> j but not j -> i.

    Points with equal rows share their successors, so the relation is
    symmetric exactly when, for each distinct row, the points that have it
    lie inside the row of every point in it: one pass per group of equal
    rows (one per class of an equivalence) decides it, and the pairs are
    scanned only to name a counterexample."""
    for row, group in groups(succ).items():
        for j in bits(row):
            if group & ~succ[j]:
                return _asymmetric_pair(succ)
    return None


def _asymmetric_pair(succ):
    """First (i, j) with i -> j but not j -> i, pair by pair."""
    for i, row in enumerate(succ):
        for j in bits(row):
            if not succ[j] >> i & 1:
                return (i, j)
    return None


def compose(a, b, c):
    """The rows of a;b and of a;c, in one pass over the pairs of a: row i
    of a;b is the union of the b-rows of i's a-successors, found by `ones`
    (a union does not care about order).  A row equal to the one before it
    shares its unions: a class that is a run costs one."""
    ab, ac, last = [], [], None
    for row in a:
        if row != last:
            last = row
            x = y = 0
            for j in ones(row):
                x |= b[j]
                y |= c[j]
        ab.append(x)
        ac.append(y)
    return ab, ac


def transitive(succ, reach):
    """First (i, j, k) with i -> j -> k but not i -> k, given reach, the
    rows of succ;succ: i is the first row of reach not inside succ's, k
    the lowest point it adds, j the lowest successor of i reaching k."""
    for i, row in enumerate(succ):
        extra = reach[i] & ~row
        if extra:
            k = lowest(extra)
            return i, next(j for j in bits(row) if succ[j] >> k & 1), k
    return None


def commutes(a, b, ab, cd):
    """From p -a-> q -b-> r there must be an s with p -c-> s -d-> r; ab and
    cd are the rows of a;b and c;d.  Returns the first (p, q, r) without
    one: p the first row of ab not inside cd's, then the lowest q and r."""
    for p, reach in enumerate(cd):
        if ab[p] & ~reach:
            q = next(q for q in bits(a[p]) if b[q] & ~reach)
            return p, q, lowest(b[q] & ~reach)
    return None


def closed(succ, mask):
    """First (i, j) with i in mask, i -> j and j outside mask."""
    for i in bits(mask):
        lost = succ[i] & ~mask
        if lost:
            return (i, lowest(lost))
    return None


def constant(succ, masks):
    """First (k, i, j) with i -> j and masks[k] holding at exactly one of
    i and j: k is the first such mask and (i, j) its first such pair.

    Every mask is constant along succ exactly when each row lies inside
    the set of points holding the same masks as its own point, so for many
    masks one pass over the rows decides them all; the masks are scanned
    one by one only when there is a counterexample to name."""
    if len(masks) > 1:
        column = [0] * len(succ)
        for k, mask in enumerate(masks):
            for i in bits(mask):
                column[i] |= 1 << k
        alike = groups(column)
        if all(not row & ~alike[column[i]] for i, row in enumerate(succ)):
            return None
    full = (1 << len(succ)) - 1
    for k, mask in enumerate(masks):
        lost = closed(succ, mask)
        gained = closed(succ, full & ~mask)
        if lost or gained:
            return (k,) + min(b for b in (lost, gained) if b)
    return None


def index_runs(targets):
    """A partial injective map of point indices, given as each point's
    target or None, as runs (lo, ones, dest) for `remap`: the points lo,
    lo + 1, ... (the set bits of ones, shifted up by lo) go to dest,
    dest + 1, ...  A map that keeps the order of long stretches of points,
    such as adding or dropping a few points of a sorted world list, has
    few runs."""
    runs = []
    start = shift = None
    for i, t in enumerate(list(targets) + [None]):
        if start is not None and t is not None and t - i == shift:
            continue
        if start is not None:
            runs.append((start, (1 << (i - start)) - 1, start + shift))
        start, shift = (None, None) if t is None else (i, t - i)
    return runs


def remap(mask, runs):
    """mask with every point carried to its target under `index_runs`;
    points without a target are dropped."""
    out = 0
    for lo, ones, dest in runs:
        out |= (mask >> lo & ones) << dest
    return out


def classes(succ):
    """Equivalence classes of succ as masks, in order of their smallest
    member, paired with None; or None paired with the first failing
    property ("reflexive", "symmetric" or "transitive") and its
    counterexample.

    A relation is an equivalence exactly when every distinct row is the
    mask of the points that have it, so one grouping of the rows decides
    it."""
    by_row = groups(succ)
    if all(row == members for row, members in by_row.items()):
        return list(by_row), None
    for name, check in (("reflexive", reflexive), ("symmetric", symmetric),
                        ("transitive",
                         lambda s: transitive(s, compose(s, s, s)[0]))):
        bad = check(succ)
        if bad is not None:
            return None, (name, bad)
    raise AssertionError("relation is an equivalence but failed the class scan")


def eval_masks(f, succ_d, succ_l, atom_masks, n, cache, lane=1):
    """Mask of the points among n where f holds: rel_d (succ_d) interprets
    [], rel_l (succ_l) interprets K, and atom_masks maps atom ids to masks.
    cache maps subformulas to masks; it is filled in place and may be
    reused across calls on the same relations and valuation.  The
    subformulas are evaluated in `postorder`, each after its operands, and
    those the cache already holds are skipped.

    With one valuation (lane 1) a box whose body holds everywhere holds
    everywhere.  Otherwise the cache holds, under the box's kind, that
    relation's rows grouped by value (one group per class of an
    equivalence), and a box holds at each group whose row misses no point
    of the miss set (the points where its body fails).

    A lane other than 1 packs many valuations of the same frame into each
    mask: lane has bit v*n set for every valuation v, whose points are
    bits v*n .. v*n+n-1 of each atom mask and of the result.  A modal step
    then works on all valuations at once: shifting a mask down by j moves
    point j's truth value to bit 0 of every lane, and point i keeps the
    lanes where all its successors hold."""
    if f in cache:
        return cache[f]
    full = lane * ((1 << n) - 1)
    for t in postorder(f):
        if t in cache:
            continue
        kind = t.kind
        if kind == ATOM:
            v = atom_masks.get(t.value, 0)
        elif kind == AND:
            v = cache[t.left] & cache[t.right]
        elif kind == NOT:
            v = full & ~cache[t.left]
        else:
            succ = succ_l if kind == KMOD else succ_d
            body = cache[t.left]
            if lane != 1:
                v = 0
                for i, row in enumerate(succ):
                    box = lane
                    for j in bits(row):
                        box &= body >> j
                    v |= box << i
            elif not (miss := full & ~body):
                v = full  # the body holds everywhere
            else:
                by_row = cache.get(kind)
                if by_row is None:
                    by_row = cache[kind] = groups(succ).items()
                v = 0
                for row, members in by_row:
                    if not row & miss:
                        v |= members
        cache[t] = v
    return cache[f]


class Check:
    """One named condition and the counterexample that falsifies it,
    printed after its name; it passed when there is none."""

    def __init__(self, name, counterexample):
        self.name = name
        self.counterexample = counterexample
        self.passed = counterexample is None


class Report:
    """Named pass/fail checks, printed as an optional header line, one
    `name: pass|fail [counterexample]` line per check and a `result:`
    line.  The checks are kept as a tuple: a report may be shared."""

    def __init__(self, checks, header=None):
        self.checks = tuple(checks)
        self.header = header

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        out = [] if self.header is None else [self.header]
        for c in self.checks:
            line = f"{c.name}: {'pass' if c.passed else 'fail'}"
            if not c.passed:
                line += f" {c.counterexample}"
            out.append(line)
        out.append(f"result: {'pass' if self.ok else 'fail'}")
        return out
