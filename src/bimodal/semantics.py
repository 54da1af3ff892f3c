"""Finite bimodal Kripke models, frame-class validation, and model checking.

A model is its sorted world list, two relations as row bitmasks over it
(`_succ_d` interprets [], `_succ_l` interprets K; bit j of row i means
world i -> world j) and one bitmask of worlds per atom.  The rows are the
model: every producer in the package builds them directly and hands them
to `BimodalModel.from_rows`.  Pairs are a derived view: `rel_d`, `rel_l`
and `valuation` are read-only sets and maps computed from the rows on
demand, and the pair-set constructor is a thin entry for callers holding
pairs, which converts them to rows once.  Reflexive pairs are stored
explicitly, with no implicit closure, so validators observe exactly the
raw data.

Evaluation computes, per distinct subformula, the set of worlds where it
holds as a bitmask over the sorted world list.  The per-model cache is
keyed by subformula identity, so repeated checks are cheap even for very
large generated formulas; it also groups each relation's rows by value,
so a box scans one row per group, and none when its body holds
everywhere.
Validation composes D;D, D;L, L;L and L;D once and compares rows: L;L
inside L, D;D inside D, D;L inside L;D and L;D inside D;L.  A model never
changes, so it keeps the report of each class it is validated for, and
validating it again returns that report.

A product is built from the rows of its factors: `product_grid` orders
the cells and names them "v|x", and `product_rows` gives both relations;
the factors' frame properties are checked by `validate`, as for any
model.  A product model is recognised by its world names, not by how it
was built: the s4s5-product class checks that the names form a full grid
and that both relations are the products of the factor relations read
off that grid.

A model file has one line per world, relation pair and atom, so a model
accepts only world names that are one whitespace-free token and only a
known frame class: every model saves to a file that reads back.  The
writer decodes each row that differs from the one before it with
`relations.ones`, joins each row's lines into one string and joins the
whole text once.  One reader takes any file in one pass over its lines:
a source's run of relation lines in the writer's form is taken whole,
and a run that reads exactly as the writer would write the targets of
the run before is that row again, found by one comparison of text; any
other line is split on its own.  Rows are made as their lines are
read, atom masks from all of an atom's lines at the end, and both are
carried to the sorted order of the worlds, each distinct row once.
"""

import re
from collections.abc import Mapping, Set
from functools import reduce
from operator import or_

from .formula import Formula
from . import relations
from .relations import Check, Report, bits, eval_masks, ones

CROSS_AXIOM = "cross-axiom"
S4S5_COMMUTATOR = "s4s5-commutator"
K4S5_COMMUTATOR = "k4s5-commutator"
S4S5_PRODUCT = "s4s5-product"

FRAME_CLASSES = (CROSS_AXIOM, S4S5_COMMUTATOR, K4S5_COMMUTATOR, S4S5_PRODUCT)

# Which classes require []-reflexivity, right commutativity, atom
# persistence; the validator and the oracle's frame lists both read this.
D_REFLEXIVE = frozenset({CROSS_AXIOM, S4S5_COMMUTATOR, S4S5_PRODUCT})
RIGHT_COMMUTATIVE = frozenset({S4S5_COMMUTATOR, K4S5_COMMUTATOR, S4S5_PRODUCT})
PERSISTENT_ATOMS = frozenset({CROSS_AXIOM})


class PairView(Set):
    """Read-only set of the (world, world) pairs of one relation, derived
    from its rows: len is a popcount, membership an index lookup, and
    iteration runs in sorted pair order.  Set operators return
    frozensets."""

    __slots__ = ("_worlds", "_index", "_rows")

    def __init__(self, worlds, index, rows):
        self._worlds = worlds
        self._index = index
        self._rows = rows

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self):
        return sum(row.bit_count() for row in self._rows)

    def __contains__(self, pair):
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        try:
            i, j = self._index[pair[0]], self._index[pair[1]]
        except (TypeError, KeyError):
            return False
        return bool(self._rows[i] >> j & 1)

    def __iter__(self):
        worlds = self._worlds
        for i, row in enumerate(self._rows):
            a = worlds[i]
            for j in bits(row):
                yield a, worlds[j]

    def __repr__(self):
        return f"PairView({list(self)!r})"


class ValuationView(Mapping):
    """Read-only map from atom ids to the frozenset of worlds where each
    holds, derived from the atom masks."""

    __slots__ = ("_worlds", "_masks")

    def __init__(self, worlds, masks):
        self._worlds = worlds
        self._masks = masks

    def __getitem__(self, atom_id):
        worlds = self._worlds
        return frozenset(worlds[j] for j in bits(self._masks[atom_id]))

    def __iter__(self):
        return iter(self._masks)

    def __len__(self):
        return len(self._masks)

    def __repr__(self):
        return f"ValuationView({dict(self)!r})"


def _world_id(w):
    if not isinstance(w, str):
        raise ValueError(f"world ids must be strings, got {w!r}")
    return w


def _order(w):
    """A sort key for world names, or pairs of them, of any type: an error
    names the least offender, not the first one a set yields, which
    depends on the hash seed."""
    return (str(w), repr(w))


def _pair_rows(pairs, size, index):
    """size rows of bits from pairs of names: the pair (a, b) sets bit
    index[b] of row index[a].  When pairs name unknown worlds, a
    ValueError naming the least such pair."""
    succ = [0] * size
    try:
        for a, b in pairs:
            succ[index[a]] |= 1 << index[b]
    except KeyError:
        a, b = min([(a, b), *((v, x) for v, x in pairs
                              if v not in index or x not in index)],
                   key=lambda pair: tuple(map(_order, pair)))
        raise ValueError(f"relation pair ({a!r}, {b!r}) mentions unknown world") from None
    return succ


def _named_rows(worlds, rel_d, rel_l, valuation):
    """Sorted worlds, rows and atom masks of a model given by world names,
    pairs of names and sets of names."""
    worlds = tuple(sorted(worlds, key=_world_id))
    index = {w: i for i, w in enumerate(worlds)}
    rows = [_pair_rows(rel, len(worlds), index) for rel in (rel_d, rel_l)]
    atom_masks = {}
    for atom_id, members in valuation.items():
        mask = 0
        # in order, so that an error names the least unknown world
        for w in sorted(members, key=_order):
            if w not in index:
                raise ValueError(f"valuation of atom {atom_id} mentions unknown world {w!r}")
            mask |= 1 << index[w]
        atom_masks[atom_id] = mask
    return worlds, rows[0], rows[1], atom_masks


class BimodalModel:
    """Immutable finite bimodal model: relation rows and atom masks over
    the sorted worlds."""

    def __init__(self, worlds, rel_d, rel_l, valuation,
                 frame_class=None, designated=None):
        """The model given by world names, relation pairs of names and a
        map from atom ids to sets of names; the pairs are converted to
        rows once."""
        self._init(*_named_rows(worlds, rel_d, rel_l, valuation),
                   frame_class, designated)

    @classmethod
    def from_rows(cls, worlds, succ_d, succ_l, atom_masks,
                  frame_class=None, designated=None):
        """The model on worlds, distinct strings in ascending order, with
        relation rows succ_d and succ_l (bit j of row i: world i -> world
        j) and atom_masks mapping atom ids to masks of worlds.  Every
        model the package builds is built here."""
        model = cls.__new__(cls)
        model._init(worlds, succ_d, succ_l, atom_masks,
                    frame_class, designated)
        return model

    def _init(self, worlds, succ_d, succ_l, atom_masks,
              frame_class, designated):
        if frame_class is not None and frame_class not in FRAME_CLASSES:
            raise ValueError(f"unknown frame class {frame_class!r}")
        worlds = tuple(map(_world_id, worlds))
        for a, b in zip(worlds, worlds[1:]):
            if a >= b:
                raise ValueError("duplicate world ids" if a == b
                                 else "worlds are not in ascending order")
        # a model file separates names by whitespace, so each name must be
        # one token: splitting all the names joined by spaces gives them
        # back exactly when none is empty or holds whitespace
        if tuple(" ".join(worlds).split()) != worlds:
            bad = next(w for w in worlds if w.split() != [w])
            raise ValueError(f"world name {bad!r} is empty or holds whitespace")
        limit = 1 << len(worlds)
        succ_d, succ_l = tuple(succ_d), tuple(succ_l)
        for name, rows in (("d", succ_d), ("l", succ_l)):
            if len(rows) != len(worlds) or not all(0 <= r < limit for r in rows):
                raise ValueError(f"{name} rows do not fit {len(worlds)} worlds")
        atom_masks = dict(atom_masks)
        for atom_id, mask in atom_masks.items():
            if not 0 <= mask < limit:
                raise ValueError(f"mask of atom {atom_id} does not fit {len(worlds)} worlds")
        self.worlds = worlds
        self.index = {w: i for i, w in enumerate(worlds)}
        if designated is not None and designated not in self.index:
            raise ValueError(f"designated world {designated!r} unknown")
        self._succ_d = succ_d
        self._succ_l = succ_l
        self._atom_masks = atom_masks
        self.frame_class = frame_class
        self.designated = designated
        self._mask_cache = {}
        # the report of each frame class validated so far (see `validate`)
        self._reports = {}

    # -- pair views --------------------------------------------------------

    @property
    def rel_d(self):
        return PairView(self.worlds, self.index, self._succ_d)

    @property
    def rel_l(self):
        return PairView(self.worlds, self.index, self._succ_l)

    @property
    def valuation(self):
        return ValuationView(self.worlds, self._atom_masks)

    # -- evaluation --------------------------------------------------------

    def _mask(self, f):
        """Bitmask of worlds satisfying f (bit i = sorted world i)."""
        return eval_masks(f, self._succ_d, self._succ_l, self._atom_masks,
                          len(self.worlds), self._mask_cache)

    def eval(self, point, f):
        """Truth value of f at the given world."""
        if point not in self.index:
            raise KeyError(f"unknown world {point!r}")
        if not isinstance(f, Formula):
            raise TypeError("eval expects a Formula")
        return bool(self._mask(f) >> self.index[point] & 1)

    def _names(self, mask):
        return [self.worlds[i] for i in bits(mask)]

    def sat_set(self, f):
        """Sorted list of worlds satisfying f."""
        return self._names(self._mask(f))

    # -- successors --------------------------------------------------------

    def d_successors(self, w):
        return self._names(self._succ_d[self.index[w]])

    def l_successors(self, w):
        return self._names(self._succ_l[self.index[w]])


def submodel(model, keep, frame_class, designated, atom_ids=None,
             d_loops=False):
    """The submodel on the worlds in the mask keep, with the atoms in
    atom_ids (all of them by default); d_loops adds a []-loop at every
    kept world."""
    kept = bits(keep)
    targets = [None] * len(model.worlds)
    for new, old in enumerate(kept):
        targets[old] = new
    runs = relations.index_runs(targets)
    succ_d = [relations.remap(model._succ_d[i], runs) for i in kept]
    if d_loops:
        succ_d = [row | 1 << i for i, row in enumerate(succ_d)]
    masks = model._atom_masks
    return BimodalModel.from_rows(
        [model.worlds[i] for i in kept], succ_d,
        [relations.remap(model._succ_l[i], runs) for i in kept],
        {a: relations.remap(masks[a], runs)
         for a in (masks if atom_ids is None else atom_ids)},
        frame_class=frame_class, designated=designated)


# ---------------------------------------------------------------------------
# Frame-class validation.

def _text(model, indices):
    """A counterexample given as point indices, as its world names joined
    by spaces."""
    return None if indices is None else " ".join(model.worlds[i] for i in indices)


def validate(model, frame_class):
    """Check the frame properties required by the given class.

    Failures are data, not errors: the report lists each property with a
    pass flag and the first counterexample in sorted world order.  A model
    never changes, so it keeps the report of each class and a repeat call
    returns the same report.
    """
    if frame_class not in FRAME_CLASSES:
        raise ValueError(f"unknown frame class {frame_class!r}")
    report = model._reports.get(frame_class)
    if report is None:
        report = model._reports[frame_class] = _validate(model, frame_class)
    return report


def _validate(model, frame_class):
    succ_d, succ_l = model._succ_d, model._succ_l
    dd, dl = relations.compose(succ_d, succ_d, succ_l)
    ll, ld = relations.compose(succ_l, succ_l, succ_d)
    checks = [Check("l-reflexive", _text(model, relations.reflexive(succ_l))),
              Check("l-symmetric", _text(model, relations.symmetric(succ_l))),
              Check("l-transitive", _text(model, relations.transitive(succ_l, ll))),
              Check("d-transitive", _text(model, relations.transitive(succ_d, dd)))]
    if frame_class in D_REFLEXIVE:
        checks.append(Check("d-reflexive",
                            _text(model, relations.reflexive(succ_d))))
    checks.append(Check("left-commutativity", _text(
        model, relations.commutes(succ_d, succ_l, dl, ld))))
    if frame_class in RIGHT_COMMUTATIVE:
        checks.append(Check("right-commutativity", _text(
            model, relations.commutes(succ_l, succ_d, ld, dl))))
    if frame_class in PERSISTENT_ATOMS:
        checks.append(Check("atom-persistence", _persistence(model)))
    if frame_class == S4S5_PRODUCT:
        checks.append(Check("product-provenance", _provenance(model)))
    return Report(checks, f"class: {frame_class}")


def _persistence(model):
    """"atom w v" for the first w -[]-> v with the atom true at exactly one
    of them, over the atoms in the valuation, in sorted (w, v) order.  An
    atom is a property of the point alone and [] only shrinks the
    neighbourhood, so atoms are constant along [] both ways: one that is
    lost and one that is gained both fail."""
    atom_ids = sorted(model._atom_masks)
    bad = relations.constant(model._succ_d,
                             [model._atom_masks[a] for a in atom_ids])
    return None if bad is None else f"{atom_ids[bad[0]]} {_text(model, bad[1:])}"


def _provenance(model):
    """The first world whose name has no "|"; else, splitting each name
    after its first "|", the first cell of the grid of first and second
    parts that is not a world; else the first world whose []- or K-row is
    not that of the product of the factor relations read off the grid,
    the first along its first column and the second along its first
    row."""
    worlds = model.worlds
    firsts, seconds = set(), set()
    for w in worlds:
        cut = w.find("|") + 1
        if not cut:
            return w
        firsts.add(w[:cut])
        seconds.add(w[cut:])
    # A first part is kept with the "|" that ends it and occurs nowhere
    # else in it, so names compare on first parts before the rest and the
    # cells row by row are in sorted order; of the first n + 1 cells one
    # is missing if any is.
    m1, m2 = len(firsts), len(seconds)
    if m1 * m2 != len(worlds):
        seconds = sorted(seconds)
        return next(v + x for v in sorted(firsts) for x in seconds
                    if v + x not in model.index)
    # The worlds are the whole grid, so point v * m2 + x is cell (v, x).
    succ_d, succ_l = model._succ_d, model._succ_l
    succ1 = [sum(1 << u for u in range(m1) if succ_d[v * m2] >> u * m2 & 1)
             for v in range(m1)]
    succ2 = [row & (1 << m2) - 1 for row in succ_l[:m2]]
    want_d, want_l = product_rows(succ1, succ2)
    if tuple(want_d) == succ_d and tuple(want_l) == succ_l:
        return None
    return next(w for w, d, l, wd, wl
                in zip(worlds, succ_d, succ_l, want_d, want_l)
                if d != wd or l != wl)


# ---------------------------------------------------------------------------
# Clouds (L-equivalence classes).

def clouds(model):
    """Partition of the worlds into L-equivalence classes.

    Classes are sorted tuples, listed in order of their smallest member.
    Raises ValueError when rel_l is not an equivalence relation.
    """
    blocks, failure = relations.classes(model._succ_l)
    if failure is not None:
        name, bad = failure
        raise ValueError(f"rel_l is not an equivalence relation "
                         f"(not {name}: {tuple(model.worlds[i] for i in bad)})")
    return [tuple(model._names(block)) for block in blocks]


# ---------------------------------------------------------------------------
# Product models.

def product_point(v, x):
    return f"{v}|{x}"


def product_grid(firsts, seconds):
    """The factor points in cell order and the product's world names in
    that order.  First-factor points sort as the "v|" that begins their
    names and second-factor points as their own names, so the cells row
    by row are in sorted order: "10|" < "1|" although "1" < "10"."""
    firsts = sorted(firsts, key=lambda v: product_point(v, ""))
    seconds = sorted(seconds, key=str)
    return firsts, seconds, [product_point(v, x)
                             for v in firsts for x in seconds]


def product_rows(succ1, succ2):
    """[] and K rows of the product of the relations succ1 and succ2, in
    cell order: cell v * len(succ2) + x is the point (v, x), which moves
    along succ1 in v under [] and along succ2 in x under K."""
    m2 = len(succ2)
    succ_d, succ_l = [], []
    for v, row1 in enumerate(succ1):
        column = sum(1 << u * m2 for u in bits(row1))
        for x, row2 in enumerate(succ2):
            succ_d.append(column << x)
            succ_l.append(row2 << v * m2)
    return succ_d, succ_l


# ---------------------------------------------------------------------------
# Line-based model dump with bit-exact round trip.

def save_model(model):
    """The model as text: header lines, then worlds, relation pairs and
    atoms in sorted order (rows in index order are the sorted pairs).
    Each row is written as one string, and a row equal to the one before
    it reuses that row's target names; the text is joined once."""
    lines = []
    if model.frame_class is not None:
        lines.append(f"class {model.frame_class}")
    if model.designated is not None:
        lines.append(f"designated {model.designated}")
    worlds = model.worlds
    lines.extend(f"world {w}" for w in worlds)
    for head, rows in (("d", model._succ_d), ("l", model._succ_l)):
        last = None
        for w, row in zip(worlds, rows):
            if row:
                if row != last:
                    last, names = row, [worlds[j] for j in reversed(ones(row))]
                prefix = f"{head} {w} "
                lines.append(prefix + ("\n" + prefix).join(names))
    for atom_id in sorted(model._atom_masks):
        members = " ".join(worlds[j] for j in bits(model._atom_masks[atom_id]))
        lines.append(f"val {atom_id} {members}".rstrip())
    # the final line end, so that the text is joined once; a model with
    # no lines is saved as that line end alone
    lines.append("")
    return "\n".join(lines) or "\n"


def load_model(text):
    """The model that text describes: one line per world, relation pair
    and atom, in any order, with blank lines and `#` comments skipped.
    A bad line (a second class or designated line among them), a name
    that is not a world, an unknown frame class or designated world, or
    a repeated world is a ValueError.

    The lines are read in one pass.  A source's run of relation lines in
    the writer's form is taken whole, and one that reads exactly as the
    writer writes the targets of the run before is that run's row again;
    a run of world lines is split once; any other line is split on its
    own.  A source may have several runs, and an atom several val lines,
    which are ORed.  Rows are made as their lines are read, over the
    worlds read so far; a pair that names a world not yet read waits
    until the end, as do the atom masks.  The rows are then carried to
    the sorted order of the worlds, each distinct row once, so that rows
    the file repeats stay one int."""
    if not text.isascii() or any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"):
        # the line ends of splitlines, so that line numbers match it
        text = "\n".join(text.splitlines()) + "\n"
    elif not text.endswith("\n"):
        text += "\n"
    read = []  # world names in the order read
    bit = {}  # world name -> 1 << its place among the distinct names read
    succ = {"d": [], "l": []}
    waiting = {"d": [], "l": []}  # pairs naming a world not yet read
    vals = {}  # atom id -> the names of its val lines
    frame_class = designated = None
    names = row = None  # the targets and row of the last run taken whole

    def add_worlds(new):
        read.extend(new)
        for name in new:
            bit.setdefault(name, 1 << len(bit))
        for rows in succ.values():
            rows.extend([0] * (len(bit) - len(rows)))

    def add_run(head, source, targets, mask=None):
        try:
            if mask is None:
                mask = _mask(targets, bit)
            rows, i = succ[head], bit[source].bit_length() - 1
            # a source's first run keeps the mask itself: the rows of
            # repeated runs are then one int, which the row comparisons of
            # validation and evaluation settle by identity
            rows[i] = rows[i] | mask if rows[i] else mask
        except KeyError:
            waiting[head].extend((source, t) for t in targets)
        return mask

    pos = 0
    while pos < len(text):
        if names and text.startswith(("d ", "l "), pos):
            # the targets of the last run again, under another source
            cut = text.find(" ", pos + 2) + 1
            if text.startswith(names[0] + "\n", cut):
                prefix = text[pos:cut]
                again = prefix + ("\n" + prefix).join(names) + "\n"
                if (text.startswith(again, pos)
                        and _NAME.fullmatch(text, pos + 2, cut - 1)):
                    add_run(text[pos], prefix[2:-1], names, row)
                    pos += len(again)
                    continue
        run = _RUN.match(text, pos)
        if run:
            first, stop = run.end(2) + 1, run.end()
            names = text[first:stop - 1].split("\n" + text[pos:first])
            row = add_run(run[1], run[2], names)
            pos = stop
            continue
        block = _WORLDS.match(text, pos)
        if block:
            add_worlds(block[0].split()[1::2])
            pos = block.end()
            continue
        stop = text.index("\n", pos)
        raw = text[pos:stop]
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            pass
        elif parts[0] in succ and len(parts) == 3:
            add_run(parts[0], parts[1], parts[2:])
        elif parts[0] == "world" and len(parts) == 2:
            add_worlds(parts[1:])
        elif parts[0] == "val" and len(parts) >= 2 and _is_atom_id(parts[1]):
            vals.setdefault(int(parts[1]), []).extend(parts[2:])
        elif parts[0] == "class" and len(parts) == 2 and frame_class is None:
            frame_class = parts[1]
        elif (parts[0] == "designated" and len(parts) == 2
              and designated is None):
            designated = parts[1]
        else:
            lineno = text.count("\n", 0, pos) + 1
            raise ValueError(f"bad model line {lineno}: {raw!r}")
        pos = stop + 1
    if waiting["d"] or waiting["l"]:
        # the least unknown pair of d, then of l, is the error
        index = {name: b.bit_length() - 1 for name, b in bit.items()}
        for head, rows in succ.items():
            for i, extra in enumerate(_pair_rows(waiting[head], len(bit), index)):
                rows[i] |= extra
    atom_masks = {}
    for atom_id, names in vals.items():
        try:
            atom_masks[atom_id] = _mask(names, bit)
        except KeyError:
            # raises, naming the least unknown world of the atom's lines
            _named_rows(read, (), (), {atom_id: set(names)})
    worlds = sorted(read)
    succ_d, succ_l = succ["d"], succ["l"]
    if worlds != read:
        # carry the rows and masks to sorted order (with a repeated world
        # the constructor raises before it reads them)
        order = [bit[name].bit_length() - 1 for name in worlds]
        moved = [0] * len(bit)  # read place -> bit of the sorted place
        for new, old in enumerate(order):
            moved[old] = 1 << new
        carried = {row: _mask(ones(row), moved) for row in {*succ_d, *succ_l}}
        succ_d, succ_l = ([carried[rows[i]] for i in order]
                          for rows in (succ_d, succ_l))
        atom_masks = {a: _mask(ones(m), moved) for a, m in atom_masks.items()}
    return BimodalModel.from_rows(worlds, succ_d, succ_l, atom_masks,
                                  frame_class=frame_class,
                                  designated=designated)


def _is_atom_id(text):
    # int() alone would also take a sign, underscores and other digits
    return text.isascii() and text.isdigit()


# A source's run of relation lines in the writer's form: head, the
# source and a target on the first line, the same head and source and a
# target on every other; and a run of world lines.
_RUN = re.compile(r"([dl]) (\S+) \S+\n(?:\1 \2 \S+\n)*")
_WORLDS = re.compile(r"(?:world \S+\n)+")
_NAME = re.compile(r"\S+")


def _mask(names, bit):
    """The mask of the worlds names; a KeyError for an unknown name."""
    return reduce(or_, map(bit.__getitem__, names), 0)
