"""Finite bimodal Kripke models, frame-class validation, and model checking.

A model carries a finite world set, two binary relations (rel_d for the
[]-modality, rel_l for the K-modality), and a valuation.  Relations are
stored as explicit pair sets; reflexive pairs are stored explicitly, with
no implicit closure, so validators observe exactly the raw data.

Evaluation computes, per distinct subformula, the set of worlds where it
holds as a bitmask over the sorted world list.  The per-model cache is
keyed by subformula identity, so repeated checks are cheap even for very
large generated formulas.
"""

from .formula import Formula
from . import relations
from .relations import bits, eval_masks

CROSS_AXIOM = "cross-axiom"
S4S5_COMMUTATOR = "s4s5-commutator"
K4S5_COMMUTATOR = "k4s5-commutator"
S4S5_PRODUCT = "s4s5-product"

FRAME_CLASSES = (CROSS_AXIOM, S4S5_COMMUTATOR, K4S5_COMMUTATOR, S4S5_PRODUCT)

# Which classes require []-reflexivity, right commutativity, atom persistence.
_D_REFLEXIVE = {CROSS_AXIOM, S4S5_COMMUTATOR, S4S5_PRODUCT}
_RIGHT_COMMUTATIVE = {S4S5_COMMUTATOR, K4S5_COMMUTATOR, S4S5_PRODUCT}
_PERSISTENT_ATOMS = {CROSS_AXIOM}


def _rows(index, pairs):
    """Row bitmasks of a relation given as pairs of indexed worlds."""
    succ = [0] * len(index)
    for a, b in pairs:
        succ[index[a]] |= 1 << index[b]
    return succ


class BimodalModel:
    """Immutable finite bimodal model."""

    def __init__(self, worlds, rel_d, rel_l, valuation,
                 frame_class=None, designated=None, is_product=False):
        worlds = tuple(worlds)
        for w in worlds:
            if not isinstance(w, str):
                raise ValueError(f"world ids must be strings, got {w!r}")
        self.worlds = tuple(sorted(worlds))
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("duplicate world ids")
        self.index = {w: i for i, w in enumerate(self.worlds)}
        for a, b in list(rel_d) + list(rel_l):
            if a not in self.index or b not in self.index:
                raise ValueError(f"relation pair ({a!r}, {b!r}) mentions unknown world")
        self.rel_d = frozenset(rel_d)
        self.rel_l = frozenset(rel_l)
        self.valuation = {}
        for atom_id, members in valuation.items():
            members = frozenset(members)
            for w in members:
                if w not in self.index:
                    raise ValueError(f"valuation of atom {atom_id} mentions unknown world {w!r}")
            self.valuation[atom_id] = members
        if designated is not None and designated not in self.index:
            raise ValueError(f"designated world {designated!r} unknown")
        self.frame_class = frame_class
        self.designated = designated
        self.is_product = is_product

        self._succ_d = _rows(self.index, self.rel_d)
        self._succ_l = _rows(self.index, self.rel_l)
        self._atom_masks = {}
        for atom_id, members in self.valuation.items():
            m = 0
            for w in members:
                m |= 1 << self.index[w]
            self._atom_masks[atom_id] = m
        self._mask_cache = {}

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

    # -- relation views ----------------------------------------------------

    def d_successors(self, w):
        return self._names(self._succ_d[self.index[w]])

    def l_successors(self, w):
        return self._names(self._succ_l[self.index[w]])


# ---------------------------------------------------------------------------
# Frame-class validation.

class PropertyCheck:
    def __init__(self, name, passed, counterexample=None):
        self.name = name
        self.passed = passed
        self.counterexample = counterexample

    def __repr__(self):
        tail = "" if self.passed else f" counterexample={self.counterexample}"
        return f"PropertyCheck({self.name}: {'pass' if self.passed else 'FAIL'}{tail})"


class ValidationReport:
    def __init__(self, frame_class, checks):
        self.frame_class = frame_class
        self.checks = checks

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        out = [f"class: {self.frame_class}"]
        for c in self.checks:
            status = "pass" if c.passed else "fail"
            line = f"{c.name}: {status}"
            if not c.passed and c.counterexample is not None:
                line += f" {' '.join(str(x) for x in c.counterexample)}"
            out.append(line)
        out.append(f"result: {'pass' if self.ok else 'fail'}")
        return out


def _named(model, indices):
    """World names of a counterexample given as point indices."""
    return None if indices is None else tuple(model.worlds[i] for i in indices)


def validate(model, frame_class):
    """Check the frame properties required by the given class.

    Failures are data, not errors: the report lists each property with a
    pass flag and the first counterexample in sorted world order.
    """
    if frame_class not in FRAME_CLASSES:
        raise ValueError(f"unknown frame class {frame_class!r}")
    checks = []
    succ_d, succ_l = model._succ_d, model._succ_l

    def add(name, counterexample):
        checks.append(PropertyCheck(name, counterexample is None, counterexample))

    add("l-reflexive", _named(model, relations.reflexive(succ_l)))
    add("l-symmetric", _named(model, relations.symmetric(succ_l)))
    add("l-transitive", _named(model, relations.transitive(succ_l)))
    add("d-transitive", _named(model, relations.transitive(succ_d)))
    if frame_class in _D_REFLEXIVE:
        add("d-reflexive", _named(model, relations.reflexive(succ_d)))
    add("left-commutativity",
        _named(model, relations.commutes(succ_d, succ_l, succ_l, succ_d)))
    if frame_class in _RIGHT_COMMUTATIVE:
        add("right-commutativity",
            _named(model, relations.commutes(succ_l, succ_d, succ_d, succ_l)))
    if frame_class in _PERSISTENT_ATOMS:
        add("atom-persistence", _persistence(model))
    if frame_class == S4S5_PRODUCT:
        add("product-provenance", None if model.is_product else ("not built as a product",))
    return ValidationReport(frame_class, checks)


def _persistence(model):
    """First (atom, w, v) with the atom true at w and false at its
    []-successor v, over the atoms in the valuation."""
    for atom_id in sorted(model._atom_masks):
        bad = relations.closed(model._succ_d, model._atom_masks[atom_id])
        if bad is not None:
            return (atom_id,) + _named(model, bad)
    return None


# ---------------------------------------------------------------------------
# Clouds (L-equivalence classes) and the induced relation between them.

def clouds(model):
    """Partition of the worlds into L-equivalence classes.

    Classes are sorted tuples, listed in order of their smallest member.
    Raises ValueError when rel_l is not an equivalence relation.
    """
    blocks, failure = relations.classes(model._succ_l)
    if failure is not None:
        name, bad = failure
        raise ValueError(f"rel_l is not an equivalence relation "
                         f"(not {name}: {_named(model, bad)})")
    return [tuple(model._names(block)) for block in blocks]


def induced_cloud_relation(model, cloud_list=None):
    """Pairs (i, j) of cloud indices such that some member of cloud i has a
    rel_d successor in cloud j."""
    if cloud_list is None:
        cloud_list = clouds(model)
    owner = {}
    for ci, members in enumerate(cloud_list):
        for w in members:
            owner[w] = ci
    pairs = set()
    for a, b in model.rel_d:
        pairs.add((owner[a], owner[b]))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# Product models.

def product_point(v, x):
    return f"{v}|{x}"


def product_model(frame1, frame2, valuation, designated=None):
    """Product of a preordered frame with an equivalence frame.

    frame1 and frame2 are (worlds, relation_pairs) with relation given
    explicitly.  Worlds of the product are "v|x" strings.  The valuation
    maps atom ids to sets of (v, x) pairs.
    """
    worlds1, rel1 = frame1
    worlds2, rel2 = frame2
    worlds1 = sorted(worlds1)
    worlds2 = sorted(worlds2)
    rel1 = set(rel1)
    rel2 = set(rel2)
    for which, names, rel, checks in (
            ("first", worlds1, rel1, (relations.reflexive, relations.transitive)),
            ("second", worlds2, rel2, (relations.reflexive, relations.symmetric,
                                       relations.transitive))):
        succ = _rows({w: i for i, w in enumerate(names)}, rel)
        for check in checks:
            bad = check(succ)
            if bad is not None:
                at = tuple(names[i] for i in bad)
                raise ValueError(f"{which} frame is not {check.__name__} at "
                                 f"{at[0] if len(at) == 1 else at!r}")

    worlds = [product_point(v, x) for v in worlds1 for x in worlds2]
    rel_d = [(product_point(a, x), product_point(b, x))
             for a, b in rel1 for x in worlds2]
    rel_l = [(product_point(v, a), product_point(v, b))
             for v in worlds1 for a, b in rel2]
    val = {atom_id: {product_point(v, x) for v, x in members}
           for atom_id, members in valuation.items()}
    des = product_point(*designated) if designated is not None else None
    return BimodalModel(worlds, rel_d, rel_l, val,
                        frame_class=S4S5_PRODUCT, designated=des, is_product=True)


# ---------------------------------------------------------------------------
# Line-based model dump with bit-exact round trip.

def save_model(model):
    lines = []
    if model.frame_class is not None:
        lines.append(f"class {model.frame_class}")
    if model.designated is not None:
        lines.append(f"designated {model.designated}")
    for w in model.worlds:
        lines.append(f"world {w}")
    for a, b in sorted(model.rel_d):
        lines.append(f"d {a} {b}")
    for a, b in sorted(model.rel_l):
        lines.append(f"l {a} {b}")
    for atom_id in sorted(model.valuation):
        members = " ".join(sorted(model.valuation[atom_id]))
        lines.append(f"val {atom_id} {members}".rstrip())
    return "\n".join(lines) + "\n"


def load_model(text):
    worlds = []
    rel_d = []
    rel_l = []
    valuation = {}
    frame_class = None
    designated = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        head = parts[0]
        if head == "class" and len(parts) == 2:
            frame_class = parts[1]
        elif head == "designated" and len(parts) == 2:
            designated = parts[1]
        elif head == "world" and len(parts) == 2:
            worlds.append(parts[1])
        elif head == "d" and len(parts) == 3:
            rel_d.append((parts[1], parts[2]))
        elif head == "l" and len(parts) == 3:
            rel_l.append((parts[1], parts[2]))
        elif head == "val" and len(parts) >= 2:
            valuation[int(parts[1])] = set(parts[2:])
        else:
            raise ValueError(f"bad model line {lineno}: {raw!r}")
    return BimodalModel(worlds, rel_d, rel_l, valuation,
                        frame_class=frame_class, designated=designated,
                        is_product=(frame_class == S4S5_PRODUCT))
