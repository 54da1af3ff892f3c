"""Satisfiability-preserving translations between the three frame classes,
with the four model transforms that witness them constructively.

The subset-space to product-logic direction relativizes both modalities to
a fresh "main" atom, forces persistence of the original atoms on the main
part, and traps the non-main points; the model transforms add one new
point per cloud (lifting) or cut back to the reachable main part
(restriction).  The product-to-K4 direction adds the reflexivity axiom
instances for every box subformula; its model transform adds the missing
reflexive loops on the reachable part.
"""

from .formula import (Atom, Not, And, K, Box, Implies, Or, atoms, postorder,
                      conj, render_all, BOXMOD, ATOM, NOT, AND, KMOD)
from . import relations
from .relations import bits, image, lowest
from .semantics import (BimodalModel, CROSS_AXIOM, S4S5_COMMUTATOR,
                        K4S5_COMMUTATOR, validate, submodel)


class TranslationResult:
    """Translated formula plus the bookkeeping the transforms need."""

    def __init__(self, formula, main_atom=None, box_subformulas=None):
        self.formula = formula
        self.main_atom = main_atom
        self.box_subformulas = tuple(box_subformulas or ())


def main_var(f):
    """Smallest atom index not occurring in f."""
    used = atoms(f)
    i = 0
    while i in used:
        i += 1
    return i


def _relativize(f, main):
    """T: relativize both modal operators to the main-true points, one
    subformula at a time in postorder."""
    done = {}
    for t in postorder(f):
        kind = t.kind
        if kind == ATOM:
            done[t] = t
        elif kind == AND:
            done[t] = And(done[t.left], done[t.right])
        elif kind == NOT:
            done[t] = Not(done[t.left])
        else:
            body = Not(And(main, Not(done[t.left])))
            done[t] = K(body) if kind == KMOD else Box(body)
    return done[f]


def t_ssl_to_s4s5(f):
    """Relativizing translation: T-hat(f) = main & K[](!main -> []!main)
    & persistent_main & T(f), with persistent_main ranging over the atoms
    of f in ascending index order."""
    main_atom = main_var(f)
    main = Atom(main_atom)
    trap = K(Box(Implies(Not(main), Box(Not(main)))))
    persistent_main = conj(
        [K(Or(Box(Implies(main, Atom(a))), Box(Implies(main, Not(Atom(a))))))
         for a in sorted(atoms(f))])
    out = conj([main, trap, persistent_main, _relativize(f, main)])
    return TranslationResult(out, main_atom=main_atom)


def lift_model_ssl_to_s4s5(model, w, main_atom):
    """Add one fresh point per cloud, reachable from every point of every
    cloud related to it, and mark the original points with the main atom.
    The result satisfies right commutativity on top of the input's
    properties."""
    report = validate(model, CROSS_AXIOM)
    if not report.ok:
        raise ValueError(f"input is not a valid cross-axiom model: {report.lines()}")
    blocks = list(relations.groups(model._succ_l))  # L is an equivalence

    def new_name(i):
        name = f"newpoint_{i}"
        while name in model.index:
            name = "_" + name
        return name

    new_points = [new_name(i) for i in range(len(blocks))]
    worlds = tuple(sorted(model.worlds + tuple(new_points)))
    where = {name: i for i, name in enumerate(worlds)}
    targets = [where[name] for name in model.worlds]
    runs = relations.index_runs(targets)
    new_bit = {block: 1 << where[name] for block, name in zip(blocks, new_points)}

    succ_d = [0] * len(worlds)
    succ_l = [0] * len(worlds)
    for block, name in zip(blocks, new_points):
        # the new points of the clouds the []-image meets, one K-row at a
        # time, and explicitly the cloud's own
        reach = new_bit[block]
        met = image(model._succ_d, block)
        while met:
            row = model._succ_l[lowest(met)]
            reach |= new_bit[row]
            met &= ~row
        cloud = relations.remap(block, runs) | new_bit[block]
        for i in bits(block):
            succ_d[targets[i]] = relations.remap(model._succ_d[i], runs) | reach
            succ_l[targets[i]] = cloud
        succ_d[where[name]] = reach
        succ_l[where[name]] = cloud

    atom_masks = {a: relations.remap(mask, runs)
                  for a, mask in model._atom_masks.items()}
    base = relations.remap((1 << len(model.worlds)) - 1, runs)
    if atom_masks.setdefault(main_atom, base) != base:
        raise ValueError(f"atom {main_atom} is already in use and cannot mark the base")
    lifted = BimodalModel.from_rows(worlds, succ_d, succ_l, atom_masks,
                                    frame_class=S4S5_COMMUTATOR, designated=w)
    return lifted, w


def restrict_model_s4s5_to_ssl(model, w, f):
    """Cut a commutator model of the translated formula back to the
    main-true points reachable as w L-> w' []-> v; atoms outside f and the
    main atom are dropped to everywhere-false."""
    result = t_ssl_to_s4s5(f)
    if not model.eval(w, result.formula):
        raise ValueError("the translated formula does not hold at the given point")
    main_atom = result.main_atom
    keep = (image(model._succ_d, model._succ_l[model.index[w]])
            & model._atom_masks.get(main_atom, 0))
    wanted = (atoms(f) | {main_atom}) & model._atom_masks.keys()
    return submodel(model, keep, CROSS_AXIOM, w, atom_ids=wanted), w


def t_s4s5_to_k4s5(f):
    """Reflexivity-axiom translation: T-hat(f) = f & AND K(([]psi -> psi)
    & []([]psi -> psi)) over the distinct box subformulas of f, in
    render-sorted order.  Box-free inputs come back unchanged.  The texts
    come from one walk; they are distinct, so no two boxes are compared."""
    boxes = [t for t in postorder(f) if t.kind == BOXMOD]
    boxes = [b for _, b in sorted(zip(render_all(boxes), boxes))]
    parts = [f]
    for b in boxes:
        inst = Implies(b, b.left)
        parts.append(K(And(inst, Box(inst))))
    return TranslationResult(conj(parts), box_subformulas=boxes)


def k4_to_s4_model(model, w, f):
    """Restrict a K4xS5 model of the translated formula to the points
    reachable as w L-> v or w L-> w' []-> v and add the reflexive loops."""
    result = t_s4s5_to_k4s5(f)
    if not model.eval(w, result.formula):
        raise ValueError("the translated formula does not hold at the given point")
    report = validate(model, K4S5_COMMUTATOR)
    if not report.ok:
        raise ValueError(f"input is not a valid K4xS5 commutator model: {report.lines()}")
    row = model._succ_l[model.index[w]]
    keep = row | image(model._succ_d, row)
    return submodel(model, keep, S4S5_COMMUTATOR, w, d_loops=True), w
