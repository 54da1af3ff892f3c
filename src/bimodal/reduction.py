"""Logic-neutral machinery of the two reductions: parameters and
tape-window coordinates, the binary counter, the shared shape of the step
relation, and the tree-growing extractor with its morphism check.

Each logic describes its side of the construction in a `Reduction`
record (vocabulary, named conjuncts, step queries, witness model, and a
`Counter` spec of what the two counters differ in); the functions here
take that record and do the rest the same way for both.

The machine encoding views a computation through a tape window
[0, 2^(N+1)-2] with the head starting at cell 2^N-1, where N = p(n) for
the size parameter polynomial p and input length n.  Machine-level
configurations keep the head-at-0 convention; `window_pos` converts.
"""

from typing import Callable, NamedTuple

from .formula import (Not, And, K, Box, L, Diamond, Implies, FormulaVector,
                      conj, disj, eq_vector, eq_binary, leq_binary,
                      gt_binary, rightmost_zero, rightmost_one)
from .catalog import VariableCatalog
from .relations import Check, Report, bits, classes, image, lowest
from .semantics import submodel
from .atm import (BLANK, RIGHT, ComputationTree, initial_config,
                  apply_entry, validate_tree)


class ExtractionError(RuntimeError):
    """Raised when a model does not actually support the extraction it was
    claimed to support.

    kind is one of "extraction-failure" (counter traces),
    "witness-not-found", or "invalid-frame" (rel_l is not an
    equivalence); detail names the failing subformula, step, or property
    and worlds.
    """

    def __init__(self, kind, detail):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class ReductionParams:
    """Machine, size-parameter polynomial, and input word."""

    def __init__(self, atm, poly, w):
        self.atm = atm
        self.poly = tuple(poly)
        self.w = str(w)
        self.n = len(self.w)
        self.N = size_parameter(self.poly, self.n)
        initial_config(atm, self.w)  # the word is in the input alphabet


def size_parameter(poly, n):
    """N = p(n) for the coefficients poly of p, constant first, checked to
    be natural numbers with p(n) >= max(n, 1): the machine takes no part,
    so a command line checks it before it reads the machine."""
    if not poly or any(c < 0 for c in poly):
        raise ValueError("polynomial coefficients must be natural numbers")
    N = sum(c * n ** i for i, c in enumerate(poly))
    if N < n or N < 1:
        raise ValueError(f"need p(n) >= max(n, 1), got p({n}) = {N}")
    return N


def window_offset(N):
    """Shift from machine head coordinates (start at 0) to window
    coordinates (start at 2^N - 1)."""
    return 2 ** N - 1


def window_pos(N, machine_pos):
    return machine_pos + window_offset(N)


def node_table(params, tree):
    """Window-coordinate attributes by node id, parents first: "time",
    "pos", "state", "read", "written" (left on the parent's cell; blank
    at the root), "pred" (the parent) and "tapv", one past the time of
    the nearest proper ancestor at the same cell, or 0 if there is none."""
    table = {}
    for nid in tree.nodes():
        config = tree.configs[nid]
        pred = tree.parent[nid]
        pos = window_pos(params.N, config.head)
        u = pred
        while u is not None and table[u]["pos"] != pos:
            u = table[u]["pred"]
        table[nid] = {
            "time": tree.depth(nid),
            "pos": pos,
            "state": config.state,
            "read": config.read(),
            "written": (BLANK if pred is None
                        else config.symbol_at(tree.configs[pred].head)),
            "pred": pred,
            "tapv": 0 if u is None else table[u]["time"] + 1,
        }
    return table


def witness_data(params, tree):
    """The node table of a tree a witness model is built from: the tree
    must be accepting and stay inside the time and tape bounds."""
    report = validate_tree(params.atm, params.w, tree)
    if not report.ok:
        raise ValueError(f"tree is not accepting: {report.lines()}")
    N = params.N
    data = node_table(params, tree)
    for v, d in data.items():
        if d["time"] > 2 ** N - 1:
            raise ValueError(f"node {v} exceeds the time bound 2^{N}-1")
        if not 0 <= d["pos"] <= 2 ** (N + 1) - 2:
            raise ValueError(f"node {v} leaves the tape window at cell {d['pos']}")
    return data


# ---------------------------------------------------------------------------
# Variables.

def family_catalog(params, families):
    """Atom layout assigning the families in the given order: position
    families (ending in "pos") get N+1 bits and time families ("time",
    "tapv") N bits, most significant bit first; state families get one
    atom per state, symbol families ("written", "read") one per tape
    symbol, and any other family a single atom."""
    atm = params.atm
    N = params.N
    cat = VariableCatalog()
    for fam in families:
        if fam.endswith("_state"):
            keys = atm.states
        elif fam.endswith(("_written", "_read")):
            keys = atm.symbols
        elif fam.endswith("pos"):
            keys = range(N, -1, -1)
        elif fam.endswith(("time", "tapv")):
            keys = range(N - 1, -1, -1)
        else:
            keys = [None]
        for key in keys:
            cat.assign_next(fam, key)
    return cat


class Vocabulary:
    """Shared-variable vectors (alpha_*, each carrier atom wrapped by the
    logic's shared) and persistent-variable vectors (x_*) common to both
    encodings.  marker is a formula every configuration point satisfies,
    or None."""

    marker = None

    def __init__(self, params, cat, shared):
        self.params = params
        self.cat = cat
        self.shared = shared
        atm = params.atm
        N = params.N
        self.alpha_time = self.shared_vector("A_time", N)
        self.alpha_pos = self.shared_vector("A_pos", N + 1)
        self.alpha_state = {q: shared(cat.formula("A_state", q))
                            for q in atm.states}
        self.alpha_written = {a: shared(cat.formula("A_written", a))
                              for a in atm.symbols}
        self.alpha_read = {a: shared(cat.formula("A_read", a))
                           for a in atm.symbols}
        self.alpha_state_vec = FormulaVector([self.alpha_state[q] for q in atm.states])
        self.alpha_written_vec = FormulaVector([self.alpha_written[a] for a in atm.symbols])
        self.alpha_read_vec = FormulaVector([self.alpha_read[a] for a in atm.symbols])

        self.x_tapv = cat.vector("X_tapv", N)
        self.x_pos = cat.vector("X_pos", N + 1)
        self.x_read = {a: cat.formula("X_read", a) for a in atm.symbols}
        self.x_read_vec = FormulaVector([self.x_read[a] for a in atm.symbols])

    def shared_vector(self, fam, length):
        """Shared variables over a bit family, most significant bit first."""
        return FormulaVector([self.shared(self.cat.formula(fam, k))
                              for k in range(length - 1, -1, -1)])


# ---------------------------------------------------------------------------
# Binary counter: catalog, formula, witness model and staircase extraction.

class Counter(NamedTuple):
    """What a logic's binary counter differs in: the class-marker family
    (or None); shared(k, cat), shared variable k; lead(b, x), the leading
    conjunct, given the marker formula b (or None) and the persistent
    vector x; and witness(cat, n, values, parent), the logic's witness
    model over the path of counter values."""
    marker: str | None
    shared: Callable
    lead: Callable
    witness: Callable


def counter_catalog(red, n):
    """Atom layout of the n-bit counter: the class marker B first when the
    logic has one, then A_0..A_{n-1}, then X_0..X_{n-1}."""
    if n < 1:
        raise ValueError("counter width must be at least 1")
    cat = VariableCatalog()
    if red.counter.marker is not None:
        cat.assign_next(red.counter.marker, None)
    for fam in ("A", "X"):
        for k in range(n):
            cat.assign_next(fam, k)
    return cat


def _counter_vectors(red, n):
    """The counter's catalog, marker formula (or None), shared vector and
    persistent vector, most significant bit first."""
    cat = counter_catalog(red, n)
    marker = red.counter.marker
    b = None if marker is None else cat.formula(marker)
    alpha = FormulaVector([red.counter.shared(k, cat) for k in range(n - 1, -1, -1)])
    return cat, b, alpha, cat.vector("X", n)


def gen_counter(red, n):
    """Formula satisfiable exactly by models that count from 0 to 2^n - 1
    along a staircase of L- and []-steps."""
    cat, b, alpha, x = _counter_vectors(red, n)
    return conj([red.counter.lead(b, x), eq_binary(alpha, 0),
                 K(Box(counter_steps(n, alpha, x, b)))]), cat


def build_counter(red, n):
    """The logic's witness model over the path of counter values 0..2^n-1."""
    top = 2 ** n
    return red.counter.witness(counter_catalog(red, n), n, range(top),
                               [None, *range(top - 1)])


def extract_counter(red, model, p0, n):
    """Staircase trace of the counter from p0: points p_0..p_{2^n-1} with
    counter values 0..2^n-1, linked by L-steps to the p'_i points and
    []-steps onward."""
    _, b, alpha, x = _counter_vectors(red, n)
    return _staircase(model, p0, n, alpha, x, b)


def _marked(marker, parts):
    """Conjunction of parts, led by marker unless it is None."""
    return conj(([marker] if marker is not None else []) + parts)


def counter_move(alpha, x, k, marker=None):
    """A counter step's L-neighbour, given that bit k is alpha's lowest
    zero: x holds alpha plus one, and some []-successor has alpha caught
    up with x."""
    return _marked(marker, [eq_vector(x, alpha, k), rightmost_one(x, k),
                            Diamond(eq_vector(x, alpha, -1))])


def counter_steps(n, alpha, x, marker=None):
    """Wherever bit k is alpha's lowest zero, the counter steps on."""
    return conj([Implies(_marked(marker, [rightmost_zero(alpha, k)]),
                         L(counter_move(alpha, x, k, marker)))
                 for k in range(n)])


def _l_then_box(model, i, mid, target):
    """The first index pair (x, y) of an L-neighbour x of point i
    satisfying mid and a []-successor y of x satisfying target, or None.
    Index order is sorted world order."""
    hits = model._mask(target)
    for x in bits(model._succ_l[i] & model._mask(mid)):
        row = model._succ_d[x] & hits
        if row:
            return x, lowest(row)
    return None


def _staircase(model, p0, n, alpha, x, marker=None):
    """Shared staircase extraction for counter traces.

    From a point satisfying value 0, repeatedly find an L-neighbour whose
    x-vector shows the incremented value and a []-successor where the
    shared vector has caught up.  marker, when given, is a formula every
    staircase point must satisfy (the subset-space class marker B).
    """
    def require(point, f, what, step):
        if not model.eval(point, f):
            raise ExtractionError("extraction-failure",
                                  f"step {step}: {what} fails at {point}")

    require(p0, eq_binary(alpha, 0), "initial counter value 0", 0)
    if marker is not None:
        require(p0, marker, "class marker at the start", 0)

    p_points = [model.index[p0]]
    p_prime_points = []
    for m in range(2 ** n - 1):
        k = lowest(~m)
        move = counter_move(alpha, x, k, marker)
        landing = _marked(marker, [eq_vector(x, alpha, -1),
                                   eq_binary(alpha, m + 1)])
        found = _l_then_box(model, p_points[-1], move, landing)
        if found is None:
            raise ExtractionError(
                "extraction-failure", f"step {m}: no staircase witness for "
                f"value {m + 1} from {model.worlds[p_points[-1]]}")
        p_prime_points.append(found[0])
        p_points.append(found[1])
    names = model.worlds
    return [names[i] for i in p_points], [names[i] for i in p_prime_points]


# ---------------------------------------------------------------------------
# The step relation.

def _pos_guard(direction):
    """Macro locating the bit the head move flips in the old position: a
    right move carries into the lowest zero, a left move borrows from the
    lowest one."""
    return rightmost_zero if direction == RIGHT else rightmost_one


def increment_at(new, old, k):
    """new is old plus one, given that bit k is old's lowest zero."""
    return And(eq_vector(new, old, k), rightmost_one(new, k))


def moved_at(new, old, direction, l):
    """new is old moved one cell in the direction, given that bit l is the
    bit the move flips."""
    move = rightmost_one if direction == RIGHT else rightmost_zero
    return And(eq_vector(new, old, l), move(new, l))


def entries_left_then_right(atm, q, a):
    """Transition right-hand sides for (q, a): the left-moving entries
    first, then the right-moving ones, declaration order within each."""
    return sorted(atm.delta_for(q, a), key=lambda entry: entry[2] == RIGHT)


def everywhere(part):
    """Conjunct builder for K[]part: the part holds at every point K[]
    reaches."""
    return lambda v: K(Box(part(v)))


def computation(v, compstep):
    """The step relation: in every universal configuration all steps
    (compstep(v, r, theta, direction) for each transition entry) hold, in
    every existential one some step does."""
    atm = v.params.atm
    parts = []
    for states, join in ((atm.forall, conj), (atm.exists, disj)):
        for q in states:
            for a in atm.symbols:
                steps = [compstep(v, r, b, d)
                         for r, b, d in entries_left_then_right(atm, q, a)]
                parts.append(Implies(And(v.alpha_state[q], v.alpha_read[a]),
                                     join(steps)))
    return conj(parts)


def fresh_cell_symbols(v):
    """The symbol a fresh cell reads: input cell i, at window position
    2^N - 1 + i, reads the word's i-th symbol, and every cell outside the
    input reads the blank."""
    params = v.params
    base = window_offset(params.N)
    parts = [Implies(eq_binary(v.x_pos, base + i), v.x_read[a])
             for i, a in enumerate(params.w, start=1)]
    outside = disj([leq_binary(v.x_pos, base), gt_binary(v.x_pos, base + params.n)])
    parts.append(Implies(outside, v.x_read[BLANK]))
    return conj(parts)


def no_reject(v):
    """No configuration is in the rejecting state."""
    return Not(v.alpha_state[v.params.atm.reject])


# ---------------------------------------------------------------------------
# One logic's side of the construction.

class Reduction(NamedTuple):
    """What a logic supplies to the shared generator and extractor.

    conjuncts lists the machine-encoding formula's conjuncts as
    (name, builder) pairs in formula order, each builder taking the
    vocabulary; the extractor checks every one but "computation" at the
    root.  step_query(v, entry, k, l) gives the (mid, target) formulas of
    one step, given the live time bit k and position bit l: the step's
    L-neighbour satisfies mid and its []-successor satisfies target.
    node_check is (name, builder) for the per-node morphism condition,
    builder(v, data, nid, parent) giving the formula pi(nid) must satisfy.
    counter is the logic's binary-counter spec.
    """
    frame_class: str
    catalog: Callable
    vocab: Callable
    conjuncts: tuple
    step_query: Callable
    node_check: tuple
    build_model: Callable
    counter: Counter


def gen_formula(red, params):
    """Formula satisfiable exactly when the machine accepts the input: the
    conjunction of the logic's named conjuncts."""
    cat = red.catalog(params)
    v = red.vocab(params, cat)
    return conj([build(v) for _, build in red.conjuncts]), cat


def _reachable_restriction(model, r0):
    """Submodel on the points reachable from r0 over both relations; on
    validated models this is exactly the part the formula constrains.
    When every point is reachable it is the model itself, whose cache
    already holds what was evaluated on it."""
    seen = frontier = 1 << model.index[r0]
    while frontier:
        reach = image(model._succ_l, frontier) | image(model._succ_d, frontier)
        frontier = reach & ~seen
        seen |= frontier
    if seen == (1 << len(model.worlds)) - 1:
        return model
    return submodel(model, seen, model.frame_class, r0)


def grow_tree(red, model, r0, params):
    """Rebuild an accepting tree from any model of the machine-encoding
    formula, growing a partial tree leaf by leaf and keeping a morphism
    pi from tree nodes to model points (one per cloud)."""
    model = _reachable_restriction(model, r0)
    _, failure = classes(model._succ_l)
    if failure is not None:
        name, bad = failure
        worlds = " ".join(model.worlds[i] for i in bad)
        raise ExtractionError("invalid-frame", f"l-{name} fails at {worlds}")
    atm = params.atm
    N = params.N
    v = red.vocab(params, red.catalog(params))

    for name, build in red.conjuncts:
        if name != "computation" and not model.eval(r0, build(v)):
            raise ExtractionError("witness-not-found", name)

    tree = ComputationTree()
    tree.add_root(initial_config(atm, params.w))
    # at[nid] is the index of pi(nid); ids are handed out breadth first,
    # so the loop visits the nodes in id order while `at` grows
    at = [model.index[r0]]
    # the step queries depend only on (entry, k, l), not on the node
    queries = {}
    for leaf, point in enumerate(at):
        config = tree.configs[leaf]
        state = config.state
        if state == atm.accept:
            continue
        if state == atm.reject:
            raise ExtractionError("witness-not-found",
                                  f"no_reject: node {leaf} rejects")
        k = lowest(~tree.depth(leaf))  # the live time bit
        if k >= N:
            raise ExtractionError("witness-not-found",
                                  f"computation: node at the time bound ({leaf})")
        j = window_pos(N, config.head)
        universal = state in atm.forall
        # a repeated transition repeats its step; distinct ones give
        # distinct children (see `successors`)
        for entry in dict.fromkeys(entries_left_then_right(atm, state,
                                                           config.read())):
            # the head bit a right move carries into, a left one borrows from
            l = lowest(~j) if entry[2] == RIGHT else lowest(j)
            found = None
            if 0 <= l <= N:
                key = (entry, k, l)
                if key not in queries:
                    queries[key] = red.step_query(v, *key)
                found = _l_then_box(model, point, *queries[key])
            if not found:
                if universal:
                    raise ExtractionError(
                        "witness-not-found",
                        f"computation: compstep for {entry} at node {leaf}")
                continue
            tree.add_child(leaf, apply_entry(config, entry))
            at.append(found[1])
            if not universal:
                break
        if not tree.children[leaf]:
            raise ExtractionError(
                "witness-not-found",
                f"computation: no applicable step at node {leaf}")

    report = validate_tree(atm, params.w, tree)
    if not report.ok:
        raise ExtractionError("witness-not-found",
                              f"extracted tree fails validation: {report.lines()}")
    pi = {nid: model.worlds[i] for nid, i in enumerate(at)}
    morphism_report = check_morphism(red, model, r0, params, tree, pi)
    if not morphism_report.ok:
        raise ExtractionError("witness-not-found",
                              f"morphism check failed: {morphism_report.lines()}")
    return tree, pi


def check_morphism(red, model, r0, params, tree, pi):
    """The four anchoring conditions tying tree nodes to model clouds:
    root anchoring, cloud-relation preservation, the logic's per-node
    condition on every non-root node, and the configuration shared
    variables."""
    v = red.vocab(params, red.catalog(params))
    root = pi[tree.root]
    checks = [Check("root-anchored", None if root == r0 else root)]

    # a node's cloud is the K-row of its point, its class under L; an edge
    # is preserved when the []-image of the parent's cloud meets the child's
    succ_d, succ_l = model._succ_d, model._succ_l

    def cloud(nid):
        return succ_l[model.index[pi[nid]]]

    edges = [(tree.parent[nid], nid) for nid in tree.nodes()[1:]]
    bad_edge = next(((p, c) for p, c in edges
                     if not image(succ_d, cloud(p)) & cloud(c)), None)
    checks.append(Check("edges-preserved", bad_edge))

    data = node_table(params, tree)
    name, node_formula = red.node_check
    bad_node = next((c for p, c in edges
                     if not model.eval(pi[c], node_formula(v, data, c, p))), None)
    checks.append(Check(name, bad_node))

    bad_config = next((nid for nid, d in data.items() if not model.eval(
        pi[nid], _marked(v.marker, [eq_binary(v.alpha_time, d["time"]),
                                    eq_binary(v.alpha_pos, d["pos"]),
                                    v.alpha_state[d["state"]],
                                    v.alpha_read[d["read"]]]))), None)
    checks.append(Check("configurations", bad_config))
    return Report(checks)
