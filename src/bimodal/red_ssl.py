"""Subset-space side of the machine reduction: the binary-counter formula,
its witness model and trace extraction, and the machine-encoding formula's
vocabulary, named conjuncts, step queries and witness model.  `SSL` hands
them to the shared generator and extractor in `bimodal.reduction`.

The encoding's shared variables are L(A & []LB) over carrier atoms A and
the class marker B (`shared_ssl`); the witness model has one cloud per
tree node plus a final cloud of carrier points.
"""

from .formula import (Not, And, K, Box, L, Diamond, Implies, FormulaVector,
                      conj, disj, eq_vector, eq_binary, rightmost_zero,
                      rightmost_one, unique, neq, lt, leq, neq_plus1,
                      leq_binary, gt_binary, shared_ssl, ones)
from .catalog import VariableCatalog
from .semantics import BimodalModel, CROSS_AXIOM
from .atm import BLANK
from .reduction import (Reduction, Vocabulary, family_catalog, witness_data,
                        everywhere, computation, gen_formula, grow_tree,
                        check_morphism, counter_steps, _staircase,
                        _pos_guard, _pos_move)
# The shared engine's public names stay importable from here.
from .reduction import (ExtractionError, ReductionParams, window_offset,  # noqa: F401
                        window_pos, entries_left_then_right, tree_size_bound)


# ---------------------------------------------------------------------------
# Binary counter: formula, witness model, trace extraction.

def counter_catalog(n):
    cat = VariableCatalog()
    cat.assign("B", None, 0)
    for k in range(n):
        cat.assign("A", k, 1 + k)
    for k in range(n):
        cat.assign("X", k, 1 + n + k)
    return cat


def _counter_vectors(n, cat):
    b = cat.formula("B")
    alpha = FormulaVector([shared_ssl(cat.formula("A", k), b)
                           for k in range(n - 1, -1, -1)])
    x = cat.vector("X", n)
    return b, alpha, x


def gen_counter_ssl(n):
    """Formula satisfiable exactly by models that count from 0 to 2^n - 1
    along a staircase of L- and []-steps."""
    if n < 1:
        raise ValueError("counter width must be at least 1")
    cat = counter_catalog(n)
    b, alpha, x = _counter_vectors(n, cat)
    f = conj([b, eq_binary(alpha, 0), K(Box(counter_steps(n, alpha, x, b)))])
    return f, cat


def _p(i, j):
    return f"p_{i}_{j}"


def _u(i, k):
    return f"u_{i}_{k}"


def _s(i, k):
    return f"s_{i}_{k}"


def build_counter_ssl_model(n):
    """Witness model of the counter formula: one cloud per counter value
    plus a final cloud with no class-marker points."""
    if n < 1:
        raise ValueError("counter width must be at least 1")
    top = 2 ** n
    p_points = [(i, j) for i in range(top) for j in range(i, top)]
    u_points = [(i, k) for i in range(top + 1) for k in range(n)]
    s_points = [(i, k) for i in range(top) for k in ones(i)]

    worlds, bit = _sorted_bits(
        [_p(i, j) for i, j in p_points] + [_u(i, k) for i, k in u_points]
        + [_s(i, k) for i, k in s_points])

    cloud_members = {i: [] for i in range(top + 1)}
    for i, j in p_points:
        cloud_members[i].append(_p(i, j))
    for i, k in u_points:
        cloud_members[i].append(_u(i, k))
    for i, k in s_points:
        cloud_members[i].append(_s(i, k))

    # p_i_j sees p_i'_j for i <= i' <= j; u_i_k sees u_i'_k for i' >= i
    # and s_i'_k where bit k of i' is set; each row is the next one's plus
    # its own point, so the rows build up from the top
    succ_d = {}
    for j in range(top):
        row = 0
        for i in range(j, -1, -1):
            row |= bit[_p(i, j)]
            succ_d[_p(i, j)] = row
    for k in range(n):
        row = 0
        for i in range(top, -1, -1):
            if i < top and k in ones(i):
                row |= bit[_s(i, k)]
            row |= bit[_u(i, k)]
            succ_d[_u(i, k)] = row
    for i, k in s_points:
        succ_d[_s(i, k)] = bit[_s(i, k)]

    cat = counter_catalog(n)
    valuation = {cat.atom("B"): {_p(i, j) for i, j in p_points}}
    for k in range(n):
        valuation[cat.atom("A", k)] = ({_u(i, k2) for i, k2 in u_points if k2 == k}
                                       | {_s(i, k2) for i, k2 in s_points if k2 == k})
        valuation[cat.atom("X", k)] = {_p(i, j) for i, j in p_points if k in ones(j)}

    return _witness(worlds, bit, cloud_members.values(), succ_d, valuation,
                    _p(0, 0))


def _sorted_bits(names):
    """The sorted worlds of names and the bit of each name among them."""
    worlds = tuple(sorted(names))
    return worlds, {w: 1 << i for i, w in enumerate(worlds)}


def _union(bit, names):
    mask = 0
    for w in names:
        mask |= bit[w]
    return mask


def _witness(worlds, bit, clouds, succ_d, valuation, designated):
    """The cross-axiom witness on worlds whose L-classes are clouds, given
    each world's []-row and each atom's worlds by name, and the designated
    world."""
    succ_l = {}
    for members in clouds:
        row = _union(bit, members)
        succ_l.update((w, row) for w in members)
    model = BimodalModel.from_rows(
        worlds, [succ_d[w] for w in worlds], [succ_l[w] for w in worlds],
        {a: _union(bit, members) for a, members in valuation.items()},
        frame_class=CROSS_AXIOM, designated=designated)
    return model, designated


def extract_counter_trace(model, p0, n):
    """Staircase trace for the subset-space counter: points p_0..p_{2^n-1}
    with counter values 0..2^n-1, linked by L-steps to the p'_i points and
    []-steps onward."""
    cat = counter_catalog(n)
    b, alpha, x = _counter_vectors(n, cat)
    return _staircase(model, p0, n, alpha, x, marker=b)


# ---------------------------------------------------------------------------
# Machine-encoding formula.

def f_ssl_catalog(params):
    """Atom layout: the class marker B first, then the shared-variable
    carrier families, then the persistent X families."""
    return family_catalog(params, ("B", "A_time", "A_pos", "A_state",
                                   "A_written", "A_read", "X_time", "X_tapv",
                                   "X_pos", "X_read"))


class _SslVocab(Vocabulary):
    """The common vocabulary over the shared variables L(A & []LB), with
    the class marker B and the persistent time vector."""

    def __init__(self, params, cat):
        self.b = self.marker = cat.formula("B")
        super().__init__(params, cat, lambda a: shared_ssl(a, self.b))
        self.x_time = cat.vector("X_time", params.N)


def _uniqueness_ssl(v):
    return Implies(v.b, conj([unique(v.alpha_state_vec),
                              unique(v.alpha_written_vec),
                              unique(v.alpha_read_vec)]))


def _start_ssl(v):
    N = v.params.N
    return conj([v.b, eq_binary(v.alpha_time, 0),
                 eq_binary(v.alpha_pos, 2 ** N - 1),
                 v.alpha_state[v.params.atm.init], v.alpha_read[BLANK]])


def _time_after_previous_visit(v):
    body = conj([
        leq(v.x_tapv, v.x_time),
        Implies(And(lt(v.alpha_time, v.x_time), neq(v.alpha_pos, v.x_pos)),
                neq_plus1(v.x_tapv, v.alpha_time)),
        Implies(And(lt(v.alpha_time, v.x_time), eq_vector(v.alpha_pos, v.x_pos, -1)),
                lt(v.alpha_time, v.x_tapv)),
    ])
    return Implies(v.b, body)


def _get_the_right_symbol(v):
    params = v.params
    N = params.N
    base = 2 ** N - 1
    fresh_parts = []
    for i, a in enumerate(params.w, start=1):
        fresh_parts.append(Implies(eq_binary(v.x_pos, base + i), v.x_read[a]))
    outside = disj([leq_binary(v.x_pos, base), gt_binary(v.x_pos, base + params.n)])
    fresh_parts.append(Implies(outside, v.x_read[BLANK]))
    fresh = Implies(And(v.b, eq_binary(v.x_tapv, 0)), conj(fresh_parts))
    revisit = Implies(conj([v.b, gt_binary(v.x_tapv, 0),
                            eq_vector(v.alpha_time, v.x_tapv, -1)]),
                      eq_vector(v.x_read_vec, v.alpha_written_vec, -1))
    return And(fresh, revisit)


def _time_step_ssl(v, k):
    """x_time is alpha_time plus one, given that bit k is alpha_time's
    lowest zero."""
    return And(eq_vector(v.x_time, v.alpha_time, k), rightmost_one(v.x_time, k))


def _pos_step_ssl(v, direction, l):
    """x_pos is alpha_pos moved one cell in the direction, given that bit
    l is the bit the move flips."""
    return And(eq_vector(v.x_pos, v.alpha_pos, l),
               _pos_move(direction)(v.x_pos, l))


def _after_ssl(v, r, theta):
    """The successor cloud's shared vectors take over the persistent
    values: time, position and read symbol, plus the new state and the
    written symbol."""
    return conj([eq_vector(v.alpha_time, v.x_time, -1),
                 eq_vector(v.alpha_pos, v.x_pos, -1),
                 v.alpha_state[r], v.alpha_written[theta],
                 eq_vector(v.alpha_read_vec, v.x_read_vec, -1)])


def _compstep_ssl(v, r, theta, direction):
    """One computation step (r, theta, direction), as one implication

        (B & OR_k tg_k & OR_l pg_l)
            -> L(B & AND_k (tg_k -> time_k) & AND_l (pg_l -> pos_l) & <>after)

    with tg_k the lowest zero of alpha_time at bit k, pg_l the direction's
    position guard on alpha_pos at bit l, and time_k, pos_l the x_time and
    x_pos updates for that bit.  Its size is quadratic in N.

    It is equivalent, on every model whose L is an equivalence, to the
    conjunction over all pairs (k, l) of (B & tg_k & pg_l) -> L(B & time_k
    & pos_l & <>after).  The guards read only alpha vectors, and shared
    variables are L-formulas, so each guard has one truth value on a whole
    L-class and may move inside the L.  A lowest zero or lowest one is
    unique, so at most one tg_k and one pg_l hold, and the conjunctions
    inside the L reduce to the single live (time_k, pos_l) pair.
    """
    N = v.params.N
    pos_guard = _pos_guard(direction)
    tg = [rightmost_zero(v.alpha_time, k) for k in range(N)]
    pg = [pos_guard(v.alpha_pos, l) for l in range(N + 1)]
    body = conj([v.b]
                + [Implies(tg[k], _time_step_ssl(v, k)) for k in range(N)]
                + [Implies(pg[l], _pos_step_ssl(v, direction, l))
                   for l in range(N + 1)]
                + [Diamond(_after_ssl(v, r, theta))])
    return Implies(conj([v.b, disj(tg), disj(pg)]), L(body))


def _computation_ssl(v):
    # _compstep_ssl is looked up on each call, so the reference tests can swap
    # in the cubic encoding
    return computation(v, _compstep_ssl)


def _no_reject_ssl(v):
    return Not(v.alpha_state[v.params.atm.reject])


# The machine-encoding formula's conjuncts, named, in formula order.
_CONJUNCTS = (
    ("uniqueness", everywhere(_uniqueness_ssl)),
    ("start", _start_ssl),
    ("time_after_previous_visit", everywhere(_time_after_previous_visit)),
    ("get_the_right_symbol", everywhere(_get_the_right_symbol)),
    ("computation", everywhere(_computation_ssl)),
    ("no_reject", everywhere(_no_reject_ssl)),
)


def gen_f_ssl(params):
    """Formula satisfiable exactly when the machine accepts the input:
    six conjuncts fixing uniqueness, the start configuration, tape-cell
    bookkeeping, symbol lookups, the step relation, and rejection-freeness."""
    return gen_formula(SSL, params)


# ---------------------------------------------------------------------------
# Witness model for the machine-encoding formula.

def _tapv_value(tree, data, x):
    """Time after the previous visit to the cell of node x: zero when the
    cell is fresh, otherwise one past the time of the last earlier visit."""
    path = tree.path_from_root(x)
    target = data[x]["pos"]
    last = None
    for v in path[:-1]:
        if data[v]["pos"] == target:
            last = v
    return 0 if last is None else data[last]["time"] + 1


def _pw(v, x):
    return f"p_{v}_{x}"


def _uw(v, idx):
    fam, key = idx
    return f"u_{v}_{fam}_{key}"


def _sw(v, idx):
    fam, key = idx
    return f"s_{v}_{fam}_{key}"


def build_f_ssl_model(params, tree):
    """Witness model built from an accepting tree: one cloud per tree node
    (descendant points, carrier points, stopper points) plus a final cloud
    holding only carrier points."""
    atm = params.atm
    data = witness_data(params, tree)
    cat = f_ssl_catalog(params)
    # per-cloud carrier point index: one entry per shared-variable atom
    idx_set = [(fam, key) for fam, key, _ in cat.entries()
               if fam.startswith("A_")]
    nodes = tree.nodes()
    TOPV = "T"  # sentinel cloud label

    ancestors = {}  # node -> list of (ancestor-or-self)
    for x in nodes:
        ancestors[x] = tree.path_from_root(x)

    def s_indices(v):
        out = [("A_time", k) for k in ones(data[v]["time"])]
        out += [("A_pos", k) for k in ones(data[v]["pos"])]
        out.append(("A_state", data[v]["state"]))
        out.append(("A_written", data[v]["written"]))
        out.append(("A_read", data[v]["read"]))
        return out

    p_points = [(v, x) for x in nodes for v in ancestors[x]]
    u_points = [(v, i) for v in nodes + [TOPV] for i in idx_set]
    s_points = [(v, i) for v in nodes for i in s_indices(v)]

    worlds, bit = _sorted_bits(
        [_pw(v, x) for v, x in p_points] + [_uw(v, i) for v, i in u_points]
        + [_sw(v, i) for v, i in s_points])

    cloud = {v: [] for v in nodes + [TOPV]}
    for v, x in p_points:
        cloud[v].append(_pw(v, x))
    for v, i in u_points:
        cloud[v].append(_uw(v, i))
    for v, i in s_points:
        cloud[v].append(_sw(v, i))

    # p_v_x sees p_v'_x for v' between v and x on x's path; u_v_i sees
    # u_v'_i and s_v'_i for every descendant v' of v, and the final
    # cloud's u_T_i.  Rows build up from x towards the root, and from the
    # leaves (larger node ids) up.
    s_present = set(s_points)
    succ_d = {}
    for x in nodes:
        row = 0
        for v in reversed(ancestors[x]):
            row |= bit[_pw(v, x)]
            succ_d[_pw(v, x)] = row
    for i in idx_set:
        top = _uw(TOPV, i)
        succ_d[top] = bit[top]
        for v in reversed(nodes):
            row = bit[_uw(v, i)] | bit[top]
            if (v, i) in s_present:
                row |= bit[_sw(v, i)]
            for child in tree.children[v]:
                row |= succ_d[_uw(child, i)]
            succ_d[_uw(v, i)] = row
    for v, i in s_points:
        succ_d[_sw(v, i)] = bit[_sw(v, i)]

    valuation = {cat.atom("B"): {_pw(v, x) for v, x in p_points}}
    for fam, key in idx_set:
        valuation[cat.atom(fam, key)] = (
            {_uw(v, i) for v, i in u_points if i == (fam, key)}
            | {_sw(v, i) for v, i in s_points if i == (fam, key)})
    N = params.N
    for k in range(N):
        valuation[cat.atom("X_time", k)] = {
            _pw(v, x) for v, x in p_points if k in ones(data[x]["time"])}
        valuation[cat.atom("X_tapv", k)] = {
            _pw(v, x) for v, x in p_points if k in ones(_tapv_value(tree, data, x))}
    for k in range(N + 1):
        valuation[cat.atom("X_pos", k)] = {
            _pw(v, x) for v, x in p_points if k in ones(data[x]["pos"])}
    for a in atm.symbols:
        valuation[cat.atom("X_read", a)] = {
            _pw(v, x) for v, x in p_points if data[x]["read"] == a}

    return _witness(worlds, bit, cloud.values(), succ_d, valuation,
                    _pw(tree.root, tree.root))


# ---------------------------------------------------------------------------
# Accepting-tree extraction.

def _step_query_ssl(v, entry, k, l):
    """The L-neighbour of a step holds the new time and position in its
    persistent vectors; its []-successor is the successor's cloud."""
    r, theta, direction = entry
    return (conj([v.b, _time_step_ssl(v, k), _pos_step_ssl(v, direction, l)]),
            _after_ssl(v, r, theta))


def _written_symbol(v, data, nid, parent):
    return v.alpha_written[data[nid]["written"]]


SSL = Reduction(frame_class=CROSS_AXIOM, catalog=f_ssl_catalog,
                vocab=_SslVocab, conjuncts=_CONJUNCTS,
                step_query=_step_query_ssl,
                node_check=("written-symbols", _written_symbol),
                build_model=build_f_ssl_model, gen_counter=gen_counter_ssl,
                extract_counter=extract_counter_trace)


def extract_accepting_tree_ssl(model, r0, params):
    """Accepting tree and morphism from any model of the machine-encoding
    formula (see `reduction.grow_tree`)."""
    return grow_tree(SSL, model, r0, params)


def check_morphism_ssl(model, r0, params, tree, pi):
    """Root anchoring, edge preservation, the written-symbol shared
    variable and the configurations (see `reduction.check_morphism`)."""
    return check_morphism(SSL, model, r0, params, tree, pi)
