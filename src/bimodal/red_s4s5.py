"""Product-logic side of the reductions: the counter spec, and the
machine-encoding formula's vocabulary, named conjuncts, step queries and
product witness model.  `S4S5` hands them to the engine in
`bimodal.reduction`, which builds the counter and the machine encoding
from them.

The encoding's shared variables are LA over carrier atoms A
(`shared_s4s5`); persistent X vectors carry values across []-steps, and
the activity flag B_active guards the read-symbol transport.  One
builder, `_product_witness`, makes both witnesses: the counter's is the
machine witness's product over the path of counter values.
"""

from .formula import (Not, And, Box, L, Diamond, Implies, conj, disj,
                      eq_vector, eq_binary, rightmost_zero, unique, lt, leq,
                      gt_binary, persistent_macro, shared_s4s5,
                      shared_var_s4s5)
from .semantics import (BimodalModel, product_grid, product_point,
                        product_rows, S4S5_PRODUCT)
from .reduction import (Reduction, Counter, Vocabulary, family_catalog,
                        witness_data, everywhere, computation,
                        fresh_cell_symbols, no_reject, gen_formula, grow_tree,
                        gen_counter, build_counter, extract_counter,
                        increment_at, moved_at, _pos_guard)


def gen_counter_s4s5(n):
    """The product-logic counter formula, its persistent vector X carrying
    the incremented value across each []-step (see `reduction.gen_counter`)."""
    return gen_counter(S4S5, n)


def build_counter_s4s5_model(n):
    """The counter's product witness (see `reduction.build_counter`)."""
    return build_counter(S4S5, n)


def extract_counter_trace_s4s5(model, p0, n):
    """The product-logic counter's trace (see `reduction.extract_counter`)."""
    return extract_counter(S4S5, model, p0, n)


def _counter_witness(cat, n, values, parent):
    """The machine witness's product over the path of counter values, so
    the first factor carries the counter value (<=-ordered), the second
    the persistent X."""
    return _product_witness(cat, values, parent, lambda i: cat.bits("A", i),
                            lambda j: cat.bits("X", j))


# ---------------------------------------------------------------------------
# Machine-encoding formula.

def f_s4s5_catalog(params):
    """Atom layout: families in a fixed order ending with the scalar
    activity flag."""
    return family_catalog(params, ("A_time", "X_prevtime", "X_tapv", "A_pos",
                                   "X_pos", "A_prevpos", "X_prevpos",
                                   "A_state", "A_read", "A_written", "X_read",
                                   "B_active"))


class _S4Vocab(Vocabulary):
    """The common vocabulary over the shared variables LA, with the
    previous position, the time and position carries and the activity
    flag."""

    def __init__(self, params, cat):
        super().__init__(params, cat, shared_s4s5)
        N = params.N
        self.alpha_prevpos = self.shared_vector("A_prevpos", N + 1)
        self.x_prevtime = cat.vector("X_prevtime", N)
        self.x_prevpos = cat.vector("X_prevpos", N + 1)
        self.b_active = cat.formula("B_active")


def _persistence(v):
    return conj([persistent_macro(v.x_prevtime), persistent_macro(v.x_prevpos),
                 persistent_macro(v.x_pos), persistent_macro(v.x_tapv),
                 persistent_macro(v.x_read_vec)])


def _uniqueness_s4s5(v):
    return conj([unique(v.alpha_state_vec), unique(v.alpha_written_vec),
                 unique(v.x_read_vec)])


def _start_s4s5(v):
    N = v.params.N
    return conj([eq_binary(v.alpha_time, 0), eq_binary(v.alpha_pos, 2 ** N - 1),
                 v.alpha_state[v.params.atm.init]])


def _initial_symbols(v):
    return Implies(eq_binary(v.x_tapv, 0), fresh_cell_symbols(v))


def _written_symbols(v):
    guard = conj([gt_binary(v.x_tapv, 0),
                  eq_vector(v.x_tapv, v.alpha_time, -1), v.b_active])
    return Implies(guard, eq_vector(v.x_read_vec, v.alpha_written_vec, -1))


def _read_a_symbol(v):
    existence = L(conj([eq_vector(v.x_pos, v.alpha_pos, -1),
                        leq(v.x_tapv, v.alpha_time), v.b_active]))
    previous_visit = Implies(
        conj([gt_binary(v.x_tapv, 0),
              eq_vector(v.x_tapv, v.alpha_time, -1), v.b_active]),
        eq_vector(v.x_pos, v.alpha_prevpos, -1))
    becoming_inactive = Implies(
        And(eq_vector(v.x_pos, v.alpha_prevpos, -1),
            lt(v.x_tapv, v.alpha_time)),
        Not(v.b_active))
    staying_inactive = Implies(Not(v.b_active), Box(Not(v.b_active)))
    storing = Implies(
        conj([eq_vector(v.x_pos, v.alpha_pos, -1),
              leq(v.x_tapv, v.alpha_time), v.b_active]),
        eq_vector(v.alpha_read_vec, v.x_read_vec, -1))
    return conj([existence, previous_visit, becoming_inactive,
                 staying_inactive, storing])


def _after_s4s5(v, r, theta):
    """The successor cloud records the previous position, the new state
    and the written symbol."""
    return conj([eq_vector(v.alpha_prevpos, v.x_prevpos, -1),
                 v.alpha_state[r], v.alpha_written[theta]])


def _compstep_mid_s4s5(v):
    return And(eq_vector(v.x_prevtime, v.alpha_time, -1),
               eq_vector(v.x_prevpos, v.alpha_pos, -1))


def _compstep_s4s5(v, r, theta, direction):
    """One computation step (r, theta, direction), as one implication

        (OR_k tg_k & OR_l pg_l)
            -> L(mid & <>(AND_k (ctg_k -> time_k) & AND_l (cpg_l -> pos_l)
                          & after))

    with tg_k the lowest zero of alpha_time at bit k, pg_l the direction's
    position guard on alpha_pos at bit l, and ctg_k, cpg_l the same guards
    on the carries x_prevtime and x_prevpos.  Its size is quadratic in N.

    The whole formula is equivalent, on every commutator model, to the one
    whose step is the conjunction over all pairs (k, l) of (tg_k & pg_l) ->
    L(mid & <>(time_k & pos_l & after)).  A lowest zero or lowest one is
    unique, so at most one tg_k and one pg_l hold at a point.  Under the
    <> the alpha vectors belong to another cloud, so the guards there
    test the carries instead: mid copies alpha_time and alpha_pos into
    x_prevtime and x_prevpos, and the alpha vectors are shared variables,
    constant on the L-class, so ctg_k and cpg_l at the mid point agree
    with tg_k and pg_l.  The carries are []-persistent at every point that
    K[] reaches from a point satisfying _persistence (commutativity moves
    the L-step before the []-step, and [] is transitive), so they keep
    that value at every []-successor of the mid point.
    """
    N = v.params.N
    pos_guard = _pos_guard(direction)
    guard = And(disj([rightmost_zero(v.alpha_time, k) for k in range(N)]),
                disj([pos_guard(v.alpha_pos, l) for l in range(N + 1)]))
    body = conj([Implies(rightmost_zero(v.x_prevtime, k),
                         increment_at(v.alpha_time, v.x_prevtime, k))
                 for k in range(N)]
                + [Implies(pos_guard(v.x_prevpos, l),
                           moved_at(v.alpha_pos, v.x_prevpos, direction, l))
                   for l in range(N + 1)]
                + [_after_s4s5(v, r, theta)])
    return Implies(guard, L(And(_compstep_mid_s4s5(v), Diamond(body))))


def _computation_s4s5(v):
    # _compstep_s4s5 is looked up on each call, so the reference tests can swap
    # in the cubic encoding
    return computation(v, _compstep_s4s5)


# The machine-encoding formula's conjuncts, named, in formula order.
_CONJUNCTS = (
    ("persistence", _persistence),
    ("uniqueness", everywhere(_uniqueness_s4s5)),
    ("start", _start_s4s5),
    ("initial_symbols", everywhere(_initial_symbols)),
    ("written_symbols", everywhere(_written_symbols)),
    ("read_a_symbol", everywhere(_read_a_symbol)),
    ("computation", everywhere(_computation_s4s5)),
    ("no_reject", everywhere(no_reject)),
)


def gen_f_s4s5(params):
    """Formula satisfiable exactly when the machine accepts the input:
    eight conjuncts fixing persistence, uniqueness, the start
    configuration, symbol lookups (fresh and rewritten cells), the
    read-symbol transport, the step relation, and rejection-freeness."""
    return gen_formula(S4S5, params)


# ---------------------------------------------------------------------------
# Product witness model built from an accepting tree.

def build_f_s4s5_model(params, tree):
    """Product witness model over the accepting tree: the first factor is
    the tree under ancestry, the second indexes the persistent carriers."""
    data = witness_data(params, tree)
    cat = f_s4s5_catalog(params)
    root = tree.root

    def first(v):
        d = data[v]
        out = (cat.bits("A_time", d["time"]) + cat.bits("A_pos", d["pos"])
               + [cat.atom("A_state", d["state"]), cat.atom("A_read", d["read"]),
                  cat.atom("A_written", d["written"])])
        if v != root:
            out += cat.bits("A_prevpos", data[tree.parent[v]]["pos"])
        return out

    def second(x):
        d = data[x]
        out = (cat.bits("X_tapv", d["tapv"]) + cat.bits("X_pos", d["pos"])
               + [cat.atom("X_read", d["read"])])
        if x != root:
            out += (cat.bits("X_prevtime", d["time"] - 1)
                    + cat.bits("X_prevpos", data[tree.parent[x]]["pos"]))
        return out

    return _product_witness(cat, tree.nodes(), tree.parent, first, second,
                            active=cat.atom("B_active"))


def _product_witness(cat, nodes, parent, first, second, active=None):
    """The product witness over a tree whose nodes come parents first,
    with parent links (None at the root): the first factor is the tree
    under ancestry, the second the same nodes under the full relation,
    built as rows by `product_rows` in `product_grid`'s cell order.  Of
    the catalog's atoms, first(v) hold on v's whole row of cells (v, *),
    second(x) on x's whole column (*, x), and active, if given, on the
    ancestry cells (v, x) with v on x's root path.  The designated world
    is (root, root)."""
    firsts, seconds, names = product_grid(nodes, nodes)
    m = len(firsts)
    row_of = {v: i for i, v in enumerate(firsts)}
    column_of = {x: j for j, x in enumerate(seconds)}
    # v's subtree as a mask over rows and over columns, from the leaves up
    rows = {v: 1 << row_of[v] for v in nodes}
    columns = {x: 1 << column_of[x] for x in nodes}
    for v in reversed(nodes):
        if parent[v] is not None:
            rows[parent[v]] |= rows[v]
            columns[parent[v]] |= columns[v]
    full = (1 << m) - 1
    first_column = sum(1 << i * m for i in range(m))
    masks = dict.fromkeys((atom for _, _, atom in cat.entries()), 0)
    for w in nodes:
        for atom in first(w):
            masks[atom] |= full << row_of[w] * m
        for atom in second(w):
            masks[atom] |= first_column << column_of[w]
    if active is not None:
        masks[active] |= sum(columns[v] << row_of[v] * m for v in nodes)
    designated = product_point(nodes[0], nodes[0])
    model = BimodalModel.from_rows(
        names, *product_rows([rows[v] for v in firsts], [full] * m), masks,
        frame_class=S4S5_PRODUCT, designated=designated)
    return model, designated


# ---------------------------------------------------------------------------
# Accepting-tree extraction.

def _step_query_s4s5(v, entry, k, l):
    """The L-neighbour of a step copies time and position into the
    carries; its []-successor is the successor's cloud, whose shared
    vectors pick up the incremented time and the moved position from the
    carries, given the live time bit k and position bit l."""
    r, theta, direction = entry
    return (_compstep_mid_s4s5(v),
            conj([increment_at(v.alpha_time, v.x_prevtime, k),
                  moved_at(v.alpha_pos, v.x_prevpos, direction, l),
                  _after_s4s5(v, r, theta)]))


def _prevpos_and_written(v, data, nid, parent):
    return And(eq_binary(v.alpha_prevpos, data[parent]["pos"]),
               v.alpha_written[data[nid]["written"]])


S4S5 = Reduction(frame_class=S4S5_PRODUCT,
                 catalog=f_s4s5_catalog, vocab=_S4Vocab,
                 conjuncts=_CONJUNCTS, step_query=_step_query_s4s5,
                 node_check=("prevpos-and-written", _prevpos_and_written),
                 build_model=build_f_s4s5_model,
                 counter=Counter(marker=None, shared=shared_var_s4s5,
                                 lead=lambda b, x: persistent_macro(x),
                                 witness=_counter_witness))


def extract_accepting_tree_s4s5(model, r0, params):
    """Accepting tree and morphism from any commutator model of the
    machine-encoding formula (see `reduction.grow_tree`)."""
    return grow_tree(S4S5, model, r0, params)
