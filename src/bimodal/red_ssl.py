"""Subset-space side of the reductions: the counter spec, and the
machine-encoding formula's vocabulary, named conjuncts, step queries and
witness model.  `SSL` hands them to the engine in `bimodal.reduction`,
which builds the counter and the machine encoding from them.

The encoding's shared variables are L(A & []LB) over carrier atoms A and
the class marker B (`shared_ssl`); the witness model has one cloud per
tree node plus a final cloud of carrier points.  One builder,
`_cloud_witness`, makes both witnesses: the counter's is the machine
witness's construction over the path of counter values.
"""

from .formula import (And, Implies, L, Diamond, conj, disj, eq_vector,
                      eq_binary, rightmost_zero, unique, neq, lt, leq,
                      neq_plus1, gt_binary, shared_ssl, shared_var_ssl)
from .relations import ones
from .semantics import BimodalModel, CROSS_AXIOM
from .atm import BLANK
from .reduction import (Reduction, Counter, Vocabulary, family_catalog,
                        witness_data, everywhere, computation,
                        fresh_cell_symbols, no_reject, gen_formula, grow_tree,
                        gen_counter, build_counter, extract_counter,
                        increment_at, moved_at, _pos_guard)
# The shared engine's public names stay importable from here.
from .reduction import (ExtractionError, ReductionParams, window_offset,  # noqa: F401
                        window_pos, entries_left_then_right)


def gen_counter_ssl(n):
    """The subset-space counter formula (see `reduction.gen_counter`)."""
    return gen_counter(SSL, n)


def build_counter_ssl_model(n):
    """The counter's cloud witness (see `reduction.build_counter`)."""
    return build_counter(SSL, n)


def extract_counter_trace(model, p0, n):
    """The subset-space counter's trace (see `reduction.extract_counter`)."""
    return extract_counter(SSL, model, p0, n)


def _counter_witness(cat, n, values, parent):
    """The machine witness's construction over the path of counter values,
    with carrier k for bit k of the value and the final cloud 2^n."""
    return _cloud_witness(cat, values, parent, len(values),
                          [(k, cat.atom("A", k)) for k in range(n)], ones,
                          lambda j: cat.bits("X", j))


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
    fresh = Implies(And(v.b, eq_binary(v.x_tapv, 0)), fresh_cell_symbols(v))
    revisit = Implies(conj([v.b, gt_binary(v.x_tapv, 0),
                            eq_vector(v.alpha_time, v.x_tapv, -1)]),
                      eq_vector(v.x_read_vec, v.alpha_written_vec, -1))
    return And(fresh, revisit)


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
                + [Implies(tg[k], increment_at(v.x_time, v.alpha_time, k))
                   for k in range(N)]
                + [Implies(pg[l], moved_at(v.x_pos, v.alpha_pos, direction, l))
                   for l in range(N + 1)]
                + [Diamond(_after_ssl(v, r, theta))])
    return Implies(conj([v.b, disj(tg), disj(pg)]), L(body))


def _computation_ssl(v):
    # _compstep_ssl is looked up on each call, so the reference tests can swap
    # in the cubic encoding
    return computation(v, _compstep_ssl)


# The machine-encoding formula's conjuncts, named, in formula order.
_CONJUNCTS = (
    ("uniqueness", everywhere(_uniqueness_ssl)),
    ("start", _start_ssl),
    ("time_after_previous_visit", everywhere(_time_after_previous_visit)),
    ("get_the_right_symbol", everywhere(_get_the_right_symbol)),
    ("computation", everywhere(_computation_ssl)),
    ("no_reject", everywhere(no_reject)),
)


def gen_f_ssl(params):
    """Formula satisfiable exactly when the machine accepts the input:
    six conjuncts fixing uniqueness, the start configuration, tape-cell
    bookkeeping, symbol lookups, the step relation, and rejection-freeness."""
    return gen_formula(SSL, params)


# ---------------------------------------------------------------------------
# Witness model for the machine-encoding formula.

def build_f_ssl_model(params, tree):
    """Witness model built from an accepting tree: one cloud per tree node
    (descendant points, carrier points, stopper points) plus a final cloud
    "T" holding only carrier points."""
    data = witness_data(params, tree)
    cat = f_ssl_catalog(params)
    carriers = [(f"{fam}_{key}", atom) for fam, key, atom in cat.entries()
                if fam.startswith("A_")]

    def stoppers(v):
        d = data[v]
        return ([f"A_time_{k}" for k in ones(d["time"])]
                + [f"A_pos_{k}" for k in ones(d["pos"])]
                + [f"A_state_{d['state']}", f"A_written_{d['written']}",
                   f"A_read_{d['read']}"])

    def x_true(x):
        d = data[x]
        return (cat.bits("X_time", d["time"]) + cat.bits("X_tapv", d["tapv"])
                + cat.bits("X_pos", d["pos"]) + [cat.atom("X_read", d["read"])])

    return _cloud_witness(cat, tree.nodes(), tree.parent, "T", carriers,
                          stoppers, x_true)


def _cloud_witness(cat, nodes, parent, top, carriers, stoppers, x_true):
    """The cross-axiom witness over a tree whose nodes come parents first,
    with parent links (None at the root), on the atoms of the catalog cat.
    carriers are (label, atom) pairs, stoppers(v) the carrier labels
    stopped at node v.

    Node v's cloud holds p_v_x for each descendant-or-self x, u_v_c for
    each carrier label c and s_v_c for each stopper c of v; the final
    cloud top holds only the u_top_c.  p_v_x sees p_v'_x for each v' from
    v down to x; u_v_c sees u_v'_c and s_v'_c for each descendant-or-self
    v', and u_top_c; an s-point sees itself.  The marker B holds at every
    p-point, a carrier's atom at its u- and s-points, and x_true(x), a
    list of atoms of the X families, at the p-points p_v_x.  The
    designated world is p_root_root."""
    path = {}
    for x in nodes:
        path[x] = path.get(parent[x], []) + [x]
    clouds = {v: [f"u_{v}_{c}" for c, _ in carriers] for v in [*nodes, top]}
    for v in nodes:
        clouds[v] += [f"s_{v}_{c}" for c in stoppers(v)]
    for x in nodes:
        for v in path[x]:
            clouds[v].append(f"p_{v}_{x}")
    worlds = sorted(w for members in clouds.values() for w in members)
    bit = {w: 1 << i for i, w in enumerate(worlds)}

    succ_d = dict(bit)  # the rows of the s-points and of the final cloud
    marker = cat.atom("B")
    x_atoms = [atom for fam, _, atom in cat.entries() if fam.startswith("X")]
    masks = dict.fromkeys([marker, *(atom for _, atom in carriers), *x_atoms], 0)
    # each row is the next one's plus its own point, so p rows build up
    # from x towards the root and u rows from the leaves up
    for x in nodes:
        row = 0
        for v in reversed(path[x]):
            row |= bit[f"p_{v}_{x}"]
            succ_d[f"p_{v}_{x}"] = row
        # row now holds every p_v_x
        masks[marker] |= row
        for atom in x_true(x):
            masks[atom] |= row
    for c, atom in carriers:
        below = dict.fromkeys(nodes, bit[f"u_{top}_{c}"])
        for v in reversed(nodes):
            row = below[v] | bit[f"u_{v}_{c}"] | bit.get(f"s_{v}_{c}", 0)
            succ_d[f"u_{v}_{c}"] = row
            if parent[v] is not None:
                below[parent[v]] |= row
        # the root's u-point sees every point of its carrier
        masks[atom] = row

    succ_l = {}
    for members in clouds.values():
        row = sum(bit[w] for w in members)
        succ_l.update(dict.fromkeys(members, row))
    designated = f"p_{nodes[0]}_{nodes[0]}"
    model = BimodalModel.from_rows(
        worlds, [succ_d[w] for w in worlds], [succ_l[w] for w in worlds],
        masks, frame_class=CROSS_AXIOM, designated=designated)
    return model, designated


# ---------------------------------------------------------------------------
# Accepting-tree extraction.

def _step_query_ssl(v, entry, k, l):
    """The L-neighbour of a step holds the new time and position in its
    persistent vectors; its []-successor is the successor's cloud."""
    r, theta, direction = entry
    return (conj([v.b, increment_at(v.x_time, v.alpha_time, k),
                  moved_at(v.x_pos, v.alpha_pos, direction, l)]),
            _after_ssl(v, r, theta))


def _written_symbol(v, data, nid, parent):
    return v.alpha_written[data[nid]["written"]]


SSL = Reduction(frame_class=CROSS_AXIOM, catalog=f_ssl_catalog,
                vocab=_SslVocab, conjuncts=_CONJUNCTS,
                step_query=_step_query_ssl,
                node_check=("written-symbols", _written_symbol),
                build_model=build_f_ssl_model,
                counter=Counter(marker="B", shared=shared_var_ssl,
                                lead=lambda b, x: b, witness=_counter_witness))


def extract_accepting_tree_ssl(model, r0, params):
    """Accepting tree and morphism from any model of the machine-encoding
    formula (see `reduction.grow_tree`)."""
    return grow_tree(SSL, model, r0, params)
